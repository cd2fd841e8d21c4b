import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ancillary_pricing.core import EncodedDataset, PolicyTag, PriceGrid
from ancillary_pricing.mlp import TrainConfig, init_mlp
from ancillary_pricing.pricing_net import (
    DnnClModel,
    _batch_loss,
    casewise_loss,
    custom_loss,
    recommend_price,
    train_dnncl,
)


GRID8 = PriceGrid(tuple(float(p) for p in range(10, 90, 10)))


class TestWtpFactor:
    """sigma = (j - j*) * (-1)^y, read off the breakdown at j* = 3."""

    def test_not_purchased(self):
        _, _, bd = custom_loss(30.0, 0, GRID8, c1=0.8, c2=1.5)
        assert bd.j_star == 3
        assert bd.sigma[5 - 1] == 2.0

    def test_purchased_flips_sign(self):
        _, _, bd = custom_loss(30.0, 1, GRID8, c1=0.8, c2=1.5)
        assert bd.sigma[5 - 1] == -2.0

    @pytest.mark.parametrize("y", [0, 1])
    def test_zero_at_snapped_index(self, y):
        _, _, bd = custom_loss(30.0, y, GRID8, c1=0.8, c2=1.5)
        assert bd.sigma[3 - 1] == 0.0


class TestLatentDelta:
    """delta = y where sigma >= 0, else 0, read off the breakdown at j* = 4."""

    def test_purchased_nonnegative_factor(self):
        _, _, bd = custom_loss(40.0, 1, GRID8, c1=0.8, c2=1.5)
        assert bd.sigma[2 - 1] == 2.0
        assert bd.delta[2 - 1] == 1

    def test_purchased_negative_factor(self):
        _, _, bd = custom_loss(40.0, 1, GRID8, c1=0.8, c2=1.5)
        assert bd.sigma[6 - 1] == -2.0
        assert bd.delta[6 - 1] == 0

    @pytest.mark.parametrize("sigma", [-3.0, 0.0, 4.0])
    def test_not_purchased_always_zero(self, sigma):
        _, _, bd = custom_loss(40.0, 0, GRID8, c1=0.8, c2=1.5)
        j = int(sigma) + 4
        assert bd.sigma[j - 1] == sigma
        assert bd.delta[j - 1] == 0


class TestPriceBounds:
    """The bounds of the grid point 10.0, the cheapest of ``grid3``."""

    def test_purchased_side(self, grid3):
        _, _, bd = custom_loss(20.0, 1, grid3, c1=0.8, c2=1.5)
        assert bd.delta[0] == 1
        assert (bd.lower[0], bd.upper[0]) == (10.0, 15.0)

    def test_not_purchased_side(self, grid3):
        _, _, bd = custom_loss(20.0, 0, grid3, c1=0.8, c2=1.5)
        assert bd.delta[0] == 0
        assert (bd.lower[0], bd.upper[0]) == (8.0, 10.0)

    @pytest.mark.parametrize("delta", [0, 1])
    def test_unit_multipliers_collapse_bounds(self, grid3, delta):
        _, _, bd = custom_loss(20.0, delta, grid3, c1=1.0, c2=1.0)
        assert bd.delta[0] == delta
        assert bd.lower[0] == bd.upper[0] == 10.0


class TestCustomLoss:
    def test_purchased_enumeration(self, grid3):
        loss, slope, bd = custom_loss(20.0, 1, grid3, c1=0.8, c2=1.5)
        assert loss == 5.0
        assert slope == 1.0
        assert bd.j_star == 2
        assert list(bd.active) == [True, False, False]

    def test_not_purchased_enumeration(self, grid3):
        loss, slope, bd = custom_loss(20.0, 0, grid3, c1=0.8, c2=1.5)
        assert loss == 4.0
        assert slope == -1.0
        assert list(bd.active) == [False, False, True]

    def test_slack_hinges_zero_loss(self):
        grid = PriceGrid((10.0, 12.0))
        loss, slope, _ = custom_loss(10.0, 0, grid, c1=0.8, c2=1.5)
        assert loss == 0.0
        assert slope == 0.0

    def test_breakdown_contributions_only_when_active(self, grid3):
        _, _, bd = custom_loss(25.0, 0, grid3, c1=0.99, c2=1.5)
        inactive_total = ((bd.phi_lb + bd.phi_ub) * ~bd.active).sum()
        active_total = ((bd.phi_lb + bd.phi_ub) * bd.active).sum()
        loss, _, _ = custom_loss(25.0, 0, grid3, c1=0.99, c2=1.5)
        assert loss == active_total
        assert inactive_total >= 0.0


class TestCasewiseOracle:
    @pytest.mark.parametrize("y,expected", [(1, 5.0), (0, 4.0)])
    def test_matches_hand_enumerations(self, grid3, y, expected):
        assert casewise_loss(20.0, y, grid3, c1=0.8, c2=1.5) == expected
        loss, _, _ = custom_loss(20.0, y, grid3, c1=0.8, c2=1.5)
        assert loss == casewise_loss(20.0, y, grid3, c1=0.8, c2=1.5)

    def test_purchase_at_floor_is_free(self, grid3):
        assert casewise_loss(10.0, 1, grid3, c1=0.8, c2=1.2) == 0.0

    def test_no_purchase_at_ceiling_is_free(self, grid3):
        assert casewise_loss(30.0, 0, grid3, c1=0.8, c2=1.2) == 0.0


_grids = st.lists(
    st.floats(min_value=1.0, max_value=1000.0, allow_nan=False, allow_infinity=False),
    min_size=2, max_size=7, unique=True,
).map(lambda xs: PriceGrid(tuple(sorted(xs))))


@given(grid=_grids, y=st.integers(0, 1),
       c1=st.floats(min_value=0.05, max_value=0.99),
       c2=st.floats(min_value=1.01, max_value=3.0),
       t=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=300)
def test_custom_loss_equals_casewise_everywhere(grid, y, c1, c2, t):
    raw = grid.p_min + t * (grid.p_max - grid.p_min)
    loss, _, _ = custom_loss(raw, y, grid, c1, c2)
    assert loss == casewise_loss(raw, y, grid, c1, c2)
    assert loss >= 0.0


_long_grids = st.lists(
    st.floats(min_value=1.0, max_value=1000.0, allow_nan=False, allow_infinity=False),
    min_size=8, max_size=12, unique=True,
).map(lambda xs: PriceGrid(tuple(sorted(xs))))


@given(grid=_long_grids,
       sessions=st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0),
                                   st.integers(0, 1)), min_size=2, max_size=6),
       c1=st.floats(min_value=0.05, max_value=0.99),
       c2=st.floats(min_value=1.01, max_value=3.0))
@settings(max_examples=300)
def test_each_batch_row_is_its_one_session_loss_on_long_grids(grid, sessions, c1, c2):
    """On 8 to 12 points, where a pairwise sum would round differently from
    the oracle: ``custom_loss`` equals ``casewise_loss`` exactly, and each row
    of a batch is bit for bit that session's one-row result."""
    raws = np.array([grid.p_min + t * (grid.p_max - grid.p_min) for t, _ in sessions])
    labels = np.array([y for _, y in sessions])
    batch_loss, batch_slope = _batch_loss(raws, labels, grid, c1, c2)
    for i, (raw, y) in enumerate(zip(raws.tolist(), labels.tolist())):
        loss, slope, _ = custom_loss(raw, y, grid, c1, c2)
        assert loss == casewise_loss(raw, y, grid, c1, c2)
        one_loss, one_slope = _batch_loss(np.array([raw]), np.array([y]), grid, c1, c2)
        assert batch_loss[i:i + 1].tobytes() == one_loss.tobytes()
        assert batch_slope[i:i + 1].tobytes() == one_slope.tobytes()
        assert slope == one_slope[0]


def _kink_distances(raw, grid, c1, c2):
    kinks = []
    for p in grid.prices:
        kinks.extend([p, c1 * p, c2 * p])
    for a, b in zip(grid.prices, grid.prices[1:]):
        kinks.append((a + b) / 2.0)  # snap boundary
    return min(abs(raw - k) for k in kinks)


def test_subgradient_matches_finite_differences_away_from_kinks():
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 100:
        prices = np.sort(rng.uniform(5.0, 100.0, size=rng.integers(2, 7)))
        if np.any(np.diff(prices) < 1e-3):
            continue
        grid = PriceGrid(tuple(prices))
        c1 = rng.uniform(0.5, 0.95)
        c2 = rng.uniform(1.05, 2.0)
        y = int(rng.integers(0, 2))
        raw = rng.uniform(grid.p_min, grid.p_max)
        if _kink_distances(raw, grid, c1, c2) < 1e-3:
            continue
        h = 1e-5
        loss_up, _, _ = custom_loss(raw + h, y, grid, c1, c2)
        loss_down, _, _ = custom_loss(raw - h, y, grid, c1, c2)
        numeric = (loss_up - loss_down) / (2 * h)
        _, analytic, _ = custom_loss(raw, y, grid, c1, c2)
        assert numeric == pytest.approx(analytic, abs=1e-6)
        checked += 1


def test_minimizer_ordering_purchased_below_not_purchased(grid3):
    # the hinge structure parks purchases at the cheap end of the grid and
    # non-purchases near the top: the first loss-minimizing sweep point for
    # y=1 never exceeds the one for y=0
    for c1, c2 in [(0.8, 1.2), (0.6, 1.5), (0.95, 1.05)]:
        sweep = np.linspace(grid3.p_min, grid3.p_max, 801)
        losses = {
            y: np.array([custom_loss(f, y, grid3, c1, c2)[0] for f in sweep])
            for y in (0, 1)
        }
        argmin_first = {y: sweep[int(np.argmin(losses[y]))] for y in (0, 1)}
        assert argmin_first[1] <= argmin_first[0]


class TestDnnClModel:
    def test_multiplier_validation(self, grid3):
        mlp = init_mlp([2, 3, 1], seed=0)
        with pytest.raises(ValueError):
            DnnClModel(mlp=mlp, grid=grid3, c1=1.2, c2=1.5)
        with pytest.raises(ValueError):
            DnnClModel(mlp=mlp, grid=grid3, c1=0.8, c2=0.9)
        for c2 in (math.inf, math.nan):
            with pytest.raises(ValueError, match="c2 must be finite"):
                DnnClModel(mlp=mlp, grid=grid3, c1=0.8, c2=c2)

    def test_raw_price_spans_grid_range(self, grid3):
        rng = np.random.default_rng(1)
        mlp = init_mlp([4, 8, 1], seed=5)
        for w in mlp.weights:
            w *= 10.0  # push the sigmoid toward its asymptotes
        model = DnnClModel(mlp=mlp, grid=grid3, c1=0.8, c2=1.2)
        raw = model.raw_price_batch(rng.normal(size=(10_000, 4)))
        assert np.all(raw >= grid3.p_min)
        assert np.all(raw <= grid3.p_max)


def _fixed_output_model(target_raw: float, grid: PriceGrid) -> DnnClModel:
    s = (target_raw - grid.p_min) / (grid.p_max - grid.p_min)
    mlp = init_mlp([1, 1, 1], seed=0)
    mlp.weights[0][:] = 0.0
    mlp.biases[0][:] = 0.0
    mlp.weights[1][:] = 0.0
    mlp.biases[1][:] = math.log(s / (1.0 - s))
    return DnnClModel(mlp=mlp, grid=grid, c1=0.8, c2=1.2)


class TestRecommendPrice:
    def test_snaps_down(self, grid3):
        model = _fixed_output_model(14.9, grid3)
        quote = recommend_price(model, np.array([0.0]))
        assert quote.recommended_price == 10.0
        assert quote.policy_tag is PolicyTag.DNN_CL
        assert quote.purchase_prob_estimate is None

    def test_exact_grid_price_served(self, grid3):
        model = _fixed_output_model(20.0, grid3)
        quote = recommend_price(model, np.array([0.0]))
        assert quote.recommended_price == 20.0

    def test_random_inputs_stay_in_range(self, grid3):
        rng = np.random.default_rng(3)
        mlp = init_mlp([3, 6, 1], seed=9)
        model = DnnClModel(mlp=mlp, grid=grid3, c1=0.8, c2=1.2)
        for _ in range(200):
            quote = recommend_price(model, rng.normal(size=3))
            assert grid3.p_min <= quote.recommended_price <= grid3.p_max


def _drift_dataset(n, label, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, 3))
    return EncodedDataset(features=feats, prices=np.full(n, 50.0),
                          labels=np.full(n, label, dtype=int), p_max=50.0)


GRID5 = PriceGrid((10.0, 20.0, 30.0, 40.0, 50.0))


def _mean_raw_after(train, grid, epochs, c1, c2):
    config = TrainConfig(learning_rate=0.05, decay=0.0, batch_size=32,
                         epochs=epochs, seed=0)
    result = train_dnncl(train, grid, hidden=(8,), config=config, c1=c1, c2=c2)
    return float(result.model.raw_price_batch(train.features).mean()), result


class TestTrainDnnCl:
    def test_all_purchases_with_wide_ceiling_never_drift_down(self):
        # c2 * p_min covers the whole grid: every purchased-side hinge is
        # slack, so the recommendation must not move
        train = _drift_dataset(128, label=1)
        means = [_mean_raw_after(train, GRID5, e, c1=0.8, c2=5.0)[0] for e in range(6)]
        assert all(b >= a - 1e-12 for a, b in zip(means, means[1:]))

    def test_all_non_purchases_with_low_floor_never_drift_up(self):
        train = _drift_dataset(128, label=0)
        means = [_mean_raw_after(train, GRID5, e, c1=0.15, c2=1.2)[0] for e in range(6)]
        assert all(b <= a + 1e-12 for a, b in zip(means, means[1:]))

    def test_mixed_labels_loss_decreases(self):
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(256, 3))
        labels = (feats[:, 0] > 0).astype(int)
        train = EncodedDataset(features=feats, prices=np.full(256, 50.0),
                               labels=labels, p_max=50.0)
        config = TrainConfig(learning_rate=0.02, decay=0.0, batch_size=32,
                             epochs=12, seed=1)
        result = train_dnncl(train, GRID5, hidden=(8,), config=config, c1=0.8, c2=1.2)
        assert result.epoch_mean_loss[-1] < result.epoch_mean_loss[0]

    def test_zero_epochs_equals_init(self):
        train = _drift_dataset(32, label=1)
        config = TrainConfig(epochs=0, seed=4)
        result = train_dnncl(train, GRID5, hidden=(4,), config=config)
        fresh = init_mlp([3, 4, 1], seed=4)
        for w1, w2 in zip(result.model.mlp.weights, fresh.weights):
            assert np.array_equal(w1, w2)

    def test_deterministic(self):
        train = _drift_dataset(64, label=0, seed=5)
        config = TrainConfig(epochs=4, seed=8)
        r1 = train_dnncl(train, GRID5, hidden=(6,), config=config)
        r2 = train_dnncl(train, GRID5, hidden=(6,), config=config)
        for w1, w2 in zip(r1.model.mlp.weights, r2.model.mlp.weights):
            assert np.array_equal(w1, w2)
        assert r1.epoch_mean_loss == r2.epoch_mean_loss
