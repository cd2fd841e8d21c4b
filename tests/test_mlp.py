import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ancillary_pricing.core import EncodedDataset, PriceGrid, grid_rows, sigmoid
from ancillary_pricing.errors import BadArchitecture, DimensionMismatch, SingleClassDataset
from ancillary_pricing.metrics import auc_roc
from ancillary_pricing.mlp import (
    MlpDemandModel,
    TrainConfig,
    _backward,
    _loss_and_grads,
    forward,
    grad_check,
    init_mlp,
    learning_rate_at,
    train_app,
    weighted_ce_loss,
)
from ancillary_pricing.pricing_net import train_dnncl


class TestInit:
    def test_deterministic(self):
        m1 = init_mlp([4, 8, 1], seed=3)
        m2 = init_mlp([4, 8, 1], seed=3)
        for w1, w2 in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)

    def test_biases_zero(self):
        m = init_mlp([4, 8, 1], seed=0)
        for b in m.biases:
            assert np.all(b == 0.0)

    def test_weight_mean_within_three_sigma(self):
        m = init_mlp([100, 100, 1], seed=42)
        w = m.weights[0]  # 10^4 draws from U(-limit, limit)
        limit = math.sqrt(6.0 / 200.0)
        se = limit / math.sqrt(3.0 * w.size)
        assert abs(w.mean()) <= 3.0 * se

    def test_bad_architectures(self):
        with pytest.raises(BadArchitecture):
            init_mlp([4, 1])  # no hidden layer
        with pytest.raises(BadArchitecture):
            init_mlp([4, 0, 1])
        with pytest.raises(BadArchitecture):
            init_mlp([4, 8, 2])  # multi-unit output


class TestForward:
    def test_zero_weights_give_half(self):
        m = init_mlp([3, 4, 1], seed=0)
        for w in m.weights:
            w[:] = 0.0
        assert forward(m, np.zeros(3)) == pytest.approx(0.5)
        assert forward(m, np.array([1.0, -2.0, 3.0])) == pytest.approx(0.5)

    def test_hand_computed_forward(self):
        m = init_mlp([2, 2, 1], seed=0)
        m.weights[0][:] = np.array([[0.3, -0.5], [0.8, 0.1]])
        m.biases[0][:] = np.array([0.1, -0.2])
        m.weights[1][:] = np.array([[1.2], [-0.7]])
        m.biases[1][:] = np.array([0.05])
        x = [0.4, -1.1]

        h1 = max(0.0, 0.4 * 0.3 + (-1.1) * 0.8 + 0.1)
        h2 = max(0.0, 0.4 * (-0.5) + (-1.1) * 0.1 + (-0.2))
        z = h1 * 1.2 + h2 * (-0.7) + 0.05
        expected = 1.0 / (1.0 + math.exp(-z))
        assert forward(m, np.array(x)) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        m = init_mlp([3, 4, 1], seed=0)
        with pytest.raises(DimensionMismatch):
            forward(m, np.zeros(5))

    def test_output_strictly_inside_unit_interval(self):
        m = init_mlp([2, 3, 1], seed=0)
        for w in m.weights:
            w[:] = 1e4
        p = forward(m, np.array([1e3, 1e3]))
        assert 0.0 < p < 1.0


class TestDropout:
    """Dropout is applied only in training, through ``_loss_and_grads``."""

    @staticmethod
    def _ce(labels):
        return lambda out: weighted_ce_loss(out, np.asarray(labels, dtype=float))

    def test_zero_rate_equals_no_dropout(self):
        m = init_mlp([3, 5, 1], seed=1)
        x = np.array([[0.5, -0.2, 1.4], [0.1, 0.3, -0.7]])
        loss_fn = self._ce([1, 0])
        plain = _loss_and_grads(m, x, loss_fn)
        zero = _loss_and_grads(m, x, loss_fn, dropout_rate=0.0, rng=np.random.default_rng(0))
        assert zero[0].tobytes() == plain[0].tobytes()
        for a, b in zip([*zero[1], *zero[2]], [*plain[1], *plain[2]]):
            assert a.tobytes() == b.tobytes()
        # and without dropout the loss is the loss of the inference output
        assert plain[0].tobytes() == loss_fn(forward(m, x))[0].tobytes()

    def test_half_rate_changes_the_per_sample_loss(self):
        m = init_mlp([3, 32, 1], seed=4)
        x = np.array([[0.5, 0.5, 0.5]])
        loss_fn = self._ce([1])
        dropped, _, _ = _loss_and_grads(m, x, loss_fn, dropout_rate=0.5,
                                        rng=np.random.default_rng(0))
        plain, _, _ = _loss_and_grads(m, x, loss_fn)
        assert dropped[0] != plain[0]


def _oracle_forward_cached(model, inputs, dropout_rate=0.0, rng=None):
    """``mlp._forward_cached`` as each layer's expression allocated it, a new
    array per step: ``maximum(a @ w + b, 0)``, then ``a * mask``."""
    a = inputs
    activations, masks = [a], []
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        if layer < model.n_layers - 1:
            a = np.maximum(z, 0.0)
            mask = None
            if dropout_rate > 0.0:
                keep = rng.random(a.shape) >= dropout_rate
                mask = keep / (1.0 - dropout_rate)
                a = a * mask
            masks.append(mask)
        else:
            a = sigmoid(z, 1e-12)
        activations.append(a)
    return activations, masks


def _grid_stack(n: int, g: int, d: int, seed: int) -> np.ndarray:
    """An (n, g, d+1) stack laid out as ``grid_rows`` lays out a block."""
    rng = np.random.default_rng(seed)
    return grid_rows(rng.normal(size=(n, d)), np.linspace(0.6, 1.0, g))


_HIDDEN = st.lists(st.integers(1, 40), min_size=1, max_size=3)


class TestInPlaceLayers:
    """Each layer writes into its matmul's output; the bits are the oracle's."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([1, 43, 256]), g=st.integers(1, 11), d=st.integers(1, 12),
           hidden=_HIDDEN, seed=st.integers(0, 2**16))
    def test_forward_equals_the_oracle_bytes(self, n, g, d, hidden, seed):
        model = init_mlp([d + 1, *hidden, 1], seed=seed)
        stack = _grid_stack(n, g, d, seed)
        expected = _oracle_forward_cached(model, stack)[0][-1][..., 0]
        assert forward(model, stack).tobytes() == expected.tobytes()
        rows = stack[:, 0, :]  # one row per session, as training feeds it
        assert forward(model, rows).tobytes() == _oracle_forward_cached(
            model, rows)[0][-1][..., 0].tobytes()

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([1, 43, 256]), d=st.integers(1, 12), hidden=_HIDDEN,
           seed=st.integers(0, 2**16), dropout=st.sampled_from([0.0, 0.5]))
    def test_loss_and_grads_equal_the_oracle_bytes(self, n, d, hidden, seed, dropout):
        model = init_mlp([d, *hidden, 1], seed=seed)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d))
        labels = rng.integers(0, 2, size=n).astype(float)

        def loss_fn(out):
            return weighted_ce_loss(out, labels, 2.5)

        loss, grads_w, grads_b = _loss_and_grads(
            model, x, loss_fn, dropout_rate=dropout, rng=np.random.default_rng([seed, 1]))
        acts, masks = _oracle_forward_cached(model, x, dropout,
                                             np.random.default_rng([seed, 1]))
        want_loss, dloss_dout = loss_fn(acts[-1][:, 0])
        want_w, want_b = _backward(model, acts, masks, np.asarray(dloss_dout) / n)
        assert loss.tobytes() == want_loss.tobytes()
        for got, want in zip([*grads_w, *grads_b], [*want_w, *want_b]):
            assert got.tobytes() == want.tobytes()

    def test_a_block_forward_allocates_each_layer_once(self):
        """A (256, 11, d+1) block peaks at its layer outputs plus at most a
        quarter more: one array per layer, no temporaries of the same size."""
        model = init_mlp([21, 64, 32, 1], seed=0)
        stack = _grid_stack(256, 11, 20, seed=0)
        forward(model, stack)  # any one-time allocation happens outside the trace
        layer_bytes = sum(256 * 11 * size * 8 for size in model.sizes[1:])
        tracemalloc.start()
        try:
            forward(model, stack)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * layer_bytes, peak / layer_bytes


class TestWeightedCeLoss:
    def test_half_prob_positive(self):
        loss, _ = weighted_ce_loss(0.5, 1)
        assert loss == pytest.approx(math.log(2.0))

    def test_confident_correct_positive(self):
        loss, _ = weighted_ce_loss(1.0 - 1e-9, 1)
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_imbalance_weight_scales_positive_term(self):
        loss, _ = weighted_ce_loss(0.5, 1, pos_weight=16.67)
        assert loss == pytest.approx(16.67 * math.log(2.0))

    def test_negative_label_unweighted(self):
        loss_w, _ = weighted_ce_loss(0.3, 0, pos_weight=16.67)
        loss_u, _ = weighted_ce_loss(0.3, 0, pos_weight=1.0)
        assert loss_w == loss_u

    @pytest.mark.parametrize("p,y,w", [(0.3, 1, 1.0), (0.7, 0, 1.0), (0.2, 1, 5.5)])
    def test_derivative_matches_finite_difference(self, p, y, w):
        h = 1e-7
        _, deriv = weighted_ce_loss(p, y, w)
        up, _ = weighted_ce_loss(p + h, y, w)
        down, _ = weighted_ce_loss(p - h, y, w)
        assert deriv == pytest.approx((up - down) / (2 * h), rel=1e-5)


def _toy_separable(n=400, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, 2))
    labels = (feats[:, 0] + feats[:, 1] > 0).astype(int)
    prices = np.full(n, 40.0)
    return EncodedDataset(features=feats, prices=prices, labels=labels, p_max=50.0)


@pytest.mark.parametrize("field", ["learning_rate", "decay"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_train_config_refuses_a_non_finite_rate(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        TrainConfig(**{field: value})


class TestTrainApp:
    def test_separable_toy_reaches_high_auc(self):
        train = _toy_separable()
        config = TrainConfig(learning_rate=0.5, decay=1e-4, batch_size=32,
                             epochs=50, seed=0)
        result = train_app(train, hidden=(16,), config=config)
        model = MlpDemandModel(mlp=result.model, p_max=train.p_max)
        scores = model.predict_proba_rows(train.features, train.prices)
        assert auc_roc(scores, train.labels) >= 0.99

    def test_zero_decay_constant_rate(self):
        config = TrainConfig(learning_rate=0.2, decay=0.0)
        assert learning_rate_at(config, 0) == 0.2
        assert learning_rate_at(config, 10_000) == 0.2

    def test_decay_non_increasing(self):
        config = TrainConfig(learning_rate=0.2, decay=0.01)
        rates = [learning_rate_at(config, t) for t in range(50)]
        assert all(b < a for a, b in zip(rates, rates[1:]))

    def test_bit_identical_under_same_seed(self):
        train = _toy_separable(n=100)
        config = TrainConfig(epochs=3, seed=5, dropout_rate=0.2)
        r1 = train_app(train, hidden=(8,), config=config)
        r2 = train_app(train, hidden=(8,), config=config)
        for w1, w2 in zip(r1.model.weights, r2.model.weights):
            assert np.array_equal(w1, w2)
        assert r1.epoch_mean_loss == r2.epoch_mean_loss

    def test_single_class_rejected(self):
        train = _toy_separable(n=50)
        bad = EncodedDataset(features=train.features, prices=train.prices,
                             labels=np.ones(50, dtype=int), p_max=train.p_max)
        with pytest.raises(SingleClassDataset):
            train_app(bad, hidden=(4,))

    def test_zero_epochs_returns_init(self):
        train = _toy_separable(n=50)
        config = TrainConfig(epochs=0, seed=7)
        result = train_app(train, hidden=(4,), config=config)
        fresh = init_mlp([3, 4, 1], seed=7)
        for w1, w2 in zip(result.model.weights, fresh.weights):
            assert np.array_equal(w1, w2)
        assert result.epoch_mean_loss == []

    def test_default_pos_weight_is_class_ratio(self):
        train = _toy_separable(n=200)
        n1 = train.labels.sum()
        result = train_app(train, hidden=(4,), config=TrainConfig(epochs=1))
        assert result.pos_weight == pytest.approx((200 - n1) / n1)


class TestGradCheck:
    def test_weighted_ce_gradients(self):
        rng = np.random.default_rng(0)
        model = init_mlp([4, 6, 3, 1], seed=1)
        inputs = rng.normal(size=(5, 4))
        labels = rng.integers(0, 2, size=5)

        def loss_fn(out):
            return weighted_ce_loss(out, labels, pos_weight=3.0)

        assert grad_check(model, loss_fn, inputs, step=1e-5) < 1e-4

    def test_quadratic_loss_tight(self):
        model = init_mlp([3, 4, 1], seed=2)
        inputs = np.random.default_rng(1).normal(size=(4, 3))

        def loss_fn(out):
            target = 0.3
            return (out - target) ** 2, 2.0 * (out - target)

        assert grad_check(model, loss_fn, inputs, step=1e-5) < 1e-8

    def test_flat_loss_zero_error(self):
        model = init_mlp([2, 3, 1], seed=3)
        inputs = np.array([[0.1, -0.4]])

        def loss_fn(out):
            return np.ones_like(out), np.zeros_like(out)

        assert grad_check(model, loss_fn, inputs, step=1e-5) == 0.0


# SHA-256 of the weights, biases and epoch losses that ``_training_digest``
# trains, as computed by the two training loops that ``sgd_train`` replaced:
# the shared trainer must keep every bit, dropout draws and pos_weight included.
TRAINING_DIGEST = "985245982ea2680c40f6763ca214136035644c2bd0feb37b6e13abdd1dfc144e"


def _training_digest() -> str:
    grid = PriceGrid((30.0, 35.0, 40.0, 45.0, 50.0))
    h = hashlib.sha256()
    for seed in range(4):
        train = _toy_separable(n=130, seed=seed)
        train = EncodedDataset(features=train.features,
                               prices=np.linspace(30.0, 50.0, train.n),
                               labels=train.labels, p_max=50.0)
        for config in (TrainConfig(epochs=4, seed=seed),
                       TrainConfig(epochs=4, seed=seed, dropout_rate=0.3,
                                   batch_size=50, decay=0.01),
                       TrainConfig(epochs=4, seed=seed, pos_weight=2.5)):
            app = train_app(train, hidden=(8, 4), config=config)
            cl = train_dnncl(train, grid, hidden=(8, 4), config=config)
            for model, trace in ((app.model, app.epoch_mean_loss),
                                 (cl.model.mlp, cl.epoch_mean_loss)):
                for arr in (*model.weights, *model.biases, np.array(trace)):
                    h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return h.hexdigest()


def test_trained_weights_are_pinned():
    assert _training_digest() == TRAINING_DIGEST
