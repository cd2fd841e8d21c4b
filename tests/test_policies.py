import math
from dataclasses import dataclass

import numpy as np
import pytest

from ancillary_pricing.core import PolicyTag, PriceGrid, fit_schema
from ancillary_pricing.policies import (
    AppDesPolicy,
    AppLmPolicy,
    EpsilonGreedyPolicy,
    LogisticMapParams,
    RandomDiscountParams,
    RandomDiscountPolicy,
    StaticPricePolicy,
    des_recommend,
    epsilon_greedy,
    logistic_map,
    random_discount,
    static_price,
)

WIDE = PriceGrid((0.5, 100.0))


@dataclass
class ConstProb:
    p: float

    def predict_proba_grid(self, features, prices):
        return np.full((*np.shape(features)[:-1], np.shape(prices)[-1]), self.p)


@dataclass
class TableProb:
    """The same probability per grid price for every session."""

    probs: np.ndarray

    def predict_proba_grid(self, features, prices):
        probs = np.asarray(self.probs, dtype=float)
        return np.broadcast_to(probs, (*np.shape(features)[:-1], len(probs)))


@pytest.fixture
def schema(make_session):
    sessions = [make_session(days_to_departure=d, price_comparison_score=0.1 * d)
                for d in range(6)]
    return fit_schema(sessions)


class TestLogisticMap:
    def test_midpoint_gives_half_max(self):
        params = LogisticMapParams(max_price=50.0, shape=10.0, midpoint=0.5)
        assert logistic_map(0.5, params, WIDE) == pytest.approx(25.0)

    def test_saturates_at_max(self):
        params = LogisticMapParams(max_price=50.0, shape=80.0, midpoint=0.5)
        assert logistic_map(1.0, params, WIDE) == pytest.approx(50.0, abs=1e-9)

    def test_high_precision_value(self):
        params = LogisticMapParams(max_price=50.0, shape=10.0, midpoint=0.5)
        expected = 50.0 / (1.0 + math.exp(-2.0))
        assert logistic_map(0.7, params, WIDE) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(44.0399, abs=5e-4)

    def test_strictly_increasing_before_clamp(self):
        params = LogisticMapParams(max_price=50.0, shape=6.0, midpoint=0.4)
        probs = np.linspace(0.0, 1.0, 50)
        prices = [logistic_map(p, params, WIDE) for p in probs]
        assert all(b > a for a, b in zip(prices, prices[1:]))

    def test_clamped_into_grid(self, grid3):
        params = LogisticMapParams(max_price=50.0, shape=10.0, midpoint=0.5)
        assert logistic_map(0.0, params, grid3) == grid3.p_min
        assert logistic_map(1.0, params, grid3) == grid3.p_max

    def test_steep_map_past_any_float_clamps_to_p_min(self, grid3):
        # exp(3000 * 0.35) overflows a float; the map's limit there is 0.
        params = LogisticMapParams(max_price=50.0, shape=3000.0, midpoint=0.35)
        assert logistic_map(0.0, params, grid3) == grid3.p_min
        assert logistic_map(1.0, params, grid3) == grid3.p_max

    @pytest.mark.parametrize("fields", [
        {"max_price": math.nan}, {"max_price": math.inf}, {"shape": math.inf},
        {"shape": math.nan}, {"midpoint": math.nan}, {"max_price": True},
        {"shape": "12"}, {"max_price": 10 ** 400},
    ])
    def test_params_must_be_finite_numbers(self, fields):
        with pytest.raises(ValueError, match="must be a finite number"):
            LogisticMapParams(**{"max_price": 50.0, "shape": 12.0, "midpoint": 0.35, **fields})


def _brute_force_best(prices, probs):
    best, best_rev = 0, -1.0
    for i, (p, f) in enumerate(zip(prices, probs)):
        rev = p * f
        if rev > best_rev:
            best, best_rev = i, rev
    return best


class TestDesRecommend:
    def test_cheap_price_wins(self):
        grid = PriceGrid((8.0, 10.0, 12.0))
        quote = des_recommend(TableProb(np.array([0.9, 0.6, 0.3])), np.zeros(1), grid)
        assert quote.recommended_price == 8.0
        assert quote.purchase_prob_estimate == pytest.approx(0.9)
        assert quote.recommended_price * quote.purchase_prob_estimate == pytest.approx(7.2)
        assert quote.policy_tag is PolicyTag.APP_DES

    def test_flat_demand_picks_top(self, grid3):
        quote = des_recommend(ConstProb(0.4), np.zeros(1), grid3)
        assert quote.recommended_price == grid3.p_max

    def test_zero_demand_tie_picks_bottom(self, grid3):
        quote = des_recommend(ConstProb(0.0), np.zeros(1), grid3)
        assert quote.recommended_price == grid3.p_min

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(11)
        for trial in range(300):
            if trial % 3 == 0:
                # powers of two make revenue ties exact in floating point
                prices = (4.0, 8.0, 16.0, 32.0)
                targets = rng.choice([1.0, 2.0], size=4)
                probs = np.array([t / p for t, p in zip(targets, prices)])
            else:
                k = int(rng.integers(2, 9))
                prices = tuple(np.sort(rng.uniform(1.0, 90.0, size=k)).tolist())
                if np.any(np.diff(prices) <= 0):
                    continue
                probs = rng.uniform(0.0, 1.0, size=k)
            grid = PriceGrid(prices)
            quote = des_recommend(TableProb(probs), np.zeros(1), grid)
            expected = _brute_force_best(grid.prices, probs)
            assert quote.recommended_price == grid.prices[expected]


class TestAppLmRecommend:
    """``AppLmPolicy.quote``: the probability at the reference price, then
    the logistic price map."""

    PARAMS = LogisticMapParams(max_price=50.0, shape=10.0, midpoint=0.5)

    def _quote(self, prob, schema, make_session):
        policy = AppLmPolicy(model=ConstProb(prob), schema=schema, grid=WIDE,
                             logistic=self.PARAMS, p_ref=40.0)
        return policy.quote(make_session(), np.random.default_rng(0))

    def test_midpoint_probability_maps_to_half_max(self, schema, make_session):
        quote = self._quote(0.5, schema, make_session)
        assert quote.recommended_price == pytest.approx(25.0)
        assert quote.policy_tag is PolicyTag.APP_LM

    def test_deterministic(self, schema, make_session):
        q1 = self._quote(0.31, schema, make_session)
        q2 = self._quote(0.31, schema, make_session)
        assert q1.recommended_price == q2.recommended_price

    def test_composed_oracles(self, schema, make_session):
        quote = self._quote(0.7, schema, make_session)
        assert quote.recommended_price == pytest.approx(50.0 / (1.0 + math.exp(-2.0)),
                                                        abs=1e-9)
        assert quote.purchase_prob_estimate == pytest.approx(0.7)


class TestEpsilonGreedy:
    def test_zero_eps_always_exploits(self):
        for u in (0.0, 0.3, 0.999):
            assert epsilon_greedy(0.0, u, 10.0, 20.0) == 20.0

    def test_full_eps_always_explores(self):
        for u in (0.0, 0.3, 0.999):
            assert epsilon_greedy(1.0, u, 10.0, 20.0) == 10.0

    def test_frequency_close_to_eps(self):
        rng = np.random.default_rng(17)
        n = 10_000
        hits = sum(epsilon_greedy(0.3, float(rng.uniform()), 1.0, 0.0) for _ in range(n))
        se = math.sqrt(0.3 * 0.7 / n)
        assert abs(hits / n - 0.3) <= 3 * se

    def test_referential_transparency(self):
        args = (0.4, 0.39999, 11.0, 22.0)
        assert epsilon_greedy(*args) == epsilon_greedy(*args) == 11.0


class TestRandomDiscount:
    def test_no_noise_returns_static(self):
        params = RandomDiscountParams(mean_discount=0.0, std_discount=0.0,
                                      static_price=50.0)
        assert random_discount(params, 1.7, WIDE) == 50.0

    def test_huge_discount_clamped(self, grid3):
        params = RandomDiscountParams(mean_discount=100.0, std_discount=0.0,
                                      static_price=30.0)
        assert random_discount(params, 0.0, grid3) == grid3.p_min

    def test_mean_matches_folded_normal(self):
        mu, sigma, static = 5.0, 2.0, 50.0
        params = RandomDiscountParams(mean_discount=mu, std_discount=sigma,
                                      static_price=static)
        rng = np.random.default_rng(23)
        n = 100_000
        draws = np.array([random_discount(params, float(g), WIDE)
                          for g in rng.standard_normal(n)])
        folded_mean = (sigma * math.sqrt(2.0 / math.pi) * math.exp(-mu**2 / (2 * sigma**2))
                       + mu * math.erf(mu / (sigma * math.sqrt(2.0))))
        expected = static - folded_mean
        assert draws.mean() == pytest.approx(expected, abs=4 * sigma / math.sqrt(n))


class TestStaticPrice:
    def test_returns_constant_quote(self):
        quote = static_price(42.0)
        assert quote.recommended_price == 42.0
        assert quote.policy_tag is PolicyTag.HUMAN

    def test_policy_rejects_price_outside_grid(self, grid3):
        with pytest.raises(ValueError):
            StaticPricePolicy(price=99.0, grid=grid3)

    def test_random_policy_rejects_price_outside_grid(self, grid3):
        params = RandomDiscountParams(mean_discount=1.0, std_discount=1.0,
                                      static_price=99.0)
        with pytest.raises(ValueError):
            RandomDiscountPolicy(params=params, grid=grid3)


class TestPolicyAdapters:
    def test_every_policy_stays_in_grid(self, schema, make_session, grid3):
        rng = np.random.default_rng(5)
        session = make_session(days_to_departure=3)
        logistic = LogisticMapParams(max_price=80.0, shape=4.0, midpoint=0.5)
        policies = [
            StaticPricePolicy(price=20.0, grid=grid3),
            RandomDiscountPolicy(RandomDiscountParams(8.0, 4.0, 30.0), grid3),
            AppLmPolicy(model=ConstProb(0.9), schema=schema, grid=grid3,
                        logistic=logistic, p_ref=30.0),
            AppDesPolicy(model=ConstProb(0.5), schema=schema, grid=grid3),
        ]
        for policy in policies:
            for _ in range(20):
                q = policy.quote(session, rng)
                assert grid3.p_min <= q.recommended_price <= grid3.p_max

    def test_epsilon_greedy_policy_picks_branches(self, schema, make_session, grid3):
        logistic = LogisticMapParams(max_price=30.0, shape=4.0, midpoint=0.5)
        explore = AppLmPolicy(model=ConstProb(0.99), schema=schema, grid=grid3,
                              logistic=logistic, p_ref=30.0)
        exploit = StaticPricePolicy(price=10.0, grid=grid3)
        session = make_session()
        always_explore = EpsilonGreedyPolicy(eps=1.0, explore=explore, exploit=exploit)
        always_exploit = EpsilonGreedyPolicy(eps=0.0, explore=explore, exploit=exploit)
        q1 = always_explore.quote(session, np.random.default_rng(0))
        q2 = always_exploit.quote(session, np.random.default_rng(0))
        assert q1.policy_tag is PolicyTag.EPS_GREEDY
        assert q1.recommended_price > q2.recommended_price
        assert q2.recommended_price == 10.0
