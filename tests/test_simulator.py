import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ancillary_pricing.core import PriceGrid, SessionRecord
from ancillary_pricing.errors import CalibrationDiverged
from ancillary_pricing.policies import RandomDiscountParams, StaticPricePolicy
from ancillary_pricing.session_io import session_to_dict
from ancillary_pricing.simulator import (
    BOOKING_CLASSES,
    MAX_LOG_WTP,
    CLASS_PROBS,
    EPOCH_2025,
    AbConfig,
    ArmSpec,
    MarketSpec,
    SimSession,
    SubMarket,
    calibrate,
    check_draws,
    choice_table,
    default_market_spec,
    export_sessions,
    gen_session,
    market_spec_from_doc,
    market_spec_to_doc,
    max_log_wtp,
    run_abtest,
    session_stream,
    simulate_decision,
)

GRID = PriceGrid((30.0, 40.0, 50.0))


def _flat_spec(base=math.log(50.0), std=0.0, los_bonus=0.0, **kwargs) -> MarketSpec:
    sub = SubMarket(name="only", markets=(("AAA", "BBB"),), weight=1.0,
                    wtp_log_mean=base, wtp_log_std=std, los_bonus=los_bonus, **kwargs)
    return MarketSpec(sub_markets=(sub,), static_price=50.0,
                      booking_class_bumps={})


def _choice_gen_session(spec: MarketSpec, rng: np.random.Generator) -> SimSession:
    """The ``rng.choice(n, p=...)`` form of ``gen_session``: the oracle
    for its table lookups."""
    weights = [sm.weight for sm in spec.sub_markets]
    sm = spec.sub_markets[rng.choice(len(spec.sub_markets), p=weights)]
    market = sm.markets[rng.integers(len(sm.markets))]
    dtd = int(rng.integers(0, spec.dtd_max + 1))
    departure_epoch = EPOCH_2025 + int(rng.integers(0, 365)) * 86_400
    if rng.random() < spec.one_way_share:
        los = 0
    else:
        los = 1 + int(rng.integers(0, spec.los_max))
    group = 1 + int(rng.binomial(4, 0.22))
    stops = int(rng.integers(0, 3))
    booking_class = BOOKING_CLASSES[rng.choice(len(BOOKING_CLASSES), p=CLASS_PROBS)]
    pcs = float(rng.normal())
    popularity = float(rng.normal(sm.popularity, 0.3))

    log_wtp = sm.wtp_log_mean
    log_wtp += sm.dtd_slope * (dtd / spec.dtd_max)
    los_norm = los / spec.los_max
    if sm.los_window[0] <= los_norm <= sm.los_window[1]:
        log_wtp += sm.los_bonus
    log_wtp += sm.group_slope * (group - 1)
    log_wtp += sm.pcs_slope * pcs
    log_wtp += sm.popularity_slope * popularity
    log_wtp += spec.booking_class_bumps.get(booking_class, 0.0)
    log_wtp += float(rng.normal(0.0, sm.wtp_log_std)) if sm.wtp_log_std > 0 else 0.0

    record = SessionRecord(
        session_id=f"s{rng.integers(2**63):016x}",
        days_to_departure=dtd,
        departure_epoch=departure_epoch,
        length_of_stay=los,
        market=market,
        group_size=group,
        booking_class=booking_class,
        num_stops=stops,
        price_comparison_score=pcs,
        price_offered=spec.static_price,
        purchased=None,
        extra_features={"route_popularity": popularity},
    )
    return SimSession(record=record, wtp=math.exp(log_wtp))


@st.composite
def _market_specs(draw) -> MarketSpec:
    # Integer shares normalized to weights: 1-4 sub-markets, zeros allowed.
    shares = draw(st.lists(st.integers(0, 1000), min_size=1, max_size=4)
                  .filter(lambda xs: sum(xs) > 0))
    total = sum(shares)
    subs = []
    for k, share in enumerate(shares):
        n_markets = draw(st.integers(1, 6))
        lo = draw(st.floats(0.0, 1.0))
        subs.append(SubMarket(
            name=f"sm{k}",
            markets=tuple((f"O{k}{j}", f"D{k}{j}") for j in range(n_markets)),
            weight=share / total,
            wtp_log_mean=draw(st.floats(1.0, 5.0)),
            wtp_log_std=draw(st.sampled_from([0.0, 0.3]) | st.floats(0.0, 1.0)),
            dtd_slope=draw(st.floats(-1.0, 1.0)),
            los_window=(lo, draw(st.floats(lo, 1.0))),
            los_bonus=draw(st.floats(-1.0, 1.0)),
            group_slope=draw(st.floats(-0.5, 0.5)),
            pcs_slope=draw(st.floats(-0.5, 0.5)),
            popularity=draw(st.floats(-2.0, 2.0)),
            popularity_slope=draw(st.floats(-0.5, 0.5)),
        ))
    return MarketSpec(sub_markets=tuple(subs), static_price=50.0,
                      dtd_max=draw(st.integers(1, 365)), los_max=draw(st.integers(1, 30)),
                      one_way_share=draw(st.floats(0.0, 1.0)))


@given(spec=_market_specs(), seed=st.integers(0, 2**63 - 1),
       indices=st.lists(st.integers(0, 2**40), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_gen_session_equals_choice_form_bitwise(spec, seed, indices):
    for index in indices:
        rng, oracle_rng = session_stream(seed, index), session_stream(seed, index)
        got, want = gen_session(spec, rng), _choice_gen_session(spec, oracle_rng)
        assert repr(got.record) == repr(want.record)  # repr tells -0.0 from 0.0
        assert got.wtp.hex() == want.wtp.hex()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


class _ScriptedRng:
    """Stands in for a Generator: ``random()`` returns the scripted values,
    every other draw its lowest value."""

    def __init__(self, randoms):
        self._randoms = list(randoms)

    def random(self):
        return self._randoms.pop(0)

    def integers(self, *args):
        return 0

    def binomial(self, n, p):
        return 0

    def normal(self, loc=0.0, scale=1.0):
        return loc


def _probes(cdf: np.ndarray) -> list[float]:
    """Each table boundary and its neighbours, plus both ends of [0, 1)."""
    probes = {0.0, float(np.nextafter(1.0, 0.0))}
    for edge in cdf:
        probes.update(float(x) for x in (edge, np.nextafter(edge, -np.inf),
                                         np.nextafter(edge, np.inf)))
    return sorted(p for p in probes if 0.0 <= p < 1.0)


@pytest.mark.parametrize("weights", [
    (1.0,),
    (0.075, 0.25, 0.675),
    (0.0, 0.5, 0.0, 0.5),
    (1 / 3, 1 / 3, 1 / 3),
    (0.0, 0.0, 1.0, 0.0),
    (0.1,) * 10,  # the running sum ends below 1, so the table is normalized
])
def test_sub_market_lookup_equals_searchsorted(weights):
    subs = tuple(SubMarket(name=f"sm{k}", markets=((f"O{k}", f"D{k}"),), weight=w,
                           wtp_log_mean=3.0, wtp_log_std=0.0)
                 for k, w in enumerate(weights))
    spec = MarketSpec(sub_markets=subs, static_price=50.0)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    assert choice_table(weights) == cdf.tolist()
    for u in _probes(cdf):
        record = gen_session(spec, _ScriptedRng([u, 0.5, 0.5])).record
        assert record.market == subs[int(np.searchsorted(cdf, u, side="right"))].markets[0]


def test_booking_class_lookup_equals_searchsorted():
    spec = default_market_spec()
    cdf = np.cumsum(CLASS_PROBS)
    cdf /= cdf[-1]
    for u in _probes(cdf):
        record = gen_session(spec, _ScriptedRng([0.5, 0.5, u])).record
        assert record.booking_class == BOOKING_CLASSES[int(np.searchsorted(cdf, u,
                                                                           side="right"))]


class TestGenSession:
    def test_no_effects_no_noise_exact_wtp(self):
        spec = _flat_spec(base=3.2)
        for i in range(20):
            sim = gen_session(spec, session_stream(1, i))
            assert sim.wtp == math.exp(3.2)

    def test_los_bonus_scales_wtp_multiplicatively(self):
        plain = _flat_spec(base=3.0)
        boosted = _flat_spec(base=3.0, los_bonus=0.4)
        found = 0
        for i in range(300):
            a = gen_session(plain, session_stream(2, i))
            b = gen_session(boosted, session_stream(2, i))
            los_norm = a.record.length_of_stay / plain.los_max
            if 0.05 <= los_norm <= 0.3:
                assert b.wtp == pytest.approx(a.wtp * math.exp(0.4))
                assert b.wtp > a.wtp
                found += 1
            else:
                assert b.wtp == a.wtp
        assert found > 10

    def test_covariates_within_ranges(self):
        spec = default_market_spec()
        for i in range(100):
            s = gen_session(spec, session_stream(3, i)).record
            assert 0 <= s.days_to_departure <= spec.dtd_max
            assert 0 <= s.length_of_stay <= spec.los_max
            assert s.group_size >= 1
            assert 0 <= s.num_stops <= 2
            assert s.booking_class in ("business", "economy", "flex")
            assert s.price_offered == spec.static_price
            assert s.purchased is None
            assert "route_popularity" in s.extra_features

    def test_deterministic_per_stream(self):
        spec = default_market_spec()
        a = gen_session(spec, session_stream(9, 4))
        b = gen_session(spec, session_stream(9, 4))
        assert a.wtp == b.wtp
        assert a.record == b.record


class TestSimulateDecision:
    def test_above_wtp_declines(self):
        spec = _flat_spec(base=math.log(40.0))
        sim = gen_session(spec, session_stream(0, 0))
        assert simulate_decision(sim, 40.0 + 1e-9) == 0

    def test_boundary_purchases(self):
        spec = _flat_spec(base=math.log(40.0))
        sim = gen_session(spec, session_stream(0, 0))
        assert simulate_decision(sim, sim.wtp) == 1

    def test_monotone_in_price(self):
        spec = default_market_spec()
        sweep = np.linspace(10.0, 80.0, 30)
        for i in range(200):
            sim = gen_session(spec, session_stream(5, i))
            decisions = [simulate_decision(sim, p) for p in sweep]
            assert all(b <= a for a, b in zip(decisions, decisions[1:]))


class TestCalibrate:
    def test_median_threshold(self):
        spec = _flat_spec(base=1.0, std=0.5)
        calibrated = calibrate(spec, target_rate=0.5, n=40_000, seed=2)
        assert calibrated.sub_markets[0].wtp_log_mean == pytest.approx(
            math.log(50.0), abs=0.05)

    def test_hits_target_on_fresh_sample(self):
        spec = calibrate(default_market_spec(), target_rate=0.06, n=30_000, seed=1)
        hits = sum(
            simulate_decision(gen_session(spec, session_stream(77, i)), 50.0)
            for i in range(30_000)
        )
        assert abs(hits / 30_000 - 0.06) < 0.01

    def test_deterministic(self):
        spec = default_market_spec()
        c1 = calibrate(spec, target_rate=0.1, n=5_000, seed=3)
        c2 = calibrate(spec, target_rate=0.1, n=5_000, seed=3)
        assert c1 == c2

    def test_degenerate_market_diverges(self):
        spec = _flat_spec(base=3.0, std=0.0)  # every WTP identical
        with pytest.raises(CalibrationDiverged):
            calibrate(spec, target_rate=0.5, n=2_000, seed=0)

    def test_bad_target_rejected(self):
        with pytest.raises(CalibrationDiverged):
            calibrate(default_market_spec(), target_rate=1.5, n=100, seed=0)


class TestExportSessions:
    def test_empty(self):
        assert export_sessions(default_market_spec(), 0, seed=0) == []

    def test_same_seed_identical(self):
        spec = default_market_spec()
        a = export_sessions(spec, 50, seed=4)
        b = export_sessions(spec, 50, seed=4)
        assert a == b

    def test_labels_realized_and_wtp_stripped(self):
        spec = default_market_spec()
        sessions = export_sessions(spec, 50, seed=5)
        for s in sessions:
            assert s.purchased in (0, 1)
            assert not hasattr(s, "wtp")
            assert "wtp" not in json.dumps(session_to_dict(s)).lower()

    def test_price_noise_spreads_offers(self):
        spec = default_market_spec()
        noise = RandomDiscountParams(mean_discount=10.0, std_discount=6.0,
                                     static_price=spec.static_price)
        sessions = export_sessions(spec, 300, seed=6, price_noise=noise, grid=GRID)
        prices = {s.price_offered for s in sessions}
        assert len(prices) > 100
        assert all(GRID.p_min <= p <= GRID.p_max for p in prices)

    def test_price_noise_requires_grid(self):
        noise = RandomDiscountParams(10.0, 6.0, 50.0)
        with pytest.raises(ValueError):
            export_sessions(default_market_spec(), 10, seed=0, price_noise=noise)


def _human_arm(name, price, split):
    return ArmSpec(name=name, policy=StaticPricePolicy(price=price, grid=GRID), split=split)


class TestRunAbtest:
    def test_symmetric_human_arms(self):
        spec = calibrate(default_market_spec(), 0.06, n=10_000, seed=0)
        config = AbConfig(
            arms=(_human_arm("H1", 50.0, 0.5), _human_arm("H2", 50.0, 0.5)),
            days=10, sessions_per_day=2_000, seed=12, baseline_arm="H1",
        )
        result = run_abtest(spec, config)
        c1 = result.report.arm_rows["H1"].conversion
        c2 = result.report.arm_rows["H2"].conversion
        n_arm = result.report.arm_rows["H1"].offers
        se = math.sqrt(2 * 0.06 * 0.94 / n_arm)
        assert abs(c1 - c2) <= 4 * se

    def test_cheaper_arm_converts_at_least_as_much(self):
        spec = calibrate(default_market_spec(), 0.06, n=10_000, seed=0)
        config = AbConfig(
            arms=(_human_arm("LOW", GRID.p_min, 0.5), _human_arm("HIGH", GRID.p_max, 0.5)),
            days=5, sessions_per_day=2_000, seed=3,
        )
        result = run_abtest(spec, config)
        assert (result.report.arm_rows["LOW"].conversion
                >= result.report.arm_rows["HIGH"].conversion)

    def test_fully_deterministic(self):
        spec = default_market_spec()
        config = AbConfig(
            arms=(_human_arm("A", 40.0, 0.6), _human_arm("B", 50.0, 0.4)),
            days=4, sessions_per_day=200, seed=21, sessions_per_day_dist="poisson",
        )
        r1 = run_abtest(spec, config)
        r2 = run_abtest(spec, config)
        assert r1.daily == r2.daily
        assert r1.report.to_json() == r2.report.to_json()

    def test_routing_fractions_converge(self):
        spec = default_market_spec()
        splits = (0.2, 0.5, 0.3)
        config = AbConfig(
            arms=tuple(_human_arm(f"A{i}", 50.0, s) for i, s in enumerate(splits)),
            days=1, sessions_per_day=100_000, seed=8,
        )
        result = run_abtest(spec, config)
        total = sum(row.offers for row in result.report.arm_rows.values())
        assert total == 100_000
        for i, s in enumerate(splits):
            frac = result.report.arm_rows[f"A{i}"].offers / total
            se = math.sqrt(s * (1 - s) / total)
            assert abs(frac - s) <= 3 * se

    def test_baseline_normalization(self):
        spec = calibrate(default_market_spec(), 0.1, n=10_000, seed=0)
        config = AbConfig(
            arms=(_human_arm("HUMAN", 50.0, 0.5), _human_arm("CHEAP", 30.0, 0.5)),
            days=3, sessions_per_day=1_000, seed=5,
        )
        result = run_abtest(spec, config)
        assert result.report.arm_rows["HUMAN"].revenue_per_offer_normalized == pytest.approx(1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AbConfig(arms=(_human_arm("A", 50.0, 1.0),), days=1, sessions_per_day=10)
        with pytest.raises(ValueError):
            AbConfig(arms=(_human_arm("A", 50.0, 0.6), _human_arm("B", 50.0, 0.6)),
                     days=1, sessions_per_day=10)

    def test_arm_names_must_be_distinct(self):
        with pytest.raises(ValueError, match="distinct"):  # they would share one tally
            AbConfig(arms=(_human_arm("A", 50.0, 0.5), _human_arm("A", 40.0, 0.5)),
                     days=1, sessions_per_day=10)


class TestSpecSerialization:
    def test_round_trip(self):
        spec = default_market_spec()
        assert market_spec_from_doc(market_spec_to_doc(spec)) == spec

    def test_weights_validated(self):
        doc = market_spec_to_doc(default_market_spec())
        doc["sub_markets"][0]["weight"] = 0.9
        with pytest.raises(ValueError):
            market_spec_from_doc(doc)

    @pytest.mark.parametrize("weights", [
        (float("nan"), 0.25, 0.675),
        (float("inf"), 0.25, 0.675),
        (-0.2, 0.25, 0.95),
    ], ids=["nan", "inf", "negative"])
    def test_bad_weights_refused_when_built(self, weights):
        doc = market_spec_to_doc(default_market_spec())
        for sm, w in zip(doc["sub_markets"], weights):
            sm["weight"] = w
        with pytest.raises(ValueError, match="finite and non-negative"):
            market_spec_from_doc(doc)

    @pytest.mark.parametrize("name,value", [
        ("dtd_max", 0), ("los_max", 0), ("los_max", -3), ("one_way_share", -0.1),
        ("one_way_share", 1.5), ("one_way_share", float("nan")),
        ("dtd_max", 1.5), ("los_max", 2.5), ("dtd_max", True), ("los_max", "7"),
    ])
    def test_out_of_range_field_refused(self, name, value):
        with pytest.raises(ValueError, match=name):
            replace(default_market_spec(), **{name: value})
        doc = market_spec_to_doc(default_market_spec())
        doc[name] = value
        with pytest.raises(ValueError, match=name):
            market_spec_from_doc(doc)

    def test_smallest_ranges_generate(self):
        for share in (0.0, 1.0):
            spec = replace(default_market_spec(), dtd_max=1, los_max=1, one_way_share=share)
            for i in range(20):
                record = gen_session(spec, session_stream(6, i)).record
                assert record.days_to_departure in (0, 1)
                assert record.length_of_stay == (0 if share == 1.0 else 1)

    def test_misspelled_key_refused_by_name(self):
        doc = market_spec_to_doc(default_market_spec())
        doc["dtd_slop"] = -0.3
        with pytest.raises(ValueError, match="'dtd_slop'"):
            market_spec_from_doc(doc)

    def test_choice_table_follows_replace(self):
        spec = default_market_spec()
        subs = tuple(replace(sm, weight=w)
                     for sm, w in zip(spec.sub_markets, (0.5, 0.0, 0.5)))
        moved = replace(spec, sub_markets=subs)
        assert moved._sub_market_table == choice_table([0.5, 0.0, 0.5])
        assert spec._sub_market_table == choice_table([0.075, 0.25, 0.675])


def test_check_draws_admits_markets_right_up_to_the_overflow():
    # Steep slopes and noise, so the drawn terms are far from the bound's share.
    spec = default_market_spec()
    sm = replace(spec.sub_markets[0], wtp_log_std=3.0, pcs_slope=2.0, popularity_slope=1.5,
                 dtd_slope=-4.0, group_slope=0.5, los_bonus=1.0)
    edge = sm.wtp_log_mean + MAX_LOG_WTP - max_log_wtp(spec, sm)

    def with_mean(mean: float) -> MarketSpec:
        return replace(spec, sub_markets=(replace(sm, wtp_log_mean=mean),
                                          *spec.sub_markets[1:]))

    at_edge = check_draws(with_mean(edge - 1e-9))
    wtps = [gen_session(at_edge, session_stream(0, i)).wtp for i in range(500)]
    assert all(math.isfinite(w) for w in wtps)
    for mean in (edge + 1e-9, float("nan")):
        with pytest.raises(ValueError, match="log-WTP"):
            check_draws(with_mean(mean))


def _overflowing_market() -> MarketSpec:
    spec = default_market_spec()
    return replace(spec, sub_markets=tuple(replace(sm, wtp_log_mean=1e308)
                                           for sm in spec.sub_markets))


@pytest.mark.parametrize("entry", [
    lambda spec: export_sessions(spec, 3, seed=0),
    lambda spec: calibrate(spec, 0.06, n=10, seed=0),
    lambda spec: run_abtest(spec, AbConfig(arms=(_human_arm("H1", 50.0, 0.5),
                                                 _human_arm("H2", 50.0, 0.5)),
                                           days=1, sessions_per_day=3)),
], ids=["export_sessions", "calibrate", "run_abtest"])
def test_entry_points_refuse_a_market_whose_wtp_overflows(entry):
    """Each caller of ``gen_session`` checks the market first: a ValueError,
    not an OverflowError from the first draw."""
    with pytest.raises(ValueError, match="log-WTP"):
        entry(_overflowing_market())
