import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ancillary_pricing.codec import from_doc
from ancillary_pricing.errors import (
    EmptyInput,
    NoPurchases,
    SingleClassInput,
    UndefinedMetric,
)
from ancillary_pricing.metrics import (
    EvalRecord,
    MetricReport,
    OfferOutcome,
    arm_row_from_outcomes,
    auc_roc,
    build_report,
    conversion_score,
    model_row_from_records,
    pdf1,
    pdp,
    pdr,
    regret_score,
    revenue_per_offer,
    revenue_per_session,
)
from ancillary_pricing.policies import StaticPricePolicy


def _pairwise_auc(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_separation(self):
        assert auc_roc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_tied(self):
        assert auc_roc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassInput):
            auc_roc([0.1, 0.9], [1, 1])

    def test_matches_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(5, 120))
            scores = rng.choice(np.linspace(0, 1, 12), size=n)  # force ties
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            assert auc_roc(scores, labels) == _pairwise_auc(scores, labels)

    def test_complement_under_score_negation(self):
        rng = np.random.default_rng(4)
        scores = rng.permutation(np.linspace(0.01, 0.99, 30))  # tie-free
        labels = rng.integers(0, 2, size=30)
        labels[0], labels[1] = 0, 1
        assert auc_roc(scores, labels) + auc_roc(-scores, labels) == pytest.approx(1.0)


def _purchased(offered, recommended):
    return EvalRecord(offered_price=offered, recommended_price=recommended, purchased=1)


class TestRegretScore:
    def test_worked_example(self):
        records = [_purchased(10, 8), _purchased(15, 12), _purchased(10, 15),
                   _purchased(25, 35), _purchased(40, 37)]
        assert regret_score(records) == pytest.approx(0.095, abs=1e-9)

    def test_no_underpricing_no_regret(self):
        records = [_purchased(10, 12), _purchased(20, 20)]
        assert regret_score(records) == 0.0

    def test_single_record(self):
        assert regret_score([_purchased(10, 5)]) == pytest.approx(0.5)

    def test_requires_purchases(self):
        records = [EvalRecord(10.0, 8.0, purchased=0)]
        with pytest.raises(NoPurchases):
            regret_score(records)

    @given(c=st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=50)
    def test_scale_invariance(self, c):
        base = [_purchased(10, 8), _purchased(15, 12), _purchased(40, 37)]
        scaled = [_purchased(r.offered_price * c, r.recommended_price * c) for r in base]
        assert regret_score(scaled) == pytest.approx(regret_score(base), rel=1e-12)


class TestPriceDecrease:
    def test_all_non_purchased_discounted(self):
        records = [EvalRecord(10.0, 8.0, 0), EvalRecord(20.0, 15.0, 0)]
        assert pdr(records) == 1.0

    def test_no_discounts(self):
        records = [EvalRecord(10.0, 12.0, 0), EvalRecord(20.0, 25.0, 1)]
        assert pdr(records) == 0.0
        with pytest.raises(UndefinedMetric):
            pdp(records)

    def test_hand_counted_four_records(self):
        records = [
            EvalRecord(10.0, 8.0, 0),    # non-purchased, discounted
            EvalRecord(10.0, 12.0, 0),   # non-purchased, raised
            EvalRecord(10.0, 9.0, 1),    # purchased, discounted
            EvalRecord(10.0, 11.0, 1),   # purchased, raised
        ]
        assert pdr(records) == pytest.approx(1 / 2)
        assert pdp(records) == pytest.approx(1 / 2)

    def test_equal_price_is_not_a_decrease(self):
        records = [EvalRecord(10.0, 10.0, 0)]
        assert pdr(records) == 0.0


class TestPdf1:
    def test_harmonic_fixpoint(self):
        assert pdf1(0.5, 0.5) == pytest.approx(0.5)

    def test_published_pairs(self):
        assert pdf1(0.6366, 0.9276) == pytest.approx(0.7550, abs=5e-4)
        assert pdf1(0.8294, 0.9230) == pytest.approx(0.8737, abs=5e-4)

    def test_zero_convention(self):
        assert pdf1(0.0, 0.0) == 0.0

    @given(a=st.floats(min_value=0.0, max_value=1.0),
           b=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100)
    def test_between_min_and_max(self, a, b):
        value = pdf1(a, b)
        assert min(a, b) - 1e-12 <= value <= max(a, b) + 1e-12
        if a == b:
            assert value == pytest.approx(a)


class TestOnlineMetrics:
    def test_conversion_arithmetic(self):
        outcomes = [OfferOutcome(50.0, 1)] * 1392 + [OfferOutcome(50.0, 0)] * 8608
        assert conversion_score(outcomes) == pytest.approx(0.1392)

    def test_conversion_bounds(self):
        assert conversion_score([OfferOutcome(10.0, 0)] * 5) == 0.0
        assert conversion_score([OfferOutcome(10.0, 1)] * 5) == 1.0

    def test_conversion_empty(self):
        with pytest.raises(EmptyInput):
            conversion_score([])

    def test_revenue_per_offer(self):
        assert revenue_per_offer([OfferOutcome(10.0, 1)]) == 10.0
        assert revenue_per_offer([OfferOutcome(10.0, 1), OfferOutcome(10.0, 0)]) == 5.0

    def test_revenue_per_session_denominator(self):
        outcomes = [OfferOutcome(10.0, 1)]
        assert revenue_per_session(outcomes) == 10.0
        assert revenue_per_session(outcomes, n_sessions=4) == 2.5

    def test_normalization_against_baseline(self):
        arm = [OfferOutcome(11.0, 1)]
        row = arm_row_from_outcomes(arm, baseline_revenue_per_offer=10.0)
        assert row.revenue_per_offer_normalized == pytest.approx(1.10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        outcomes = [OfferOutcome(float(p), int(y))
                    for p, y in zip(rng.uniform(10, 50, 60), rng.integers(0, 2, 60))]
        shuffled = [outcomes[i] for i in rng.permutation(60)]
        assert conversion_score(outcomes) == conversion_score(shuffled)
        assert revenue_per_offer(outcomes) == pytest.approx(revenue_per_offer(shuffled))


class _ScoredPolicy:
    """Fixed per-session-id scores; prices at a constant discount."""

    name = "SCORED"

    def __init__(self, scores: dict):
        self._scores = scores

    def quote(self, session, rng):
        from ancillary_pricing.policies import static_price
        return static_price(session.price_offered * 0.9)

    def quote_batch(self, sessions, rngs):
        return [self.quote(s, rng) for s, rng in zip(sessions, rngs)]

    def score(self, session):
        return self._scores[session.session_id]


class TestBuildReport:
    def test_deterministic_bytes(self, make_session, grid3):
        sessions = [make_session(session_id=f"s{i}", purchased=i % 2,
                                 days_to_departure=i) for i in range(8)]
        policy = StaticPricePolicy(price=20.0, grid=grid3)
        r1 = build_report({"HUMAN": policy}, sessions, seed=5, dataset_id="d")
        r2 = build_report({"HUMAN": policy}, sessions, seed=5, dataset_id="d")
        assert r1.to_json() == r2.to_json()

    def test_includes_every_requested_row(self, make_session, grid3):
        sessions = [make_session(session_id=f"s{i}", purchased=i % 2) for i in range(4)]
        policies = {
            "A": StaticPricePolicy(price=20.0, grid=grid3),
            "B": StaticPricePolicy(price=10.0, grid=grid3),
        }
        report = build_report(policies, sessions, seed=0)
        assert set(report.model_rows) == {"A", "B"}

    def test_auc_column_matches_oracle(self, make_session):
        rng = np.random.default_rng(8)
        sessions, scores = [], {}
        for i in range(40):
            sid = f"s{i}"
            label = int(rng.random() < 0.4)
            sessions.append(make_session(session_id=sid, purchased=label))
            scores[sid] = float(rng.choice([0.2, 0.5, 0.8]))
        report = build_report({"M": _ScoredPolicy(scores)}, sessions, seed=0)
        expected = _pairwise_auc([scores[s.session_id] for s in sessions],
                                 [s.purchased for s in sessions])
        assert report.model_rows["M"].auc == expected

    def test_undefined_metrics_reported_absent(self, make_session, grid3):
        sessions = [make_session(session_id=f"s{i}", purchased=0) for i in range(3)]
        policy = StaticPricePolicy(price=30.0, grid=grid3)  # never below offer of 50? no: 30 < 50
        report = build_report({"H": policy}, sessions, seed=0)
        row = report.model_rows["H"]
        assert row.regret is None  # no purchases
        assert row.auc is None     # no scores
        assert row.pdr == 1.0

    def test_roundtrip_dict(self, make_session, grid3):
        sessions = [make_session(session_id=f"s{i}", purchased=i % 2) for i in range(4)]
        policy = StaticPricePolicy(price=20.0, grid=grid3)
        outcomes = {"H": [OfferOutcome(20.0, 1), OfferOutcome(20.0, 0)]}
        report = build_report({"H": policy}, sessions, seed=1,
                              arm_outcomes=outcomes, baseline_arm="H")
        again = from_doc(MetricReport, json.loads(report.to_json()))
        assert again == report

    def test_arm_without_offers_gets_no_row(self, make_session, grid3):
        sessions = [make_session(session_id="s0", purchased=1)]
        policy = StaticPricePolicy(price=20.0, grid=grid3)
        outcomes = {"H": [], "B": [OfferOutcome(20.0, 1), OfferOutcome(20.0, 0)]}
        report = build_report({"H": policy}, sessions, seed=1,
                              arm_outcomes=outcomes, baseline_arm="H")
        assert set(report.arm_rows) == {"B"}
        assert report.arm_rows["B"].revenue_per_offer == 10.0
        assert report.arm_rows["B"].revenue_per_offer_normalized is None


def test_model_row_from_records_handles_all_absent():
    records = [EvalRecord(10.0, 12.0, 0)]
    row = model_row_from_records(records)
    assert row.regret is None and row.auc is None and row.pdp is None
    assert row.pdr == 0.0
    assert row.pdf1 is None
