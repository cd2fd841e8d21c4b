"""Offline and online evaluation metrics plus report assembly.

Offline: ranking quality (AUC), regret against realized purchase prices,
and the price-decrease recall/precision family. Online: conversion and
revenue per offer/session. ``build_report`` assembles both into a single
deterministic document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .codec import to_doc
from .errors import EmptyInput, NoPurchases, SingleClassInput, UndefinedMetric
from .policies import QUOTE_BLOCK, quote_all


@dataclass(frozen=True)
class EvalRecord:
    """One evaluated session: what was offered, recommended, and bought."""

    offered_price: float
    recommended_price: float
    purchased: int
    score: float | None = None
    revenue: float = 0.0

    def __post_init__(self):
        if self.offered_price <= 0 or self.recommended_price <= 0:
            raise ValueError("prices must be positive")
        if self.purchased not in (0, 1):
            raise ValueError("purchased must be 0 or 1")


@dataclass(frozen=True)
class OfferOutcome:
    """One served offer and whether it converted."""

    price: float
    purchased: int


def auc_roc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Rank-based ROC AUC; tied scores count half a concordant pair."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassInput("AUC needs both classes")

    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(len(s))
    sorted_s = s[order]
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j + 2) / 2.0  # 1-based midrank
        i = j + 1
    pos_rank_sum = float(ranks[y == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def regret_score(records: Sequence[EvalRecord]) -> float:
    """Mean over purchases of max(0, 1 - recommended/offered).

    Measures revenue left on the table by under-pricing sessions that
    purchased anyway.
    """
    purchased = [r for r in records if r.purchased == 1]
    if not purchased:
        raise NoPurchases("regret score needs at least one purchased record")
    total = sum(max(0.0, 1.0 - r.recommended_price / r.offered_price) for r in purchased)
    return total / len(purchased)


def pdr(records: Sequence[EvalRecord]) -> float:
    """Of the non-purchased sessions, the share recommended below offer."""
    non_purchased = [r for r in records if r.purchased == 0]
    if not non_purchased:
        raise UndefinedMetric("no non-purchased records")
    hits = sum(1 for r in non_purchased if r.recommended_price < r.offered_price)
    return hits / len(non_purchased)


def pdp(records: Sequence[EvalRecord]) -> float:
    """Of the below-offer recommendations, the share on non-purchased sessions."""
    decreased = [r for r in records if r.recommended_price < r.offered_price]
    if not decreased:
        raise UndefinedMetric("no recommendation below the offered price")
    hits = sum(1 for r in decreased if r.purchased == 0)
    return hits / len(decreased)


def pdf1(pdr_value: float, pdp_value: float) -> float:
    """Harmonic mean of PDR and PDP; 0 when both are 0."""
    if not 0.0 <= pdr_value <= 1.0 or not 0.0 <= pdp_value <= 1.0:
        raise ValueError("pdr and pdp must lie in [0, 1]")
    if pdr_value + pdp_value == 0.0:
        return 0.0
    return 2.0 * pdr_value * pdp_value / (pdr_value + pdp_value)


def conversion_score(outcomes: Sequence[OfferOutcome]) -> float:
    if not outcomes:
        raise EmptyInput("no sessions")
    return sum(o.purchased for o in outcomes) / len(outcomes)


def revenue_per_offer(outcomes: Sequence[OfferOutcome]) -> float:
    if not outcomes:
        raise EmptyInput("no offers")
    return sum(o.price * o.purchased for o in outcomes) / len(outcomes)


def revenue_per_session(outcomes: Sequence[OfferOutcome],
                        n_sessions: int | None = None) -> float:
    """Realized revenue divided by session count (defaults to one offer per session)."""
    n = len(outcomes) if n_sessions is None else n_sessions
    if n <= 0:
        raise EmptyInput("no sessions")
    return sum(o.price * o.purchased for o in outcomes) / n


@dataclass(frozen=True)
class ModelRow:
    auc: float | None = None
    regret: float | None = None
    pdr: float | None = None
    pdp: float | None = None
    pdf1: float | None = None


@dataclass(frozen=True)
class ArmRow:
    offers: int
    purchases: int
    conversion: float
    revenue_per_offer: float
    revenue_per_session: float
    revenue_per_offer_normalized: float | None = None


@dataclass(frozen=True)
class MetricReport:
    """Deterministic evaluation document; absent metrics stay None, so
    identical inputs produce byte-identical reports. It is written with
    ``codec.to_doc`` and read back with ``codec.from_doc``."""

    seed: int
    dataset_id: str
    model_rows: dict[str, ModelRow] = field(default_factory=dict)
    arm_rows: dict[str, ArmRow] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(to_doc(self), sort_keys=True, indent=2) + "\n"

    def render_text(self) -> str:
        def fmt(v, width=10):
            if v is None:
                return "-".rjust(width)
            return f"{v:.4f}".rjust(width)

        lines = [f"dataset: {self.dataset_id}   seed: {self.seed}"]
        if self.model_rows:
            lines.append("")
            lines.append("model".ljust(12) + "".join(
                h.rjust(10) for h in ("AUC", "RS", "PDR", "PDP", "PDF1")))
            for name, r in self.model_rows.items():
                lines.append(name.ljust(12) + fmt(r.auc) + fmt(r.regret)
                             + fmt(r.pdr) + fmt(r.pdp) + fmt(r.pdf1))
        if self.arm_rows:
            lines.append("")
            lines.append("arm".ljust(12) + "".join(
                h.rjust(12) for h in ("offers", "conv", "rev/offer", "rev/sess", "norm")))
            for name, r in self.arm_rows.items():
                lines.append(name.ljust(12) + str(r.offers).rjust(12)
                             + fmt(r.conversion, 12) + fmt(r.revenue_per_offer, 12)
                             + fmt(r.revenue_per_session, 12)
                             + fmt(r.revenue_per_offer_normalized, 12))
        return "\n".join(lines) + "\n"


def records_for_policy(policy, sessions, seed: int) -> list[EvalRecord]:
    """Quote every session under a fixed per-session random stream, in one
    ``quote_batch`` call per block of ``QUOTE_BLOCK`` sessions."""
    records = []
    for start in range(0, len(sessions), QUOTE_BLOCK):
        block = sessions[start:start + QUOTE_BLOCK]
        rngs = [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3, i)))
                for i in range(start, start + len(block))]
        for session, quote in zip(block, quote_all(policy, block, rngs)):
            records.append(EvalRecord(
                offered_price=session.price_offered,
                recommended_price=quote.recommended_price,
                purchased=int(session.purchased),
                score=policy.score(session),
                revenue=session.price_offered * int(session.purchased),
            ))
    return records


def model_row_from_records(records: Sequence[EvalRecord]) -> ModelRow:
    """Compute every offline metric that is defined for these records."""
    scores = [r.score for r in records]
    auc = None
    if all(s is not None for s in scores) and records:
        try:
            auc = auc_roc(scores, [r.purchased for r in records])
        except SingleClassInput:
            auc = None
    try:
        regret = regret_score(records)
    except NoPurchases:
        regret = None
    try:
        pdr_value = pdr(records)
    except UndefinedMetric:
        pdr_value = None
    try:
        pdp_value = pdp(records)
    except UndefinedMetric:
        pdp_value = None
    pdf1_value = None
    if pdr_value is not None and pdp_value is not None:
        pdf1_value = pdf1(pdr_value, pdp_value)
    return ModelRow(auc=auc, regret=regret, pdr=pdr_value, pdp=pdp_value, pdf1=pdf1_value)


def arm_row_from_outcomes(outcomes: Sequence[OfferOutcome],
                          baseline_revenue_per_offer: float | None = None) -> ArmRow:
    rpo = revenue_per_offer(outcomes)
    normalized = None
    if baseline_revenue_per_offer is not None and baseline_revenue_per_offer > 0:
        normalized = rpo / baseline_revenue_per_offer
    return ArmRow(
        offers=len(outcomes),
        purchases=int(sum(o.purchased for o in outcomes)),
        conversion=conversion_score(outcomes),
        revenue_per_offer=rpo,
        revenue_per_session=revenue_per_session(outcomes),
        revenue_per_offer_normalized=normalized,
    )


def arm_rows_from_outcomes(arm_outcomes: Mapping[str, Sequence[OfferOutcome]],
                           baseline_arm: str | None = None) -> dict[str, ArmRow]:
    """One row per arm that made offers. Revenue per offer is normalized by
    the baseline arm's, when that arm made offers."""
    baseline = arm_outcomes.get(baseline_arm)
    baseline_rpo = revenue_per_offer(baseline) if baseline else None
    return {name: arm_row_from_outcomes(outs, baseline_rpo)
            for name, outs in arm_outcomes.items() if outs}


def build_report(policies: Mapping[str, object], sessions: Sequence,
                 seed: int, dataset_id: str = "unnamed",
                 arm_outcomes: Mapping[str, Sequence[OfferOutcome]] | None = None,
                 baseline_arm: str | None = None) -> MetricReport:
    """Offline rows for each policy, plus arm rows when outcomes are given.

    Deterministic: the same policies, sessions, and seed reproduce the
    report byte for byte.
    """
    model_rows = {
        name: model_row_from_records(records_for_policy(policy, sessions, seed))
        for name, policy in policies.items()
    }
    return MetricReport(seed=seed, dataset_id=dataset_id, model_rows=model_rows,
                        arm_rows=arm_rows_from_outcomes(arm_outcomes or {}, baseline_arm))
