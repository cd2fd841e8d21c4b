"""Synthetic market with ground-truth willingness to pay.

Each generated session carries a latent willingness-to-pay (WTP) drawn
from a lognormal law: log-WTP is a sub-market base level plus additive
covariate effects plus Gaussian noise. Purchases are a deterministic
threshold on the latent draw, which makes the monotonicity assumption
(buy at p implies buy at any cheaper p) literally true.

All randomness flows through counter-based per-session streams derived
from (master seed, session index), so runs are reproducible and could be
parallelized without changing results.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace

import numpy as np

from .codec import from_doc, to_doc
from .core import PriceGrid, SessionRecord
from .errors import CalibrationDiverged
from .metrics import MetricReport, OfferOutcome, arm_rows_from_outcomes
from .policies import (
    QUOTE_BLOCK,
    PricingPolicy,
    RandomDiscountParams,
    quote_all,
    random_discount,
)

EPOCH_2025 = 1_735_689_600  # departure dates land in the year after this
BOOKING_CLASSES = ("business", "economy", "flex")
CLASS_PROBS = (0.10, 0.72, 0.18)
CLASS_WTP_BUMP = {"business": 0.25, "economy": 0.0, "flex": 0.10}


def choice_table(weights) -> list[float]:
    """The cumulative table ``Generator.choice(n, p=weights)`` searches:
    the running sum of the weights divided by its last entry."""
    cdf = np.cumsum(np.asarray(weights, dtype=float))
    cdf /= cdf[-1]
    return cdf.tolist()


CLASS_TABLE = choice_table(CLASS_PROBS)


@dataclass(frozen=True)
class SubMarket:
    """A cluster of origin-destination pairs with similar demand."""

    name: str
    markets: tuple[tuple[str, str], ...]
    weight: float
    wtp_log_mean: float
    wtp_log_std: float
    dtd_slope: float = 0.0        # per normalized days-to-departure
    los_window: tuple[float, float] = (0.05, 0.3)
    los_bonus: float = 0.0        # added inside the normalized-LOS window
    group_slope: float = 0.0      # per traveler beyond the first
    pcs_slope: float = 0.0        # per unit of price-comparison score
    popularity: float = 0.0       # center of the route_popularity feature
    popularity_slope: float = 0.0

    def __post_init__(self):
        if self.wtp_log_std < 0:
            raise ValueError("wtp_log_std must be non-negative")
        lo, hi = self.los_window
        if not 0.0 <= lo <= hi <= 1.0:
            raise ValueError("los_window must lie within [0, 1]")
        if not self.markets:
            raise ValueError("sub-market needs at least one origin-destination pair")


@dataclass(frozen=True)
class MarketSpec:
    sub_markets: tuple[SubMarket, ...]
    static_price: float
    target_base_conversion: float = 0.06
    dtd_max: int = 120
    los_max: int = 21
    one_way_share: float = 0.3
    booking_class_bumps: dict[str, float] = field(default_factory=lambda: dict(CLASS_WTP_BUMP))

    def __post_init__(self):
        if not self.sub_markets:
            raise ValueError("need at least one sub-market")
        weights = [sm.weight for sm in self.sub_markets]
        if not all(math.isfinite(w) and w >= 0 for w in weights):
            raise ValueError(f"sub-market weights must be finite and non-negative, "
                             f"got {weights}")
        total = sum(weights)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"sub-market weights must sum to 1, got {total}")
        if self.static_price <= 0:
            raise ValueError("static_price must be positive")
        object.__setattr__(self, "_sub_market_table", choice_table(weights))


@dataclass(frozen=True)
class SimSession:
    """A generated session plus its latent WTP, hidden from every policy."""

    record: SessionRecord
    wtp: float


def session_stream(master_seed: int, index: int) -> np.random.Generator:
    """Counter-based per-session RNG stream."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(0, index)))


def gen_session(spec: MarketSpec, rng: np.random.Generator) -> SimSession:
    """Sample one session; the draw order below is part of the contract.

    A categorical draw (sub-market, booking class) takes one ``random()``
    and looks it up in the cumulative table with ``bisect_right``. That is
    exactly what ``rng.choice(n, p=weights)`` draws and returns, so the
    contract is the same as that of the ``choice`` form.
    """
    sm = spec.sub_markets[bisect_right(spec._sub_market_table, rng.random())]
    market = sm.markets[rng.integers(len(sm.markets))]
    dtd = int(rng.integers(0, spec.dtd_max + 1))
    departure_epoch = EPOCH_2025 + int(rng.integers(0, 365)) * 86_400
    if rng.random() < spec.one_way_share:
        los = 0
    else:
        los = 1 + int(rng.integers(0, spec.los_max))
    group = 1 + int(rng.binomial(4, 0.22))
    stops = int(rng.integers(0, 3))
    booking_class = BOOKING_CLASSES[bisect_right(CLASS_TABLE, rng.random())]
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


def simulate_decision(session: SimSession, offered: float) -> int:
    """Threshold purchase rule: buy exactly when WTP covers the price."""
    if offered <= 0:
        raise ValueError("offered price must be positive")
    return 1 if session.wtp >= offered else 0


def calibrate(spec: MarketSpec, target_rate: float, static_price: float | None = None,
              n: int = 100_000, seed: int = 0) -> MarketSpec:
    """Shift every sub-market's base log-WTP until the conversion at the
    static price hits the target within 0.005.

    Bisection over a common additive shift against one fixed sample of n
    latent draws; deterministic per seed.
    """
    if not 0.0 < target_rate < 1.0:
        raise CalibrationDiverged(f"target rate must lie in (0, 1), got {target_rate}")
    price = spec.static_price if static_price is None else static_price
    wtps = np.array([gen_session(spec, session_stream(seed, i)).wtp for i in range(n)])

    def conversion(shift: float) -> float:
        return float(np.mean(wtps * math.exp(shift) >= price))

    lo, hi = -20.0, 20.0
    if not conversion(lo) <= target_rate <= conversion(hi):
        raise CalibrationDiverged("target rate outside the reachable bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if conversion(mid) < target_rate:
            lo = mid
        else:
            hi = mid
        if abs(conversion(hi) - target_rate) <= 0.005 and hi - lo < 1e-9:
            break
    shift = hi
    if abs(conversion(shift) - target_rate) > 0.005:
        raise CalibrationDiverged("bisection bracket exhausted without reaching target")
    shifted = tuple(replace(sm, wtp_log_mean=sm.wtp_log_mean + shift)
                    for sm in spec.sub_markets)
    return replace(spec, sub_markets=shifted)


def export_sessions(spec: MarketSpec, n: int, seed: int,
                    price_noise: RandomDiscountParams | None = None,
                    grid: PriceGrid | None = None) -> list[SessionRecord]:
    """Generate labeled training sessions priced at the static price.

    With ``price_noise`` (requires a grid), offers get random discounts so
    the logged data exposes price variation for demand models to learn
    from. The latent WTP is stripped; only realized labels remain.
    """
    if price_noise is not None and grid is None:
        raise ValueError("price_noise requires a grid for clamping")
    out: list[SessionRecord] = []
    for i in range(n):
        rng = session_stream(seed, i)
        sim = gen_session(spec, rng)
        if price_noise is not None:
            offered = random_discount(price_noise, float(rng.standard_normal()), grid)
        else:
            offered = spec.static_price
        label = simulate_decision(sim, offered)
        out.append(replace(sim.record, price_offered=offered, purchased=label))
    return out


@dataclass(frozen=True)
class ArmSpec:
    name: str
    policy: PricingPolicy
    split: float


@dataclass(frozen=True)
class AbConfig:
    arms: tuple[ArmSpec, ...]
    days: int
    sessions_per_day: int
    sessions_per_day_dist: str = "fixed"  # or "poisson"
    seed: int = 0
    baseline_arm: str | None = "HUMAN"

    def __post_init__(self):
        if len(self.arms) < 2:
            raise ValueError("an A/B test needs at least 2 arms")
        total = sum(a.split for a in self.arms)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"traffic splits must sum to 1, got {total}")
        if self.days < 1 or self.sessions_per_day < 1:
            raise ValueError("days and sessions_per_day must be positive")
        if self.sessions_per_day_dist not in ("fixed", "poisson"):
            raise ValueError("sessions_per_day_dist must be 'fixed' or 'poisson'")


@dataclass(frozen=True)
class DayStats:
    day: int
    offers: int
    purchases: int
    revenue: float


@dataclass(frozen=True)
class AbResult:
    daily: dict[str, list[DayStats]]
    outcomes: dict[str, list[OfferOutcome]]
    report: MetricReport


def run_abtest(spec: MarketSpec, config: AbConfig) -> AbResult:
    """Route seeded traffic across arms and realize outcomes at quoted prices.

    Per session: generate, draw the routing uniform, let the arm's policy
    quote, then apply the threshold purchase rule at the quoted price. All
    draws come from the session's own stream, so the full time series is
    reproducible from the master seed alone.

    Each day is worked in blocks of at most ``QUOTE_BLOCK`` sessions: first
    every session of the block is generated and routed, then each arm
    prices its sessions of the block in one ``quote_batch`` call. A
    policy's draws come only from each session's own stream, so the result
    equals quoting one session at a time.
    """
    names = [a.name for a in config.arms]
    cum_splits = np.cumsum([a.split for a in config.arms]).tolist()
    daily: dict[str, list[DayStats]] = {n: [] for n in names}
    outcomes: dict[str, list[OfferOutcome]] = {n: [] for n in names}

    index = 0
    for day in range(config.days):
        if config.sessions_per_day_dist == "poisson":
            day_rng = np.random.default_rng(
                np.random.SeedSequence(config.seed, spawn_key=(1, day)))
            n_today = int(day_rng.poisson(config.sessions_per_day))
        else:
            n_today = config.sessions_per_day
        counts = {n: [0, 0, 0.0] for n in names}  # offers, purchases, revenue
        for start in range(0, n_today, QUOTE_BLOCK):
            sims, rngs, routes = [], [], []
            for _ in range(min(QUOTE_BLOCK, n_today - start)):
                rng = session_stream(config.seed, index)
                index += 1
                sims.append(gen_session(spec, rng))
                rngs.append(rng)
                routes.append(bisect_right(cum_splits, rng.random()))
            prices = [0.0] * len(sims)
            for a, arm in enumerate(config.arms):
                mine = [i for i, r in enumerate(routes) if r == a]
                quotes = quote_all(arm.policy, [sims[i].record for i in mine],
                                   [rngs[i] for i in mine])
                for i, q in zip(mine, quotes):
                    prices[i] = q.recommended_price
            for sim, route, price in zip(sims, routes, prices):
                name = config.arms[route].name
                y = simulate_decision(sim, price)
                outcomes[name].append(OfferOutcome(price=price, purchased=y))
                c = counts[name]
                c[0] += 1
                c[1] += y
                c[2] += price * y
        for n in names:
            offers, purchases, revenue = counts[n]
            daily[n].append(DayStats(day=day, offers=offers, purchases=purchases,
                                     revenue=revenue))

    report = MetricReport(
        seed=config.seed,
        dataset_id=f"abtest-days{config.days}-spd{config.sessions_per_day}",
        arm_rows=arm_rows_from_outcomes(outcomes, config.baseline_arm),
    )
    return AbResult(daily=daily, outcomes=outcomes, report=report)


def market_spec_to_doc(spec: MarketSpec) -> dict:
    """The ``"market"`` object of a config; its keys are the field names of
    ``MarketSpec`` and ``SubMarket``."""
    return to_doc(spec)


def market_spec_from_doc(doc: dict) -> MarketSpec:
    """A market spec from its config object; a missing key takes the
    field's default, and the spec's own checks apply."""
    return from_doc(MarketSpec, doc)


DEFAULT_GRID = PriceGrid(tuple(float(p) for p in range(30, 52, 2)))


def default_market_spec() -> MarketSpec:
    """Desk-scale three-segment market around a static price of 50.

    A small premium segment whose buyers mostly clear the static price, a
    discount-responsive mid segment, and a large budget segment. Advance
    bookers are more price sensitive (negative slope on days to
    departure), and mid-length stays carry a WTP bonus.
    """
    return MarketSpec(
        static_price=50.0,
        sub_markets=(
            SubMarket(
                name="premium",
                markets=(("JFK", "LHR"), ("SFO", "NRT")),
                weight=0.075,
                wtp_log_mean=4.05,
                wtp_log_std=0.30,
                dtd_slope=-0.10,
                los_bonus=0.15,
                group_slope=0.06,
                pcs_slope=0.10,
                popularity=1.5,
                popularity_slope=0.05,
            ),
            SubMarket(
                name="midmarket",
                markets=(("BOS", "ORD"), ("AUS", "DEN"), ("SEA", "PHX")),
                weight=0.25,
                wtp_log_mean=2.90,
                wtp_log_std=0.55,
                dtd_slope=-0.30,
                los_bonus=0.35,
                group_slope=0.10,
                pcs_slope=0.25,
                popularity=0.5,
                popularity_slope=0.15,
            ),
            SubMarket(
                name="budget",
                markets=(("MCO", "PHL"), ("LAS", "DAL"), ("SAN", "SMF"), ("TPA", "BNA")),
                weight=0.675,
                wtp_log_mean=2.35,
                wtp_log_std=0.60,
                dtd_slope=-0.35,
                los_bonus=0.30,
                group_slope=0.08,
                pcs_slope=0.25,
                popularity=-0.5,
                popularity_slope=0.15,
            ),
        ),
    )
