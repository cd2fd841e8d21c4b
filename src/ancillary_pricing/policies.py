"""Price-selection layer: pure pricing operations plus policy adapters.

The operations take explicit random draws where randomness is involved, so
every function here is referentially transparent. The policy classes wrap
them behind a uniform ``quote_batch(sessions, rngs)`` interface for the
A/B harness and the evaluation report; the serving layer's
``quote(session, rng)`` is its one-session case for every policy.
The report also scores each block of sessions through ``score_batch``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence, TypeVar

import numpy as np

from .core import (
    DemandModel,
    EncodingSchema,
    PolicyTag,
    PriceGrid,
    Quote,
    SessionRecord,
    check_finite_fields,
    encode,  # unused here; perfbench/layers.py wraps it by name in this module
    encode_matrix,
    require_positive,
)
from .errors import NonFiniteInput
from .pricing_net import DnnClModel, dnncl_quotes

# Sessions priced per quote_batch call by run_abtest and records_for_policy:
# it bounds the memory of a batch (an (n, grid, features) tensor for APP-DES)
# while leaving each arm enough sessions to amortize the per-call cost.
QUOTE_BLOCK = 256

T = TypeVar("T")


@dataclass(frozen=True)
class LogisticMapParams:
    """Probability-to-price curve: max_price / (1 + exp(-shape*(p - midpoint)))."""

    max_price: float
    shape: float
    midpoint: float

    def __post_init__(self):
        check_finite_fields(self)
        if self.max_price <= 0:
            raise ValueError("max_price must be positive")
        if self.shape <= 0:
            raise ValueError("shape must be positive")
        if not 0.0 < self.midpoint < 1.0:
            raise ValueError("midpoint must lie in (0, 1)")


@dataclass(frozen=True)
class RandomDiscountParams:
    """Gaussian discount noise below a static reference price."""

    mean_discount: float
    std_discount: float
    static_price: float

    def __post_init__(self):
        check_finite_fields(self)
        if self.std_discount < 0:
            raise ValueError("std_discount must be non-negative")
        require_positive("static_price", self.static_price)


def logistic_map(prob: float, params: LogisticMapParams, grid: PriceGrid) -> float:
    """Map a purchase probability to a price, clamped into the grid range.

    Where the exponential is past any float (a steep map far below its
    midpoint) the map's limit, 0, is clamped to ``p_min``.
    """
    try:
        raw = params.max_price / (1.0 + math.exp(-params.shape * (prob - params.midpoint)))
    except OverflowError:
        raw = 0.0
    return grid.clamp(raw)


def des_recommend(model: DemandModel, features: np.ndarray, grid: PriceGrid,
                  model_version: str = "dev") -> Quote:
    """Exhaustive search for the grid price maximizing expected revenue.

    The demand model is evaluated over the whole grid for the session as a
    batch of one; exact revenue ties go to the lowest price.
    """
    probs = model.predict_proba_grid(features[None, :], grid.as_array())
    return _des_quotes(np.atleast_2d(probs), grid, model_version)[0]


def _des_quotes(probs: np.ndarray, grid: PriceGrid, model_version: str) -> list[Quote]:
    """The revenue-maximizing quote of each session from its row of
    ``probs[n, g]`` over the grid."""
    best = np.argmax(grid.as_array() * probs, axis=1)  # first maximum: lowest price on ties
    return [Quote(recommended_price=grid.prices[i], policy_tag=PolicyTag.APP_DES,
                  purchase_prob_estimate=row[i], model_version=model_version)
            for i, row in zip(best.tolist(), probs.tolist())]


def epsilon_greedy(eps: float, u: float, explore: T, exploit: T) -> T:
    """The exploration branch (a price or a quote) when the uniform draw u
    falls below eps, else the exploitation branch. ``eps`` is not checked
    here: ``EpsilonGreedyPolicy`` refuses one outside [0, 1] once."""
    return explore if u < eps else exploit


def random_discount(params: RandomDiscountParams, gauss: float, grid: PriceGrid) -> float:
    """Static price minus folded Gaussian noise, clamped into the grid.

    The absolute value keeps the discount non-negative: the served price
    never exceeds the static reference.
    """
    discount = abs(params.mean_discount + params.std_discount * gauss)
    return grid.clamp(params.static_price - discount)


def static_price(price: float, model_version: str = "human") -> Quote:
    return Quote(recommended_price=price, policy_tag=PolicyTag.HUMAN,
                 model_version=model_version)


class PricingPolicy(Protocol):
    """Maps a raw session to a price quote; rng covers any exploration.

    ``quote_batch(sessions, rngs)[i]`` equals ``quote(sessions[i], rngs[i])``
    bit for bit, and draws from ``rngs[i]`` in the same order: every
    policy's ``quote`` is ``_quote_one``, the one-session ``quote_batch``.
    ``score_batch(sessions)[i]`` is the purchase-probability estimate at
    ``sessions[i].price_offered``; the whole result is None for a policy
    that estimates none.
    """

    name: str

    def quote(self, session: SessionRecord, rng: np.random.Generator) -> Quote:
        ...

    def quote_batch(self, sessions: Sequence[SessionRecord],
                    rngs: Sequence[np.random.Generator]) -> list[Quote]:
        ...

    def score_batch(self, sessions: Sequence[SessionRecord]) -> list[float] | None:
        ...


def _quote_one(policy: PricingPolicy, session: SessionRecord,
               rng: np.random.Generator) -> Quote:
    """``quote`` of every policy: its one-session case."""
    return quote_all(policy, [session], [rng])[0]


def _check_in_grid(price: float, grid: PriceGrid) -> None:
    if not grid.p_min <= price <= grid.p_max:
        raise ValueError(f"static price {price} outside grid range [{grid.p_min}, {grid.p_max}]")


@dataclass(frozen=True)
class StaticPricePolicy:
    price: float
    grid: PriceGrid
    name: str = "HUMAN"

    def __post_init__(self):
        _check_in_grid(self.price, self.grid)

    quote = _quote_one

    def quote_batch(self, sessions, rngs) -> list[Quote]:
        return [static_price(self.price) for _ in sessions]

    def score_batch(self, sessions) -> None:
        return None


@dataclass(frozen=True)
class RandomDiscountPolicy:
    params: RandomDiscountParams
    grid: PriceGrid
    name: str = "RANDOM"

    def __post_init__(self):
        _check_in_grid(self.params.static_price, self.grid)

    quote = _quote_one

    def quote_batch(self, sessions, rngs) -> list[Quote]:
        gauss = [float(rng.standard_normal()) for rng in rngs]
        return [Quote(random_discount(self.params, g, self.grid), PolicyTag.RANDOM,
                      model_version="random-discount") for g in gauss]

    def score_batch(self, sessions) -> None:
        return None


def _grid_probs(model: DemandModel, x: np.ndarray, prices: np.ndarray) -> np.ndarray:
    """``model.predict_proba_grid(x, prices)``, checked. A model that
    implements only the one-session form returns the wrong shape for a
    batch: it is refused rather than misalign the quotes. A probability
    that is not finite (a feature so far out that both GNB class
    likelihoods vanish, or weights that overflow) is an input error."""
    probs = model.predict_proba_grid(x, prices)
    shape = (len(x), np.shape(prices)[-1])
    if np.shape(probs) != shape:
        raise ValueError(f"{type(model).__name__}.predict_proba_grid gave shape "
                         f"{np.shape(probs)} for a batch of shape {shape}; "
                         f"see core.DemandModel")
    # count_nonzero, not .all(): the reduction measured slower per served request
    if np.count_nonzero(np.isfinite(probs)) != probs.size:
        raise NonFiniteInput("the demand model gave a non-finite purchase probability; a feature "
                             "is out of the range it can price, or the model's weights overflow")
    return probs


def _probs_at(model: DemandModel, schema: EncodingSchema,
              sessions: Sequence[SessionRecord], prices) -> np.ndarray:
    """The demand model's estimate for each encoded session at its own price."""
    x = encode_matrix(sessions, schema)
    return _grid_probs(model, x, np.asarray(prices, dtype=float)[:, None])[:, 0]


def _score_offered(policy, sessions) -> list[float]:
    """The ``score_batch`` of APP-LM and APP-DES: the demand model's
    estimate at each session's offered price."""
    return _probs_at(policy.model, policy.schema, sessions,
                     [s.price_offered for s in sessions]).tolist()


@dataclass(frozen=True)
class AppLmPolicy:
    """Purchase probability at a fixed reference price, mapped to a price."""

    model: DemandModel
    schema: EncodingSchema
    grid: PriceGrid
    logistic: LogisticMapParams
    p_ref: float
    name: str = "APP-LM"
    model_version: str = "dev"

    def __post_init__(self):
        require_positive("p_ref", self.p_ref)

    quote = _quote_one

    def quote_batch(self, sessions, rngs) -> list[Quote]:
        probs = _probs_at(self.model, self.schema, sessions, np.full(len(sessions), self.p_ref))
        return [Quote(recommended_price=logistic_map(prob, self.logistic, self.grid),
                      policy_tag=PolicyTag.APP_LM, purchase_prob_estimate=prob,
                      model_version=self.model_version)
                for prob in probs.tolist()]

    score_batch = _score_offered


@dataclass(frozen=True)
class AppDesPolicy:
    model: DemandModel
    schema: EncodingSchema
    grid: PriceGrid
    name: str = "APP-DES"
    model_version: str = "dev"

    quote = _quote_one

    def quote_batch(self, sessions, rngs) -> list[Quote]:
        probs = _grid_probs(self.model, encode_matrix(sessions, self.schema),
                            self.grid.as_array())
        return _des_quotes(probs, self.grid, self.model_version)

    score_batch = _score_offered


@dataclass(frozen=True)
class DnnClPolicy:
    model: DnnClModel
    schema: EncodingSchema
    name: str = "DNN-CL"
    model_version: str = "dev"

    quote = _quote_one

    def quote_batch(self, sessions, rngs) -> list[Quote]:
        return dnncl_quotes(self.model, encode_matrix(sessions, self.schema),
                            self.model_version)

    def score_batch(self, sessions) -> None:
        return None  # prices directly; no probability output


@dataclass(frozen=True)
class EpsilonGreedyPolicy:
    """Logistic exploration with probability eps, else revenue maximization."""

    eps: float
    explore: PricingPolicy
    exploit: PricingPolicy
    name: str = "EPS-GREEDY"

    def __post_init__(self):
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError("eps must lie in [0, 1]")

    quote = _quote_one

    def quote_batch(self, sessions, rngs) -> list[Quote]:
        # Per stream the draws come in this order: u, then explore's, then exploit's.
        us = [float(rng.uniform()) for rng in rngs]
        explore = quote_all(self.explore, sessions, rngs)
        exploit = quote_all(self.exploit, sessions, rngs)
        return [self._choose(*args) for args in zip(us, explore, exploit)]

    def _choose(self, u: float, q_explore: Quote, q_exploit: Quote) -> Quote:
        chosen = epsilon_greedy(self.eps, u, q_explore, q_exploit)
        return Quote(
            recommended_price=chosen.recommended_price,
            policy_tag=PolicyTag.EPS_GREEDY,
            purchase_prob_estimate=chosen.purchase_prob_estimate,
            model_version=chosen.model_version,
        )

    def score_batch(self, sessions) -> list[float] | None:
        return self.exploit.score_batch(sessions)


def quote_all(policy: PricingPolicy, sessions: Sequence[SessionRecord],
              rngs: Sequence[np.random.Generator]) -> list[Quote]:
    """``policy.quote_batch(sessions, rngs)``; a batch that gives another
    number of quotes than sessions raises ``ValueError``."""
    if not sessions:
        return []
    quotes = policy.quote_batch(sessions, rngs)
    if len(quotes) != len(sessions):
        raise ValueError(f"{type(policy).__name__}.quote_batch gave {len(quotes)} quotes "
                         f"for {len(sessions)} sessions")
    return quotes
