"""Domain types, shared input checks, feature encoding, and price-grid arithmetic.

Everything here is immutable after construction and safe to share across
threads; the operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from .errors import AllFeaturesDegenerate, EmptyDataset, NonFiniteInput, SchemaMismatch

# Base features extracted from every SessionRecord, in encoding order.
# Extra features (per-session name -> value maps) follow, sorted by name.
BASE_NUMERIC = (
    "days_to_departure",
    "departure_epoch",
    "length_of_stay",
    "group_size",
    "num_stops",
    "price_comparison_score",
)
BASE_CATEGORICAL = ("market", "booking_class")


def is_number(value) -> bool:
    """Whether ``value`` is a JSON number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_integer(value) -> bool:
    """Whether ``value`` is a JSON integer: an int, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """Whether ``value`` is a number a float holds finitely: not a bool, NaN,
    an infinity or an int too large for a float."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def require_positive(name: str, value, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` unless ``value`` is a positive, finite number."""
    if not (is_finite_number(value) and value > 0):
        raise error(f"{name} must be positive and finite, got {value}")


def check_finite_fields(obj, names: Sequence[str] = ()) -> None:
    """Refuse a dataclass whose named fields (all of them by default) are
    not all finite numbers."""
    for name in names or [f.name for f in fields(obj)]:
        value = getattr(obj, name)
        if not is_finite_number(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


class PolicyTag(str, Enum):
    HUMAN = "HUMAN"
    RANDOM = "RANDOM"
    APP_LM = "APP_LM"
    APP_DES = "APP_DES"
    DNN_CL = "DNN_CL"
    EPS_GREEDY = "EPS_GREEDY"


@dataclass(frozen=True)
class SessionRecord:
    """One booking session: raw attributes, offered price, purchase label.

    ``purchased`` is None for inference-time records that have no outcome
    yet. ``length_of_stay`` of 0 means a one-way booking.
    """

    session_id: str
    days_to_departure: int
    departure_epoch: int
    length_of_stay: int
    market: tuple[str, str]
    group_size: int
    booking_class: str
    num_stops: int
    price_comparison_score: float
    price_offered: float
    purchased: int | None = None
    extra_features: Mapping[str, float | str] = field(default_factory=dict)

    def __post_init__(self):
        require_positive("price_offered", self.price_offered)
        if self.days_to_departure < 0:
            raise ValueError("days_to_departure must be non-negative")
        if self.length_of_stay < 0:
            raise ValueError("length_of_stay must be non-negative")
        if self.group_size < 1:
            raise ValueError("group_size must be at least 1")
        if self.num_stops < 0:
            raise ValueError("num_stops must be non-negative")
        if self.purchased is not None and self.purchased not in (0, 1):
            raise ValueError(f"purchased must be 0 or 1, got {self.purchased}")
        if len(self.market) != 2:
            raise ValueError("market must be an (origin, destination) pair")

    @property
    def market_code(self) -> str:
        return f"{self.market[0]}-{self.market[1]}"


@dataclass(frozen=True)
class PriceGrid:
    """The ordered discrete set of legal prices within [p_min, p_max]."""

    prices: tuple[float, ...]

    def __post_init__(self):
        if len(self.prices) < 2:
            raise ValueError("price grid needs at least 2 points")
        for p in self.prices:
            require_positive("grid price", p)
        if any(b <= a for a, b in zip(self.prices, self.prices[1:])):
            raise ValueError("grid prices must be strictly ascending")
        object.__setattr__(self, "prices", tuple(map(float, self.prices)))  # logs write 30.0
        object.__setattr__(self, "_arr", np.asarray(self.prices))

    @property
    def p_min(self) -> float:
        return self.prices[0]

    @property
    def p_max(self) -> float:
        return self.prices[-1]

    def as_array(self) -> np.ndarray:
        return self._arr

    def __len__(self) -> int:
        return len(self.prices)

    def clamp(self, price: float) -> float:
        return min(max(price, self.p_min), self.p_max)


@dataclass(frozen=True)
class NumericFeature:
    name: str
    mean: float
    std: float
    optional: bool  # optional features carry an extra missing-flag column

    def __post_init__(self):
        check_finite_fields(self, ("mean",))
        require_positive("std", self.std)


@dataclass(frozen=True)
class CategoricalFeature:
    name: str
    levels: tuple[str, ...]  # one-hot over levels plus a trailing unknown bucket


@dataclass(frozen=True)
class EncodingSchema:
    """Fitted feature layout: z-score stats and categorical level lists."""

    numeric: tuple[NumericFeature, ...]
    categorical: tuple[CategoricalFeature, ...]

    @property
    def dim(self) -> int:
        n = sum(2 if f.optional else 1 for f in self.numeric)
        n += sum(len(f.levels) + 1 for f in self.categorical)
        return n

    @cached_property
    def _plan(self) -> tuple[tuple, tuple]:
        """What ``encode_matrix`` reads per feature, built once per schema:
        ``(getter, mean, std, optional, name)`` for each numeric feature, and
        ``(getter, level -> index, width)`` for each categorical one, the
        first of a repeated level winning. Kept in the instance ``__dict__``
        only, so fields, equality and documents are unchanged."""
        numeric = tuple((_feature_getter(f.name), f.mean, f.std, f.optional, f.name)
                        for f in self.numeric)
        categorical = tuple(
            (_feature_getter(f.name), {lvl: k for k, lvl in reversed(list(enumerate(f.levels)))},
             len(f.levels) + 1)
            for f in self.categorical)
        return numeric, categorical


@dataclass(frozen=True)
class Quote:
    """A price recommendation emitted by one of the pricing policies."""

    recommended_price: float
    policy_tag: PolicyTag
    purchase_prob_estimate: float | None = None
    model_version: str = "dev"

    def __post_init__(self):
        require_positive("recommended_price", self.recommended_price)
        p = self.purchase_prob_estimate
        if p is not None and not 0.0 <= p <= 1.0:
            raise ValueError(f"purchase probability estimate out of [0,1]: {p}")

    def to_dict(self) -> dict:
        """The reply of ``recommend`` and ``POST /v1/price``, in this key order;
        ``purchase_prob`` only when the policy estimates one."""
        out = {
            "recommended_price": self.recommended_price,
            "policy": self.policy_tag.value,
            "model_version": self.model_version,
        }
        if self.purchase_prob_estimate is not None:
            out["purchase_prob"] = self.purchase_prob_estimate
        return out


class DemandModel(Protocol):
    """Purchase-probability estimator f(x, P) in [0, 1].

    ``predict_proba_grid`` is its one prediction method, and every caller
    passes a batch: APP-DES reads it over the whole grid; APP-LM quotes,
    and both score, at one price per session through ``policies._probs_at``.
    Each batch row must equal its session alone as a batch of one.
    """

    def predict_proba_grid(self, features: np.ndarray, prices: np.ndarray) -> np.ndarray:
        """The probability of each row of ``features[n, d]`` at each of
        ``prices``: a grid ``[g]`` shared by every row, or each row's own
        prices ``[n, g]``. Gives ``[n, g]``."""
        ...


def predict_proba_rows(model: DemandModel, features: np.ndarray,
                       prices: np.ndarray) -> np.ndarray:
    """The probability of each row of ``features[n, d]`` at its own price
    ``prices[i]``, as an ``[n]`` array: the one-price case of
    ``predict_proba_grid``."""
    return model.predict_proba_grid(features, np.asarray(prices, dtype=float)[:, None])[:, 0]


def sigmoid(z: np.ndarray, clip: float) -> np.ndarray:
    """The logistic function, computed stably on each side of 0 and kept
    inside ``[clip, 1 - clip]``."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out, clip, 1.0 - clip)


def _feature_getter(name: str) -> Callable[[SessionRecord], object]:
    """Reads a named feature of a session: a base attribute (the market as
    its code), else the extra feature of that name, None when absent."""
    if name == "market":
        return attrgetter("market_code")
    if name in BASE_NUMERIC or name in BASE_CATEGORICAL:
        return attrgetter(name)
    return lambda session: session.extra_features.get(name)


def fit_schema(sessions: Sequence[SessionRecord]) -> EncodingSchema:
    """Fit an encoding layout from raw sessions.

    Numeric features are z-scored with population (1/n) variance; constant
    numeric features are dropped. Categorical features collect sorted level
    lists plus an unknown bucket. Extra features seen missing at fit time
    are marked optional and get a missing-flag column.
    """
    if len(sessions) < 2:
        raise EmptyDataset(f"need at least 2 sessions to fit a schema, got {len(sessions)}")

    extra_names = sorted({name for s in sessions for name in s.extra_features})
    kinds: dict[str, str] = {}
    for name in extra_names:
        observed = [s.extra_features[name] for s in sessions
                    if s.extra_features.get(name) is not None]
        if not observed:
            continue
        if all(is_number(v) for v in observed):
            kinds[name] = "numeric"
        elif all(isinstance(v, str) for v in observed):
            kinds[name] = "categorical"
        else:
            raise SchemaMismatch(f"feature {name!r} mixes numeric and categorical values")

    numeric: list[NumericFeature] = []
    numeric_names = list(BASE_NUMERIC) + [n for n in extra_names if kinds.get(n) == "numeric"]
    for name in numeric_names:
        get = _feature_getter(name)
        raw = [get(s) for s in sessions]
        present = [float(v) for v in raw if v is not None]
        if not present:
            continue
        with np.errstate(over="ignore", invalid="ignore"):  # NumericFeature refuses the result
            mean = float(np.mean(present))
            std = float(np.std(present))
        if std == 0.0:
            continue  # zero-variance feature carries no signal
        optional = len(present) < len(raw)
        try:
            numeric.append(NumericFeature(name=name, mean=mean, std=std, optional=optional))
        except ValueError as exc:
            raise NonFiniteInput(f"feature {name!r}: {exc}") from None

    if not numeric:
        raise AllFeaturesDegenerate("every numeric feature is constant")

    categorical: list[CategoricalFeature] = []
    cat_names = list(BASE_CATEGORICAL) + [n for n in extra_names if kinds.get(n) == "categorical"]
    for name in cat_names:
        get = _feature_getter(name)
        observed = {str(v) for s in sessions if (v := get(s)) is not None}
        if not observed:
            continue
        categorical.append(CategoricalFeature(name=name, levels=tuple(sorted(observed))))

    return EncodingSchema(numeric=tuple(numeric), categorical=tuple(categorical))


def encode(session: SessionRecord, schema: EncodingSchema) -> np.ndarray:
    """Encode one session against a fitted schema as a read-only row of
    ``schema.dim`` finite floats: the one-row case of ``encode_matrix``."""
    out = encode_matrix([session], schema)
    out.setflags(write=False)
    return out[0]


def encode_matrix(sessions: Sequence[SessionRecord], schema: EncodingSchema) -> np.ndarray:
    """Encode each session as one row of a ``(len(sessions), schema.dim)``
    array. Pure and deterministic.

    A numeric feature is z-scored; an optional one adds a missing flag and
    reads 0 when absent. A categorical feature is one-hot over its levels
    plus a trailing bucket for an unseen level or an absent value. The
    first bad session raises: ``SchemaMismatch`` for a required feature
    that is absent or a numeric one that is not a number, ``NonFiniteInput``
    for a row that is not finite.
    """
    numeric, categorical = schema._plan
    out = np.empty((len(sessions), schema.dim))
    for r, session in enumerate(sessions):
        row: list[float] = []
        for get, mean, std, optional, name in numeric:
            v = get(session)
            if v is None:
                if not optional:
                    raise SchemaMismatch(f"required feature {name!r} missing from session "
                                         f"{session.session_id!r}")
                row += (0.0, 1.0)
            elif not is_number(v):
                raise SchemaMismatch(f"feature {name!r} expected numeric, got {type(v).__name__}")
            elif optional:
                row += ((float(v) - mean) / std, 0.0)
            else:
                row.append((float(v) - mean) / std)
        if not all(map(math.isfinite, row)):
            raise NonFiniteInput("feature vector contains non-finite values")
        for get, index, width in categorical:
            hot = [0.0] * width
            v = get(session)
            hot[width - 1 if v is None else index.get(str(v), width - 1)] = 1.0
            row += hot
        out[r] = row
    return out


@dataclass(frozen=True)
class EncodedDataset:
    """Encoded feature matrix with offered prices and labels, ready to fit."""

    features: np.ndarray  # (n, d)
    prices: np.ndarray    # (n,)
    labels: np.ndarray    # (n,) in {0, 1}
    p_max: float

    @property
    def n(self) -> int:
        return len(self.labels)


def encode_dataset(sessions: Sequence[SessionRecord], schema: EncodingSchema,
                   grid: PriceGrid) -> EncodedDataset:
    if any(s.purchased is None for s in sessions):
        raise ValueError("all sessions must carry a purchase label for training")
    return EncodedDataset(
        features=encode_matrix(sessions, schema),
        prices=np.array([s.price_offered for s in sessions], dtype=float),
        labels=np.array([s.purchased for s in sessions], dtype=int),
        p_max=grid.p_max,
    )


def grid_rows(features: np.ndarray, scaled_prices: np.ndarray) -> np.ndarray:
    """Model input rows (features, scaled price) for every price.

    ``features[d]`` with prices ``[g]`` gives ``[g, d+1]``; ``features[n, d]``
    with a grid ``[g]`` shared by every row, or with each row's own prices
    ``[n, g]``, gives ``[n, g, d+1]``. Each session's (g, d+1) block is in
    Fortran order, as ``column_stack`` over a broadcast lays it out: sums
    over a row and matmuls round in an order that depends on the layout, so
    one session gets the same bits whether it is priced alone or in a batch.
    """
    features = np.asarray(features, dtype=float)
    *lead, d = features.shape
    buf = np.empty((*lead, d + 1, np.shape(scaled_prices)[-1]))
    buf[..., :d, :] = features[..., None]
    buf[..., d, :] = scaled_prices
    return np.swapaxes(buf, -1, -2)


def snap_to_grid(price: float | np.ndarray, grid: PriceGrid) -> int | np.ndarray:
    """Index of the grid price nearest to ``price``: an ``int`` for a
    scalar, an array of indices for an array of prices.

    The input is clamped into [p_min, p_max] first; exact equidistant ties
    go to the lower index. The distances round, so a rounded tie can hide a
    point that is strictly nearer (``3.5`` on the grid ``1.0, 1.0 + 2**-52,
    6.0`` ties at 2.5 but is nearer the second point); such ties are
    settled exactly.
    """
    prices = grid.as_array()
    p = np.clip(price, grid.p_min, grid.p_max)
    flat = np.atleast_1d(p).ravel()
    dist = np.abs(prices - flat[:, None])
    idx = np.argmin(dist, axis=1)
    nearest = dist == dist.min(axis=1, keepdims=True)
    for i in np.flatnonzero(np.count_nonzero(nearest, axis=1) > 1):
        idx[i] = _nearest_exact(float(flat[i]), prices, np.flatnonzero(nearest[i]))
    return int(idx[0]) if np.ndim(price) == 0 else idx.reshape(np.shape(p))


def _nearest_exact(p: float, prices: np.ndarray, candidates: np.ndarray) -> int:
    """The candidate index whose price is exactly nearest to ``p``, the
    lowest on an exact tie; ``candidates`` ascend, as the prices do."""
    best = int(candidates[0])
    for k in candidates[1:]:
        a, b = float(prices[best]), float(prices[k])
        # b lies above a: it is nearer when p is not below it, or when p lies
        # between them and past their midpoint (fsum gives the exact sign).
        if b <= p or (a < p and math.fsum([p, p, -a, -b]) > 0):
            best = int(k)
    return best
