"""Domain types, feature encoding, and price-grid arithmetic.

Everything here is immutable after construction and safe to share across
threads; the operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Protocol, Sequence

import numpy as np

from .errors import AllFeaturesDegenerate, EmptyDataset, SchemaMismatch

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
        if not (math.isfinite(self.price_offered) and self.price_offered > 0):
            raise ValueError(f"price_offered must be positive and finite, got {self.price_offered}")
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
        if any(p <= 0 for p in self.prices):
            raise ValueError("all grid prices must be positive")
        if any(b <= a for a, b in zip(self.prices, self.prices[1:])):
            raise ValueError("grid prices must be strictly ascending")
        object.__setattr__(self, "_arr", np.asarray(self.prices, dtype=float))

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

    def column_names(self) -> list[str]:
        cols: list[str] = []
        for f in self.numeric:
            cols.append(f.name)
            if f.optional:
                cols.append(f"{f.name}__missing")
        for f in self.categorical:
            cols.extend(f"{f.name}={lvl}" for lvl in f.levels)
            cols.append(f"{f.name}=<unknown>")
        return cols


@dataclass(frozen=True)
class Quote:
    """A price recommendation emitted by one of the pricing policies."""

    recommended_price: float
    policy_tag: PolicyTag
    purchase_prob_estimate: float | None = None
    model_version: str = "dev"

    def __post_init__(self):
        if self.recommended_price <= 0:
            raise ValueError("recommended price must be positive")
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

    ``quote`` needs only ``predict_proba`` and the one-session form of
    ``predict_proba_grid``; ``quote_batch`` of APP-DES needs the
    ``features[n, d] -> [n, g]`` form, and that of APP-LM, like the
    ``score_batch`` of both, needs ``predict_proba_rows``. Each batch row
    must equal its session alone.
    """

    def predict_proba(self, features: np.ndarray, price: float) -> float:
        ...

    def predict_proba_grid(self, features: np.ndarray, prices: np.ndarray) -> np.ndarray:
        """Every candidate price for one session ``features[d] -> [g]``, or
        for each of many sessions ``features[n, d] -> [n, g]``."""
        ...

    def predict_proba_rows(self, features: np.ndarray, prices: np.ndarray) -> np.ndarray:
        """``predict_proba(features[i], prices[i])`` for each row of
        ``features[n, d]``, as an ``[n]`` array."""
        ...


def _base_value(session: SessionRecord, name: str):
    if name == "market":
        return session.market_code
    return getattr(session, name)


def _raw_value(session: SessionRecord, name: str):
    """Value of a named feature, or None when absent/missing."""
    if name in BASE_NUMERIC or name in BASE_CATEGORICAL:
        return _base_value(session, name)
    return session.extra_features.get(name)


def _is_numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
        if all(_is_numeric(v) for v in observed):
            kinds[name] = "numeric"
        elif all(isinstance(v, str) for v in observed):
            kinds[name] = "categorical"
        else:
            raise SchemaMismatch(f"feature {name!r} mixes numeric and categorical values")

    numeric: list[NumericFeature] = []
    numeric_names = list(BASE_NUMERIC) + [n for n in extra_names if kinds.get(n) == "numeric"]
    for name in numeric_names:
        raw = [_raw_value(s, name) for s in sessions]
        present = [float(v) for v in raw if v is not None]
        if not present:
            continue
        mean = float(np.mean(present))
        std = float(np.std(present))
        if std == 0.0:
            continue  # zero-variance feature carries no signal
        optional = len(present) < len(raw)
        numeric.append(NumericFeature(name=name, mean=mean, std=std, optional=optional))

    if not numeric:
        raise AllFeaturesDegenerate("every numeric feature is constant")

    categorical: list[CategoricalFeature] = []
    cat_names = list(BASE_CATEGORICAL) + [n for n in extra_names if kinds.get(n) == "categorical"]
    for name in cat_names:
        observed = {str(v) for s in sessions if (v := _raw_value(s, name)) is not None}
        if not observed:
            continue
        categorical.append(CategoricalFeature(name=name, levels=tuple(sorted(observed))))

    return EncodingSchema(numeric=tuple(numeric), categorical=tuple(categorical))


def encode(session: SessionRecord, schema: EncodingSchema) -> np.ndarray:
    """Encode one session against a fitted schema as a read-only row of
    ``schema.dim`` finite floats. Pure and deterministic."""
    out = np.empty(schema.dim, dtype=float)
    i = 0
    for f in schema.numeric:
        v = _raw_value(session, f.name)
        if v is not None and not _is_numeric(v):
            raise SchemaMismatch(f"feature {f.name!r} expected numeric, got {type(v).__name__}")
        if v is None:
            if not f.optional:
                raise SchemaMismatch(f"required feature {f.name!r} missing from session "
                                     f"{session.session_id!r}")
            out[i] = 0.0
            i += 1
            out[i] = 1.0
            i += 1
        else:
            out[i] = (float(v) - f.mean) / f.std
            i += 1
            if f.optional:
                out[i] = 0.0
                i += 1
    for f in schema.categorical:
        v = _raw_value(session, f.name)
        block = np.zeros(len(f.levels) + 1)
        if v is not None and str(v) in f.levels:
            block[f.levels.index(str(v))] = 1.0
        else:
            block[-1] = 1.0  # unseen level or absent value -> unknown bucket
        out[i:i + len(block)] = block
        i += len(block)
    if not np.all(np.isfinite(out)):
        raise ValueError("feature vector contains non-finite values")
    out.setflags(write=False)
    return out


def encode_matrix(sessions: Sequence[SessionRecord], schema: EncodingSchema) -> np.ndarray:
    """Encode many sessions column by column; row i equals
    ``encode(sessions[i], schema)`` bit for bit.

    On bad input it raises exactly what ``encode`` raises for the first bad
    session, because the rows are then re-encoded one by one.
    """
    out = _encode_columns(sessions, schema)
    if out is None or not np.all(np.isfinite(out)):
        return np.stack([encode(s, schema) for s in sessions])
    return out


def _encode_columns(sessions: Sequence[SessionRecord],
                    schema: EncodingSchema) -> np.ndarray | None:
    """The columnar pass of ``encode_matrix``; None on any value that
    ``encode`` would refuse."""
    n = len(sessions)
    out = np.zeros((n, schema.dim))
    i = 0
    for f in schema.numeric:
        raw = [_raw_value(s, f.name) for s in sessions]
        missing = [v is None for v in raw]
        if any(missing) and not f.optional:
            return None
        if not all(m or _is_numeric(v) for v, m in zip(raw, missing)):
            return None
        try:
            col = np.array([0.0 if m else float(v) for v, m in zip(raw, missing)])
        except OverflowError:
            return None
        col = (col - f.mean) / f.std
        if f.optional:
            flags = np.array(missing, dtype=bool)
            col[flags] = 0.0
            out[:, i + 1] = flags
        out[:, i] = col
        i += 2 if f.optional else 1
    rows = np.arange(n)
    for f in schema.categorical:
        index = {lvl: k for k, lvl in reversed(list(enumerate(f.levels)))}  # first wins
        unknown = len(f.levels)  # unseen level or absent value -> unknown bucket
        hot = [unknown if (v := _raw_value(s, f.name)) is None else index.get(str(v), unknown)
               for s in sessions]
        out[rows, i + np.array(hot, dtype=np.intp)] = 1.0
        i += len(f.levels) + 1
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
    """Model input rows (features, scaled price) for every grid price.

    ``features[d]`` gives ``[g, d+1]`` and ``features[n, d]`` gives
    ``[n, g, d+1]``. Each session's (g, d+1) block is in Fortran order, as
    ``column_stack`` over a broadcast lays it out: sums over a row and
    matmuls round in an order that depends on the layout, so one session
    gets the same bits whether it is priced alone or in a batch.
    """
    features = np.asarray(features, dtype=float)
    *lead, d = features.shape
    buf = np.empty((*lead, d + 1, len(scaled_prices)))
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
