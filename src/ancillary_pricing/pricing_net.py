"""End-to-end pricing network trained with a willingness-to-pay hinge loss.

The network maps encoded session features straight to a price: its sigmoid
output s is stretched to raw_price = p_min + s * (p_max - p_min), and the
served price is the nearest grid point. Training minimizes a sum of hinge
terms taken over grid positions around the snapped price, gated by a
per-position willingness-to-pay factor derived from the purchase label.

One function, ``_hinge_terms``, computes the hinge terms for a batch of
sessions. Training sums them (``_batch_loss``); ``custom_loss`` is its
one-session case. ``casewise_loss`` re-derives the same objective from the
per-price case split (cheaper grid point vs costlier grid point) and exists
purely as an independent oracle of that training loss.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .core import EncodedDataset, PolicyTag, PriceGrid, Quote, snap_to_grid
from .errors import NonFiniteInput
from .mlp import MlpModel, TrainConfig, forward, sgd_train


@dataclass(frozen=True)
class LossTermBreakdown:
    """Per-grid-position pieces of the hinge loss: arrays of length |grid|
    for one session, or one row per session from ``_hinge_terms``."""

    j_star: int  # 1-based
    sigma: np.ndarray
    delta: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    phi_lb: np.ndarray
    phi_ub: np.ndarray
    active: np.ndarray


def _hinge_terms(raw_prices: np.ndarray, labels: np.ndarray, grid: PriceGrid,
                 c1: float, c2: float) -> LossTermBreakdown:
    """The hinge pieces of every session at once: ``j_star[n]`` and
    ``[n, |grid|]`` arrays, row i for ``raw_prices[i]`` and ``labels[i]``.

    sigma is the willingness-to-pay factor (j - j*) * (-1)^y, positive
    exactly for the positions whose hinges count: below the snapped price
    for purchases, above it for non-purchases. delta = y where sigma >= 0,
    else 0, picks the bounds: delta=1 makes the point the floor and c2 times
    it the ceiling, delta=0 makes c1 times the point the floor and the point
    the ceiling.
    """
    prices = grid.as_array()
    j = np.arange(1, len(prices) + 1)
    j_star = snap_to_grid(raw_prices, grid) + 1
    sign = np.where(labels[:, None] == 1, -1.0, 1.0)  # (-1)^y
    sigma = (j[None, :] - j_star[:, None]) * sign
    delta = np.where(sigma >= 0, labels[:, None].astype(float), 0.0)
    lower = delta * prices + (1.0 - delta) * (c1 * prices)
    upper = (1.0 - delta) * prices + delta * (c2 * prices)
    return LossTermBreakdown(
        j_star=j_star, sigma=sigma, delta=delta, lower=lower, upper=upper,
        phi_lb=np.maximum(0.0, lower - raw_prices[:, None]),
        phi_ub=np.maximum(0.0, raw_prices[:, None] - upper),
        active=sigma > 0)


def custom_loss(raw_price: float, y: int, grid: PriceGrid,
                c1: float, c2: float) -> tuple[float, float, LossTermBreakdown]:
    """Hinge loss, its subgradient in the raw price, and the term breakdown:
    row 0 of ``_hinge_terms`` for one session.

    The snapped index, the latent deltas, and the active set are treated as
    constants with respect to the raw price; hinge derivatives at exact
    kinks are taken as 0.
    """
    rows = _hinge_terms(np.array([raw_price], dtype=float), np.array([y]), grid, c1, c2)
    row = {name: column[0] for name, column in vars(rows).items()}
    bd = LossTermBreakdown(**row | {"j_star": int(row["j_star"])})
    # Added one by one in grid order, as casewise_loss adds them: a pairwise
    # np.sum, or the compensated sum() of Python 3.12+, can round differently.
    loss = reduce(operator.add, (bd.phi_lb + bd.phi_ub)[bd.active].tolist(), 0.0)
    slope = float(np.count_nonzero(bd.phi_ub[bd.active] > 0)
                  - np.count_nonzero(bd.phi_lb[bd.active] > 0))
    return loss, slope, bd


def casewise_loss(raw_price: float, y: int, grid: PriceGrid,
                  c1: float, c2: float) -> float:
    """Oracle re-derivation of the hinge loss from the merged case rows.

    Grid points cheaper than the snapped price contribute only on purchases
    (ceiling hinge); costlier points only on non-purchases (floor hinge);
    the snapped point contributes nothing.
    """
    snapped = grid.prices[snap_to_grid(raw_price, grid)]
    total = 0.0
    for pj in grid.prices:
        if pj < snapped and y == 1:
            total += max(0.0, raw_price - c2 * pj)
        elif pj > snapped and y == 0:
            total += max(0.0, c1 * pj - raw_price)
    return total


def _batch_loss(raw_prices: np.ndarray, labels: np.ndarray, grid: PriceGrid,
                c1: float, c2: float) -> tuple[np.ndarray, np.ndarray]:
    """Loss and subgradient of each session, the row sums of the active
    ``_hinge_terms``: the form the training loop uses."""
    t = _hinge_terms(raw_prices, labels, grid, c1, c2)
    loss = (t.phi_lb + t.phi_ub) * t.active
    slope = ((t.phi_ub > 0).astype(float) - (t.phi_lb > 0)) * t.active
    return loss.sum(axis=1), slope.sum(axis=1)


def check_multipliers(c1: float, c2: float) -> None:
    """The hinge-loss bounds ``c1 * wtp`` and ``c2 * wtp`` need 0 < c1 < 1 < c2."""
    if not 0.0 < c1 < 1.0:
        raise ValueError(f"c1 must lie in (0, 1), got {c1}")
    if not 1.0 < c2 < math.inf:
        raise ValueError(f"c2 must be finite and exceed 1, got {c2}")


@dataclass(frozen=True)
class DnnClModel:
    """Trained pricing network with its grid and bound multipliers."""

    mlp: MlpModel
    grid: PriceGrid
    c1: float
    c2: float

    def __post_init__(self):
        check_multipliers(self.c1, self.c2)

    @property
    def n_features(self) -> int:
        return self.mlp.input_dim

    def raw_price_batch(self, features: np.ndarray) -> np.ndarray:
        """The network's unsnapped price for each row of ``features[n, d]``.

        Each row goes through the network as its own (1, d) matrix of a
        stacked (n, 1, d) tensor, so a session gets the same bits alone as
        in a batch; one flat (n, d) matmul would round differently.
        """
        x = np.ascontiguousarray(features, dtype=float)
        s = forward(self.mlp, x[:, None, :])[:, 0]
        return self.grid.p_min + s * (self.grid.p_max - self.grid.p_min)


@dataclass(frozen=True)
class DnnClTrainResult:
    model: DnnClModel
    epoch_mean_loss: list[float] = field(default_factory=list)


def train_dnncl(train: EncodedDataset, grid: PriceGrid,
                hidden: Sequence[int] = (64, 32),
                config: TrainConfig = TrainConfig(),
                c1: float = 0.8, c2: float = 1.2) -> DnnClTrainResult:
    """SGD on the mean hinge loss, ``custom_loss_on_output`` under ``sgd_train``.

    The gradient chains through the sigmoid price head; snapping and the
    active set are constant within a step. Deterministic per seed. Both
    labels need not be present (single-label toy runs are legitimate).
    """
    mlp_model, trace = sgd_train(train.features, train.labels, hidden, config,
                                 lambda yb: custom_loss_on_output(grid, yb, c1, c2))
    model = DnnClModel(mlp=mlp_model, grid=grid, c1=c1, c2=c2)
    return DnnClTrainResult(model=model, epoch_mean_loss=trace)


def custom_loss_on_output(grid: PriceGrid, labels: np.ndarray, c1: float,
                          c2: float) -> Callable:
    """Adapter turning the hinge loss into a loss_fn of network outputs, the
    form ``grad_check`` verifies and ``sgd_train`` trains on.

    Maps sigmoid outputs to raw prices internally and chains the price-span
    factor into the returned derivative.
    """
    span = grid.p_max - grid.p_min

    def loss_fn(outputs: np.ndarray):
        raw = grid.p_min + np.asarray(outputs, dtype=float) * span
        loss_vec, dloss_draw = _batch_loss(raw, labels, grid, c1, c2)
        return loss_vec, dloss_draw * span

    return loss_fn


def dnncl_quotes(model: DnnClModel, features: np.ndarray, model_version: str) -> list[Quote]:
    """The grid price nearest the network's raw price for each row of
    ``features[n, d]``. A raw price that is not finite is an input error:
    snapped, it would quote ``p_min``."""
    raw = model.raw_price_batch(features)
    if np.count_nonzero(np.isfinite(raw)) != raw.size:
        raise NonFiniteInput("the pricing network gave a non-finite price; a feature is out "
                             "of the range it can price, or the model's weights overflow")
    return [Quote(recommended_price=model.grid.prices[i], policy_tag=PolicyTag.DNN_CL,
                  model_version=model_version)
            for i in snap_to_grid(raw, model.grid).tolist()]


def recommend_price(model: DnnClModel, features: np.ndarray,
                    model_version: str = "dev") -> Quote:
    """The DNN-CL quote of one session ``features[d]``: row 0 of
    ``dnncl_quotes`` on a batch of one."""
    return dnncl_quotes(model, features[None, :], model_version)[0]
