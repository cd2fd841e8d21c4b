"""End-to-end pricing network trained with a willingness-to-pay hinge loss.

The network maps encoded session features straight to a price: its sigmoid
output s is stretched to raw_price = p_min + s * (p_max - p_min), and the
served price is the nearest grid point. Training minimizes a sum of hinge
terms taken over grid positions around the snapped price, gated by a
per-position willingness-to-pay factor derived from the purchase label.

``casewise_loss`` re-derives the same objective from the per-price case
split (cheaper grid point vs costlier grid point) and exists purely as an
independent oracle for ``custom_loss``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import EncodedDataset, PolicyTag, PriceGrid, Quote, snap_to_grid
from .mlp import MlpModel, TrainConfig, forward, sgd_train


def wtp_factor(j: int, j_star: int, y: int) -> float:
    """Willingness-to-pay factor for grid position j (1-based indices).

    Positive exactly for the positions whose hinge terms count: below the
    snapped price for purchases, above it for non-purchases.
    """
    return float((j - j_star) * (-1) ** y)


def latent_delta(y: int, sigma: float) -> int:
    """Latent bound selector: the label where the factor is non-negative."""
    return y if sigma >= 0 else 0


def price_bounds(price: float, delta: int, c1: float, c2: float) -> tuple[float, float]:
    """Lower/upper price bounds for one grid point.

    delta=1 (purchased side): the point itself is the floor and c2 * price
    the ceiling; delta=0: c1 * price is the floor and the point the ceiling.
    """
    lower = delta * price + (1 - delta) * (c1 * price)
    upper = (1 - delta) * price + delta * (c2 * price)
    return lower, upper


@dataclass(frozen=True)
class LossTermBreakdown:
    """Per-grid-position pieces of the hinge loss (arrays of length |grid|)."""

    j_star: int  # 1-based
    sigma: np.ndarray
    delta: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    phi_lb: np.ndarray
    phi_ub: np.ndarray
    active: np.ndarray


def custom_loss(raw_price: float, y: int, grid: PriceGrid,
                c1: float, c2: float) -> tuple[float, float, LossTermBreakdown]:
    """Hinge loss, its subgradient in the raw price, and the term breakdown.

    The snapped index, the latent deltas, and the active set are treated as
    constants with respect to the raw price; hinge derivatives at exact
    kinks are taken as 0.
    """
    j_star = snap_to_grid(raw_price, grid) + 1
    prices = grid.prices
    n = len(prices)
    sigma = np.empty(n)
    delta = np.empty(n)
    lower = np.empty(n)
    upper = np.empty(n)
    phi_lb = np.empty(n)
    phi_ub = np.empty(n)
    active = np.empty(n, dtype=bool)
    loss = 0.0
    slope = 0.0
    for idx in range(n):
        j = idx + 1
        s = wtp_factor(j, j_star, y)
        d = latent_delta(y, s)
        lo, up = price_bounds(prices[idx], d, c1, c2)
        p_lb = max(0.0, lo - raw_price)
        p_ub = max(0.0, raw_price - up)
        sigma[idx], delta[idx] = s, d
        lower[idx], upper[idx] = lo, up
        phi_lb[idx], phi_ub[idx] = p_lb, p_ub
        active[idx] = s > 0
        if s > 0:
            loss += p_lb + p_ub
            if lo - raw_price > 0:
                slope -= 1.0
            if raw_price - up > 0:
                slope += 1.0
    breakdown = LossTermBreakdown(j_star=j_star, sigma=sigma, delta=delta,
                                  lower=lower, upper=upper, phi_lb=phi_lb,
                                  phi_ub=phi_ub, active=active)
    return loss, slope, breakdown


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
    """Vectorized loss and subgradient used by the training loop."""
    prices = grid.as_array()
    j = np.arange(1, len(prices) + 1)
    j_star = snap_to_grid(raw_prices, grid) + 1
    sign = np.where(labels[:, None] == 1, -1.0, 1.0)  # (-1)^y
    sigma = (j[None, :] - j_star[:, None]) * sign
    delta = np.where(sigma >= 0, labels[:, None].astype(float), 0.0)
    lower = delta * prices + (1.0 - delta) * (c1 * prices)
    upper = (1.0 - delta) * prices + delta * (c2 * prices)
    gap_lb = lower - raw_prices[:, None]
    gap_ub = raw_prices[:, None] - upper
    active = sigma > 0
    loss = (np.maximum(0.0, gap_lb) + np.maximum(0.0, gap_ub)) * active
    slope = (-(gap_lb > 0).astype(float) + (gap_ub > 0).astype(float)) * active
    return loss.sum(axis=1), slope.sum(axis=1)


def check_multipliers(c1: float, c2: float) -> None:
    """The hinge-loss bounds ``c1 * wtp`` and ``c2 * wtp`` need 0 < c1 < 1 < c2."""
    if not 0.0 < c1 < 1.0:
        raise ValueError(f"c1 must lie in (0, 1), got {c1}")
    if c2 <= 1.0:
        raise ValueError(f"c2 must exceed 1, got {c2}")


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

    def raw_price(self, features: np.ndarray) -> float:
        s = forward(self.mlp, np.asarray(features, dtype=float))
        return self.grid.p_min + s * (self.grid.p_max - self.grid.p_min)

    def raw_price_batch(self, features: np.ndarray) -> np.ndarray:
        """``raw_price`` of each row of ``features[n, d]``, bit for bit.

        Each row goes through the network as its own (1, d) matrix of a
        stacked (n, 1, d) tensor: one flat (n, d) matmul would round
        differently from the single-row path.
        """
        x = np.ascontiguousarray(np.atleast_2d(np.asarray(features, dtype=float)))
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


def recommend_price(model: DnnClModel, features: np.ndarray,
                    model_version: str = "dev") -> Quote:
    """Serve the grid price nearest the network's raw recommendation."""
    raw = model.raw_price(features)
    idx = snap_to_grid(raw, model.grid)
    return Quote(
        recommended_price=model.grid.prices[idx],
        policy_tag=PolicyTag.DNN_CL,
        model_version=model_version,
    )
