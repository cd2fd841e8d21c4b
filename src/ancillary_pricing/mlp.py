"""Small from-scratch multilayer perceptron.

Rectifier hidden layers, a single sigmoid output unit, inverted dropout,
and plain SGD with a decaying learning rate. ``sgd_train`` is the one
training loop: APP-DES and DNN-CL differ only in the loss they pass it,
and ``grad_check`` verifies that loss's gradient through the same
forward-loss-backward step against central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import EncodedDataset, grid_rows, predict_proba_rows, sigmoid
from .errors import (
    BadArchitecture,
    DimensionMismatch,
    NonFiniteLoss,
    SingleClassDataset,
)

PROB_CLAMP = 1e-7  # keeps log losses finite; stated so tests can be exact


@dataclass(frozen=True)
class MlpModel:
    sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    seed: int

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return self.sizes[0]


@dataclass(frozen=True)
class TrainConfig:
    """SGD settings; the step index t counts mini-batch updates, not epochs."""

    learning_rate: float = 0.1
    decay: float = 1e-3  # lr_t = learning_rate / (1 + decay * t)
    batch_size: int = 64
    epochs: int = 30
    dropout_rate: float = 0.0
    pos_weight: float | None = None  # None: use n_negatives / n_positives
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got "
                             f"{self.learning_rate}")
        if not (math.isfinite(self.decay) and self.decay >= 0):
            raise ValueError(f"decay must be finite and non-negative, got {self.decay}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.pos_weight is not None and self.pos_weight <= 0:
            raise ValueError("pos_weight must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def learning_rate_at(config: TrainConfig, step: int) -> float:
    return config.learning_rate / (1.0 + config.decay * step)


def init_mlp(sizes: Sequence[int], seed: int = 0) -> MlpModel:
    """Uniform Glorot initialization, biases zero, deterministic per seed."""
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 3:
        raise BadArchitecture("need at least one hidden layer")
    if any(s < 1 for s in sizes):
        raise BadArchitecture(f"layer sizes must be >= 1, got {sizes}")
    if sizes[-1] != 1:
        raise BadArchitecture("output layer must have exactly one unit")

    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(sizes=sizes, weights=weights, biases=biases, seed=seed)


def _forward_cached(model: MlpModel, inputs: np.ndarray, *, dropout_rate: float = 0.0,
                    rng: np.random.Generator | None = None):
    """All layer activations plus the dropout masks actually applied.

    Each layer allocates one array, the one its matmul returns, and writes
    into it in turn: the bias, then the rectifier (at the output, the
    sigmoid reads it) and, in training, the dropout mask. These are the
    operations of ``maximum(a @ w + b, 0) * mask`` on the same operands, so
    the bits are the same, without a new array per step: a 256-session
    block's would be past malloc's mmap threshold, and faulted in afresh.
    Hidden activations are stored post-dropout (inverted scaling folded
    in), so they are exactly what the next layer consumed.
    """
    a = inputs
    activations = [a]
    masks: list[np.ndarray | None] = []
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w
        z += b
        if layer < model.n_layers - 1:
            a = np.maximum(z, 0.0, out=z)
            mask = None
            if dropout_rate > 0.0:
                keep = rng.random(a.shape) >= dropout_rate
                mask = keep / (1.0 - dropout_rate)  # inverted dropout scaling
                a *= mask
            masks.append(mask)
        else:
            a = sigmoid(z, 1e-12)
        activations.append(a)
    return activations, masks


def forward(model: MlpModel, inputs: np.ndarray):
    """Probability output in (0, 1) for one row, a batch of rows, or a
    stack of batches (``inputs[..., d]``; one output per row), without
    dropout. Weights that overflow give NaN quietly; callers refuse it.
    """
    arr = np.atleast_2d(np.asarray(inputs, dtype=float))
    if arr.shape[-1] != model.input_dim:
        raise DimensionMismatch(f"expected input dim {model.input_dim}, got {arr.shape[-1]}")
    with np.errstate(over="ignore", invalid="ignore"):  # as in GnbModel.predict_proba_grid
        acts, _ = _forward_cached(model, arr)
    out = acts[-1][..., 0]
    return out if np.ndim(inputs) > 1 else float(out[0])


def _backward(model: MlpModel, activations: list[np.ndarray],
              masks: list[np.ndarray | None], dloss_dout: np.ndarray):
    """Gradients for every weight/bias given d(total loss)/d(output)."""
    out = activations[-1]
    delta = (dloss_dout * out[:, 0] * (1.0 - out[:, 0]))[:, None]  # through the sigmoid
    grads_w = [None] * model.n_layers
    grads_b = [None] * model.n_layers
    for layer in range(model.n_layers - 1, -1, -1):
        grads_w[layer] = activations[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = delta @ model.weights[layer].T
            gate = activations[layer] > 0  # rectifier; zero for dropped units too
            if masks[layer - 1] is not None:
                delta = delta * gate * masks[layer - 1]
            else:
                delta = delta * gate
    return grads_w, grads_b


def weighted_ce_loss(p, y, pos_weight: float = 1.0):
    """Class-weighted cross entropy and its derivative pointwise in p.

    Probabilities are clamped to [PROB_CLAMP, 1 - PROB_CLAMP] first; the
    derivative is taken at the clamped point.
    """
    pc = np.clip(np.asarray(p, dtype=float), PROB_CLAMP, 1.0 - PROB_CLAMP)
    ya = np.asarray(y, dtype=float)
    loss = -(pos_weight * ya * np.log(pc) + (1.0 - ya) * np.log(1.0 - pc))
    dloss_dp = -pos_weight * ya / pc + (1.0 - ya) / (1.0 - pc)
    if np.ndim(p) == 0:
        return float(loss), float(dloss_dp)
    return loss, dloss_dp


def _loss_and_grads(model: MlpModel, inputs: np.ndarray, loss_fn: Callable, *,
                    dropout_rate: float = 0.0, rng: np.random.Generator | None = None):
    """Forward, loss and backward for one batch: the per-sample loss vector
    and the gradients of its mean. ``loss_fn`` maps the output vector to
    (per-sample loss, d loss/d output); dropout needs ``rng``."""
    acts, masks = _forward_cached(model, inputs, dropout_rate=dropout_rate, rng=rng)
    loss_vec, dloss_dout = loss_fn(acts[-1][:, 0])
    grads_w, grads_b = _backward(model, acts, masks,
                                 np.asarray(dloss_dout, dtype=float) / len(inputs))
    return loss_vec, grads_w, grads_b


def sgd_train(inputs: np.ndarray, labels: np.ndarray, hidden: Sequence[int],
              config: TrainConfig, loss_for: Callable) -> tuple[MlpModel, list[float]]:
    """Mini-batch SGD on the mean of a per-sample loss; both networks train here.

    ``loss_for(batch_labels)`` gives the batch's ``loss_fn`` in the form
    ``grad_check`` verifies. Initialization derives from ``config.seed``,
    shuffling and dropout from a separate ``[seed, 1]`` stream, so identical
    configs yield bit-identical weights. Returns the model and the mean
    loss of each epoch.
    """
    model = init_mlp([inputs.shape[1], *hidden, 1], seed=config.seed)
    rng = np.random.default_rng([config.seed, 1])  # separate stream from init
    n = len(labels)
    step = 0
    trace: list[float] = []
    # A huge rate or loss multiplier overflows quietly; the loss check refuses it.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, config.batch_size):
                idx = order[start:start + config.batch_size]
                loss_vec, grads_w, grads_b = _loss_and_grads(
                    model, inputs[idx], loss_for(labels[idx]),
                    dropout_rate=config.dropout_rate, rng=rng)
                batch_loss = float(loss_vec.sum())
                if not np.isfinite(batch_loss):
                    raise NonFiniteLoss(f"non-finite loss at epoch {epoch}, step {step}")
                epoch_loss += batch_loss
                lr = learning_rate_at(config, step)
                for w, b, gw, gb in zip(model.weights, model.biases, grads_w, grads_b):
                    w -= lr * gw
                    b -= lr * gb
                step += 1
            trace.append(epoch_loss / n)
        # each loss is checked before its update, so the last update is checked
        # here: its weights, and the outputs they give the training inputs
        if not all(np.isfinite(a).all() for a in (*model.weights, *model.biases)):
            raise NonFiniteLoss(f"non-finite weights after step {step - 1}")
        if not np.isfinite(forward(model, inputs)).all():
            raise NonFiniteLoss(f"non-finite outputs on the training inputs after step {step - 1}")
    return model, trace


@dataclass(frozen=True)
class AppTrainResult:
    model: MlpModel
    epoch_mean_loss: list[float] = field(default_factory=list)
    pos_weight: float = 1.0


def train_app(train: EncodedDataset, hidden: Sequence[int] = (64, 32),
              config: TrainConfig = TrainConfig()) -> AppTrainResult:
    """Train the purchase-probability network on features plus price.

    The offered price (normalized by p_max) is appended as the last input
    column; the loss is ``weighted_ce_loss`` under ``sgd_train``.
    """
    y = train.labels.astype(float)
    n1 = int(train.labels.sum())
    n0 = len(y) - n1
    if n0 == 0 or n1 == 0:
        raise SingleClassDataset("training data must contain both classes")
    pos_weight = config.pos_weight if config.pos_weight is not None else n0 / n1

    def loss_for(yb: np.ndarray) -> Callable:
        return lambda out: weighted_ce_loss(out, yb, pos_weight)

    inputs = np.column_stack([train.features, train.prices / train.p_max])
    model, trace = sgd_train(inputs, y, hidden, config, loss_for)
    return AppTrainResult(model=model, epoch_mean_loss=trace, pos_weight=pos_weight)


@dataclass(frozen=True)
class MlpDemandModel:
    """DemandModel adapter: appends the normalized price column."""

    mlp: MlpModel
    p_max: float

    @property
    def n_features(self) -> int:
        return self.mlp.input_dim - 1

    def predict_proba_grid(self, features: np.ndarray, prices: np.ndarray) -> np.ndarray:
        """``core.DemandModel.predict_proba_grid``.

        A batch goes through the network as a stacked (n, g, d+1) tensor, so
        each session takes the same (g, d+1) matmuls as on its own and its
        row is bit-identical; a flat (n*g, d+1) matrix rounds differently in
        the output layer.
        """
        return forward(self.mlp, grid_rows(features, np.asarray(prices, dtype=float) / self.p_max))

    predict_proba_rows = predict_proba_rows


def grad_check(model: MlpModel, loss_fn: Callable, inputs: np.ndarray,
               step: float = 1e-5) -> float:
    """Worst relative error between analytic and central-difference gradients.

    ``loss_fn`` maps the network output vector to (per-sample loss vector,
    d loss/d output vector); the total objective is the mean per-sample
    loss. Dropout must be off. Where both gradients are ~0 the comparison
    falls back to absolute error.
    """
    arr = np.atleast_2d(np.asarray(inputs, dtype=float))
    _, grads_w, grads_b = _loss_and_grads(model, arr, loss_fn)

    def total_loss() -> float:
        loss_vec, _ = loss_fn(forward(model, arr))
        return float(np.mean(loss_vec))

    worst = 0.0
    params = list(zip(model.weights, grads_w)) + list(zip(model.biases, grads_b))
    for tensor, grad in params:
        flat = tensor.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = total_loss()
            flat[i] = orig - step
            down = total_loss()
            flat[i] = orig
            numeric = (up - down) / (2.0 * step)
            analytic = gflat[i]
            scale = max(abs(numeric), abs(analytic))
            err = abs(numeric - analytic) if scale < 1e-10 else abs(numeric - analytic) / scale
            worst = max(worst, err)
    return worst
