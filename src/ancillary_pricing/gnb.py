"""Gaussian naive Bayes purchase-probability estimators.

Two variants: plain GNB, and GNB over features augmented with a one-hot
k-means cluster id (the clustered-feature variant used as the industry
baseline). The offered price always enters as an ordinary feature,
normalized by the top of the price grid, so the estimate depends on price.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EncodedDataset, grid_rows, predict_proba_rows, sigmoid
from .errors import DimensionMismatch, SingleClassDataset, TooFewSamples

LOG_2PI = float(np.log(2.0 * np.pi))


def _predict_one(model, features: np.ndarray, price: float) -> float:
    """``predict_proba`` of both models: the one-row ``predict_proba_rows``."""
    return float(model.predict_proba_rows(np.atleast_2d(features), np.array([price]))[0])


@dataclass(frozen=True)
class GnbModel:
    """Per-class Gaussian feature likelihoods with floored variances.

    Parameters cover the encoded feature vector plus one trailing price
    column (price / p_max).
    """

    log_prior0: float
    log_prior1: float
    mean0: np.ndarray
    mean1: np.ndarray
    var0: np.ndarray
    var1: np.ndarray
    eps_var: float
    p_max: float

    @property
    def n_features(self) -> int:
        return len(self.mean0) - 1  # excluding the price column

    def _check_dim(self, features: np.ndarray):
        if features.shape[-1] != self.n_features:
            raise DimensionMismatch(
                f"expected {self.n_features} features, got {features.shape[-1]}")

    def _log_joint(self, rows: np.ndarray) -> np.ndarray:
        """Log p(y=c) + log p(x|y=c) for both classes; rows include price."""
        ll0 = -0.5 * np.sum(LOG_2PI + np.log(self.var0) + (rows - self.mean0) ** 2 / self.var0,
                            axis=-1)
        ll1 = -0.5 * np.sum(LOG_2PI + np.log(self.var1) + (rows - self.mean1) ** 2 / self.var1,
                            axis=-1)
        return np.stack([self.log_prior0 + ll0, self.log_prior1 + ll1], axis=-1)

    predict_proba = _predict_one
    predict_proba_rows = predict_proba_rows

    def predict_proba_grid(self, features: np.ndarray, prices: np.ndarray) -> np.ndarray:
        """``core.DemandModel.predict_proba_grid``, also for one session
        ``features[d] -> [g]``; each row is bit-identical to the session
        priced alone (see ``grid_rows``). The posterior p(y=1|x) is the
        sigmoid of the log-joint difference."""
        self._check_dim(features)
        rows = grid_rows(features, np.asarray(prices, dtype=float) / self.p_max)
        # A finite but huge feature overflows quietly; the caller refuses a
        # non-finite probability (``NonFiniteInput``).
        with np.errstate(over="ignore", invalid="ignore"):
            joint = self._log_joint(rows)
            diff = joint[..., 1] - joint[..., 0]
        return sigmoid(diff, 1e-15)


def fit_gnb(train: EncodedDataset, eps_var: float = 1e-6) -> GnbModel:
    """Fit class priors and per-class Gaussian feature parameters.

    Variances are floored at ``eps_var`` so constant-within-class features
    cannot produce degenerate likelihoods.
    """
    y = train.labels
    n1 = int(y.sum())
    n0 = len(y) - n1
    if n0 == 0 or n1 == 0:
        raise SingleClassDataset("training data must contain both classes")

    rows = np.column_stack([train.features, train.prices / train.p_max])
    rows0, rows1 = rows[y == 0], rows[y == 1]
    return GnbModel(
        log_prior0=float(np.log(n0 / len(y))),
        log_prior1=float(np.log(n1 / len(y))),
        mean0=rows0.mean(axis=0),
        mean1=rows1.mean(axis=0),
        var0=np.maximum(rows0.var(axis=0), eps_var),
        var1=np.maximum(rows1.var(axis=0), eps_var),
        eps_var=eps_var,
        p_max=train.p_max,
    )


def _sq_distances(pts: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared distance of each point to each centroid, ``[n, k]``."""
    return ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


@dataclass(frozen=True)
class KMeansModel:
    centroids: np.ndarray  # (k, d)
    seed: int
    iterations_run: int

    @property
    def k(self) -> int:
        return len(self.centroids)

    def assign(self, pts: np.ndarray) -> np.ndarray:
        """Nearest-centroid label of each row; ties go to the lower cluster index."""
        with np.errstate(over="ignore", invalid="ignore"):  # as in GnbModel.predict_proba_grid
            return np.argmin(_sq_distances(pts, self.centroids), axis=1)

    def augment(self, pts: np.ndarray) -> np.ndarray:
        """``pts[n, d]`` followed by the one-hot of each row's cluster."""
        onehot = np.zeros((len(pts), self.k))
        onehot[np.arange(len(pts)), self.assign(pts)] = 1.0
        return np.hstack([pts, onehot])


def fit_kmeans(features: np.ndarray, k: int, seed: int = 0,
               max_iters: int = 100) -> KMeansModel:
    """Lloyd's algorithm from a seeded sample of k distinct starting points.

    Stops at an assignment fixpoint or after ``max_iters``. A cluster left
    empty is re-seeded to the point farthest from its current centroid.
    """
    pts = np.asarray(features, dtype=float)
    n = len(pts)
    if n < k:
        raise TooFewSamples(f"need at least k={k} samples, got {n}")

    rng = np.random.default_rng(seed)
    centroids = pts[rng.choice(n, size=k, replace=False)].copy()
    labels = np.full(n, -1)
    iterations = 0
    for iterations in range(1, max_iters + 1):
        d2 = _sq_distances(pts, centroids)
        new_labels = np.argmin(d2, axis=1)
        for c in range(k):
            members = pts[new_labels == c]
            if len(members) == 0:
                farthest = int(np.argmax(d2[np.arange(n), new_labels]))
                centroids[c] = pts[farthest]
                new_labels[farthest] = c
            else:
                centroids[c] = members.mean(axis=0)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return KMeansModel(centroids=centroids, seed=seed, iterations_run=iterations)


@dataclass(frozen=True)
class GnbcModel:
    """GNB over features augmented with a one-hot k-means cluster id."""

    kmeans: KMeansModel
    gnb: GnbModel

    @property
    def n_features(self) -> int:
        return self.kmeans.centroids.shape[1]

    def _augment(self, features: np.ndarray) -> np.ndarray:
        if features.shape[1] != self.n_features:
            raise DimensionMismatch(
                f"expected {self.n_features} features, got {features.shape[1]}")
        return self.kmeans.augment(features)

    predict_proba = _predict_one
    predict_proba_rows = predict_proba_rows

    def predict_proba_grid(self, features: np.ndarray, prices: np.ndarray) -> np.ndarray:
        return self.gnb.predict_proba_grid(self._augment(features), prices)


def fit_gnbc(train: EncodedDataset, k: int = 8, seed: int = 0,
             eps_var: float = 1e-6) -> GnbcModel:
    """Cluster the encoded features, then fit GNB on the augmented matrix.

    k=1 degenerates to plain GNB: the cluster column is constant, its
    floored variance is identical in both classes, and it cancels in the
    posterior.
    """
    km = fit_kmeans(train.features, k=k, seed=seed)
    augmented = EncodedDataset(
        features=km.augment(train.features),
        prices=train.prices,
        labels=train.labels,
        p_max=train.p_max,
    )
    return GnbcModel(kmeans=km, gnb=fit_gnb(augmented, eps_var=eps_var))
