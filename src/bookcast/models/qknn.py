"""Quantile k-nearest-neighbors regression.

Predictions are empirical quantiles of the k nearest training targets.
Uniform weighting interpolates linearly between order statistics; distance
weighting uses weights 1/(d + 1e-12) and returns the smallest target whose
cumulative normalized weight reaches tau. Distance ties break by training
index for determinism.
"""

from __future__ import annotations

import numpy as np

from .base import QuantileModel, TrainReport

METRICS = ("euclidean", "manhattan")
WEIGHTINGS = ("uniform", "distance")
DISTANCE_EPS = 1e-12
CHUNK_ELEMENTS = 250_000  # distance temporaries per predict chunk (~2 MB)


class QKNNModel(QuantileModel):
    family = "qknn"
    array_names = ("X", "y")   # the training set the neighbours come from

    def __init__(self, quantiles, seed: int = 0, n_neighbors: int = 5,
                 metric: str = "euclidean", weights: str = "uniform"):
        super().__init__(quantiles, seed)
        if n_neighbors < 1:
            raise ValueError("n_neighbors must be at least 1")
        if metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        if weights not in WEIGHTINGS:
            raise ValueError(f"weights must be one of {WEIGHTINGS}")
        self.n_neighbors = int(n_neighbors)
        self.metric = metric
        self.weights = weights

    def _fit(self, X, y, X_val, y_val) -> TrainReport:
        if self.n_neighbors > X.shape[0]:
            raise ValueError(
                f"n_neighbors={self.n_neighbors} exceeds training size {X.shape[0]}")
        self._arrays = {"X": X.copy(), "y": y.copy()}
        return TrainReport(loss_trace=[0.0])

    def _distances(self, X: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        train = self._arrays["X"]
        if self.metric == "euclidean":
            d2 = (np.sum(X ** 2, axis=1)[:, None]
                  + np.sum(train ** 2, axis=1)[None, :]
                  - 2.0 * X @ train.T)
            return np.sqrt(np.maximum(d2, 0.0))
        # (rows, n_train, n_features) differences in a buffer reused across
        # chunks: fresh multi-megabyte temporaries fault their pages in anew
        diff = scratch[: X.shape[0]]
        np.subtract(X[:, None, :], train[None, :, :], out=diff)
        np.abs(diff, out=diff)
        return np.sum(diff, axis=2)

    def _predict(self, X) -> np.ndarray:
        # column-indexed design matrices arrive F-ordered; rows must be contiguous
        X = np.ascontiguousarray(X)
        train, train_y = self._arrays["X"], self._arrays["y"]
        taus = np.array(self.quantiles)
        k = self.n_neighbors
        out = np.empty((X.shape[0], taus.size))
        # manhattan materializes (rows, n_train, n_features); keep each
        # chunk's temporaries near CHUNK_ELEMENTS
        manhattan = self.metric == "manhattan"
        per_row = train.shape[0] * (train.shape[1] if manhattan else 1)
        chunk = max(1, min(X.shape[0], int(CHUNK_ELEMENTS // max(1, per_row))))
        scratch = np.empty((chunk,) + train.shape if manhattan else 0)
        for lo in range(0, X.shape[0], chunk):
            dists = self._distances(X[lo: lo + chunk], scratch)
            order = np.argsort(dists, axis=1, kind="stable")[:, :k]
            neigh_y = train_y[order]
            if self.weights == "uniform":
                out[lo: lo + chunk] = np.quantile(neigh_y, taus, axis=1).T
                continue
            # per row, the smallest target whose normalized cumulative weight
            # reaches tau: stable sort by target, first position at or above tau
            w = 1.0 / (np.take_along_axis(dists, order, axis=1) + DISTANCE_EPS)
            by_y = np.argsort(neigh_y, axis=1, kind="stable")
            neigh_y = np.take_along_axis(neigh_y, by_y, axis=1)
            w = np.take_along_axis(w, by_y, axis=1)
            cum = np.cumsum(w, axis=1) / np.sum(w, axis=1, keepdims=True)
            for j, tau in enumerate(taus):
                idx = np.minimum(np.sum(cum < tau, axis=1), k - 1)
                out[lo: lo + chunk, j] = neigh_y[np.arange(idx.size), idx]
        return out
