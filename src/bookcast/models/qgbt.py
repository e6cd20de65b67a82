"""Histogram gradient-boosted trees with quantile leaves, one ensemble per
quantile level.

Trees grow depth-wise on feature histograms. Each feature is cut at the
distinct quantiles of its training column (at most max_bins bins), and its
histogram spans only the bins its training rows occupy, so a split
threshold is always the upper edge of an occupied bin. Split search at a
node builds one flat (features x bins) histogram of counts and gradient
sums across all features, one flat scatter-add each in row order, then
takes prefix sums, gains and one argmax over the whole 2-D array. Splits
maximize the variance-style gain of the pinball-loss gradient (which
depends only on the residual sign); ties go to the lowest feature position,
then the lowest bin. Each leaf is then re-valued as the pinball-minimizing
quantile of the raw residuals it holds, so every boosting step can only
reduce the training pinball loss when no subsampling is active. reg_alpha
soft-thresholds leaf values and reg_lambda shrinks them by n/(n + lambda)
before the learning rate is applied.

The fitted forest is one set of node arrays, quantile by quantile and
boosting step by step: tree t holds nodes tree_start[t]:tree_start[t + 1],
with child positions local to the tree, as the checkpoint stores them.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from ..util import pinball_quantile, rng_for, soft_threshold
from .base import QuantileModel, TrainReport, pinball


class _Tree(NamedTuple):
    feature: np.ndarray    # -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        pos = np.zeros(X.shape[0], dtype=np.intp)
        while True:
            f = self.feature[pos]
            internal = f >= 0
            if not internal.any():
                return self.value[pos]
            idx = np.flatnonzero(internal)
            node = pos[idx]
            go_left = X[idx, f[idx]] <= self.threshold[node]
            pos[idx] = np.where(go_left, self.left[node], self.right[node])


class _SplitSearch:
    """Highest-gain split of a node over one flat histogram.

    codes[i, p] is row i's slot for feature position p in a row-major
    (feature position x bin) histogram of `width` bins per feature, so
    codes = binned[:, feats] + offsets; `width` is the largest number of
    occupied bins of any feature. The histogram, gain and repeated-gradient
    arrays are allocated once per fit and reused by every node, because
    fresh arrays of this size cost page faults on each allocation.
    """

    def __init__(self, n_rows: int, n_feats: int, width: int):
        self.width = width
        self.offsets = np.arange(n_feats) * width
        self.hist = np.empty((2, n_feats, width))     # counts, gradient sums
        self.gain = np.empty((n_feats, max(width - 1, 0)))
        self.right = np.empty_like(self.gain)
        self.g_rows = np.empty((n_rows, n_feats))     # g[i] at every codes[i, p]

    def best(self, codes: np.ndarray, g: np.ndarray) -> Optional[Tuple[int, int]]:
        """(feature position, bin) of the split sending bins <= bin left, or
        None when no split gains more than 1e-12.

        Both scatter-adds take flat indices and values, row by row, so every
        slot adds its rows' gradients in row order, as a per-feature
        bincount would, and sums do not depend on the histogram layout;
        counts are integers, held exactly in floats. The flat argmax breaks
        ties towards the lowest feature position, then the lowest bin.
        """
        if self.width < 2:
            return None
        n = g.size
        total_sum = float(g.sum())
        hist, gain, right = self.hist, self.gain, self.right
        hist.fill(0.0)
        cnt, sums = hist.reshape(2, -1)
        g_rows = self.g_rows[:n]
        g_rows[...] = g[:, None]
        flat = codes.ravel()
        np.add.at(cnt, flat, 1.0)
        np.add.at(sums, flat, g_rows.ravel())
        np.cumsum(hist, axis=2, out=hist)
        cnt_l, sum_l = hist[0, :, :-1], hist[1, :, :-1]
        # gain = sum_l^2 / cnt_l + sum_r^2 / cnt_r - total_sum^2 / n
        with np.errstate(divide="ignore", invalid="ignore"):
            np.subtract(total_sum, sum_l, out=right)
            np.square(right, out=right)
            np.subtract(n, cnt_l, out=gain)
            right /= gain
            np.square(sum_l, out=gain)
            gain /= cnt_l
            gain += right
            gain -= total_sum * total_sum / n
        # each feature's top occupied bin, the padding above it and
        # single-bin features leave one side empty
        np.copyto(gain, -np.inf, where=(cnt_l == 0) | (cnt_l == n))
        pos, k = divmod(int(np.argmax(gain)), self.width - 1)
        return (pos, k) if gain[pos, k] > 1e-12 else None


class QGBTModel(QuantileModel):
    family = "qgbt"
    array_names = ("base", *_Tree._fields, "tree_start")

    def __init__(self, quantiles, seed: int = 0, n_estimators: int = 100,
                 max_depth: int = 6, learning_rate: float = 0.1,
                 subsample: float = 1.0, colsample_by_tree: float = 1.0,
                 reg_alpha: float = 0.0, reg_lambda: float = 0.0,
                 max_bins: int = 256):
        super().__init__(quantiles, seed)
        if n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        if max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 < subsample <= 1.0 or not 0.0 < colsample_by_tree <= 1.0:
            raise ValueError("subsample and colsample_by_tree must be in (0, 1]")
        if reg_alpha < 0 or reg_lambda < 0:
            raise ValueError("regularization weights must be non-negative")
        if max_bins < 2:
            raise ValueError("max_bins must be at least 2")
        self.n_estimators = int(n_estimators)
        self.max_depth = int(max_depth)
        self.learning_rate = float(learning_rate)
        self.subsample = float(subsample)
        self.colsample_by_tree = float(colsample_by_tree)
        self.reg_alpha = float(reg_alpha)
        self.reg_lambda = float(reg_lambda)
        self.max_bins = int(max_bins)

    def _bin_features(self, X: np.ndarray) -> Tuple[List[np.ndarray], np.ndarray]:
        """Each feature's split thresholds, and each row's bin rank.

        Column j is cut at its distinct quantiles at levels k / max_bins;
        binned[i, j] ranks row i's bin among the bins column j occupies, and
        thresholds[j][k] is the upper edge of the k-th occupied bin, so
        rank <= k exactly when x <= thresholds[j][k]. The top occupied bin
        has no threshold.
        """
        probe = np.linspace(0.0, 1.0, self.max_bins + 1)[1:-1]
        cuts = np.quantile(X, probe, axis=0)
        thresholds = []
        binned = np.empty(X.shape, dtype=np.int32)
        for j in range(X.shape[1]):
            edges = np.unique(cuts[:, j])
            occupied, binned[:, j] = np.unique(
                np.searchsorted(edges, X[:, j], side="left"), return_inverse=True)
            thresholds.append(edges[occupied[:-1]])
        return thresholds, binned

    def _grow_tree(self, binned, thresholds, residual, grad, rows, feats,
                   search: _SplitSearch, tau) -> _Tree:
        codes = binned[:, feats] + search.offsets
        feature, threshold, left, right, value = [-1], [np.nan], [-1], [-1], [np.nan]
        node_rows, node_depth = [rows], [0]

        def leaf_value(r) -> float:
            v = pinball_quantile(residual[r], tau)
            v = float(soft_threshold(np.array([v]), self.reg_alpha)[0])
            v *= r.size / (r.size + self.reg_lambda)
            return v * self.learning_rate

        node = 0
        while node < len(feature):
            r = node_rows[node]
            best = None
            if node_depth[node] < self.max_depth and r.size >= 2:
                best = search.best(codes[r], grad[r])
            if best is None:
                value[node] = leaf_value(r)
            else:
                pos, k = best
                f = int(feats[pos])
                mask = binned[r, f] <= k
                feature[node] = f
                threshold[node] = float(thresholds[f][k])
                left[node], right[node] = len(feature), len(feature) + 1
                for child_rows in (r[mask], r[~mask]):
                    feature.append(-1)
                    threshold.append(np.nan)
                    left.append(-1)
                    right.append(-1)
                    value.append(np.nan)
                    node_rows.append(child_rows)
                    node_depth.append(node_depth[node] + 1)
            node += 1

        return _Tree(np.array(feature, dtype=np.intp),
                     np.array(threshold, dtype=float),
                     np.array(left, dtype=np.intp),
                     np.array(right, dtype=np.intp),
                     np.array(value, dtype=float))

    def _fit(self, X, y, X_val, y_val) -> TrainReport:
        n, d = X.shape
        thresholds, binned = self._bin_features(X)
        n_sub = max(1, int(round(self.subsample * n)))
        n_feat = max(1, int(round(self.colsample_by_tree * d))) if d else 0
        search = _SplitSearch(n_sub, n_feat,
                              max((t.size + 1 for t in thresholds), default=0))

        base = np.array([pinball_quantile(y, t) for t in self.quantiles])
        trees: List[_Tree] = []
        traces = np.zeros((len(self.quantiles), self.n_estimators))
        for qi, tau in enumerate(self.quantiles):
            rng = rng_for(self.seed, qi)
            pred = np.full(n, base[qi])
            for m in range(self.n_estimators):
                rows = (np.arange(n) if n_sub == n
                        else np.sort(rng.choice(n, size=n_sub, replace=False)))
                feats = (np.arange(d) if n_feat == d
                         else np.sort(rng.choice(d, size=n_feat, replace=False)))
                residual = y - pred
                grad = np.where(residual >= 0, tau, tau - 1.0)
                tree = self._grow_tree(binned, thresholds, residual, grad,
                                       rows, feats, search, tau)
                trees.append(tree)
                pred += tree.apply(X)
                traces[qi, m] = float(np.mean(pinball(y, pred, tau)))
        nodes = {k: np.concatenate([getattr(t, k) for t in trees] or [np.empty(0)])
                 for k in _Tree._fields}
        starts = np.cumsum([0] + [t.feature.size for t in trees], dtype=np.int64)
        self._arrays = {"base": base, **nodes, "tree_start": starts}
        return TrainReport(loss_trace=list(traces.mean(axis=0)))

    def _tree(self, t: int) -> _Tree:
        """Tree t of the forest, as views of its node arrays; quantile qi's
        trees are qi * n_estimators onwards."""
        lo, hi = self._arrays["tree_start"][t: t + 2]
        return _Tree(*(self._arrays[k][lo:hi] for k in _Tree._fields))

    def _predict(self, X) -> np.ndarray:
        out = np.empty((X.shape[0], len(self.quantiles)))
        for qi in range(len(self.quantiles)):
            pred = np.full(X.shape[0], self._arrays["base"][qi])
            for t in range(qi * self.n_estimators, (qi + 1) * self.n_estimators):
                pred += self._tree(t).apply(X)
            out[:, qi] = pred
        return out

    def config(self) -> dict:
        return {"n_estimators": self.n_estimators, "max_depth": self.max_depth,
                "learning_rate": self.learning_rate, "subsample": self.subsample,
                "colsample_by_tree": self.colsample_by_tree,
                "reg_alpha": self.reg_alpha, "reg_lambda": self.reg_lambda,
                "max_bins": self.max_bins}
