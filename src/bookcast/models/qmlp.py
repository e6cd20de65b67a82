"""Feedforward quantile network: shared ReLU trunk, one linear head per
quantile level, trained jointly on the mean pinball loss across heads.

Pure numpy: forward, backprop, inverted dropout, and Adam (Kingma & Ba,
2015) are implemented here so gradients can be checked against finite
differences. Training uses mini-batches with early stopping on validation
AQL (patience 10) and restores the best-epoch weights.

Training and prediction run in float32, the usual precision for training
neural networks: it halves the arithmetic and the bytes moved. ``_fit``
casts X and X_val once; the loss is taken in float64 against the float64
targets and its gradient rounded once to float32; ``_predict`` casts its
input to the parameters' dtype and returns float64. All code follows the
dtype of the parameter arrays, so a checkpoint holding float64 arrays
still loads and predicts in float64, and ``_init_params`` keeps float64
as its default for gradient checks.

During training all weights and biases live in one flat float32 vector
(W then b per layer; the model's arrays W{i} and b{i} are views of it).
Backprop writes each layer's gradients into one buffer sized to the largest
layer, and Adam updates that layer's parameters in place, in fixed blocks,
as soon as backprop reads its weights no more. With the best-epoch
snapshot, training holds four parameter-sized vectors (parameters, Adam's
two moments, best epoch) plus that buffer, and allocates none per step.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..metrics import aql
from ..util import rng_for
from .base import QuantileModel, TrainReport

MAX_EPOCHS = 500
PATIENCE = 10
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# elements per Adam block: two block-sized scratch vectors hold the update's
# temporaries, so no step allocates parameter-sized arrays
ADAM_BLOCK = 1 << 15


def _flat_layers(shapes, dtype, shared: bool = False) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """A flat ``dtype`` vector and its per-layer views W{i} (fan_in, fan_out)
    and b{i} (fan_out,), laid out W then b per layer; with ``shared`` each
    layer's views start at 0 of one vector sized to the largest layer."""
    sizes = [fan_in * fan_out + fan_out for fan_in, fan_out in shapes]
    flat = np.empty(max(sizes) if shared else sum(sizes), dtype=dtype)
    views = {}
    lo = 0
    for i, (fan_in, fan_out) in enumerate(shapes):
        lo = 0 if shared else lo
        hi = lo + fan_in * fan_out
        views[f"W{i}"] = flat[lo:hi].reshape(fan_in, fan_out)
        views[f"b{i}"] = flat[hi:hi + fan_out]
        lo = hi + fan_out
    return flat, views


def _adam_step(params, grad, m, v, scratch, lr: float, step: int) -> None:
    """One in-place Adam update of flat vectors, block by block.

    Each element sees the same float operations in the same order as the
    whole-array form ``p -= lr * m_hat / (sqrt(v_hat) + eps)``.
    """
    c1 = 1 - ADAM_BETA1 ** step
    c2 = 1 - ADAM_BETA2 ** step
    for lo in range(0, params.size, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, params.size)
        g, mb, vb = grad[lo:hi], m[lo:hi], v[lo:hi]
        a, b = scratch[0, :hi - lo], scratch[1, :hi - lo]
        mb *= ADAM_BETA1
        np.multiply(g, 1 - ADAM_BETA1, out=a)
        mb += a
        vb *= ADAM_BETA2
        np.square(g, out=a)
        a *= 1 - ADAM_BETA2
        vb += a
        np.divide(mb, c1, out=a)
        a *= lr
        np.divide(vb, c2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        params[lo:hi] -= a


class QMLPModel(QuantileModel):
    family = "qmlp"

    def __init__(self, quantiles, seed: int = 0, hidden_size: int = 64,
                 n_layers: int = 2, dropout_rate: float = 0.0,
                 learning_rate: float = 1e-3, batch_size: int = 64,
                 max_epochs: int = MAX_EPOCHS, patience: int = PATIENCE,
                 lr_decay: float = 0.0):
        super().__init__(quantiles, seed)
        if hidden_size < 1 or n_layers < 1:
            raise ValueError("hidden_size and n_layers must be positive")
        if not 0.0 <= dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if learning_rate <= 0 or batch_size < 1:
            raise ValueError("learning_rate and batch_size must be positive")
        if lr_decay < 0:
            raise ValueError("lr_decay must be non-negative")
        self.hidden_size = int(hidden_size)
        self.n_layers = int(n_layers)
        self.dropout_rate = float(dropout_rate)
        self.learning_rate = float(learning_rate)
        self.batch_size = int(batch_size)
        self.max_epochs = int(max_epochs)
        self.patience = int(patience)
        self.lr_decay = float(lr_decay)

    @property
    def array_names(self) -> Tuple[str, ...]:
        return tuple(f"{k}{l}" for l in range(self.n_layers + 1) for k in "Wb")

    def _shapes(self) -> List[Tuple[int, int]]:
        return [self._arrays[f"W{l}"].shape for l in range(self.n_layers + 1)]

    def _init_params(self, n_features: int, dtype=np.float64) -> np.ndarray:
        """Fresh weights, float64 draws rounded to ``dtype``; the model's
        arrays become views of the returned flat vector, which training
        updates in place."""
        rng = rng_for(self.seed, 0)
        sizes = [n_features] + [self.hidden_size] * self.n_layers + [len(self.quantiles)]
        flat, self._arrays = _flat_layers(list(zip(sizes[:-1], sizes[1:])), dtype)
        for l, fan_in in enumerate(sizes[:-1]):
            bound = 1.0 / np.sqrt(fan_in)
            for a in (self._arrays[f"W{l}"], self._arrays[f"b{l}"]):
                a[...] = rng.uniform(-bound, bound, size=a.shape)
        return flat

    # inputs beyond the dtype's range, and a diverged network, overflow
    # here; _fit raises on the non-finite loss
    @np.errstate(over="ignore", invalid="ignore")
    def _forward(self, X: np.ndarray, dropout_rng=None):
        """Returns (output, cache) with per-layer inputs and dropout masks."""
        acts = [X]
        masks = []
        h = X
        for l in range(self.n_layers):
            z = h @ self._arrays[f"W{l}"] + self._arrays[f"b{l}"]
            h = np.maximum(z, 0.0)
            if dropout_rng is not None and self.dropout_rate > 0.0:
                mask = (dropout_rng.random(h.shape) >= self.dropout_rate)
                h = h * mask / (1.0 - self.dropout_rate)
                masks.append(mask)
            else:
                masks.append(None)
            acts.append(h)
        top = self.n_layers
        return h @ self._arrays[f"W{top}"] + self._arrays[f"b{top}"], (acts, masks)

    def _loss_grad_out(self, y: np.ndarray, out: np.ndarray) -> Tuple[float, np.ndarray]:
        """Mean pinball loss of float64 targets and its gradient, rounded
        once to ``out``'s dtype."""
        taus = np.array(self.quantiles)
        # a diverged network overflows here; _fit raises on the non-finite loss
        with np.errstate(over="ignore", invalid="ignore"):
            diff = y[:, None] - out
            losses = np.where(diff >= 0, taus * diff, (taus - 1.0) * diff)
            loss = float(losses.mean())
            grad = np.where(diff >= 0, -taus, 1.0 - taus) * (1.0 / losses.size)
        return loss, grad.astype(out.dtype, copy=False)

    def _backward(self, acts, masks, g: np.ndarray, grads) -> Iterator[int]:
        """Parameter gradients from d(loss)/d(output), written into the
        named per-layer views ``grads``, top layer first. Yields each layer
        once its gradients are written and its weights are read no more.

        Post-dropout activations are zero wherever a unit was dropped or the
        ReLU was inactive, so (activation > 0) recovers the exact ReLU gate
        on the surviving units.
        """
        upstream = g
        for l in range(self.n_layers, -1, -1):
            if l < self.n_layers:
                if masks[l] is not None:
                    upstream = upstream * masks[l] / (1.0 - self.dropout_rate)
                upstream = upstream * (acts[l + 1] > 0)
            np.matmul(acts[l].T, upstream, out=grads[f"W{l}"])
            np.sum(upstream, axis=0, out=grads[f"b{l}"])
            if l > 0:
                upstream = upstream @ self._arrays[f"W{l}"].T
            yield l

    def loss_and_grads(self, X: np.ndarray, y: np.ndarray):
        """Full-batch loss and analytic parameter gradients (fresh arrays,
        ordered as parameters()), dropout off."""
        out, (acts, masks) = self._forward(self._cast(np.asarray(X, dtype=float)))
        loss, g = self._loss_grad_out(np.asarray(y, dtype=float), out)
        _, grads = _flat_layers(self._shapes(), out.dtype)
        list(self._backward(acts, masks, g, grads))
        return loss, [grads[name] for name in self.array_names]

    def parameters(self) -> List[np.ndarray]:
        return [self._arrays[name] for name in self.array_names]

    def _fit(self, X, y, X_val, y_val) -> TrainReport:
        n = X.shape[0]
        validate = X_val is not None and y_val is not None and len(y_val) > 0
        params = self._init_params(X.shape[1], np.float32)
        X = self._cast(X)
        if validate:
            X_val = self._cast(self._check_matrix(X_val))
        shuffle_rng = rng_for(self.seed, 1)
        dropout_rng = rng_for(self.seed, 2)
        batch = min(self.batch_size, n)

        # Adam updates each layer from the shared buffer as backprop yields it
        grad, grads = _flat_layers(self._shapes(), params.dtype, shared=True)
        ends = np.cumsum([0] + [grads[f"W{l}"].size + grads[f"b{l}"].size
                                for l in range(self.n_layers + 1)])
        m_state = np.zeros_like(params)
        v_state = np.zeros_like(params)
        scratch = np.empty((2, min(ADAM_BLOCK, grad.size)), dtype=params.dtype)
        step = 0

        report = TrainReport()
        best_val = np.inf
        best_params = None
        best_epoch = 0
        wait = 0
        for epoch in range(1, self.max_epochs + 1):
            # 1/t schedule; the pinball gradient never vanishes at the optimum,
            # so a decaying step is what makes tight convergence possible
            lr = self.learning_rate / (1.0 + self.lr_decay * (epoch - 1))
            order = shuffle_rng.permutation(n)
            epoch_loss = 0.0
            for lo in range(0, n, batch):
                idx = order[lo: lo + batch]
                out, (acts, masks) = self._forward(
                    X[idx], dropout_rng if self.dropout_rate > 0 else None)
                loss, g = self._loss_grad_out(y[idx], out)
                if not np.isfinite(loss):
                    raise RuntimeError(
                        f"non-finite training loss at epoch {epoch} "
                        f"(learning_rate={self.learning_rate})")
                epoch_loss += loss * idx.size

                step += 1
                for l in self._backward(acts, masks, g, grads):
                    part = slice(ends[l], ends[l + 1])
                    _adam_step(params[part], grad, m_state[part], v_state[part],
                               scratch, lr, step)

            report.loss_trace.append(epoch_loss / n)
            if validate:
                val_aql = aql(y_val, self._predict(X_val), self.quantiles)
                report.val_aql_trace.append(val_aql)
                if val_aql < best_val:
                    best_val = val_aql
                    if best_params is None:
                        best_params = np.empty_like(params)
                    np.copyto(best_params, params)
                    best_epoch = epoch
                    wait = 0
                else:
                    wait += 1
                    if wait >= self.patience:
                        break

        if best_params is not None:
            np.copyto(params, best_params)
            report.early_stop_epoch = best_epoch
        else:
            report.early_stop_epoch = len(report.loss_trace)
        return report

    def _cast(self, X: np.ndarray) -> np.ndarray:
        """X in the parameters' dtype; values beyond its range become
        infinite without a warning (a fit then fails on its loss)."""
        with np.errstate(over="ignore"):
            return X.astype(self._arrays["W0"].dtype, copy=False)

    def _predict(self, X) -> np.ndarray:
        return self._forward(self._cast(X))[0].astype(np.float64, copy=False)
