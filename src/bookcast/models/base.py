"""Shared quantile-model contract.

Every family exposes fit(X, y, X_val, y_val) -> TrainReport and
predict(X) -> (N, |Q|) with columns ordered by ascending quantile level.
Predicted quantiles may cross; crossing is measured downstream, never
clipped away here.

The base class owns the contract's shared half: input coercion, the
fitted check and the checkpoint. A fitted model is its checkpoint arrays:
``_fit`` fills ``_arrays`` with the arrays named in ``array_names`` and
``_predict`` reads them, both on coerced float matrices, so ``state()``
and ``from_state`` need no per-family translation. A family's config is
its constructor's keywords (``config_keys``), each kept under its own name
as an attribute, so ``config()`` reads them back for the checkpoint to
rebuild the model from.
"""

from __future__ import annotations

import inspect
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..metrics import pinball  # noqa: F401  (re-exported: the loss lives with the metrics)


@dataclass
class TrainReport:
    loss_trace: List[float] = field(default_factory=list)
    val_aql_trace: List[float] = field(default_factory=list)
    early_stop_epoch: Optional[int] = None


class QuantileModel:
    """Base class; subclasses set ``family`` and implement the hooks."""

    family: str = ""
    array_names: Tuple[str, ...] = ()  # in the order state() lists them

    def __init__(self, quantiles, seed: int = 0):
        q = tuple(float(t) for t in quantiles)
        if list(q) != sorted(q) or len(set(q)) != len(q):
            raise ValueError("quantiles must be strictly ascending")
        if not all(0.0 < t < 1.0 for t in q):
            raise ValueError("quantiles must lie in (0, 1)")
        self.quantiles: Tuple[float, ...] = q
        self.seed = int(seed)
        self._arrays: Dict[str, np.ndarray] = {}
        self._fitted = False

    def fit(self, X: np.ndarray, y: np.ndarray,
            X_val: Optional[np.ndarray] = None,
            y_val: Optional[np.ndarray] = None) -> TrainReport:
        """Train on (X, y); the model counts as fitted only once ``_fit``
        returns, so a fit that raises leaves nothing to predict with."""
        self._fitted = False
        report = self._fit(self._check_matrix(X), np.asarray(y, dtype=float),
                           X_val, y_val)
        self._fitted = True
        return report

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted()
        return self._predict(self._check_matrix(X))

    @classmethod
    def config_keys(cls) -> Tuple[str, ...]:
        """The constructor's keywords other than the run-set quantiles and seed."""
        return tuple(k for k in inspect.signature(cls).parameters
                     if k not in ("quantiles", "seed"))

    def config(self) -> dict:
        """Each config key's attribute; a dataclass value as its fields."""
        values = {k: getattr(self, k) for k in self.config_keys()}
        return {k: asdict(v) if is_dataclass(v) else v for k, v in values.items()}

    def state(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        """(meta, arrays) snapshot sufficient to reproduce predictions."""
        self._require_fitted()
        meta = {"family": self.family, "quantiles": list(self.quantiles),
                "seed": self.seed, "config": self.config()}
        return meta, dict(self._arrays)

    @classmethod
    def from_state(cls, meta: dict, arrays: Dict[str, np.ndarray]) -> "QuantileModel":
        """The model ``state()`` described; meta keys beyond the config and
        arrays beyond ``array_names`` are ignored."""
        model = cls(meta["quantiles"], seed=meta["seed"], **meta["config"])
        missing = [name for name in model.array_names if name not in arrays]
        if missing:
            raise ValueError(f"{cls.family} checkpoint lacks parameter arrays {missing}")
        model._arrays = {name: arrays[name] for name in model.array_names}
        model._fitted = True
        return model

    def _fit(self, X: np.ndarray, y: np.ndarray, X_val, y_val) -> TrainReport:
        raise NotImplementedError

    def _predict(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("model is not fitted")

    def _check_matrix(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"expected a 2-D feature matrix, got shape {X.shape}")
        return X
