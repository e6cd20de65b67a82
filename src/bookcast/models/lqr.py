"""Linear quantile regression, one L1-penalized linear model per quantile.

l1_weight is a per-sample penalty weight: the solver's summed-loss
objective receives it scaled by the training count, so a given weight has
the same shrinkage effect regardless of dataset size.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

import numpy as np

from ..selection import SolverConfig, fit_l1_lqr, solver_config
from .base import QuantileModel, TrainReport


class LQRModel(QuantileModel):
    family = "lqr"
    array_names = ("beta", "intercept")   # (|Q|, D) slopes, (|Q|,) intercepts

    def __init__(self, quantiles, seed: int = 0, l1_weight: float = 1e-8,
                 solver: Optional[Union[SolverConfig, Mapping]] = None):
        super().__init__(quantiles, seed)
        if l1_weight < 0:
            raise ValueError("l1_weight must be non-negative")
        self.l1_weight = float(l1_weight)
        self.solver = solver_config(solver)

    def _fit(self, X, y, X_val, y_val) -> TrainReport:
        betas = []
        intercepts = []
        final_objectives = []
        for tau in self.quantiles:
            fit = fit_l1_lqr(X, y, tau, self.l1_weight * len(y), self.solver)
            betas.append(fit.beta)
            intercepts.append(fit.intercept)
            final_objectives.append(fit.objective_trace[-1])
        self._arrays = {
            "beta": np.vstack(betas) if betas else np.empty((0, X.shape[1])),
            "intercept": np.array(intercepts)}
        return TrainReport(loss_trace=final_objectives)

    def _predict(self, X) -> np.ndarray:
        return X @ self._arrays["beta"].T + self._arrays["intercept"]
