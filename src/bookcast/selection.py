"""Sparse feature selection via L1-penalized linear quantile regression.

The fit minimizes  sum_n pinball_tau(y_n - x_n.beta - b) + alpha * ||beta||_1
over standardized features, with an unpenalized intercept. The kink in the
pinball loss is handled by quadratic smoothing with continuation: a monotone
accelerated proximal-gradient loop (backtracking line search + soft
thresholding) runs at smoothing half-widths kappa, kappa/10, kappa/100, and
a final exact 1-D polish sets the intercept to the pinball-optimal quantile
of the residuals. Soft thresholding produces exact zeros, so selection reads
sparsity directly off the coefficients.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .features import parse_feature_name
from .metrics import pinball
from .util import pinball_quantile, soft_threshold

DEFAULT_QUANTILES = (0.1, 0.5, 0.9)
ZERO_THRESHOLD = 1e-6  # continuation can leave coefficient dust below this
ALPHA_RANGE = (1e-8, 1.0)


@dataclass
class SolverConfig:
    kappa: float = 1e-4
    stages: int = 3
    max_iter: int = 10_000
    rel_tol: float = 1e-8


# each SolverConfig field's type; YAML reads an exponent such as 1e-3 as text
SOLVER_FIELDS = {k: type(v) for k, v in asdict(SolverConfig()).items()}


def solver_config(value) -> SolverConfig:
    """``value`` if a SolverConfig, else one from a mapping of its fields,
    each cast to its SOLVER_FIELDS type."""
    return value if isinstance(value, SolverConfig) else SolverConfig(
        **{k: SOLVER_FIELDS[k](v) if k in SOLVER_FIELDS else v
           for k, v in dict(value or {}).items()})


@dataclass
class L1QuantileFit:
    tau: float
    alpha: float
    beta: np.ndarray
    intercept: float
    objective_trace: List[float]
    converged: bool
    n_iter: int


def objective(X: np.ndarray, y: np.ndarray, tau: float, alpha: float,
              beta: np.ndarray, intercept: float) -> float:
    """Exact penalized objective: summed pinball loss + alpha * l1(beta)."""
    resid_loss = float(np.sum(pinball(y, X @ beta + intercept, tau)))
    return resid_loss + alpha * float(np.sum(np.abs(beta)))


def _smooth_loss(r: np.ndarray, tau: float, kappa: float) -> float:
    """Smoothed pinball summed over residuals.

    Quadratic of curvature 1/(2*kappa) replaces the kink on [-kappa, kappa],
    matching value and slope at the joins.
    """
    val = np.where(r >= kappa, tau * r,
                   np.where(r <= -kappa, (tau - 1.0) * r,
                            r * r / (4.0 * kappa) + (tau - 0.5) * r + kappa / 4.0))
    return float(np.sum(val))


def _smooth_loss_and_grad(r: np.ndarray, tau: float, kappa: float):
    """_smooth_loss and its derivative wrt r."""
    grad = np.where(r >= kappa, tau,
                    np.where(r <= -kappa, tau - 1.0, r / (2.0 * kappa) + (tau - 0.5)))
    return _smooth_loss(r, tau, kappa), grad


def fit_l1_lqr(X: np.ndarray, y: np.ndarray, tau: float, alpha: float,
               cfg: Optional[SolverConfig] = None,
               start: Optional[Tuple[np.ndarray, float]] = None) -> L1QuantileFit:
    """Fit one L1-penalized linear quantile regression.

    X is expected standardized (see standardize); the intercept is not
    penalized. Returns the fit with its exact-objective trace, which is
    non-increasing over accepted steps. converged=False means an iteration
    cap was hit before the relative-change tolerance. ``start`` overrides
    the default initialization (zero coefficients, quantile intercept).
    """
    cfg = cfg or SolverConfig()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError(f"X {X.shape} and y {y.shape} are misaligned")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite values in X or y")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must be in (0, 1)")

    n, d = X.shape
    if start is not None:
        beta = np.asarray(start[0], dtype=float).copy()
        b = float(start[1])
    else:
        beta = np.zeros(d)
        b = pinball_quantile(y, tau) if n else 0.0
    trace = [objective(X, y, tau, alpha, beta, b)]
    converged = True
    total_iter = 0
    step = 1.0

    for stage in range(cfg.stages):
        kappa = cfg.kappa / (10.0 ** stage)
        beta, b, step, iters, ok = _mfista_stage(
            X, y, tau, alpha, beta, b, kappa, step, cfg, trace)
        total_iter += iters
        converged = converged and ok

    # exact 1-D polish: with beta fixed, the optimal intercept is the
    # pinball quantile of the residuals (never increases the objective)
    if n:
        b = pinball_quantile(y - X @ beta, tau)
    trace.append(objective(X, y, tau, alpha, beta, b))

    return L1QuantileFit(tau=tau, alpha=alpha, beta=beta, intercept=b,
                         objective_trace=trace, converged=converged,
                         n_iter=total_iter)


def _mfista_stage(X, y, tau, alpha, beta, b, kappa, step, cfg, trace):
    """One smoothing stage of monotone accelerated proximal gradient."""
    x_beta, x_b = beta.copy(), b
    y_beta, y_b = beta.copy(), b
    f_x = trace[-1]
    t_mom = 1.0
    small_changes = 0

    for it in range(1, cfg.max_iter + 1):
        r = y - X @ y_beta - y_b
        f_y, g_r = _smooth_loss_and_grad(r, tau, kappa)
        grad_beta = -(X.T @ g_r)
        grad_b = -float(np.sum(g_r))

        step = min(step * 1.25, 1e6)
        while True:
            z_beta = soft_threshold(y_beta - step * grad_beta, step * alpha)
            z_b = y_b - step * grad_b
            rz = y - X @ z_beta - z_b
            f_z = _smooth_loss(rz, tau, kappa)
            db = z_beta - y_beta
            dbi = z_b - y_b
            quad = (f_y + float(grad_beta @ db) + grad_b * dbi
                    + (float(db @ db) + dbi * dbi) / (2.0 * step))
            if f_z <= quad + 1e-12 * max(1.0, abs(quad)):
                break
            step *= 0.5
            if step < 1e-18:
                break

        f_z_true = (float(np.sum(pinball(y, y - rz, tau)))
                    + alpha * float(np.sum(np.abs(z_beta))))
        if f_z_true <= f_x:
            new_beta, new_b, f_new = z_beta, z_b, f_z_true
        else:
            new_beta, new_b, f_new = x_beta, x_b, f_x

        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
        y_beta = new_beta + (t_mom / t_next) * (z_beta - new_beta) \
            + ((t_mom - 1.0) / t_next) * (new_beta - x_beta)
        y_b = new_b + (t_mom / t_next) * (z_b - new_b) \
            + ((t_mom - 1.0) / t_next) * (new_b - x_b)
        t_mom = t_next

        x_beta, x_b = new_beta, new_b
        change = f_x - f_new
        f_x = f_new
        trace.append(f_x)

        if change <= cfg.rel_tol * max(1.0, abs(f_x)):
            small_changes += 1
            if small_changes >= 2:
                return x_beta, x_b, step, it, True
        else:
            small_changes = 0

    return x_beta, x_b, step, cfg.max_iter, False


def standardize(X_train: np.ndarray, *others: np.ndarray):
    """Column-wise z-scoring with train statistics (population std).

    Returns (X_train_std, [other_std...], mean, scale, zero_variance_mask).
    Zero-variance columns get scale 1 so they map to exactly zero.
    """
    X_train = np.asarray(X_train, dtype=float)
    if X_train.size == 0 or X_train.shape[0] == 0:
        raise ValueError("empty training matrix")
    mean = X_train.mean(axis=0)
    scale = X_train.std(axis=0)
    zero_var = scale == 0.0
    scale = np.where(zero_var, 1.0, scale)
    transformed = [(np.asarray(M, dtype=float) - mean) / scale for M in others]
    return (X_train - mean) / scale, transformed, mean, scale, zero_var


def default_alpha_grid(n: int = 50) -> np.ndarray:
    return np.logspace(np.log10(ALPHA_RANGE[0]), np.log10(ALPHA_RANGE[1]), n)


def tune_alpha(train: Tuple[np.ndarray, np.ndarray],
               val: Tuple[np.ndarray, np.ndarray],
               tau: float,
               alpha_grid: Optional[Sequence[float]] = None,
               cfg: Optional[SolverConfig] = None):
    """Pick the penalty weight minimizing validation pinball loss at tau.

    Grid values are per-sample penalty weights in [1e-8, 1]; since the fit
    objective sums (rather than averages) the pinball loss, each fit runs
    with the grid value scaled by the training count, which keeps the
    grid's sparsity reach independent of dataset size. Ties go to the
    larger (sparser) alpha. Returns (best_alpha, fits) keyed by grid value.
    """
    grid = np.asarray(alpha_grid if alpha_grid is not None else default_alpha_grid())
    if grid.size == 0:
        raise ValueError("alpha grid is empty")
    if np.any(grid < ALPHA_RANGE[0]) or np.any(grid > ALPHA_RANGE[1]):
        raise ValueError(f"alpha grid must lie within {ALPHA_RANGE}")
    X_tr, y_tr = train
    X_val, y_val = val
    fits: Dict[float, L1QuantileFit] = {}
    best_alpha = None
    best_loss = np.inf
    for alpha in np.sort(grid):
        fit = fit_l1_lqr(X_tr, y_tr, tau, float(alpha) * len(y_tr), cfg)
        fits[float(alpha)] = fit
        val_loss = float(np.mean(pinball(y_val, X_val @ fit.beta + fit.intercept, tau)))
        if val_loss <= best_loss:
            best_loss = val_loss
            best_alpha = float(alpha)
    return best_alpha, fits


@dataclass
class SelectionResult:
    quantiles: Tuple[float, ...]
    feature_names: Tuple[str, ...]
    per_tau_selected: Dict[float, List[str]]
    per_tau_coef: Dict[float, Dict[str, float]]  # selected features only
    alpha_per_tau: Dict[float, float]
    union: List[str] = field(default_factory=list)
    importance: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "quantiles": list(self.quantiles),
            "alpha_per_tau": {str(t): a for t, a in self.alpha_per_tau.items()},
            "selected": {
                str(t): [{"name": n, "coefficient": self.per_tau_coef[t][n]}
                         for n in names]
                for t, names in self.per_tau_selected.items()
            },
            "union": self.union,
            "importance": self.importance,
        }

    @classmethod
    def from_dict(cls, payload: dict, feature_names: Sequence[str]) -> "SelectionResult":
        """Inverse of ``to_dict`` over the universe ``feature_names``."""
        taus = tuple(float(t) for t in payload["quantiles"])
        selected = {float(t): entries for t, entries in payload["selected"].items()}
        alphas = {float(t): a for t, a in payload["alpha_per_tau"].items()}
        return cls(
            quantiles=taus,
            feature_names=tuple(feature_names),
            per_tau_selected={t: [e["name"] for e in selected[t]] for t in taus},
            per_tau_coef={t: {e["name"]: e["coefficient"] for e in selected[t]}
                          for t in taus},
            alpha_per_tau={t: alphas[t] for t in taus},
            union=list(payload["union"]),
            importance={n: payload["importance"][n] for n in feature_names},
        )


def select_features(fits_per_tau: Dict[float, L1QuantileFit],
                    feature_names: Sequence[str]) -> SelectionResult:
    """Read the per-quantile sparse supports and aggregate importance.

    A feature is selected at tau when its standardized coefficient exceeds
    ``ZERO_THRESHOLD`` in magnitude; ``per_tau_coef`` keeps the selected
    coefficients only. Importance sums |coefficient| over all features and
    quantile levels.
    """
    names = tuple(feature_names)
    taus = tuple(sorted(fits_per_tau))
    per_tau_selected: Dict[float, List[str]] = {}
    per_tau_coef: Dict[float, Dict[str, float]] = {}
    importance = {n: 0.0 for n in names}
    for tau in taus:
        fit = fits_per_tau[tau]
        if len(fit.beta) != len(names):
            raise ValueError("fit dimensionality does not match the feature universe")
        coef = {n: float(c) for n, c in zip(names, fit.beta)}
        per_tau_selected[tau] = [n for n in names if abs(coef[n]) > ZERO_THRESHOLD]
        per_tau_coef[tau] = {n: coef[n] for n in per_tau_selected[tau]}
        for n in names:
            importance[n] += abs(coef[n])
    union = [n for n in names
             if any(n in per_tau_selected[t] for t in taus)]
    return SelectionResult(
        quantiles=taus,
        feature_names=names,
        per_tau_selected=per_tau_selected,
        per_tau_coef=per_tau_coef,
        alpha_per_tau={t: fits_per_tau[t].alpha for t in taus},
        union=union,
        importance=importance,
    )


@dataclass(frozen=True)
class ImportanceBreakdown:
    by_family: Dict[str, float]
    by_window: Dict[str, float]
    by_side: Dict[str, float]

    def to_dict(self) -> dict:
        return {"by_family": self.by_family, "by_window": self.by_window,
                "by_side": self.by_side}


def importance_breakdown(result: SelectionResult) -> ImportanceBreakdown:
    """Importance shares grouped by feature family, window, and side."""
    total = sum(result.importance.values())
    if total <= 0:
        raise ValueError("all-zero importance; nothing to normalize")
    by_family: Dict[str, float] = {}
    by_window: Dict[str, float] = {}
    by_side: Dict[str, float] = {}
    for name, imp in result.importance.items():
        family, side, window, _ = parse_feature_name(name)
        by_family[family] = by_family.get(family, 0.0) + imp
        by_window[window] = by_window.get(window, 0.0) + imp
        by_side[side] = by_side.get(side, 0.0) + imp
    return ImportanceBreakdown(
        by_family={k: v / total for k, v in sorted(by_family.items())},
        by_window={k: v / total for k, v in sorted(by_window.items())},
        by_side={k: v / total for k, v in sorted(by_side.items())},
    )


def top_k(result: SelectionResult, tau: float, k: int) -> Tuple[List[str], bool]:
    """Top-k selected features at tau by |coefficient|, descending.

    Ties break by canonical name order. When fewer than k features are
    selected, all of them are returned with the short-list flag set.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if tau not in result.per_tau_selected:
        raise KeyError(f"no fit at tau={tau}")
    coef = result.per_tau_coef[tau]
    selected = result.per_tau_selected[tau]
    ranked = sorted(selected, key=lambda n: (-abs(coef[n]), n))
    if k >= len(ranked):
        return ranked, len(ranked) < k
    return ranked[:k], False


def top_k_union(result: SelectionResult, k: int) -> List[str]:
    """Union over quantile levels of the top-k features, in universe order."""
    chosen = set()
    for tau in result.quantiles:
        chosen.update(top_k(result, tau, k)[0])
    return [n for n in result.feature_names if n in chosen]
