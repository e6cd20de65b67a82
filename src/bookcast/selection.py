"""Sparse feature selection via L1-penalized linear quantile regression.

The fit minimizes  sum_n pinball_tau(y_n - x_n.beta - b) + alpha * ||beta||_1
over standardized features, with an unpenalized intercept. That is a linear
program: with beta = p - m and residuals u - v, all four non-negative, a
Mehrotra predictor-corrector interior point solves it. Its Newton system
lives in the n x n row space, X diag(theta_p + theta_m) X^T +
diag(theta_u + theta_v), and the free intercept leaves it by a Schur
complement (at alpha = 0 the coefficients are free as well and join it).

Each iterate is rounded and checked against its dual d, made exactly
feasible: projected onto sum(d) = 0 (and X^T d = 0 at alpha = 0), then
scaled towards 0 until it lies in [tau - 1, tau] with |X^T d| <= alpha, so
that y^T d bounds the optimum from below. Coefficients whose columns keep
dual slack are set to exact zeros, as complementary slackness allows; near
the optimum the vertex that interpolates the rows the support spans is
tried as well. Each candidate's
intercept is polished to the pinball quantile of its residuals, and the fit
counts as converged once the relative gap between the best objective and
the best bound is at most GAP_TOL. At alpha >= alpha_max = ||X^T d0||_inf,
with d0 the subgradient of the intercept-only fit, beta = 0 is certified
without a solve.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .features import parse_feature_name
from .metrics import pinball
from .util import pinball_quantile

DEFAULT_QUANTILES = (0.1, 0.5, 0.9)
# fit_l1_lqr zeroes every coefficient whose column keeps dual slack, so this
# only drops the negligible ones a degenerate vertex or a stopped solve leaves
ZERO_THRESHOLD = 1e-6
ALPHA_RANGE = (1e-8, 1.0)
GAP_TOL = 1e-9         # relative duality gap of a certified fit
ANCHORED_SPAN = 1e-2   # a default grid spans [ANCHORED_SPAN, 1] x alpha_max / n
DEFAULT_GRID_SIZE = 50
# an explicit per-sample grid, or the point count of an anchored one
AlphaGrid = Union[None, int, Sequence[float]]


@dataclass
class SolverConfig:
    """``max_iter`` caps the interior-point iterations. ``stages`` belonged
    to the smoothing solver this one replaced and has no effect; it stays
    until the benchmark configs that set it change."""
    stages: int = 3
    max_iter: int = 10_000


# each SolverConfig field's type; a config may write a number as text
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
    objective_trace: List[float]   # [start objective, final objective]
    converged: bool                # gap <= GAP_TOL
    n_iter: int                    # interior-point iterations
    gap: float                     # (objective - dual bound) / max(1, |objective|)
    alpha_max: float               # beta = 0 is certified at any alpha >= this


def objective(X: np.ndarray, y: np.ndarray, tau: float, alpha: float,
              beta: np.ndarray, intercept: float) -> float:
    """Exact penalized objective: summed pinball loss + alpha * l1(beta)."""
    resid_loss = float(np.sum(pinball(y, X @ beta + intercept, tau)))
    return resid_loss + alpha * float(np.sum(np.abs(beta)))


def _intercept_dual(y: np.ndarray, tau: float) -> np.ndarray:
    """Subgradient d0 of the intercept-only fit: tau above the pinball
    quantile, tau - 1 below it, and on the zero residuals the one shared
    value that makes sum(d0) = 0."""
    r = y - pinball_quantile(y, tau)
    d0 = np.where(r > 0, tau, tau - 1.0)
    zero = r == 0   # the quantile is an order statistic, so never empty
    d0[zero] = -d0[~zero].sum() / zero.sum()
    return d0


def alpha_max(X: np.ndarray, y: np.ndarray, tau: float) -> float:
    """||X^T d0||_inf: beta = 0 is optimal for every alpha at or above it."""
    return float(np.max(np.abs(X.T @ _intercept_dual(y, tau)), initial=0.0))


def fit_l1_lqr(X: np.ndarray, y: np.ndarray, tau: float, alpha: float,
               cfg: Optional[SolverConfig] = None) -> L1QuantileFit:
    """Fit one L1-penalized linear quantile regression.

    X is expected standardized (see standardize); the intercept is not
    penalized. The fit is the best rounded iterate; converged=True means its
    gap to a feasible dual's bound is at most GAP_TOL, and False that
    ``cfg.max_iter`` iterations, or the numerics, ran out first.
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

    top = alpha_max(X, y, tau)
    cert = _Certificate(X, y, tau, alpha)
    cert.offer(np.zeros(X.shape[1]), _intercept_dual(y, tau))
    start = cert.objective
    n_iter = 0
    if alpha < top:   # else the KKT shortcut: d0 certifies beta = 0
        for n_iter, beta, dual in _interior_point(X, y, tau, alpha, cfg.max_iter):
            if cert.offer(beta, dual) <= GAP_TOL:
                break
    gap = cert.gap()
    return L1QuantileFit(tau=tau, alpha=alpha, beta=cert.beta, intercept=cert.intercept,
                         objective_trace=[start, cert.objective],
                         converged=gap <= GAP_TOL, n_iter=n_iter, gap=gap,
                         alpha_max=top)


class _Certificate:
    """The best rounded primal point and the best dual bound seen so far."""

    def __init__(self, X, y, tau, alpha):
        self.X, self.y, self.tau, self.alpha = X, y, tau, alpha
        self.objective = math.inf
        self.bound = -math.inf

    def gap(self) -> float:
        return (self.objective - self.bound) / max(1.0, abs(self.objective))

    def offer(self, beta: np.ndarray, dual: np.ndarray) -> float:
        """Round ``beta`` with the feasible dual made from ``dual``, keep
        whichever point and bound are best, and return the gap."""
        X, y, tau, alpha = self.X, self.y, self.tau, self.alpha
        # project onto the dual's equality constraints: sum(d) = 0, and at
        # alpha = 0 also X^T d = 0; then scale towards the interior point 0
        # until d lies in [tau - 1, tau] and |X^T d| <= alpha
        if alpha > 0.0:
            d = dual - dual.mean()
        else:
            Z = np.column_stack([np.ones(len(y)), X])
            d = dual - Z @ np.linalg.lstsq(Z, dual, rcond=None)[0]
        corr = X.T @ d
        top = float(np.max(np.abs(corr), initial=0.0))
        scale = min(1.0, tau / max(d.max(), tau), (tau - 1.0) / min(d.min(), tau - 1.0),
                    alpha / top if top > alpha > 0.0 else 1.0)
        d *= scale
        corr *= scale
        # complementary slackness: a column with dual slack has a zero
        # coefficient, and a row whose dual lies inside the box a zero
        # residual. Each pair is read by its larger side, on its own scale
        keep = np.abs(beta) * alpha >= (alpha - np.abs(corr)) * (
            np.max(np.abs(beta), initial=0.0) or 1.0)
        beta = np.where(keep, beta, 0.0)
        b = self._keep(beta)
        self.bound = max(self.bound, float(y @ d))
        if GAP_TOL < self.gap() < 1e-3:   # near the optimum: try its vertex
            # interpolate as many rows as the support spans, those with the
            # smallest residual relative to their dual's room in the box first
            support = np.flatnonzero(keep)
            A = np.column_stack([X[:, support], np.ones(len(y))])
            room = np.minimum(tau - d, d - tau + 1.0)
            rows = np.argsort(np.arctan2(np.abs(y - X @ beta - b), room), kind="stable")
            rows = rows[:np.linalg.matrix_rank(A)]
            vertex = np.zeros_like(beta)
            vertex[support] = np.linalg.lstsq(A[rows], y[rows], rcond=None)[0][:-1]
            self._keep(vertex)
        return self.gap()

    def _keep(self, beta: np.ndarray) -> float:
        """Polish ``beta``'s intercept, keep the pair if it is the best point
        so far, and return the intercept."""
        b = pinball_quantile(self.y - self.X @ beta, self.tau)
        value = objective(self.X, self.y, self.tau, self.alpha, beta, b)
        if value < self.objective:
            self.objective, self.beta, self.intercept = value, beta, b
        return b


def _interior_point(X, y, tau, alpha, max_iter):
    """Mehrotra predictor-corrector on the standard-form LP; yields
    (iteration, beta, dual) after every step until ``max_iter`` steps or
    the numerics run out."""
    n = len(y)
    if alpha > 0:
        Xb, F = X, np.ones((n, 1))
    else:   # unpenalized coefficients are free, like the intercept
        Xb, F = X[:, :0], np.column_stack([np.ones(n), X])
    k = Xb.shape[1]
    # primal x = (p, m, u, v) with cost c; the free variables f multiply F
    c = np.concatenate([np.full(2 * k, alpha), np.full(n, tau), np.full(n, 1.0 - tau)])

    def A(v):
        return Xb @ (v[:k] - v[k:2 * k]) + v[2 * k:2 * k + n] - v[2 * k + n:]

    def At(w):
        g = Xb.T @ w
        return np.concatenate([g, -g, w, -w])

    # start at beta = 0 and the quantile intercept, residuals shifted off
    # zero and dual 0; p = m = pm with slacks mu0 / pm, centred like u and
    # v (and dual-infeasible only when alpha < mu0 / pm)
    b0 = pinball_quantile(y, tau)
    r = y - b0
    shift = float(np.mean(np.abs(r))) or 1.0
    uv = np.concatenate([np.maximum(r, 0.0), np.maximum(-r, 0.0)]) + shift
    mu0 = float(uv @ c[2 * k:]) / (2 * n)
    pm = min(mu0 / alpha, shift) if k else 1.0
    x = np.concatenate([np.full(2 * k, pm), uv])
    s = np.concatenate([np.full(2 * k, mu0 / pm), c[2 * k:]])
    f = np.zeros(F.shape[1])
    f[0] = b0
    dual = np.zeros(n)
    for it in range(1, max_iter + 1):
        if float(x @ s) <= 1e-3 * GAP_TOL * (1.0 + abs(float(y @ dual))):
            return   # far below the certificate's tolerance: only rounding is left
        rp = y - A(x) - F @ f
        rd = c - At(dual) - s
        rf = -F.T @ dual
        theta = x / s
        M = (Xb * (theta[:k] + theta[k:2 * k])) @ Xb.T
        M.flat[::n + 1] += theta[2 * k:2 * k + n] + theta[2 * k + n:]

        def direction(rc, MF=None):
            rhs = rp - A(rc / s - theta * rd)
            sol = np.linalg.solve(M, np.column_stack([rhs, F]) if MF is None else rhs[:, None])
            Mr, MF = sol[:, 0], (sol[:, 1:] if MF is None else MF)
            df = np.linalg.lstsq(F.T @ MF, F.T @ Mr - rf, rcond=None)[0]
            dd = Mr - MF @ df
            ds = rd - At(dd)
            return (rc - x * ds) / s, df, dd, ds, MF

        try:
            dx, df, dd, ds, MF = direction(-x * s)
            mu = float(x @ s) / x.size
            ap, ad = min(1.0, _max_step(x, dx)), min(1.0, _max_step(s, ds))
            sigma = (float((x + ap * dx) @ (s + ad * ds)) / x.size / mu) ** 3
            dx, df, dd, ds, _ = direction(sigma * mu - x * s - dx * ds, MF)
        except np.linalg.LinAlgError:
            return
        ap, ad = min(1.0, 0.99995 * _max_step(x, dx)), min(1.0, 0.99995 * _max_step(s, ds))
        if not (np.all(np.isfinite(dx)) and np.all(np.isfinite(ds))) or max(ap, ad) < 1e-12:
            return
        x += ap * dx
        f += ap * df
        dual += ad * dd
        s += ad * ds
        yield it, (x[:k] - x[k:2 * k] if k else f[1:]), dual


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    """The largest t with v + t * dv >= 0 (v > 0)."""
    neg = dv < 0
    return float(np.min(-v[neg] / dv[neg])) if neg.any() else math.inf


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
               alpha_grid: AlphaGrid = None,
               cfg: Optional[SolverConfig] = None):
    """Pick the penalty weight minimizing validation pinball loss at tau.

    Grid values are per-sample penalty weights; since the fit objective
    sums (rather than averages) the pinball loss, each fit runs with the
    grid value scaled by the training count. An explicit grid lies in
    [1e-8, 1]. A count k (DEFAULT_GRID_SIZE when None) anchors the grid at
    the training data's alpha_max: k points log-spaced over
    [ANCHORED_SPAN, 1] x alpha_max / n, so the top point is the empty fit,
    certified without a solve, and the rest reach down into the sparse
    range. Ties go to the larger (sparser) alpha. Returns (best_alpha,
    fits) keyed by grid value; an empty validation set raises ValueError
    before any fit.
    """
    X_tr, y_tr = train
    X_val, y_val = val
    if len(y_val) == 0:
        raise ValueError("the validation set is empty: no penalty can be tuned")
    n = len(y_tr)
    if alpha_grid is None or isinstance(alpha_grid, (int, np.integer)):
        k = DEFAULT_GRID_SIZE if alpha_grid is None else int(alpha_grid)
        if k < 1:
            raise ValueError("alpha grid is empty")
        top = alpha_max(X_tr, y_tr, tau)
        # (grid value, summed penalty); the top point is alpha_max itself
        pairs = [(a / n, a) for a in
                 (top * np.logspace(np.log10(ANCHORED_SPAN), 0.0, k)).tolist()]
    else:
        grid = np.asarray(alpha_grid, dtype=float)
        if grid.size == 0:
            raise ValueError("alpha grid is empty")
        if np.any(grid < ALPHA_RANGE[0]) or np.any(grid > ALPHA_RANGE[1]):
            raise ValueError(f"alpha grid must lie within {ALPHA_RANGE}")
        pairs = [(a, a * n) for a in np.sort(grid).tolist()]
    fits: Dict[float, L1QuantileFit] = {}
    best_alpha = None
    best_loss = np.inf
    for alpha, summed in pairs:
        fit = fit_l1_lqr(X_tr, y_tr, tau, summed, cfg)
        fits[alpha] = fit
        val_loss = float(np.mean(pinball(y_val, X_val @ fit.beta + fit.intercept, tau)))
        if val_loss <= best_loss:
            best_loss = val_loss
            best_alpha = alpha
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
    # per tau: how the fit's solver ended (see select_features); a record
    # only, so it takes no part in equality
    solver: Dict[float, dict] = field(default_factory=dict, compare=False)

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
            "solver": {str(t): record for t, record in self.solver.items()},
        }

    @classmethod
    def from_dict(cls, payload: dict, feature_names: Sequence[str]) -> "SelectionResult":
        """Inverse of ``to_dict`` over the universe ``feature_names``; the
        solver records pass through as written (none in older files)."""
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
            solver={float(t): r for t, r in payload.get("solver", {}).items()},
        )


def select_features(fits_per_tau: Dict[float, L1QuantileFit],
                    feature_names: Sequence[str]) -> SelectionResult:
    """Read the per-quantile sparse supports and aggregate importance.

    A feature is selected at tau when its standardized coefficient exceeds
    ``ZERO_THRESHOLD`` in magnitude; ``per_tau_coef`` keeps the selected
    coefficients only. Importance sums |coefficient| over all features and
    quantile levels. ``solver`` records each fit's convergence, iterations,
    gap, support size, alpha and alpha_max.
    """
    names = tuple(feature_names)
    taus = tuple(sorted(fits_per_tau))
    per_tau_selected: Dict[float, List[str]] = {}
    per_tau_coef: Dict[float, Dict[str, float]] = {}
    importance = {n: 0.0 for n in names}
    solver: Dict[float, dict] = {}
    for tau in taus:
        fit = fits_per_tau[tau]
        solver[tau] = {"converged": fit.converged, "n_iter": fit.n_iter, "gap": fit.gap,
                       "support_size": int(np.count_nonzero(fit.beta)),
                       "alpha": fit.alpha, "alpha_max": fit.alpha_max}
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
        solver=solver,
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
