"""Benchmark the four quantile model families on one synthetic dataset.

Each family is tuned with a small random hyperparameter search on
validation AQL; the best trial's fitted model is scored on the test split:
AQL and quantile-crossing rate for the probabilistic view, RMSE/MAE/R2 on
the median head for the pointwise view.
"""

import datetime as dt

from bookcast import ProductSpec, SplitBoundaries, SynthConfig
from bookcast.experiment import design_matrix, run_experiment, score
from bookcast.search import ParamSpec, SearchSpace
from bookcast.selection import SolverConfig, default_alpha_grid
from bookcast.synth import build_domain
from bookcast.transfer import domain_feature_set, ensure_selection
from bookcast.util import UTC

spec = ProductSpec(market="DE", product_type="60min")
start = dt.datetime(2024, 3, 1, tzinfo=UTC)
end = start + dt.timedelta(days=14)
bounds = SplitBoundaries(start + dt.timedelta(days=9),
                         start + dt.timedelta(days=11), end)
quantiles = (0.1, 0.5, 0.9)

cfg = SynthConfig(seed=11, liquidity=25.0, volatility=5.0, half_spread=6.0,
                  session_hours=8.0)
domain, _ = build_domain("bench", cfg, spec, start, end, bounds)
ensure_selection(domain, quantiles, alpha_grid=default_alpha_grid(8),
                 solver_cfg=SolverConfig(max_iter=800, stages=2))
names = domain_feature_set(domain, "top5")  # union of per-quantile top-5s
print(f"using {len(names)} features\n")

train = design_matrix(domain.split.train, names)
val = design_matrix(domain.split.val, names)

# desk-scale spaces (subsets of the full search ranges)
qmlp_space = SearchSpace({
    "hidden_size": ParamSpec("int", 32, 128),
    "n_layers": ParamSpec("int", 2, 3),
    "dropout_rate": ParamSpec("float", 0.0, 0.2),
    "learning_rate": ParamSpec("float", 3e-4, 1e-2, log=True),
    "batch_size": ParamSpec("int", 64, 256),
})
qgbt_space = SearchSpace({
    "n_estimators": ParamSpec("int", 50, 150),
    "max_depth": ParamSpec("int", 3, 6),
    "learning_rate": ParamSpec("float", 1e-2, 1e-1, log=True),
    "subsample": ParamSpec("float", 0.5, 1.0),
    "colsample_by_tree": ParamSpec("float", 0.5, 1.0),
    "reg_alpha": ParamSpec("float", 0.0, 5.0),
    "reg_lambda": ParamSpec("float", 0.0, 10.0),
})

print(f"{'family':8s} {'AQL':>8s} {'AQCR%':>8s} {'RMSE':>8s} {'MAE':>8s} {'R2':>8s}")
for family, space, base in (
    ("lqr", None, None),
    ("qknn", None, None),
    ("qgbt", qgbt_space, None),
    ("qmlp", qmlp_space, {"max_epochs": 40, "patience": 6}),
):
    result = run_experiment(names, train, val, family, budget=8, seed=0,
                            quantiles=quantiles, space=space, base_config=base)
    r = score(result.model, result.prep, domain.split.test, quantiles)
    print(f"{family:8s} {r.aql:8.3f} {100 * r.aqcr:8.2f} {r.rmse:8.2f} "
          f"{r.mae:8.2f} {r.r2:8.3f}")
