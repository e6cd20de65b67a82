"""Cross-domain transfer between a liquid and a sparse synthetic market.

Three strategies per direction: native training, direct transfer of the
source-selected features and source-trained model, and joint training on
the union. The loss ratio compares each strategy's test AQL to the native
baseline; the trade-count ratio measures relative liquidity. One pair run
also gives the (C, L) point of both directions: transfers from liquid to
sparse tend to hold up; the reverse degrades.
"""

import datetime as dt

from bookcast import (ProductSpec, SplitBoundaries, SynthConfig, make_domain_pair,
                      run_pair)
from bookcast.selection import SolverConfig, default_alpha_grid
from bookcast.transfer import trade_count_ratio
from bookcast.util import UTC

spec = ProductSpec(market="DE", product_type="60min")
start = dt.datetime(2024, 3, 1, tzinfo=UTC)
end = start + dt.timedelta(days=14)
bounds = SplitBoundaries(start + dt.timedelta(days=9),
                         start + dt.timedelta(days=11), end)
quantiles = (0.1, 0.5, 0.9)

sparse_cfg = SynthConfig(seed=21, liquidity=4.0, volatility=5.0, session_hours=8.0)
liquid_cfg = SynthConfig(seed=22, liquidity=40.0, volatility=5.0, session_hours=8.0)
sparse, liquid = make_domain_pair(sparse_cfg, liquid_cfg, spec, start, end, bounds,
                                  names=("sparse", "liquid"))
print(f"avg matched trades: sparse={sparse.avg_matched_trades:.1f} "
      f"liquid={liquid.avg_matched_trades:.1f} "
      f"C(sparse<-liquid)={trade_count_ratio(sparse, liquid):.2f}")

grid = default_alpha_grid(6)
solver = SolverConfig(max_iter=600, stages=2)
pair = run_pair(sparse, liquid, "qknn", budget=6, seeds=[0, 1], quantiles=quantiles,
                alpha_grid=grid, solver_cfg=solver)
print("\ntesting on the sparse domain:")
for strategy, ratio in pair.loss_ratio.items():
    aql = pair.summary[strategy]["aql"]
    print(f"  {strategy:8s} AQL={aql['mean']:.3f}±{aql['std']:.3f}  L={ratio:.3f}")

# the reverse direction's baseline and transfer reuse the fits made above
print("\n(C, L) scatter points:")
for p in pair.points:
    print(f"  {p['source']:>7s} -> {p['target']:7s} C={p['trade_count_ratio']:6.2f} "
          f"L={p['loss_ratio']:.3f}")
