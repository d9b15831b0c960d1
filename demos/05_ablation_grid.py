"""Which components matter: a small ablation grid.

Runs the full model against its three ablation variants over a few label
budgets and seeds on the imbalanced synthetic workload, then prints the
aggregated table. The diversity-free variant collapses whenever its
uniform label budget misses the minority class entirely.
"""

from matchgan import (
    SyntheticConfig,
    TrainConfig,
    aggregate,
    build_partition,
    generate_synthetic,
    run_ablation_suite,
)
from matchgan.evaluation import format_table

pool, _ = generate_synthetic(
    SyntheticConfig(n_matches=10, imbalance_rate=100, n_features=4, separation=0.9, seed=123)
)
partition = build_partition(pool.ids, pool.features)

cells = run_ablation_suite(
    pool,
    partition,
    TrainConfig(),
    variants=("full", "no_diversity", "no_propagation", "no_adversary"),
    budgets=(50, 100),
    seeds=(61, 62, 63),
)

print(format_table(aggregate(cells)))
print("\nper-cell f-measures:")
for cell in cells:
    print(
        f"  {cell.variant:<15} budget {cell.budget:>3} seed {cell.seed}: "
        f"FM {cell.metrics.f_measure:.4f}"
    )
