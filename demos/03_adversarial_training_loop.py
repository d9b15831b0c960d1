"""One full training run, narrated round by round.

A label generator and a discriminator train adversarially on a 1:100
imbalanced synthetic workload with 50 real labels; after each batch-training
phase the most confidently pseudo-labeled instances join the labeled pool
until nothing is left, and the propagated labels are scored against truth.
"""

from matchgan import (
    SyntheticConfig,
    TrainConfig,
    build_partition,
    generate_synthetic,
    run,
)
from matchgan.evaluation import evaluate_run
from matchgan.training import predict

pool, _ = generate_synthetic(
    SyntheticConfig(n_matches=10, imbalance_rate=100, n_features=4, separation=0.9, seed=123)
)
partition = build_partition(pool.ids, pool.features)

cfg = TrainConfig(seed=61)
print(f"pool {len(pool)} instances; seed budget 50; growing the pool by its own size each round\n")
result = run(cfg, pool, partition, seed_budget=50)
metrics = evaluate_run(pool, result)  # records each round's pseudo FM in the report

print(f"{'round':>5} {'propagated':>10} {'pool after':>10} {'pseudo FM':>9} {'d_objective':>12} {'g_loss':>8}")
for r in result.report["rounds"]:
    print(
        f"{r['round']:>5} {r['propagated']:>10} {r['pool_size_after']:>10} "
        f"{r.get('pseudo_fm', float('nan')):>9.3f} {r['d_objective']:>12.4f} {r['g_loss']:>8.4f}"
    )

final = result.report["final"]
print(f"\npropagated label counts: {final['pseudo_label_counts']}")
print(f"generator/propagation agreement: {final['consistency']:.3f}")
print(
    f"transductive quality: precision {metrics.precision:.3f}, "
    f"recall {metrics.recall:.3f}, f-measure {metrics.f_measure:.3f}"
)

# the trained generator also labels instances that never entered the pool
held_out, _ = generate_synthetic(
    SyntheticConfig(n_matches=10, imbalance_rate=50, n_features=4, separation=0.9, seed=999)
)
correct = int((predict(result.generator, held_out.features) == held_out.real_labels).sum())
print(f"held-out accuracy via predict(): {correct}/{len(held_out)}")
