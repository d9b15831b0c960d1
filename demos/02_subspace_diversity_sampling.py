"""Why diversity-aware sampling finds the minority class.

Builds a median-split subspace partition over a heavily imbalanced pool
and compares how often a uniform draw versus a diversity-maximizing draw
captures match instances with a 50-label budget.
"""

import math

import numpy as np

from matchgan import SyntheticConfig, build_partition, diverse_sample, generate_synthetic
from matchgan.diversity import waterfill_counts

pool, gold = generate_synthetic(
    SyntheticConfig(n_matches=10, imbalance_rate=100, n_features=4, separation=0.9, seed=123)
)
partition = build_partition(pool.ids, pool.features)

print(f"pool: {len(pool)} instances, {len(gold)} matches, {partition.b} subspaces")
print(f"per-feature medians: {partition.medians.round(4)}")

populations = partition.populations()  # pool rows per occupied subspace
sizes = [len(p) for p in populations]
match_per_cell = [
    int(gold.label_codes([pool.ids[r] for r in pop]).sum()) for pop in populations
]
print("\nsubspace populations (matches in parentheses):")
for pop, n, m in zip(populations, sizes, match_per_cell):
    tag = " <- all matches live here" if m == max(match_per_cell) and m else ""
    print(f"  cell {partition.subspaces[pop[0]]:2d}: {n:4d} ({m}){tag}")

budget = 50
trials = 200
rng = np.random.default_rng(0)
diverse_hits = uniform_hits = 0
for _ in range(trials):
    if gold.label_codes([pool.ids[r] for r in diverse_sample(populations, budget, rng)]).any():
        diverse_hits += 1
    rows = rng.choice(len(pool), size=budget, replace=False)
    if gold.label_codes([pool.ids[r] for r in rows]).any():
        uniform_hits += 1

counts = waterfill_counts(sizes, budget)
print(f"\nwater-filling counts for budget {budget}: {counts}")
l21 = sum(math.sqrt(c) for c in counts)  # the objective water-filling maximizes
print(f"selection l2,1 norm: {l21:.3f}")
print(f"\nover {trials} draws of {budget}:")
print(f"  diversity-aware draws containing a match: {diverse_hits}/{trials}")
print(f"  uniform draws containing a match:         {uniform_hits}/{trials}")
