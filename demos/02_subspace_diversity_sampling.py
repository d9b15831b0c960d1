"""Why diversity-aware sampling finds the minority class.

Builds a median-split subspace partition over a heavily imbalanced pool
and compares how often a uniform draw versus a diversity-maximizing draw
captures match instances with a 50-label budget.
"""

import numpy as np

from matchgan import (
    SyntheticConfig,
    build_partition,
    diverse_sample,
    generate_synthetic,
    l21_norm,
)

pool, gold = generate_synthetic(
    SyntheticConfig(n_matches=10, imbalance_rate=100, n_features=4, separation=0.9, seed=123)
)
partition = build_partition(pool.ids, pool.features)

print(f"pool: {len(pool)} instances, {len(gold)} matches, {partition.b} subspaces")
print(f"per-feature medians: {partition.medians.round(4)}")

populations = partition.populations()  # pool rows per subspace
sizes = [len(p) for p in populations]
match_per_cell = [
    sum(1 for r in pop if gold.is_match(*pool.ids[r])) for pop in populations
]
print("\nsubspace populations (matches in parentheses):")
for ix, (n, m) in enumerate(zip(sizes, match_per_cell)):
    tag = " <- all matches live here" if m == max(match_per_cell) and m else ""
    print(f"  cell {ix:2d}: {n:4d} ({m}){tag}")

budget = 50
trials = 200
rng = np.random.default_rng(0)
diverse_hits = uniform_hits = 0
for _ in range(trials):
    sel = diverse_sample(populations, budget, rng)
    if any(gold.is_match(*pool.ids[r]) for r in sel.selected_ids):
        diverse_hits += 1
    rows = rng.choice(len(pool), size=budget, replace=False)
    if any(gold.is_match(*pool.ids[r]) for r in rows):
        uniform_hits += 1

sel = diverse_sample(populations, budget, np.random.default_rng(1))
print(f"\nwater-filling counts for budget {budget}: {sel.counts}")
print(f"selection l2,1 norm: {l21_norm(sel.counts):.3f}")
print(f"\nover {trials} draws of {budget}:")
print(f"  diversity-aware draws containing a match: {diverse_hits}/{trials}")
print(f"  uniform draws containing a match:         {uniform_hits}/{trials}")
