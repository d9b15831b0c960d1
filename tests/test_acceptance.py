"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. The synthetic-workload criteria pin their dataset seed and run
seeds so results are bit-reproducible in a fixed environment.

The benchmark-reproduction criterion (6) needs the public Cora dataset,
which is not bundled; it is skipped with instructions when the files are
absent and criterion 5 stands in for it.
"""

import itertools
import math
import os
from pathlib import Path

import numpy as np
import pytest

import matchgan.nn as nn
from matchgan.datasets import (
    MATCH,
    NON_MATCH,
    InstancePool,
    SyntheticConfig,
    generate_synthetic,
    load_gold,
    load_records,
    read_instance_file,
)
from matchgan.diversity import build_partition, waterfill_counts
from matchgan.evaluation import compute_metrics, evaluate_run, run_cell
from matchgan.features import featurize_to_file
from matchgan.training import TrainConfig, run

from helpers import (DiscreteJointDistribution, discriminator_grad, generator_grad,
                     optimal_discriminator_check)

DATA_SEED = 123
RUN_SEEDS = tuple(range(61, 66))


def _report(criterion: str, ok: bool, detail: str = ""):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{criterion}: {detail}"


# ----------------------------------------------------------------------
# criterion 5/7 share the same ten training runs
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def synthetic_runs():
    pool, gold = generate_synthetic(
        SyntheticConfig(
            n_matches=10, imbalance_rate=100, n_features=4, separation=0.9, seed=DATA_SEED
        )
    )
    partition = build_partition(pool.ids, pool.features)
    results = {}
    for variant in ("full", "no_diversity"):
        per_seed = []
        for seed in RUN_SEEDS:
            cfg = TrainConfig(seed=seed, variant=variant)
            result = run(cfg, pool, partition, seed_budget=50)
            metrics = evaluate_run(pool, result)
            per_seed.append((seed, result, metrics))
        results[variant] = per_seed
    return pool, results


def test_criterion_1_diversity_optimality():
    """Greedy water-filling matches brute force on every small allocation
    problem (subspaces <= 4, populations <= 4, budget <= 6). Exact."""
    checked = 0
    for b in range(1, 5):
        for sizes in itertools.product(range(5), repeat=b):
            total = sum(sizes)
            if total == 0:
                continue
            best = {}
            for alloc in itertools.product(*(range(n + 1) for n in sizes)):
                s = sum(alloc)
                if 1 <= s <= 6:
                    val = sum(math.sqrt(c) for c in alloc)
                    if val > best.get(s, -1.0):
                        best[s] = val
            for m in range(1, min(6, total) + 1):
                counts = waterfill_counts(list(sizes), m)
                achieved = sum(math.sqrt(c) for c in counts)
                assert sum(counts) == m
                assert all(c <= n for c, n in zip(counts, sizes))
                assert abs(achieved - best[m]) < 1e-12, (sizes, m, counts)
                checked += 1
    _report("criterion 1: diversity optimality", True, f"{checked} allocation problems exact")


def test_criterion_2_gradient_correctness():
    """Analytic gradients of both adversarial losses match central finite
    differences (step 1e-5) with relative error < 1e-4 on 100+ cases."""
    from test_nn import finite_diff_grads, relative_error

    rng = np.random.default_rng(0)
    worst = 0.0
    cases = 0
    for _ in range(50):
        gen = nn.init_mlp((4, 3, 1), rng)
        disc = nn.init_mlp((5, 3, 1), rng)
        for m in (gen, disc):
            m.weights[-1][...] = rng.uniform(-0.5, 0.5, size=m.weights[-1].shape)
            m.biases[-1][...] = rng.uniform(-0.5, 0.5, size=m.biases[-1].shape)
        X = rng.random((5, 4))

        analytic = generator_grad(gen, disc, X)

        def g_loss():
            g = nn.forward_batch(gen, X)
            return nn.generator_loss(nn.forward_batch(disc, np.hstack([X, g[:, None]])))

        err = relative_error(analytic, finite_diff_grads(g_loss, gen))
        worst = max(worst, err)
        assert err < 1e-4
        cases += 1

        fake = np.hstack([X, nn.forward_batch(gen, X)[:, None]])
        real = np.hstack([rng.random((4, 4)), (rng.random(4) > 0.5).astype(float)[:, None]])
        weight = float(rng.uniform(0.3, 2.0))
        analytic_d = discriminator_grad(disc, fake, real, weight)

        def d_loss():
            return -nn.discriminator_loss(
                nn.forward_batch(disc, fake), nn.forward_batch(disc, real), weight
            )

        err = relative_error(analytic_d, finite_diff_grads(d_loss, disc))
        worst = max(worst, err)
        assert err < 1e-4
        cases += 1
    _report(
        "criterion 2: gradient correctness",
        cases >= 100,
        f"{cases} cases, worst relative error {worst:.2e}",
    )


def test_criterion_3_pointwise_optimum_closed_form():
    """Closed form w*p_real/(w*p_real + p_gen) equals the ternary-search
    maximizer of the pointwise objective within 1e-6, for w in {0.5, 1, 2}."""
    rng = np.random.default_rng(1)
    points = 0
    worst = 0.0
    for weight in (0.5, 1.0, 2.0):
        checked_for_weight = 0
        while checked_for_weight < 400:
            k = int(rng.integers(2, 8))
            p_d = rng.random(k)
            p_d /= p_d.sum()
            p_g = rng.random(k)
            p_g /= p_g.sum()
            dist = DiscreteJointDistribution(
                points=list(range(k)), p_real=p_d, p_generated=p_g
            )
            for closed, numeric in optimal_discriminator_check(dist, weight):
                diff = abs(closed - numeric)
                worst = max(worst, diff)
                assert diff < 1e-6
                checked_for_weight += 1
        points += checked_for_weight
    _report(
        "criterion 3: pointwise optimum witness",
        points >= 1000,
        f"{points} support points across three weights, worst gap {worst:.2e}",
    )


def test_criterion_4_algorithm_structure():
    """(a) fixed count 3 over 10 unlabeled instances -> exactly 4 rounds;
    (b) the labeled pool grows monotonically, never relabeling;
    (c) the pool-size rule halts within ceil(log2(total/seeds)) + 1 rounds."""
    pool, gold = generate_synthetic(
        SyntheticConfig(n_matches=2, imbalance_rate=6, separation=0.9, seed=1)
    )
    partition = build_partition(pool.ids, pool.features)
    seed_rows = [0, 1, 2, 3]

    cfg = TrainConfig(seed=0, inner_iters=5, propagate_count=3)
    result = run(cfg, pool, partition, seed_rows=seed_rows)
    rounds_fixed = len(result.report["rounds"])
    assert rounds_fixed == math.ceil(10 / 3) == 4

    # (b) monotone chain: seed rows at round 0, pseudo rows added in
    # strictly increasing rounds, nothing removed or relabeled
    state = result.state
    assert len(state) == len(pool)
    assert sorted(state.labeled_rows().tolist()) == list(range(len(pool)))
    assert sorted(np.flatnonzero(state.round_added == 0)) == sorted(seed_rows)
    assert np.all(state.round_added[seed_rows] == 0)
    added = state.round_added[state.labeled_rows()]
    assert np.all(np.diff(added) >= 0) and np.all(added[len(seed_rows):] > 0)
    sizes = [r["pool_size_after"] for r in result.report["rounds"]]
    assert sizes == sorted(sizes)
    assert sizes[-1] == len(pool)

    # (c) pool-size rule bound
    pool2, gold2 = generate_synthetic(
        SyntheticConfig(n_matches=5, imbalance_rate=30, separation=0.9, seed=2)
    )
    partition2 = build_partition(pool2.ids, pool2.features)
    budget = 6
    cfg2 = TrainConfig(seed=0, inner_iters=5)
    result2 = run(cfg2, pool2, partition2, seed_budget=budget)
    bound = math.ceil(math.log2(len(pool2) / budget)) + 1
    rounds_pool = len(result2.report["rounds"])
    assert rounds_pool <= bound
    _report(
        "criterion 4: propagation structure",
        True,
        f"fixed-count rounds {rounds_fixed}; pool-rule rounds {rounds_pool} <= bound {bound}",
    )


def test_criterion_5_diversity_ablation_at_desk_scale(synthetic_runs):
    """Full variant reaches mean FM >= 0.90 over five seeds on the 1:100
    synthetic workload with 50 seed labels; without diversity the uniform
    draws miss the minority class and FM collapses to 0 in >= 4 of 5."""
    _, results = synthetic_runs
    full_fms = [m.f_measure for _, _, m in results["full"]]
    nd_fms = [m.f_measure for _, _, m in results["no_diversity"]]
    mean_full = float(np.mean(full_fms))
    zeros = sum(1 for f in nd_fms if f == 0.0)
    ok = mean_full >= 0.90 and zeros >= 4
    _report(
        "criterion 5: ablation at desk scale",
        ok,
        f"full FMs {[round(f, 3) for f in full_fms]} (mean {mean_full:.3f}); "
        f"no-diversity zeros {zeros}/5",
    )


def _cora_paths():
    records = os.environ.get("CORA_RECORDS", "data/cora/records.csv")
    gold = os.environ.get("CORA_GOLD", "data/cora/gold.csv")
    return Path(records), Path(gold)


def test_criterion_6_cora_reproduction(tmp_path):
    """Benchmark check on the public Cora bibliographic dataset: 2-gram
    Jaccard features, 60% of instances labeled, three seeds, mean FM >= 0.88.

    Documented as a manual criterion: the dataset is not bundled, so absent
    the files this is skipped and criterion 5 stands in (see README)."""
    records_path, gold_path = _cora_paths()
    if not records_path.exists() or not gold_path.exists():
        print(
            "[criterion 6: benchmark reproduction] SKIP Cora dataset not present "
            "(set CORA_RECORDS/CORA_GOLD); replaced in CI by criterion 5"
        )
        pytest.skip("Cora dataset not available; manual criterion")

    with records_path.open() as fh:
        header = fh.readline().strip().split(",")
    schema = [c for c in header if c != "id"]
    records = load_records(records_path, schema=schema, id_column="id")
    gold = load_gold(gold_path)
    inst_file = tmp_path / "cora.tsv"
    featurize_to_file(inst_file, records, gold=gold, q=2)
    ids, features, labels, _ = read_instance_file(inst_file)
    pool = InstancePool(ids, features, labels)
    partition = build_partition(pool.ids, pool.features)
    fms = []
    for seed in (0, 1, 2):
        cell = run_cell(
            pool, partition, TrainConfig(), "full", seed, fraction=0.6
        )
        fms.append(cell.metrics.f_measure)
    mean_fm = float(np.mean(fms))
    _report(
        "criterion 6: benchmark reproduction",
        mean_fm >= 0.88,
        f"FMs {[round(f, 4) for f in fms]} mean {mean_fm:.4f}",
    )


def test_criterion_7_mode_collapse_witness(synthetic_runs):
    """Every full-variant run propagates both labels: the generator never
    collapses to a single class on the separable workload."""
    _, results = synthetic_runs
    details = []
    ok = True
    for seed, result, _ in results["full"]:
        counts = result.report["final"]["pseudo_label_counts"]
        details.append(f"seed {seed}: M={counts[MATCH]} N={counts[NON_MATCH]}")
        ok = ok and counts[MATCH] > 0 and counts[NON_MATCH] > 0
    _report("criterion 7: mode-collapse witness", ok, "; ".join(details))


def test_criterion_8_metric_identities():
    """Random confusion outcomes: FM is the harmonic mean with the stated
    zero conventions, and the objective score is the accuracy over inputs."""
    rng = np.random.default_rng(2)
    for _ in range(500):
        n = int(rng.integers(1, 60))
        predicted = (rng.random(n) > 0.5).astype(np.int8)
        actual = (rng.random(n) > 0.7).astype(np.int8)
        m = compute_metrics(predicted, actual)
        assert m.tp + m.fp + m.fn + m.tn == n
        p = m.tp / (m.tp + m.fp) if m.tp + m.fp else 0.0
        r = m.tp / (m.tp + m.fn) if m.tp + m.fn else 0.0
        fm = 2 * p * r / (p + r) if p + r else 0.0
        assert m.precision == p and m.recall == r
        assert m.f_measure == fm
        assert m.objective_score == (m.tp + m.tn) / n
        assert (m.f_measure == 0.0) == (m.tp == 0)
    _report("criterion 8: metric identities", True, "500 random confusion outcomes exact")
