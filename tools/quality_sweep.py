"""Pinned quality sweep: how often training collapses across data seeds.

    python3 tools/quality_sweep.py --label change -o BENCH_6.json

Run from the root of a matchgan checkout; it trains with that checkout's
src/ on one BLAS thread. Each run draws a synthetic 1:100 pool, builds the
median-split partition the CLI builds, and trains with TrainConfig(seed=61)
and 50 seed labels, as the benchmark's train workloads do. Per pool size it
reports the mean, minimum and median f-measure and the number of collapsed
runs (see collapsed()).

PLAN was fixed before any result was seen. It is never re-seeded or
resized: sweeps of different commits compare the same distribution, and a
plan changed after the fact would show only the seeds that were chosen.

The output file holds one entry per --label, so the sweeps of two commits
sit side by side; an existing file is updated in place. Each entry also
carries matchgan's source line count and, when present, the seed-1 results
that bench/run_bench.py left in .bench_results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (n_matches, data seeds): pools of 1,010, 10,100 and 101,000 instances
PLAN = (
    (10, tuple(range(301, 321))),
    (100, tuple(range(301, 321))),
    (1000, tuple(range(301, 311))),
)
IMBALANCE_RATE = 100
N_FEATURES = 4
SEPARATION = 0.9
TRAIN_SEED = 61
SEED_BUDGET = 50
BENCH_SEED = 1
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}


def collapsed(report: dict) -> bool:
    """A run collapsed if its f-measure is 0 or it propagated one class only.

    report is a training report with final.metrics filled in, as
    `matchgan train` writes report.json.
    """
    final = report["final"]
    counts = final["pseudo_label_counts"]
    return final["metrics"]["f_measure"] == 0.0 or min(counts.values()) == 0


def run_one(n_matches: int, seed: int) -> dict:
    """Train on one pinned pool; its report with final.metrics filled in."""
    from matchgan import SyntheticConfig, TrainConfig, build_partition, generate_synthetic, run
    from matchgan.evaluation import evaluate_run

    pool, _ = generate_synthetic(SyntheticConfig(
        n_matches=n_matches, imbalance_rate=IMBALANCE_RATE, n_features=N_FEATURES,
        separation=SEPARATION, seed=seed,
    ))
    partition = build_partition(pool.ids, pool.features)
    result = run(TrainConfig(seed=TRAIN_SEED), pool, partition, seed_budget=SEED_BUDGET)
    evaluate_run(pool, result)
    return result.report


def summarize(fs: list[float], n_collapsed: int) -> dict:
    return {"runs": len(fs), "mean_f": statistics.fmean(fs), "min_f": min(fs),
            "median_f": statistics.median(fs), "collapsed": n_collapsed}


def sweep() -> list[dict]:
    out = []
    for n_matches, seeds in PLAN:
        runs = []
        for seed in seeds:
            report = run_one(n_matches, seed)
            final = report["final"]
            runs.append({"seed": seed, "f_measure": final["metrics"]["f_measure"],
                         "pseudo_label_counts": final["pseudo_label_counts"],
                         "collapsed": collapsed(report)})
            print(f"pool {report['pool_size']:>7} seed {seed}: "
                  f"f {runs[-1]['f_measure']:.4f} {final['pseudo_label_counts']}"
                  f"{' collapsed' if runs[-1]['collapsed'] else ''}", flush=True)
        summary = summarize([r["f_measure"] for r in runs], sum(r["collapsed"] for r in runs))
        out.append({"n_matches": n_matches, "pool_size": report["pool_size"],
                    **summary, "per_seed": runs})
    return out


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "matchgan").glob("*.py"))


def bench_results() -> dict:
    """The seed-BENCH_SEED results of bench/run_bench.py, by file stem."""
    out = {}
    for path in sorted((ROOT / ".bench_results").glob(f"*-seed{BENCH_SEED}-trace*.json")):
        detail = json.loads(path.read_text())
        out[path.stem] = {key: detail.get(key) for key in
                          ("all_metrics", "fingerprints", "failures", "environment")}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="name of this entry, e.g. the commit")
    parser.add_argument("-o", "--out", required=True, help="JSON file to create or update")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    pools = sweep()
    entry = {"sweep": pools, "matchgan.src_lines": src_lines(), "bench": bench_results()}
    for p in pools:
        print(f"pool {p['pool_size']:>7}: mean f {p['mean_f']:.3f}, min {p['min_f']:.3f}, "
              f"median {p['median_f']:.3f}, collapsed {p['collapsed']}/{p['runs']}")
    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    data[args.label] = entry
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    os.environ.update(ONE_THREAD)  # before numpy is first imported
    sys.exit(main())
