"""The benchmark's workloads: their inputs, command lines and output checks.

Inputs are made from the workload seed only. Every command is a documented
``matchgan`` command line; training always uses a 50-label seed budget,
training seed 61 and the default TrainConfig knobs.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

TRAIN_SEED = 61
SEED_BUDGET = 50
ABLATE_VARIANTS = ("full", "no-diversity", "no-propagation", "no-adversary")
ABLATE_SEEDS = 2
# generate_synthetic settings shared by the synthetic workloads
IMBALANCE_RATE = 100
N_FEATURES = 4
SEPARATION = 0.9


@dataclass(frozen=True)
class Workload:
    name: str
    # "synthetic": generate_synthetic pair features; "records": records.py
    source: str
    # "train" runs partition, train, evaluate; "ablate" runs partition, ablate
    trains_with: str
    n_matches: int = 0
    n_records: int = 0


# BENCHMARK.json records why each workload exists.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("synth-100k", "synthetic", "train", n_matches=1000),
        Workload("records-cora", "records", "train", n_records=400),
        Workload("ablate-1k", "synthetic", "ablate", n_matches=10),
    )
}


def generate(workload: Workload, seed: int, out: Path) -> dict:
    """Write the workload's input files into out; return their sizes."""
    out.mkdir(parents=True, exist_ok=True)
    if workload.source == "records":
        import records

        return records.write_records(out, workload.n_records, seed)
    from matchgan.datasets import SyntheticConfig, generate_synthetic
    from matchgan.features import write_instance_file

    instances, gold = generate_synthetic(
        SyntheticConfig(
            n_matches=workload.n_matches,
            imbalance_rate=IMBALANCE_RATE,
            n_features=N_FEATURES,
            separation=SEPARATION,
            seed=seed,
        )
    )
    write_instance_file(out / "instances.tsv", instances)
    return {
        "instances": len(instances),
        "matches": len(gold),
        "match_rate": len(gold) / len(instances),
    }


def instance_path(workload: Workload, inputs: Path, rep: Path) -> Path:
    """The instance file training reads: generated, or written by featurize."""
    return rep / "instances.tsv" if workload.source == "records" else inputs / "instances.tsv"


def commands(workload: Workload, inputs: Path, rep: Path, workers: int | None = None):
    """(command name, argv) pairs of one repetition. workers=None keeps the
    CLI's default worker count for the commands that fan out."""
    fan_out = [] if workers is None else ["--workers", str(workers)]
    instances = str(instance_path(workload, inputs, rep))
    partition = str(rep / "partition.json")
    seq = []
    if workload.source == "records":
        seq.append(("featurize", ["featurize", "--left", str(inputs / "records.csv"),
                                  "--gold", str(inputs / "gold.csv"), "-o", instances,
                                  *fan_out]))
    seq.append(("partition", partition_argv(instances, partition)))
    if workload.trains_with == "ablate":
        seq.append(("ablate", ["ablate", "--instances", instances, "--partition", partition,
                               "--budgets", str(SEED_BUDGET),
                               "--variants", ",".join(ABLATE_VARIANTS),
                               "--seeds", str(ABLATE_SEEDS), "--seed", str(TRAIN_SEED),
                               "-o", str(rep / "cells.tsv"), *fan_out]))
    else:
        seq.append(("train", ["train", "--instances", instances, "--partition", partition,
                              "--seed-budget", str(SEED_BUDGET), "--seed", str(TRAIN_SEED),
                              "-o", str(rep / "run")]))
        seq.append(("evaluate", ["evaluate", "--predicted", str(rep / "run" / "labels.tsv"),
                                 "--truth", instances]))
    return seq


def partition_argv(instances: str, out: str) -> list[str]:
    return ["partition", "--instances", instances, "-o", out]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fingerprints(workload: Workload, rep: Path) -> dict[str, str]:
    """sha256 of every artifact a repetition leaves behind."""
    names = ["partition.json"]
    if workload.source == "records":
        names.append("instances.tsv")
    names += ["cells.tsv"] if workload.trains_with == "ablate" else ["run/labels.tsv",
                                                                       "run/report.json"]
    return {name: sha256(rep / name) for name in names}


def _read_instances(path: Path):
    """(ids, feature rows, labels) of an instance file, parsed without matchgan."""
    import numpy as np

    ids, rows, labels = [], [], []
    with path.open(encoding="utf-8") as fh:
        fh.readline()
        header = fh.readline().rstrip("\n").split("\t")
        n_feats = len(header) - 3
        for line in fh:
            cells = line.rstrip("\n").split("\t")
            ids.append((cells[0], cells[1]))
            rows.append([float(v) for v in cells[2:2 + n_feats]])
            labels.append(cells[-1])
    return ids, np.array(rows), labels


class _Ids:
    """The part of InstancePool that seed selection reads."""

    def __init__(self, ids):
        self.ids = ids

    def __len__(self):
        return len(self.ids)


def _seed_ids(ids, features, labels, partition_file: Path) -> set:
    """Recompute the seed labels train drew (its first use of the seed's RNG)."""
    import numpy as np
    from matchgan.datasets import GoldStandard
    from matchgan.diversity import load_partition
    from matchgan.training import select_seed_labels

    gold = GoldStandard()
    for pid, label in zip(ids, labels):
        if label == "M":
            gold.add(*pid)
    partition = load_partition(partition_file)
    partition.assign_all(ids, features)
    rng = np.random.default_rng(TRAIN_SEED)
    return set(select_seed_labels(_Ids(ids), gold, SEED_BUDGET, partition, rng))


F_MEASURE = re.compile(r"\bf_measure=([0-9.]+)")


def check(workload: Workload, info: dict, inputs: Path, rep: Path,
          stdout: dict) -> tuple[list[str], float]:
    """Check one repetition's outputs. Returns (errors, f-measure)."""
    errors: list[str] = []
    ids, features, labels = _read_instances(instance_path(workload, inputs, rep))
    if workload.source == "records":
        n = info["records"]
        if len(ids) != math.comb(n, 2):
            errors.append(f"featurize wrote {len(ids)} rows, expected C({n}, 2)")
        if features.size and not (features.min() >= 0.0 and features.max() <= 1.0):
            errors.append("featurize wrote a feature outside [0, 1]")
        if labels.count("M") != info["matches"]:
            errors.append("featurize labels disagree with gold.csv")
    elif len(ids) != info["instances"]:
        errors.append("instance file lost rows")

    if workload.trains_with == "ablate":
        f = _check_cells(rep / "cells.tsv", errors)
        return errors, f

    report = json.loads((rep / "run" / "report.json").read_text())
    with (rep / "run" / "labels.tsv").open(encoding="utf-8") as fh:
        fh.readline()
        labeled = [tuple(line.rstrip("\n").split("\t")) for line in fh]
    labeled_ids = [(a, b) for a, b, _ in labeled]
    if report["pool_size"] != len(ids):
        errors.append("report pool_size differs from the instance file")
    if len(labeled) != report["pool_size"] - report["seed_count"]:
        errors.append("labels.tsv does not hold pool_size - seed_count rows")
    if len(set(labeled_ids)) != len(labeled_ids) or not set(labeled_ids) <= set(ids):
        errors.append("labels.tsv has duplicate or unknown ids")
    if any(lab not in ("M", "N") for _, _, lab in labeled):
        errors.append("labels.tsv has a label other than M or N")
    seeds = _seed_ids(ids, features, labels, rep / "partition.json")
    if len(seeds) != report["seed_count"] or seeds & set(labeled_ids):
        errors.append("labels.tsv contains a seed id")
    match = F_MEASURE.search(stdout.get("evaluate", ""))
    if match is None:
        errors.append("evaluate printed no f_measure")
        return errors, 0.0
    f = float(match.group(1))
    reported = report["final"]["metrics"]["f_measure"]
    if abs(f - reported) > 5e-5:
        errors.append(f"evaluate f_measure {f} disagrees with report.json {reported}")
    return errors, f


def _check_cells(path: Path, errors: list[str]) -> float:
    with path.open(encoding="utf-8") as fh:
        fh.readline()
        rows = [line.rstrip("\n").split("\t") for line in fh]
    expected = {
        (v.replace("-", "_"), str(TRAIN_SEED + k))
        for v in ABLATE_VARIANTS for k in range(ABLATE_SEEDS)
    }
    if {(r[0], r[3]) for r in rows} != expected or len(rows) != len(expected):
        errors.append("cells.tsv does not hold one row per variant and seed")
    fms = [float(r[6]) for r in rows]
    if any(not 0.0 <= f <= 1.0 for f in fms):
        errors.append("cells.tsv has an f-measure outside [0, 1]")
    return sum(fms) / len(fms) if fms else 0.0
