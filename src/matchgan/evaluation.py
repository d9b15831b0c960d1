"""Splitting, match-quality metrics, the scoring of a run or of a labels
file, and the ablation experiment harness and its tables."""

from __future__ import annotations

import dataclasses
import itertools
import statistics
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .datasets import UNLABELED, IngestError, InstancePool, row_fault
from .diversity import SubspacePartition
from .training import RunResult, TrainConfig, run


@dataclass
class MetricsReport:
    precision: float
    recall: float
    f_measure: float
    tp: int
    fp: int
    fn: int
    tn: int
    # fraction of instances labeled correctly
    objective_score: float

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def split_pool(pool_size: int, seed: int, train_fraction: float) -> tuple[list[int], list[int]]:
    """Uniform random (train, test) split over instance positions: the
    train part has floor(train_fraction * pool_size) positions. Disjoint
    and covering by construction."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    n_train = int(pool_size * train_fraction)
    order = np.random.default_rng(seed).permutation(pool_size)
    return sorted(int(i) for i in order[:n_train]), sorted(int(i) for i in order[n_train:])


def compute_metrics(predicted, actual) -> MetricsReport:
    """Precision/recall/f-measure with zero-denominator conventions.

    Labels are label codes; anything but a match (1) or a non-match (0)
    raises ValueError. Empty denominators score 0 (so a run predicting no
    matches reports precision = recall = f-measure = 0 rather than failing).
    """
    pred, act = np.asarray(predicted), np.asarray(actual)
    if len(pred) != len(act):
        raise ValueError(f"length mismatch: {len(pred)} vs {len(act)}")
    for name, codes in (("predicted", pred), ("actual", act)):
        bad = np.flatnonzero((codes != 0) & (codes != 1))
        if len(bad):
            raise ValueError(
                f"{name} label at position {bad[0]} is neither a match nor a non-match"
            )
    tp = int(np.count_nonzero((pred == 1) & (act == 1)))
    fp = int(np.count_nonzero((pred == 1) & (act == 0)))
    fn = int(np.count_nonzero((pred == 0) & (act == 1)))
    total = len(pred)
    tn = total - tp - fp - fn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    fm = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    objective = (tp + tn) / total if total else 0.0
    return MetricsReport(precision, recall, fm, tp, fp, fn, tn, objective)


def _join_ids(left: list, right: list):
    """Rows of left and right that name the same pair id, as two aligned
    arrays, plus the first row of each list that repeats an id named
    earlier in the same list (None if there is none)."""
    n = len(left)
    keys = np.fromiter(itertools.chain(left, right), dtype=object, count=n + len(right))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    same = np.flatnonzero(keys[1:] == keys[:-1])
    del keys  # evaluate's peak memory is reached here
    # the sort is stable: equal ids keep left before right, each in file order
    first, later = order[same], order[same + 1]
    in_left, in_right = later < n, first >= n
    repeats = [int(rows.min()) if len(rows) else None
               for rows in (later[in_left], later[in_right] - n)]
    joined = ~in_left & ~in_right
    return first[joined], later[joined] - n, repeats


def score_labels(predicted, pred: tuple, truth, true: tuple) -> MetricsReport:
    """Metrics of a labels file's (ids, codes) against a truth file's (ids,
    labels), over the pair ids both name. predicted and truth are the two
    files' paths: a truth row without a label and a pair id repeated within
    one file raise an IngestError naming the file line; files that share
    no pair id raise one naming neither file."""
    (pred_ids, pred_codes), (ids, labels) = pred, true
    if np.any(labels == UNLABELED):
        raise row_fault(truth, int(np.argmax(labels == UNLABELED)),
                        "empty label: a truth file must carry labels")
    pred_rows, rows, repeats = _join_ids(pred_ids, ids)
    for path, pairs, row in zip((predicted, truth), (pred_ids, ids), repeats):
        if row is not None:
            raise row_fault(path, row, f"repeated pair id {pairs[row]}")
    if not len(rows):
        raise IngestError("no overlapping pairs between predictions and truth")
    return compute_metrics(pred_codes[pred_rows], labels[rows])


@dataclass
class AblationCell:
    variant: str
    budget: int | None
    fraction: float | None
    seed: int
    metrics: MetricsReport


def aggregate(cells: list[AblationCell]) -> list[dict]:
    """Mean and standard deviation of f-measure per (variant, cost): by
    variant, then the budgets in increasing order, then the fractions."""
    groups: dict[tuple, list[AblationCell]] = {}
    for cell in cells:
        groups.setdefault((cell.variant, cell.budget, cell.fraction), []).append(cell)
    rows = []
    for (variant, budget, fraction), group in sorted(
        groups.items(), key=lambda kv: (kv[0][0], kv[0][1] is None, kv[0][1] or 0, kv[0][2] or 0)
    ):
        fms = [c.metrics.f_measure for c in group]
        rows.append(
            {
                "variant": variant,
                "budget": budget,
                "fraction": fraction,
                "seeds": len(group),
                "fm_mean": statistics.fmean(fms),
                "fm_std": statistics.stdev(fms) if len(fms) > 1 else 0.0,
            }
        )
    return rows


def evaluate_run(pool: InstancePool, result: RunResult) -> MetricsReport:
    """Score a run's transductive labels against the pool's real labels, and
    record in result.report each round's pseudo_fm (over the rows propagated
    up to that round, so the last round's metrics are the run's), then
    final.pseudo_fm when there are rounds, and final.metrics. A pseudo row
    without a real label raises ValueError once the rounds before it are
    recorded."""
    state, report = result.state, result.report
    rows = state.pseudo_rows()
    added, predicted, actual = state.round_added[rows], state.label[rows], pool.real_labels[rows]
    unscored = added[actual == UNLABELED].min(initial=len(report["rounds"]) + 1)
    metrics = None
    for record in report["rounds"]:
        if record["round"] >= unscored:
            raise ValueError("pool instances lack real labels; cannot score")
        taken = added <= record["round"]
        metrics = compute_metrics(predicted[taken], actual[taken])
        record["pseudo_fm"] = metrics.f_measure
    if metrics is None:  # every row is a seed
        metrics = compute_metrics(predicted, actual)
    else:
        report["final"]["pseudo_fm"] = metrics.f_measure
    report["final"]["metrics"] = metrics.as_dict()
    return metrics


def run_cell(
    pool: InstancePool,
    partition: SubspacePartition,
    base_config: TrainConfig,
    variant: str,
    seed: int,
    budget: int | None = None,
    fraction: float | None = None,
) -> AblationCell:
    """One experiment: seed labels by budget (method-selected) or by a
    uniform train fraction (all train instances labeled), then train and
    score the propagated labels. Every label comes from pool.real_labels."""
    cfg = dataclasses.replace(base_config, seed=seed, variant=variant)
    if budget is not None:
        result = run(cfg, pool, partition, seed_budget=budget)
    else:
        result = run(cfg, pool, partition, seed_rows=split_pool(len(pool), seed, fraction)[0])
    return AblationCell(
        variant=variant,
        budget=budget,
        fraction=fraction,
        seed=seed,
        metrics=evaluate_run(pool, result),
    )


# (pool, partition, base_config) of the suite that a worker process
# serves, set once by the pool's initializer in that process
_shared: tuple = ()


def _init_worker(*shared) -> None:
    global _shared
    _shared = shared


def _run_cell_task(task):
    variant, seed, budget, fraction = task
    return run_cell(*_shared, variant, seed, budget=budget, fraction=fraction)


def run_ablation_suite(
    pool: InstancePool,
    partition: SubspacePartition,
    base_config: TrainConfig,
    variants=("full",),
    budgets=(),
    fractions=(),
    seeds=(0, 1, 2),
    workers: int = 1,
) -> list[AblationCell]:
    """Cross-product of variants x label costs x seeds, each trained and scored.

    Cells are independent and internally deterministic, so they may run in
    parallel; results keep the canonical cell order regardless of workers.
    A worker process receives the pool, partition and base config
    once, when it starts, and each cell task only names its cell.
    """
    if not budgets and not fractions:
        raise ValueError("need at least one budget or fraction")
    costs = [(b, None) for b in budgets] + [(None, f) for f in fractions]
    tasks = [(v, s, b, f) for v in variants for b, f in costs for s in seeds]
    shared = (pool, partition, base_config)
    workers = min(workers, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers, initializer=_init_worker, initargs=shared) as ex:
            return list(ex.map(_run_cell_task, tasks))
    return [run_cell(*shared, v, s, budget=b, fraction=f) for v, s, b, f in tasks]


def format_table(rows: list[dict]) -> str:
    """Human-readable aligned ablation summary."""
    header = f"{'variant':<16} {'cost':>8} {'seeds':>5} {'fm_mean':>8} {'fm_std':>7}"
    lines = [header, "-" * len(header)]
    for row in rows:
        # a fraction's repr in percent, so that two fractions never print alike
        cost = row["budget"] if row["budget"] is not None else (
            f"{Decimal(repr(row['fraction'])).scaleb(2).normalize():f}%")
        lines.append(
            f"{row['variant']:<16} {cost!s:>8} {row['seeds']:>5} "
            f"{row['fm_mean']:>8.4f} {row['fm_std']:>7.4f}"
        )
    return "\n".join(lines)


def cells_text(cells: list[AblationCell]) -> str:
    """The cells table (cells.tsv): a header, then one line per cell in
    cell order, each metric as its repr and an unset cost as an empty
    field."""
    lines = ["variant\tbudget\tfraction\tseed\tprecision\trecall\tf_measure\n"]
    for cell in cells:
        lines.append(
            f"{cell.variant}\t{cell.budget if cell.budget is not None else ''}\t"
            f"{cell.fraction if cell.fraction is not None else ''}\t{cell.seed}\t"
            f"{cell.metrics.precision!r}\t{cell.metrics.recall!r}\t"
            f"{cell.metrics.f_measure!r}\n"
        )
    return "".join(lines)
