"""Command-line pipeline: featurize, partition, train, predict, evaluate,
ablate, synth.

One flat key=value config file is shared by the training stages, with
flag > file > default precedence. A single --seed drives every random
choice; no stage reads the clock, so identical commands produce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .datasets import (
    IngestError,
    SyntheticConfig,
    generate_synthetic,
    load_gold,
    load_records,
    save_gold,
)
from .diversity import (
    PARTITION_FORMAT_VERSION,
    build_partition,
    load_partition,
    save_partition,
)
from .evaluation import compute_metrics, evaluate_run, format_table, run_ablation_suite
from .features import (
    INSTANCE_FORMAT_VERSION,
    LABEL_CODES,
    LABEL_NAMES,
    UNLABELED,
    BlockingSpec,
    InstancePool,
    _row_fault,
    featurize_to_file,
    read_instance_file,
    write_instance_file,
)
from .nn import CHECKPOINT_FORMAT_VERSION, load_model, save_model
from .training import TrainConfig, predict, run, write_report


def _parse_hidden(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _parse_propagate(text: str) -> int | None:
    return None if text == "pool" else int(text)


def _listed(parse):
    """An argparse type for comma-separated values, each read by parse, so
    that argparse names the flag whose value does not parse."""
    def read(text: str) -> list:
        try:
            return [parse(tok) for tok in text.split(",")]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return read


# How the text of each TrainConfig field (a config value or a flag) is
# read: by the type of its default unless a parser is listed here.
_PARSERS = {
    "gen_hidden": _parse_hidden,
    "disc_hidden": _parse_hidden,
    "propagate_count": _parse_propagate,  # integer or "pool"
    "variant": lambda text: text.replace("-", "_"),
}
_CONFIG_KEYS = {
    field.name: _PARSERS.get(field.name, type(field.default))
    for field in dataclasses.fields(TrainConfig)
}


def read_config_file(path: str | Path) -> dict:
    """Flat key=value file; '#' starts a comment; unknown keys are rejected."""
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise IngestError(f"{path}:{lineno}: expected key=value")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _CONFIG_KEYS:
            raise IngestError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _CONFIG_KEYS[key](value)
    return values


def build_train_config(args) -> TrainConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(read_config_file(args.config))
    for name, parse in _CONFIG_KEYS.items():
        text = getattr(args, name)
        if text is not None:
            try:
                values[name] = parse(text)
            except ValueError as exc:
                raise ValueError(f"--{name.replace('_', '-')}: {exc}") from None
    return TrainConfig(**values)


def _load_pool(path: str, gold_path: str | None = None, gold_header: bool = False) -> InstancePool:
    """The pool of an instance file. A gold file is the oracle: it labels
    every row, replacing the file's label column."""
    ids, features, labels, _ = read_instance_file(path)
    if gold_path:
        gold = load_gold(gold_path, has_header=gold_header)
        labels = np.array([LABEL_CODES[gold.label_of(*pid)] for pid in ids], dtype=np.int8)
    # read_instance_file has checked the row rules and named the bad line
    return InstancePool(ids, features, labels, _checked=True)


def _partition_for(args, pool: InstancePool):
    if getattr(args, "partition", None):
        part = load_partition(args.partition)
        part.assign_all(pool.ids, pool.features)
        return part
    return build_partition(pool.ids, pool.features, getattr(args, "split_features", None))


def _write_labels_file(path: Path, ids: list, labels: list[str]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        fh.write("id_a\tid_b\tlabel\n")
        fh.writelines(f"{a}\t{b}\t{label}\n" for (a, b), label in zip(ids, labels))


def _read_labels_file(path: str) -> tuple[list, np.ndarray]:
    """Pair ids and label codes in file order; every row must be id_a, id_b
    and M or N, so data row k is on line k + 2."""
    ids, codes = [], []
    with Path(path).open(encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header != ["id_a", "id_b", "label"]:
            raise IngestError(f"{path}: not a labels file")
        for lineno, line in enumerate(fh, start=2):
            row = line.rstrip("\n").split("\t")
            if len(row) != 3:
                raise IngestError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            if row[2] not in LABEL_CODES:
                raise IngestError(f"{path}:{lineno}: unknown label {row[2]!r}")
            ids.append((row[0], row[1]))
            codes.append(LABEL_CODES[row[2]])
    return ids, np.array(codes, dtype=np.int8)


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


def cmd_synth(args) -> int:
    cfg = SyntheticConfig(
        n_matches=args.matches,
        imbalance_rate=args.imbalance,
        n_features=args.features,
        separation=args.separation,
        seed=args.seed if args.seed is not None else 0,
    )
    pool, gold = generate_synthetic(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_instance_file(out / "instances.tsv", pool)
    save_gold(gold, out / "gold.csv")
    print(f"wrote {len(pool)} instances ({len(gold)} matches) to {out}")
    return 0


def cmd_featurize(args) -> int:
    schema = args.schema.split(",") if args.schema else None
    left = load_records(
        args.left,
        schema=schema or _infer_schema(args.left, args.id_column, args.delimiter),
        id_column=args.id_column,
        delimiter=args.delimiter,
    )
    right = None
    if args.right:
        right = load_records(
            args.right,
            schema=left.schema,
            id_column=args.id_column,
            delimiter=args.delimiter,
        )
    gold = load_gold(args.gold, has_header=args.gold_header) if args.gold else None
    blocking = BlockingSpec(args.block_on) if args.block_on else None
    count = featurize_to_file(args.out, left, right, gold=gold, q=args.q, blocking=blocking)
    print(f"wrote {count} instances to {args.out}")
    return 0


def _infer_schema(path: str, id_column: str, delimiter: str) -> list[str]:
    with Path(path).open(encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(delimiter)
    if id_column not in header:
        raise IngestError(f"missing column {id_column!r} in {path}")
    return [col for col in header if col != id_column]


def cmd_partition(args) -> int:
    part = _partition_for(args, _load_pool(args.instances))
    save_partition(part, args.out)
    print(f"wrote partition ({part.b} subspaces) to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = build_train_config(args)
    pool = _load_pool(args.instances, args.gold, args.gold_header)
    partition = _partition_for(args, pool)
    out = Path(args.out)
    result = run(
        cfg,
        pool,
        partition,
        seed_budget=args.seed_budget,
        checkpoint_dir=out / "checkpoints" if args.checkpoints else None,
    )
    # made only now, so that a run that fails leaves no directory behind
    out.mkdir(parents=True, exist_ok=True)
    save_partition(partition, out / "partition.json")
    save_model(out / "generator.npz", result.generator, seed=cfg.seed,
               kind="classifier" if cfg.variant == "no_adversary" else "generator")
    if result.discriminator is not None:
        save_model(out / "discriminator.npz", result.discriminator,
                   seed=cfg.seed, kind="discriminator")
    rows = result.state.pseudo_rows()
    _write_labels_file(
        out / "labels.tsv", [pool.ids[r] for r in rows],
        LABEL_NAMES[result.state.label[rows]].tolist(),
    )
    try:
        metrics = evaluate_run(pool, result)
        result.report["final"]["metrics"] = metrics.as_dict()
        print(
            f"precision={metrics.precision:.4f} recall={metrics.recall:.4f} "
            f"f_measure={metrics.f_measure:.4f}"
        )
    except ValueError:
        pass  # pool carries no ground truth beyond the seeds
    write_report(result.report, out / "report.json")
    print(f"rounds={result.report['final']['rounds']} pool={len(result.state)}")
    return 0


def cmd_predict(args) -> int:
    pool = _load_pool(args.instances)
    model, _ = load_model(args.model)
    labels = predict(model, pool.features)
    _write_labels_file(Path(args.out), pool.ids, labels)
    print(f"wrote {len(labels)} labels to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    pred_ids, pred_codes = _read_labels_file(args.predicted)
    ids, _, labels, _ = read_instance_file(args.truth)
    if np.any(labels == UNLABELED):
        raise IngestError(f"{args.truth}: truth file must carry labels")
    rows, pred_rows, (truth_repeat, pred_repeat) = _join_ids(ids, pred_ids)
    if pred_repeat is not None:
        raise IngestError(
            f"{args.predicted}:{pred_repeat + 2}: repeated pair id {pred_ids[pred_repeat]}"
        )
    if truth_repeat is not None:
        raise _row_fault(Path(args.truth), truth_repeat, f"repeated pair id {ids[truth_repeat]}")
    if not len(rows):
        raise IngestError("no overlapping pairs between predictions and truth")
    metrics = compute_metrics(pred_codes[pred_rows], labels[rows])
    print(
        f"precision={metrics.precision:.4f} recall={metrics.recall:.4f} "
        f"f_measure={metrics.f_measure:.4f} objective={metrics.objective_score:.4f} "
        f"tp={metrics.tp} fp={metrics.fp} fn={metrics.fn} tn={metrics.tn}"
    )
    if args.out:
        Path(args.out).write_text(
            json.dumps(metrics.as_dict(), indent=2, sort_keys=True) + "\n"
        )
    return 0


def cmd_ablate(args) -> int:
    cfg = build_train_config(args)
    pool = _load_pool(args.instances, args.gold, args.gold_header)
    partition = _partition_for(args, pool)
    variants = [v.replace("-", "_") for v in args.variants.split(",")]
    seeds = [cfg.seed + k for k in range(args.seeds)]
    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)
    table = run_ablation_suite(
        pool, partition, cfg,
        variants=variants, budgets=args.budgets or [], fractions=args.fractions or [],
        seeds=seeds, workers=workers,
    )
    rows = table.aggregate()
    print(format_table(rows))
    if args.out:
        with Path(args.out).open("w", encoding="utf-8") as fh:
            fh.write("variant\tbudget\tfraction\tseed\tprecision\trecall\tf_measure\n")
            for cell in table.cells:
                fh.write(
                    f"{cell.variant}\t{cell.budget if cell.budget is not None else ''}\t"
                    f"{cell.fraction if cell.fraction is not None else ''}\t{cell.seed}\t"
                    f"{cell.metrics.precision!r}\t{cell.metrics.recall!r}\t"
                    f"{cell.metrics.f_measure!r}\n"
                )
    return 0


def _add_train_config_flags(sub) -> None:
    """--config plus one flag per TrainConfig field, in field order; the
    text of each is parsed by build_train_config."""
    sub.add_argument("--config", help="flat key=value config file")
    for name in _CONFIG_KEYS:
        sub.add_argument("--" + name.replace("_", "-"), dest=name)


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line like any other bad input."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="matchgan",
        description="semi-supervised record-pair matching via adversarial label generation",
    )
    parser.add_argument(
        "--version", action="version",
        version=(
            f"matchgan {__version__} "
            f"(instance format v{INSTANCE_FORMAT_VERSION}, "
            f"partition format v{PARTITION_FORMAT_VERSION}, "
            f"checkpoint format v{CHECKPOINT_FORMAT_VERSION})"
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate a synthetic labeled workload")
    p.add_argument("--matches", type=int, required=True)
    p.add_argument("--imbalance", type=int, required=True)
    p.add_argument("--features", type=int, default=4)
    p.add_argument("--separation", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("featurize", help="stream record pairs into an instance file")
    p.add_argument("--left", required=True)
    p.add_argument("--right")
    p.add_argument("--gold")
    p.add_argument("--gold-header", action="store_true", dest="gold_header")
    p.add_argument("--schema", help="comma-separated attribute columns (default: all but id)")
    p.add_argument("--id-column", default="id", dest="id_column")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--block-on", dest="block_on")
    p.add_argument("-q", type=int, default=2)
    p.add_argument("--workers", type=int, default=None,
                   help="accepted and ignored: featurize runs in one process")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_featurize)

    p = subs.add_parser("partition", help="build and persist a subspace partition")
    p.add_argument("--instances", required=True)
    p.add_argument("--split-features", type=_listed(int), dest="split_features",
                   help="comma-separated feature indices for the median split")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_partition)

    p = subs.add_parser("train", help="train on an instance file")
    p.add_argument("--instances", required=True)
    p.add_argument("--partition", help="partition file (default: build from instances)")
    p.add_argument("--split-features", type=_listed(int), dest="split_features")
    p.add_argument("--gold")
    p.add_argument("--gold-header", action="store_true", dest="gold_header")
    p.add_argument("--seed-budget", type=int, required=True, dest="seed_budget")
    p.add_argument("--checkpoints", action="store_true")
    p.add_argument("-o", "--out", required=True)
    _add_train_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("predict", help="label held-out instances with a trained model")
    p.add_argument("--instances", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = subs.add_parser("evaluate", help="score predicted labels against truth")
    p.add_argument("--predicted", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("ablate", help="variant x label-cost x seed experiment grid")
    p.add_argument("--instances", required=True)
    p.add_argument("--partition")
    p.add_argument("--split-features", type=_listed(int), dest="split_features")
    p.add_argument("--gold")
    p.add_argument("--gold-header", action="store_true", dest="gold_header")
    p.add_argument("--budgets", type=_listed(int), help="comma-separated label budgets")
    p.add_argument("--fractions", type=_listed(float), help="comma-separated train fractions")
    p.add_argument("--variants", default="full")
    p.add_argument("--seeds", type=int, default=3, help="number of seeds (base --seed + k)")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("-o", "--out")
    _add_train_config_flags(p)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for flag in ("workers", "seeds"):
            if getattr(args, flag, None) is not None and getattr(args, flag) < 1:
                raise ValueError(f"--{flag} must be at least 1, got {getattr(args, flag)}")
        return args.func(args)
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
    except (IngestError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
