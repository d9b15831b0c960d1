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
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .datasets import (INSTANCE_FORMAT_VERSION, UNLABELED, IngestError, InstancePool,
                       SyntheticConfig, _row_fault, generate_synthetic, load_gold, load_records,
                       open_text, read_instance_file, read_labels_file, save_gold,
                       write_instance_file, write_labels_file)
from .diversity import PARTITION_FORMAT_VERSION, build_partition, load_partition, save_partition
from .evaluation import compute_metrics, evaluate_run, format_table, run_ablation_suite
from .features import BlockingSpec, featurize_to_file
from .nn import CHECKPOINT_FORMAT_VERSION, load_model, save_model
from .training import VARIANTS, TrainConfig, predict, run, write_report


def _parse_hidden(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _parse_propagate(text: str) -> int | None:
    return None if text == "pool" else int(text)


def _variant(text: str) -> str:
    """A variant name from its flag spelling, hyphens or underscores."""
    name = text.replace("-", "_")
    if name not in VARIANTS:
        spelled = ", ".join(v.replace("_", "-") for v in VARIANTS)
        raise ValueError(f"unknown variant {text!r}; choose from {spelled}")
    return name


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise ValueError(f"train fraction {text} must lie strictly between 0 and 1")
    return value


def _listed(parse, distinct: bool = False):
    """An argparse type for comma-separated values, each read by parse, so
    that argparse names the flag whose value does not parse; when distinct,
    a value that repeats an earlier one is rejected as well."""
    def read(text: str) -> list:
        values: list = []
        try:
            for tok in text.split(","):
                value = parse(tok)
                if distinct and value in values:
                    raise ValueError(f"{tok!r} repeats an earlier value")
                values.append(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return values
    return read


# How the text of each TrainConfig field (a config value or a flag) is
# read: by the type of its default unless a parser is listed here.
_PARSERS = {
    "gen_hidden": _parse_hidden,
    "disc_hidden": _parse_hidden,
    "propagate_count": _parse_propagate,  # integer or "pool"
    "variant": _variant,
}
_CONFIG_KEYS = {
    field.name: _PARSERS.get(field.name, type(field.default))
    for field in dataclasses.fields(TrainConfig)
}


def _config_value(key: str, text: str):
    """key's value read from text and held to TrainConfig's rule for it;
    each rule concerns one field, so the other fields keep their defaults."""
    value = _CONFIG_KEYS[key](text)
    TrainConfig(**{key: value})
    return value


def read_config_file(path: str | Path) -> dict:
    """Flat key=value file; '#' starts a comment; unknown keys are rejected."""
    values: dict = {}
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise IngestError(f"{path}:{lineno}: expected key=value")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in _CONFIG_KEYS:
                raise IngestError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _config_value(key, value)
            except ValueError as exc:
                raise IngestError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def build_train_config(args) -> TrainConfig:
    values: dict = {}
    if args.config:
        values.update(read_config_file(args.config))
    for name in _CONFIG_KEYS:
        text = getattr(args, name)
        if text is not None:
            try:
                values[name] = _config_value(name, text)
            except ValueError as exc:
                raise ValueError(f"--{name.replace('_', '-')}: {exc}") from None
    return TrainConfig(**values)


def _load_pool(path: str, gold_path: str | None = None, gold_header: bool = False) -> InstancePool:
    """The pool of an instance file. A gold file is the oracle: it labels
    every row, replacing the file's label column."""
    ids, features, labels, _ = read_instance_file(path)
    if gold_path:
        labels = load_gold(gold_path, has_header=gold_header).label_codes(ids)
    # read_instance_file has checked the row rules and named the bad line
    return InstancePool(ids, features, labels, _checked=True)


def _partition_for(args, pool: InstancePool):
    """The --partition file's partition, or one built from pool on
    --split-features (default: every feature), assigned over pool; an
    empty pool is named with --instances, and a feature index that pool
    lacks with the file or the flag."""
    if not len(pool):
        raise IngestError(f"{args.instances}: no instance rows")
    path = getattr(args, "partition", None)
    part = load_partition(path) if path else None
    try:
        if part is None:
            return build_partition(pool.ids, pool.features, args.split_features)
        part.assign_all(pool.ids, pool.features)
        return part
    except ValueError as exc:
        raise ValueError(f"{path or '--split-features'}: {exc}") from None


def _training_inputs(args):
    """The (config, pool, partition) that train and ablate start from."""
    cfg = build_train_config(args)
    pool = _load_pool(args.instances, args.gold, args.gold_header)
    return cfg, pool, _partition_for(args, pool)


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
    cfg = SyntheticConfig(n_matches=args.matches, imbalance_rate=args.imbalance,
                          n_features=args.features, separation=args.separation, seed=args.seed)
    pool, gold = generate_synthetic(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_instance_file(out / "instances.tsv", pool)
    save_gold(gold, out / "gold.csv")
    print(f"wrote {len(pool)} instances ({len(gold)} matches) to {out}")
    return 0


def cmd_featurize(args) -> int:
    schema = args.schema.split(",") if args.schema else None
    left = load_records(args.left, schema, args.id_column, args.delimiter)
    right = None
    if args.right:
        right = load_records(args.right, left.schema, args.id_column, args.delimiter)
    gold = load_gold(args.gold, has_header=args.gold_header) if args.gold else None
    blocking = BlockingSpec(args.block_on) if args.block_on else None
    count = featurize_to_file(args.out, left, right, gold=gold, q=args.q, blocking=blocking)
    print(f"wrote {count} instances to {args.out}")
    return 0


def cmd_partition(args) -> int:
    part = _partition_for(args, _load_pool(args.instances))
    save_partition(part, args.out)
    print(f"wrote partition ({part.b} subspaces) to {args.out}")
    return 0


def _save_models(directory: Path, models: tuple, cfg: TrainConfig, suffix: str = "") -> None:
    """A run's (generator, discriminator) as generator{suffix}.npz and,
    unless it is None, discriminator{suffix}.npz; the generator of a
    no_adversary run is a classifier."""
    names = ("generator", "discriminator")
    kinds = ("classifier" if cfg.variant == "no_adversary" else "generator", "discriminator")
    for name, kind, model in zip(names, kinds, models):
        if model is not None:
            save_model(directory / f"{name}{suffix}.npz", model, seed=cfg.seed, kind=kind)


def cmd_train(args) -> int:
    cfg, pool, partition = _training_inputs(args)
    result = run(cfg, pool, partition, seed_budget=args.seed_budget)
    # made only now, so that a run that fails leaves no directory behind
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_partition(partition, out / "partition.json")
    _save_models(out, (result.generator, result.discriminator), cfg)
    if args.checkpoints:
        (out / "checkpoints").mkdir(exist_ok=True)
        for k, models in enumerate(result.round_models, start=1):
            _save_models(out / "checkpoints", models, cfg, f"_round{k}")
    rows = result.state.pseudo_rows()
    write_labels_file(out / "labels.tsv", [pool.ids[r] for r in rows], result.state.label[rows])
    try:
        metrics = evaluate_run(pool, result)
        print(
            f"precision={metrics.precision:.4f} recall={metrics.recall:.4f} "
            f"f_measure={metrics.f_measure:.4f}"
        )
    except ValueError:
        pass  # a propagated row has no real label, so the run is not scored
    write_report(result.report, out / "report.json")
    print(f"rounds={result.report['final']['rounds']} pool={len(result.state)}")
    return 0


def cmd_predict(args) -> int:
    pool = _load_pool(args.instances)
    model, meta = load_model(args.model)
    if meta["kind"] == "discriminator":
        raise IngestError(f"{args.model}: a discriminator checkpoint cannot label instances")
    if model.layer_dims[0] != pool.n_features:
        raise IngestError(f"{args.model}: model input width {model.layer_dims[0]}"
                          f" is not the pool's {pool.n_features} features")
    write_labels_file(args.out, pool.ids, predict(model, pool.features))
    print(f"wrote {len(pool)} labels to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    pred_ids, pred_codes = read_labels_file(args.predicted)
    ids, _, labels, _ = read_instance_file(args.truth)
    if np.any(labels == UNLABELED):
        raise _row_fault(args.truth, int(np.argmax(labels == UNLABELED)),
                         "empty label: a truth file must carry labels")
    pred_rows, rows, repeats = _join_ids(pred_ids, ids)
    for path, pairs, row in zip((args.predicted, args.truth), (pred_ids, ids), repeats):
        if row is not None:
            raise _row_fault(path, row, f"repeated pair id {pairs[row]}")
    if not len(rows):
        raise IngestError("no overlapping pairs between predictions and truth")
    metrics = compute_metrics(pred_codes[pred_rows], labels[rows])
    print(
        f"precision={metrics.precision:.4f} recall={metrics.recall:.4f} "
        f"f_measure={metrics.f_measure:.4f} objective={metrics.objective_score:.4f} "
        f"tp={metrics.tp} fp={metrics.fp} fn={metrics.fn} tn={metrics.tn}"
    )
    if args.out:
        write_report(metrics.as_dict(), args.out)
    return 0


def cmd_ablate(args) -> int:
    cfg, pool, partition = _training_inputs(args)
    seeds = [cfg.seed + k for k in range(args.seeds)]
    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)
    table = run_ablation_suite(
        pool, partition, cfg,
        variants=args.variants, budgets=args.budgets or [], fractions=args.fractions or [],
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
    # the flags train and ablate share: their inputs, --config, and one
    # flag per TrainConfig field in field order, parsed by build_train_config
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--instances", required=True)
    source = shared.add_mutually_exclusive_group()
    source.add_argument("--partition", help="partition file (default: build from instances)")
    source.add_argument("--split-features", type=_listed(int))
    shared.add_argument("--gold")
    shared.add_argument("--gold-header", action="store_true")
    shared.add_argument("--config", help="flat key=value config file")
    for name in _CONFIG_KEYS:
        shared.add_argument("--" + name.replace("_", "-"), dest=name)

    p = subs.add_parser("synth", help="generate a synthetic labeled workload")
    p.add_argument("--matches", type=int, required=True)
    p.add_argument("--imbalance", type=int, required=True)
    p.add_argument("--features", type=int, default=SyntheticConfig.n_features)
    p.add_argument("--separation", type=float, default=SyntheticConfig.separation)
    p.add_argument("--seed", type=int, default=SyntheticConfig.seed)
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

    p = subs.add_parser("train", parents=[shared], help="train on an instance file")
    p.add_argument("--seed-budget", type=int, required=True, dest="seed_budget")
    p.add_argument("--checkpoints", action="store_true")
    p.add_argument("-o", "--out", required=True)
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

    p = subs.add_parser("ablate", parents=[shared],
                        help="variant x label-cost x seed experiment grid")
    p.add_argument("--budgets", type=_listed(int, distinct=True),
                   help="comma-separated label budgets")
    p.add_argument("--fractions", type=_listed(_fraction, distinct=True),
                   help="comma-separated train fractions")
    p.add_argument("--variants", type=_listed(_variant, distinct=True), default="full")
    p.add_argument("--seeds", type=int, default=3, help="number of seeds (base --seed + k)")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("-o", "--out")
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
