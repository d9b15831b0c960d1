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
import os
import sys
from pathlib import Path

from . import __version__
from .datasets import (INSTANCE_FORMAT_VERSION, IngestError, InstancePool, RowError,
                       SyntheticConfig, generate_synthetic, load_gold, load_records, open_text,
                       read_instance_file, read_labels_file, row_fault, save_gold,
                       write_instance_file, write_labels_file)
from .diversity import PARTITION_FORMAT_VERSION, build_partition, load_partition, save_partition
# not called here: bench/layers.py wraps compute_metrics on this module
from .evaluation import (aggregate, cells_text, compute_metrics, evaluate_run, format_table,
                         run_ablation_suite, score_labels)
from .features import featurize_to_file
from .nn import CHECKPOINT_FORMAT_VERSION, load_model, save_model
from .training import VARIANTS, TrainConfig, check_budget, predict, run, write_report


def _parse_hidden(text: str) -> tuple[int, ...]:
    # an empty value is no hidden layer; an empty item does not parse
    return tuple(int(tok) for tok in text.split(",")) if text.strip() else ()


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


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"{text} is not at least 1")
    return value


def _character(text: str) -> str:
    if len(text) != 1:
        raise ValueError(f"{text!r} is not one character")
    return text


def _checked(rule):
    """An argparse type that reads a flag's text by rule, so that argparse
    names the flag whose value rule refuses, with rule's message."""
    def read(text: str):
        try:
            return rule(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return read


def _listed(parse, distinct: bool = False):
    """An argparse type for comma-separated values, each read by parse; when
    distinct, a value that repeats an earlier one is rejected as well."""
    def read(text: str) -> list:
        values: list = []
        for tok in text.split(","):
            value = parse(tok)
            if distinct and value in values:
                raise ValueError(f"{tok!r} repeats an earlier value")
            values.append(value)
        return values
    return _checked(read)


# How the text of each config field (a config value or a flag) is read: by
# the type of its value in the base config unless a parser is listed here.
_PARSERS = {
    "gen_hidden": _parse_hidden,
    "disc_hidden": _parse_hidden,
    "propagate_count": lambda text: None if text == "pool" else int(text),
    "variant": _variant,
}
_CONFIG_KEYS = [field.name for field in dataclasses.fields(TrainConfig)]


def _config_value(key: str, text: str, base=TrainConfig()):
    """key's value read from text and held to the rule of base's class for
    it; each rule concerns one field, so base's other values cannot refuse it."""
    value = _PARSERS.get(key, type(getattr(base, key)))(text)
    dataclasses.replace(base, **{key: value})
    return value


def _field(key: str, base=TrainConfig()):
    """The argparse type of the flag that sets base's field key."""
    return _checked(lambda text: _config_value(key, text, base))


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


def build_train_config(args, values: dict | None = None) -> TrainConfig:
    """args' flags over values, which are its --config file's unless given."""
    if values is None:
        values = read_config_file(args.config) if args.config else {}
    return TrainConfig(**values | {k: v for k, v in vars(args).items() if k in _CONFIG_KEYS})


def _load_pool(path: str, gold_path: str | None = None, gold_header: bool = False) -> InstancePool:
    """The pool of an instance file. A gold file is the oracle: it labels
    every row, replacing the file's label column."""
    ids, features, labels, _ = read_instance_file(path)
    if gold_path:
        labels = load_gold(gold_path, has_header=gold_header).label_codes(ids)
    # read_instance_file has checked the row rules and named the bad line
    try:
        return InstancePool(ids, features, labels, _checked=True)
    except RowError as exc:
        raise row_fault(path, exc.row, str(exc)) from None


def _partition_for(args, pool: InstancePool):
    """The --partition file's partition, or one built from pool on
    --split-features (default: every feature), assigned over pool. A fault
    is named by the input that holds it: the file, the flag, or --instances."""
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
        source = path or ("argument --split-features" if args.split_features else args.instances)
        raise ValueError(f"{source}: {exc}") from None


def _output_file(text: str) -> Path:
    """The argparse type of a file output: the path must name a file in a
    directory that exists. Parsing checks it before any input is read, so
    a command cannot fail on it after its work."""
    out = Path(text)
    if out.is_dir() or not out.parent.is_dir():
        raise argparse.ArgumentTypeError(f"{out} is not a file path in an existing directory")
    return out


def _output_dir(*names: str):
    """The argparse type of an output directory that its command makes after
    its work and writes names into, a name ending in / being a directory: the
    deepest part of the path that exists must be a directory, and no name may
    exist as the other kind, so that no write fails after the work."""
    def check(text: str) -> Path:
        out = Path(text)
        there = next(p for p in (out, *out.parents) if p.exists())
        if not there.is_dir():
            raise argparse.ArgumentTypeError(f"{there} is not a directory")
        for name in names:
            path, subdir = out / name, name.endswith("/")
            if path.exists() and path.is_dir() != subdir:
                kind = "not a directory" if subdir else "a directory"
                raise argparse.ArgumentTypeError(f"{path} is {kind}")
        return out
    return check


# what train and synth write into their output directory, for the commands and
# their flags' types alike; checkpoints/ holds each round's models, suffixed
_TRAIN_FILES = ("partition.json", "generator.npz", "discriminator.npz", "checkpoints/",
                "labels.tsv", "report.json")
_SYNTH_FILES = ("instances.tsv", "gold.csv")


def _training_inputs(args, budget_flag: str, budgets: list, fractions: list = (), values=None):
    """The (config, pool, partition) that train and ablate start from, the
    config over values if given, once each label budget given with
    budget_flag fits the pool and each --fractions value labels a row."""
    cfg = build_train_config(args, values)
    pool = _load_pool(args.instances, args.gold, args.gold_header)
    partition = _partition_for(args, pool)
    try:
        for budget in budgets:
            check_budget(budget, len(pool))
    except ValueError as exc:
        raise ValueError(f"argument {budget_flag}: {exc}") from None
    for fraction in fractions:
        # split_pool labels floor(fraction * n) rows
        if fraction * len(pool) < 1:
            raise ValueError(f"argument --fractions: {fraction} of the {len(pool)}-row pool"
                             " labels no row")
    return cfg, pool, partition


def cmd_synth(args) -> int:
    pool, gold = generate_synthetic(SyntheticConfig(
        args.n_matches, args.imbalance_rate, args.n_features, args.separation, args.seed))
    instances, gold_csv = (args.out / name for name in _SYNTH_FILES)
    args.out.mkdir(parents=True, exist_ok=True)
    write_instance_file(instances, pool)
    save_gold(gold, gold_csv)
    print(f"wrote {len(pool)} instances ({len(gold)} matches) to {args.out}")
    return 0


def cmd_featurize(args) -> int:
    schema = args.schema.split(",") if args.schema else None
    left = load_records(args.left, schema, args.id_column, args.delimiter)
    if args.block_on is not None and args.block_on not in left.schema:
        raise IngestError(f"argument --block-on: {args.left} has no attribute {args.block_on!r}")
    right = None
    if args.right:
        right = load_records(args.right, left.schema, args.id_column, args.delimiter)
    gold = load_gold(args.gold, has_header=args.gold_header) if args.gold else None
    try:
        count = featurize_to_file(args.out, left, right, gold, args.q, args.block_on)
    except IngestError as exc:
        # right has left's schema and --block-on is checked: an id both files hold
        raise IngestError(f"{args.left}, {args.right}: {exc}") from None
    print(f"wrote {count} instances to {args.out}")
    return 0


def cmd_partition(args) -> int:
    part = _partition_for(args, _load_pool(args.instances))
    save_partition(part, args.out)
    print(f"wrote partition ({part.b} subspaces) to {args.out}")
    return 0


def _save_models(paths: list, models: tuple, cfg: TrainConfig, suffix: str = "") -> None:
    """A run's (generator, discriminator) at paths, each with suffix before
    .npz; a discriminator that is None is not saved, and the generator of a
    no_adversary run is a classifier."""
    kinds = ("classifier" if cfg.variant == "no_adversary" else "generator", "discriminator")
    for path, kind, model in zip(paths, kinds, models):
        if model is not None:
            save_model(path.with_stem(path.stem + suffix), model, seed=cfg.seed, kind=kind)


def cmd_train(args) -> int:
    cfg, pool, partition = _training_inputs(args, "--seed-budget", [args.seed_budget])
    result = run(cfg, pool, partition, seed_budget=args.seed_budget)
    # made only now, so that a run that fails leaves no directory behind
    args.out.mkdir(parents=True, exist_ok=True)
    partition_json, *model_files, checkpoints, labels, report = (
        args.out / name for name in _TRAIN_FILES)
    save_partition(partition, partition_json)
    _save_models(model_files, (result.generator, result.discriminator), cfg)
    if args.checkpoints:
        checkpoints.mkdir(exist_ok=True)
        for k, models in enumerate(result.round_models, start=1):
            _save_models([checkpoints / f.name for f in model_files], models, cfg, f"_round{k}")
    rows = result.state.pseudo_rows()
    write_labels_file(labels, [pool.ids[r] for r in rows], result.state.label[rows])
    try:
        metrics = evaluate_run(pool, result)
        print(
            f"precision={metrics.precision:.4f} recall={metrics.recall:.4f} "
            f"f_measure={metrics.f_measure:.4f}"
        )
    except ValueError:
        pass  # a propagated row has no real label, so the run is not scored
    write_report(result.report, report)
    print(f"rounds={len(result.report['rounds'])} pool={len(result.state)}")
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
    pred = read_labels_file(args.predicted)
    ids, _, labels, _ = read_instance_file(args.truth)
    metrics = score_labels(args.predicted, pred, args.truth, (ids, labels))
    print(
        f"precision={metrics.precision:.4f} recall={metrics.recall:.4f} "
        f"f_measure={metrics.f_measure:.4f} objective={metrics.objective_score:.4f} "
        f"tp={metrics.tp} fp={metrics.fp} fn={metrics.fn} tn={metrics.tn}"
    )
    if args.out:
        write_report(metrics.as_dict(), args.out)
    return 0


def cmd_ablate(args) -> int:
    if not (args.budgets or args.fractions):
        raise ValueError("ablate needs --budgets or --fractions")
    # each cell trains the variant --variants names for it, so a variant set
    # by flag or config file would be dropped
    if "variant" in args:
        raise ValueError("argument --variant: ablate takes its variants from --variants")
    values = read_config_file(args.config) if args.config else {}
    if "variant" in values:
        raise IngestError(f"{args.config}: variant: ablate takes its variants from --variants")
    cfg, pool, partition = _training_inputs(args, "--budgets", args.budgets or [],
                                            args.fractions or [], values)
    seeds = [cfg.seed + k for k in range(args.seeds)]
    cells = run_ablation_suite(
        pool, partition, cfg,
        variants=args.variants, budgets=args.budgets or [], fractions=args.fractions or [],
        seeds=seeds, workers=args.workers,
    )
    print(format_table(aggregate(cells)))
    if args.out:
        args.out.write_text(cells_text(cells), encoding="utf-8")
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
    # flag per TrainConfig field in field order, absent from args unless given
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--instances", required=True)
    source = shared.add_mutually_exclusive_group()
    source.add_argument("--partition", help="partition file (default: build from instances)")
    source.add_argument("--split-features", type=_listed(int))
    shared.add_argument("--gold")
    shared.add_argument("--gold-header", action="store_true")
    shared.add_argument("--config", help="flat key=value config file")
    for name in _CONFIG_KEYS:
        shared.add_argument("--" + name.replace("_", "-"), type=_field(name),
                            default=argparse.SUPPRESS)

    p = subs.add_parser("synth", help="generate a synthetic labeled workload")
    base = SyntheticConfig(n_matches=1, imbalance_rate=1)
    for flag, key in (("matches", "n_matches"), ("imbalance", "imbalance_rate"),
                      ("features", "n_features"), ("separation", "separation"), ("seed", "seed")):
        p.add_argument("--" + flag, dest=key, type=_field(key, base), default=getattr(base, key),
                       required=key in ("n_matches", "imbalance_rate"))
    p.add_argument("--out", required=True, type=_output_dir(*_SYNTH_FILES))
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("featurize", help="stream record pairs into an instance file")
    p.add_argument("--left", required=True)
    p.add_argument("--right")
    p.add_argument("--gold")
    p.add_argument("--gold-header", action="store_true")
    p.add_argument("--schema", help="comma-separated attribute columns (default: all but id)")
    p.add_argument("--id-column", default="id")
    p.add_argument("--delimiter", type=_checked(_character), default=",")
    p.add_argument("--block-on")
    p.add_argument("-q", type=_checked(_count), default=2)
    p.add_argument("--workers", type=_checked(_count),
                   help="accepted and ignored: featurize runs in one process")
    p.add_argument("-o", "--out", required=True, type=_output_file)
    p.set_defaults(func=cmd_featurize)

    p = subs.add_parser("partition", help="build and persist a subspace partition")
    p.add_argument("--instances", required=True)
    p.add_argument("--split-features", type=_listed(int),
                   help="comma-separated feature indices for the median split")
    p.add_argument("-o", "--out", required=True, type=_output_file)
    p.set_defaults(func=cmd_partition)

    p = subs.add_parser("train", parents=[shared], help="train on an instance file")
    p.add_argument("--seed-budget", type=int, required=True)
    p.add_argument("--checkpoints", action="store_true")
    p.add_argument("-o", "--out", required=True, type=_output_dir(*_TRAIN_FILES))
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("predict", help="label held-out instances with a trained model")
    p.add_argument("--instances", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("-o", "--out", required=True, type=_output_file)
    p.set_defaults(func=cmd_predict)

    p = subs.add_parser("evaluate", help="score predicted labels against truth")
    p.add_argument("--predicted", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("-o", "--out", type=_output_file)
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("ablate", parents=[shared],
                        help="variant x label-cost x seed experiment grid")
    p.add_argument("--budgets", type=_listed(int, distinct=True),
                   help="comma-separated label budgets")
    p.add_argument("--fractions", type=_listed(_fraction, distinct=True),
                   help="comma-separated train fractions")
    p.add_argument("--variants", type=_listed(_variant, distinct=True), default="full")
    p.add_argument("--seeds", type=_checked(_count), default=3,
                   help="number of seeds (base --seed + k)")
    p.add_argument("--workers", type=_checked(_count), default=os.cpu_count() or 1)
    p.add_argument("-o", "--out", type=_output_file)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
