"""Where a traced run wraps matchgan, and how its spans become layer metrics.

Each target is wrapped at the attribute its caller looks up: a function
imported by name into another module (``from .training import run``) is
wrapped in that module, and a function called through its module
(``nn.forward_batch``) is wrapped on the module itself. The similarity
kernel ``qgram_jaccard`` is bound as a default argument of
``featurize_pair``, so the kernel is timed at ``featurize_pair``.
"""

from __future__ import annotations

import importlib

from tracer import Tracer, percentile


def _pairs_written(args, kwargs, result):
    return {"pairs": result}


def _rows_read(args, kwargs, result):
    return {"rows": len(result[0])}


def _rows_in(args, kwargs, result):
    return {"rows": len(args[1])}


def _rounds(args, kwargs, result):
    return {"rounds": len(result.report["rounds"])}


def _iterations(args, kwargs, result):
    return {"iterations": result[2]["iterations"]}


def _propagated(args, kwargs, result):
    remaining = args[3] if len(args) > 3 else kwargs["remaining"]
    return {"scored": len(remaining), "taken": len(result)}


# (owner, attribute, span name, counter)
TARGETS = (
    ("matchgan.features", "featurize_pair", "features.featurize_pair", None),
    ("matchgan.cli", "featurize_to_file", "features.featurize_to_file", _pairs_written),
    ("matchgan.cli", "read_instance_file", "features.read_instance_file", _rows_read),
    ("matchgan.features.InstancePool", "__init__", "features.InstancePool", None),
    ("matchgan.cli", "load_records", "datasets.load_records", None),
    ("matchgan.cli", "load_gold", "datasets.load_gold", None),
    ("matchgan.cli", "build_partition", "diversity.build_partition", None),
    ("matchgan.diversity.SubspacePartition", "assign_all",
     "diversity.SubspacePartition.assign_all", None),
    ("matchgan.training", "diverse_sample", "diversity.diverse_sample", None),
    ("matchgan.training", "waterfill_counts", "diversity.waterfill_counts", None),
    ("matchgan.diversity", "waterfill_counts", "diversity.waterfill_counts", None),
    ("matchgan.nn", "discriminator_backward", "nn.discriminator_backward", None),
    ("matchgan.nn", "generator_backward", "nn.generator_backward", None),
    ("matchgan.nn", "classifier_backward", "nn.classifier_backward", None),
    ("matchgan.nn", "opt_step", "nn.opt_step", None),
    ("matchgan.nn", "forward_batch", "nn.forward_batch", _rows_in),
    ("matchgan.cli", "save_model", "nn.save_model", None),
    ("matchgan.cli", "run", "training.run", _rounds),
    ("matchgan.evaluation", "run", "training.run", _rounds),
    ("matchgan.training", "inner_train", "training.inner_train", _iterations),
    ("matchgan.training", "propagate", "training.propagate", _propagated),
    ("matchgan.training", "select_top", "training.select_top", None),
    ("matchgan.training", "select_seed_labels", "training.select_seed_labels", None),
    ("matchgan.cli", "write_report", "training.write_report", None),
    ("matchgan.cli", "compute_metrics", "evaluation.compute_metrics", None),
    ("matchgan.evaluation", "compute_metrics", "evaluation.compute_metrics", None),
    ("matchgan.cli", "evaluate_run", "evaluation.evaluate_run", None),
    ("matchgan.evaluation", "evaluate_run", "evaluation.evaluate_run", None),
    ("matchgan.evaluation", "run_cell", "evaluation.run_cell", None),
    ("matchgan.cli", "run_ablation_suite", "evaluation.run_ablation_suite", None),
)

LAYERS = ("cli", "datasets", "features", "diversity", "nn", "training", "evaluation")


def _resolve(dotted: str):
    """A module, or a class inside one, from its dotted path."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        module, _, cls = dotted.rpartition(".")
        return getattr(importlib.import_module(module), cls)


def install(tracer: Tracer) -> None:
    """Wrap every target; tracer.restore() undoes it."""
    for owner, attr, name, counter in TARGETS:
        tracer.wrap(_resolve(owner), attr, name, counter)


# name -> (unit, better); the names BENCHMARK.json lists under per_layer.
# A span a workload never reaches reports 0 calls and 0 s.
PER_LAYER = {
    "features.featurize_pair.calls": ("count", "lower"),
    "features.featurize_pair.self_s": ("s", "lower"),
    "features.featurize_pair.p50_us": ("us", "lower"),
    "features.featurize_pair.p99_us": ("us", "lower"),
    "features.featurize_to_file.self_s": ("s", "lower"),
    "features.read_instance_file.calls": ("count", "lower"),
    "features.read_instance_file.self_s": ("s", "lower"),
    "features.read_instance_file.us_per_row": ("us", "lower"),
    "features.InstancePool.self_s": ("s", "lower"),
    "features.instance_file.bytes": ("bytes", "lower"),
    "features.self_s": ("s", "lower"),
    "datasets.load_records.self_s": ("s", "lower"),
    "datasets.load_gold.self_s": ("s", "lower"),
    "diversity.build_partition.self_s": ("s", "lower"),
    "diversity.SubspacePartition.assign_all.self_s": ("s", "lower"),
    "diversity.diverse_sample.self_s": ("s", "lower"),
    "diversity.waterfill_counts.calls": ("count", "lower"),
    "diversity.waterfill_counts.self_s": ("s", "lower"),
    "diversity.self_s": ("s", "lower"),
    "nn.discriminator_backward.calls": ("count", "lower"),
    "nn.discriminator_backward.self_s": ("s", "lower"),
    "nn.discriminator_backward.p50_us": ("us", "lower"),
    "nn.discriminator_backward.p99_us": ("us", "lower"),
    "nn.generator_backward.calls": ("count", "lower"),
    "nn.generator_backward.self_s": ("s", "lower"),
    "nn.generator_backward.p50_us": ("us", "lower"),
    "nn.generator_backward.p99_us": ("us", "lower"),
    "nn.classifier_backward.calls": ("count", "lower"),
    "nn.classifier_backward.self_s": ("s", "lower"),
    "nn.opt_step.calls": ("count", "lower"),
    "nn.opt_step.self_s": ("s", "lower"),
    "nn.opt_step.p50_us": ("us", "lower"),
    "nn.forward_batch.calls": ("count", "lower"),
    "nn.forward_batch.rows": ("count", "lower"),
    "nn.forward_batch.self_s": ("s", "lower"),
    "nn.save_model.self_s": ("s", "lower"),
    "nn.self_s": ("s", "lower"),
    "training.run.calls": ("count", "lower"),
    "training.run.self_s": ("s", "lower"),
    "training.rounds": ("count", "lower"),
    "training.inner_train.calls": ("count", "lower"),
    "training.inner_train.self_s": ("s", "lower"),
    "training.inner_train.us_per_iter": ("us", "lower"),
    "training.propagate.calls": ("count", "lower"),
    "training.propagate.self_s": ("s", "lower"),
    "training.propagate.scored": ("count", "lower"),
    "training.propagate.taken": ("count", "higher"),
    "training.propagate.take_ratio": ("1", "higher"),
    "training.select_top.self_s": ("s", "lower"),
    "training.select_seed_labels.self_s": ("s", "lower"),
    "training.write_report.self_s": ("s", "lower"),
    "training.self_s": ("s", "lower"),
    "evaluation.compute_metrics.calls": ("count", "lower"),
    "evaluation.compute_metrics.self_s": ("s", "lower"),
    "evaluation.evaluate_run.self_s": ("s", "lower"),
    "evaluation.run_cell.calls": ("count", "lower"),
    "evaluation.run_cell.self_s": ("s", "lower"),
    "evaluation.run_ablation_suite.self_s": ("s", "lower"),
    "evaluation.self_s": ("s", "lower"),
    "cli.featurize.self_s": ("s", "lower"),
    "cli.partition.self_s": ("s", "lower"),
    "cli.train.self_s": ("s", "lower"),
    "cli.evaluate.self_s": ("s", "lower"),
    "cli.ablate.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "quality.f_measure": ("1", "higher"),
    "bench.trace_overhead_ratio": ("1", "lower"),
    "matchgan.src_lines": ("lines", "lower"),
}


def layer_metrics(summary: dict[str, dict]) -> dict[str, float]:
    """Per-layer figures from a span summary (see tracer.summarize)."""
    def self_s(name):
        entry = summary.get(name)
        return entry["self_s"] if entry else 0.0

    def count(name, key):
        entry = summary.get(name)
        return entry["counts"].get(key, 0) if entry else 0

    def pct(name, p):
        entry = summary.get(name)
        return percentile(entry["durations"], p) * 1e6 if entry else 0.0

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            e["self_s"] for n, e in summary.items() if n.split(".", 1)[0] == layer
        )
    for name, entry in summary.items():
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.self_s"] = entry["self_s"]
        out[f"{name}.total_s"] = entry["total_s"]
        for key, n in entry["counts"].items():
            out[f"{name}.{key}"] = n
    for name in ("features.featurize_pair", "nn.discriminator_backward",
                 "nn.generator_backward", "nn.opt_step"):
        out[f"{name}.p50_us"] = pct(name, 50)
        out[f"{name}.p99_us"] = pct(name, 99)
    rows = count("features.read_instance_file", "rows")
    out["features.read_instance_file.us_per_row"] = (
        self_s("features.read_instance_file") / rows * 1e6 if rows else 0.0
    )
    iters = count("training.inner_train", "iterations")
    out["training.inner_train.us_per_iter"] = (
        self_s("training.inner_train") / iters * 1e6 if iters else 0.0
    )
    scored = count("training.propagate", "scored")
    out["training.propagate.scored"] = scored
    out["training.propagate.taken"] = count("training.propagate", "taken")
    out["training.propagate.take_ratio"] = (
        out["training.propagate.taken"] / scored if scored else 0.0
    )
    out["training.rounds"] = count("training.run", "rounds")
    out["nn.forward_batch.rows"] = count("nn.forward_batch", "rows")
    for name in PER_LAYER:
        out.setdefault(name, 0)
    return out
