"""Pipeline benchmark for matchgan.

    python3 bench/run_bench.py --workload synth-100k --seed 1 --seconds 30 --trace 0

Run from the root of a matchgan checkout. The workload's inputs are made
from --seed in a separate process, so making them affects neither timings
nor memory. Each repetition then runs the workload's matchgan command
sequence through matchgan.cli.main in one fresh process, with the CLI's
default worker count, until the next one would end after --seconds (at
least twice).
Outputs are checked and fingerprinted; a fingerprint that differs from an
earlier repetition of the same code, in this run or an earlier one, is a
failed operation.

--trace 0 reports the end-to-end metrics (medians over repetitions). Their
times are wall times rescaled to the host's nominal pace: bench/pace.py
times a fixed probe beside each repetition, and a command's wall time is
multiplied by NOMINAL_PROBE_S over the median probe time during it. On a
shared host the raw wall times drift with the other guests' load; they are
printed beside the rescaled ones.
--trace 1 runs the sequence once untraced and once with every layer
function wrapped (fan-out commands get --workers 1, so every span lands
in one process) and reports per-layer metrics from the spans.

Human-readable lines come first; the last stdout line is the result JSON.
Per-run details, including the environment, go to .bench_results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD_TIMEOUT_S = 120
# main() sets this so that every child ends within RUN_LIMIT_S of the start
RUN_LIMIT_S = 170
deadline: float | None = None
# setup_s is the median of this many fresh-process samples of import + partition
SETUP_SAMPLES = 3
MIN_REPS = 2
# bench/pace.py's probe takes about this long on a quiet 2-CPU Xeon VM; it
# sets the scale of the rescaled times
NOMINAL_PROBE_S = 0.0025
# a window with fewer probes is rescaled by its whole repetition's pace
MIN_PROBES = 5
FAN_OUT = ("featurize", "ablate")
# numpy's BLAS gets one thread in every process: more threads gain the
# program nothing here, they only spin on the shared CPUs
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
# the command that produced each fingerprinted artifact
PRODUCER = {"partition.json": "partition", "instances.tsv": "featurize",
            "run/labels.tsv": "train", "run/report.json": "train", "cells.tsv": "ablate"}
END_TO_END = {"pipeline_norm_s": "s", "setup_s": "s", "train_norm_s": "s",
              "peak_rss_mb": "MiB"}
# printed with the end-to-end metrics but left out of the result line: raw
# wall times drift with the host's load, a workload without featurize has
# no pair rate, fail_ratio is 0 on a good run, and f_measure is fixed by the
# seed (see bench/README.md)
ALSO_PRINTED = {"pipeline_s": "s", "train_s": "s", "probe_ms": "ms",
                "featurize_pairs_per_s": "pairs/s", "f_measure": "1", "fail_ratio": "1"}

# output checks recompute seed selection with the checkout's own matchgan
sys.path[:0] = [str(BENCH), str(ROOT / "src")]
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import read_spans, summarize  # noqa: E402


class Ledger:
    """Operations attempted and failed. An operation is one command
    invocation; several faults in one invocation fail it once."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self._failed: set[str] = set()

    def fail(self, op: str, reason: str) -> None:
        self._failed.add(op)
        self.failures.append(f"{op}: {reason}")

    @property
    def failed(self) -> int:
        return len(self._failed)


class Pace:
    """bench/pace.py running for the length of a with block; afterwards
    samples holds its probes as [start, end] pairs."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "pace.py")], cwd=ROOT,
            env={**os.environ, **ONE_THREAD}, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        self.proc.stdout.readline()  # "ready": the probe's table is built
        return self

    def __exit__(self, *exc_info):
        self.proc.terminate()
        try:
            out, _ = self.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        try:
            self.samples = json.loads(out)
        except ValueError:
            self.samples = []
        return False


def at_nominal_pace(seconds: float, start: float, probes: list) -> float:
    """A wall time that began at perf_counter() start, rescaled by
    NOMINAL_PROBE_S over the median probe time within it, or within the
    whole repetition if it holds fewer than MIN_PROBES probes."""
    inside = [end - begin for begin, end in probes
              if begin >= start and end <= start + seconds]
    if len(inside) < MIN_PROBES:
        inside = [end - begin for begin, end in probes]
    return seconds * NOMINAL_PROBE_S / statistics.median(inside)


def spawn(spec: dict, paced: bool = False) -> dict:
    """Run child.py in its own session; return its JSON result. With paced,
    bench/pace.py runs beside it and result["probes"] holds its probes.
    Raises RuntimeError if the child times out, fails or prints no result,
    or if the pace probe gave none."""
    timeout = CHILD_TIMEOUT_S
    if deadline is not None:
        timeout = max(1.0, min(timeout, deadline - time.monotonic()))
    pace = Pace() if paced else contextlib.nullcontext()
    with pace:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            cwd=ROOT, env={**os.environ, **ONE_THREAD}, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"{spec['mode']} timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        try:  # a child that died abnormally may leave its workers behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        raise RuntimeError(f"{spec['mode']} exited {proc.returncode}: {err.strip()[-500:]}")
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise RuntimeError(f"{spec['mode']} printed no result") from None
    if paced:
        if not pace.samples:
            raise RuntimeError("bench/pace.py gave no probes")
        result["probes"] = pace.samples
    return result


def code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "matchgan").glob("*.py"), *BENCH.glob("*.py")]):
        digest.update(path.name.encode() + path.read_bytes())
    return digest.hexdigest()[:16]


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "matchgan").glob("*.py"))


class Fingerprints:
    """First fingerprints seen for (workload, seed, code), kept across runs."""

    def __init__(self, workload: str, seed: int):
        self.path = ROOT / ".bench_work" / "fingerprints" / f"{workload}-{seed}-{code_hash()}.json"
        self.first = json.loads(self.path.read_text()) if self.path.exists() else None

    def compare(self, prints: dict, ledger: Ledger, rep: str) -> None:
        if self.first is None:
            self.first = prints
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(prints, indent=1, sort_keys=True))
            os.replace(tmp, self.path)
            return
        for name, digest in prints.items():
            if self.first.get(name) != digest:
                ledger.fail(f"{rep}/{PRODUCER[name]}", f"{name} differs from the first run")


def run_rep(workload, info, inputs: Path, rep: Path, ledger: Ledger, prints: Fingerprints,
            full_check: bool, trace: bool = False, paced: bool = False) -> dict | None:
    """One repetition in a fresh process. Returns its result, or None if a
    command failed or the process died or timed out. With paced, the result
    also holds its times at nominal pace."""
    rep.mkdir(parents=True)
    seq = workloads.commands(workload, inputs, rep, workers=1 if trace else None)
    spec = {"mode": "pipeline", "commands": seq, "trace": trace,
            "trace_path": str(rep / "spans.jsonl")}
    try:
        result = spawn(spec, paced)
    except RuntimeError as exc:
        ledger.attempted += len(seq)
        ledger.fail(f"{rep.name}/process", str(exc))
        return None
    ledger.attempted += len(result["commands"])
    for cmd in result["commands"]:
        if cmd["exit"] != 0:
            ledger.fail(f"{rep.name}/{cmd['name']}", f"exit code {cmd['exit']}")
            return None
    result["seconds"] = {c["name"]: c["seconds"] for c in result["commands"]}
    if paced:
        add_nominal(result)
    stdout = {c["name"]: c["stdout"] for c in result["commands"]}
    op = f"{rep.name}/{workload.trains_with}"
    try:
        result["fingerprints"] = workloads.fingerprints(workload, rep)
        prints.compare(result["fingerprints"], ledger, rep.name)
        errors = []
        if full_check:
            errors, result["f_measure"] = workloads.check(workload, info, inputs, rep, stdout)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        ledger.fail(op, f"outputs unreadable: {exc!r}")
        return None
    for err in errors:
        ledger.fail(op, err)
    return result


def add_nominal(result: dict) -> None:
    """Add the repetition's times at nominal pace."""
    probes = result["probes"]
    result["nominal_s"] = {c["name"]: at_nominal_pace(c["seconds"], c["start"], probes)
                           for c in result["commands"]}
    result["total_nominal_s"] = at_nominal_pace(result["total_s"], result["start"], probes)
    result["import_nominal_s"] = at_nominal_pace(result["import_s"], result["start"], probes)


def setup_seconds(result: dict) -> float:
    return result["import_nominal_s"] + result["nominal_s"]["partition"]


def timed_run(workload, info, inputs: Path, work: Path, seconds: float, ledger: Ledger,
              prints: Fingerprints) -> dict:
    start = time.perf_counter()
    reps = []
    while True:
        result = run_rep(workload, info, inputs, work / f"rep{len(reps)}", ledger, prints,
                         full_check=not reps, paced=True)
        if result is None:
            return {}
        reps.append(result)
        elapsed = time.perf_counter() - start
        if (len(reps) >= MIN_REPS
                and elapsed + statistics.median(r["total_s"] for r in reps) > seconds):
            break
    setups = [setup_seconds(r) for r in reps]
    instances = str(workloads.instance_path(workload, inputs, work / "rep0"))
    while len(setups) < SETUP_SAMPLES:
        probe = work / f"setup{len(setups)}.json"
        ledger.attempted += 1
        try:
            result = spawn({"mode": "pipeline", "commands": [
                ("partition", workloads.partition_argv(instances, str(probe)))]}, paced=True)
        except RuntimeError as exc:
            ledger.fail(f"{probe.stem}/partition", str(exc))
            return {}
        if result["commands"][0]["exit"] != 0:
            ledger.fail(f"{probe.stem}/partition", "setup probe failed")
            return {}
        if workloads.sha256(probe) != reps[0]["fingerprints"]["partition.json"]:
            ledger.fail(f"{probe.stem}/partition", "partition.json differs from the first run")
        add_nominal(result)
        setups.append(setup_seconds(result))

    trainer = workload.trains_with
    metrics = {
        "pipeline_norm_s": statistics.median(r["total_nominal_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "train_norm_s": statistics.median(r["nominal_s"][trainer] for r in reps),
        "pipeline_s": statistics.median(r["total_s"] for r in reps),
        "train_s": statistics.median(r["seconds"][trainer] for r in reps),
        "probe_ms": 1000 * statistics.median(end - begin for r in reps
                                             for begin, end in r["probes"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "f_measure": reps[0]["f_measure"],
    }
    if "featurize" in reps[0]["seconds"]:
        metrics["featurize_pairs_per_s"] = statistics.median(
            info["pairs"] / r["seconds"]["featurize"] for r in reps)
    return {"metrics": metrics, "repetitions": len(reps), "setup_samples": setups,
            "fingerprints": reps[0]["fingerprints"]}


def traced_run(workload, info, inputs: Path, work: Path, ledger: Ledger,
               prints: Fingerprints) -> dict:
    plain = run_rep(workload, info, inputs, work / "plain", ledger, prints, full_check=True)
    if plain is None:
        return {}
    traced = run_rep(workload, info, inputs, work / "traced", ledger, prints, full_check=False,
                     trace=True)
    if traced is None:
        return {}
    summary = summarize(read_spans(work / "traced" / "spans.jsonl"))
    metrics = layers.layer_metrics(summary)
    in_process = [name for name in plain["seconds"] if name not in FAN_OUT]
    metrics["bench.trace_overhead_ratio"] = (
        sum(traced["seconds"][n] for n in in_process) / sum(plain["seconds"][n] for n in in_process))
    metrics["features.instance_file.bytes"] = workloads.instance_path(
        workload, inputs, work / "plain").stat().st_size
    metrics["quality.f_measure"] = plain["f_measure"]
    metrics["matchgan.src_lines"] = src_lines()
    return {"metrics": metrics, "summary": summary,
            "expectation": expectation(workload.name, summary, traced["seconds"]),
            "fingerprints": plain["fingerprints"]}


def expectation(name: str, summary: dict, seconds: dict) -> str:
    """Check the workload's stated reason against the traced self times."""
    def self_s(prefix):
        return sum(e["self_s"] for n, e in summary.items() if n.startswith(prefix))

    if name == "ablate-1k":
        shares = {layer: self_s(layer + ".") / seconds["ablate"]
                  for layer in ("cli", "features", "diversity", "nn", "training", "evaluation")}
        top = max(shares, key=shares.get)
        verdict = "confirmed" if top == "nn" else f"corrected: {top} is largest"
        return f"nn.* is the largest share of ablate ({shares['nn']:.0%}): {verdict}"
    if name == "synth-100k":
        book = (self_s("training.") + self_s("evaluation.compute_metrics")
                + self_s("features.read_instance_file"))
        nn = self_s("nn.")
        verdict = "confirmed" if book > nn else "corrected"
        return f"bookkeeping + reads {book:.2f} s exceed nn.* {nn:.2f} s: {verdict}"
    kernel = self_s("features.featurize_pair")
    share = kernel / seconds["featurize"]
    verdict = "confirmed" if share > 0.5 else "corrected"
    return f"featurize_pair is {share:.0%} of featurize: {verdict}"


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(),
            "workers": os.cpu_count(), "traced_fan_out_workers": 1,
            "matchgan.src_lines": src_lines()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    global deadline
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "matchgan" / "__init__.py").is_file():
        print(f"error: no matchgan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    ledger = Ledger()
    prints = Fingerprints(args.workload, args.seed)
    try:
        info = spawn({"mode": "generate", "workload": args.workload, "seed": args.seed,
                      "out": str(inputs)})
        if args.trace:
            run = traced_run(workload, info, inputs, work, ledger, prints)
        else:
            run = timed_run(workload, info, inputs, work, args.seconds, ledger, prints)
    except RuntimeError as exc:  # only making the inputs raises; commands are operations
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {json.dumps(info)}")
    units = {n: u for n, (u, _) in layers.PER_LAYER.items()} if args.trace else END_TO_END
    metrics = run.get("metrics", {})
    if args.trace and run:
        _print_breakdown(run["summary"])
        print(f"expectation: {run['expectation']}")
    elif run:
        print(f"repetitions {run['repetitions']}, setup samples {len(run['setup_samples'])}")
        shown = {**metrics, "fail_ratio": ledger.failed / max(ledger.attempted, 1)}
        for name, unit in {**END_TO_END, **ALSO_PRINTED}.items():
            if name in shown:
                print(f"{name:<24}{shown[name]:>14.4f} {unit}")
    for name, digest in run.get("fingerprints", {}).items():
        print(f"sha256 {name} {digest}")
    for failure in ledger.failures:
        print(f"FAILED {failure}")

    correct = bool(run) and not ledger.failures
    result = {
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed if ledger.attempted else 1,
        "metrics": {n: {"value": metrics.get(n, 0), "unit": u} for n, u in units.items()},
    }
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    detail = {**result, "workload": args.workload, "seed": args.seed, "inputs": info,
              "environment": environment(), "all_metrics": metrics,
              "failures": ledger.failures, "fingerprints": run.get("fingerprints"),
              "expectation": run.get("expectation")}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def _print_breakdown(summary: dict) -> None:
    print(f"{'span':<44}{'calls':>9}{'self_s':>10}{'total_s':>10}")
    for name, e in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:<44}{e['calls']:>9}{e['self_s']:>10.3f}{e['total_s']:>10.3f}")
    # a command's own self time is what no wrapped function covers; a large
    # share points at a layer function the targets miss
    for name, e in summary.items():
        if name.startswith("cli."):
            print(f"{name} self time, not in any wrapped function: "
                  f"{e['self_s'] / e['total_s']:.1%}")


if __name__ == "__main__":
    sys.exit(main())
