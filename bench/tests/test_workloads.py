"""Small-scale copies of every workload, run untraced and traced."""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import layers
import run_bench
import workloads
from tracer import read_spans

SMALL = {
    "synth-100k": {"n_matches": 3},
    "records-cora": {"n_records": 30},
    "ablate-1k": {"n_matches": 3},
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_outputs_equal_untraced_outputs(name, tmp_path):
    workload = dataclasses.replace(workloads.WORKLOADS[name], **SMALL[name])
    inputs = tmp_path / "inputs"
    info = workloads.generate(workload, 4, inputs)
    prints = {}
    for mode in ("plain", "traced"):
        rep = tmp_path / mode
        rep.mkdir()
        trace = mode == "traced"
        seq = workloads.commands(workload, inputs, rep, workers=1 if trace else None)
        result = run_bench.spawn({"mode": "pipeline", "commands": seq, "trace": trace,
                                  "trace_path": str(rep / "spans.jsonl")})
        assert [c["exit"] for c in result["commands"]] == [0] * len(seq)
        prints[mode] = workloads.fingerprints(workload, rep)
        stdout = {c["name"]: c["stdout"] for c in result["commands"]}
        errors, f = workloads.check(workload, info, inputs, rep, stdout)
        assert errors == []
        assert 0.0 <= f <= 1.0
    assert prints["plain"] == prints["traced"]

    spans = read_spans(tmp_path / "traced" / "spans.jsonl")
    roots = [s.name for s in spans if s.parent < 0]
    assert roots == [f"cli.{cmd}" for cmd, _ in seq]


def test_check_catches_a_seed_id_in_the_labels(tmp_path):
    workload = dataclasses.replace(workloads.WORKLOADS["synth-100k"], n_matches=3)
    inputs = tmp_path / "inputs"
    info = workloads.generate(workload, 4, inputs)
    rep = tmp_path / "rep"
    rep.mkdir()
    seq = workloads.commands(workload, inputs, rep)
    result = run_bench.spawn({"mode": "pipeline", "commands": seq})
    stdout = {c["name"]: c["stdout"] for c in result["commands"]}
    labels = rep / "run" / "labels.tsv"
    lines = labels.read_text().splitlines()
    labeled = {tuple(line.split("\t")[:2]) for line in lines[1:]}
    ids, _, _ = workloads._read_instances(inputs / "instances.tsv")
    seed = next(pid for pid in ids if pid not in labeled)
    lines[1] = "\t".join([*seed, "N"])
    labels.write_text("\n".join(lines) + "\n")
    errors, _ = workloads.check(workload, info, inputs, rep, stdout)
    assert "labels.tsv contains a seed id" in errors


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((run_bench.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run_bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run_bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run_bench.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "ablate-1k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
