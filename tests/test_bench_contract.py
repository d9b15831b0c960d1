"""The names that the benchmark reaches in matchgan still resolve.

bench/layers.py wraps every TARGETS entry with Tracer.wrap, which replaces
an attribute that its owner defines itself, and the bench scripts import
matchgan names inside their functions. A name that moved would otherwise
break only a traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("layers")


def test_every_trace_target_resolves_on_its_owner(layers):
    broken = []
    for owner, attr, _, _ in layers.TARGETS:
        try:
            resolved = layers._resolve(owner)
        except (ImportError, AttributeError) as exc:
            broken.append(f"{owner}: {exc}")
            continue
        if attr not in vars(resolved):
            broken.append(f"{owner} does not define {attr}")
    assert broken == []


def test_every_matchgan_name_the_bench_imports_resolves():
    names = [
        (node.module, alias.name)
        for path in sorted(BENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("matchgan")
        for alias in node.names
    ]
    assert ("matchgan.features", "write_instance_file") in names
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
