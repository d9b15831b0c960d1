"""One fresh benchmark process: make inputs, or run one repetition.

    python3 bench/child.py '<json spec>'

Modes (spec["mode"]):
  generate  write a workload's inputs; prints their sizes.
  pipeline  import matchgan, run spec["commands"] through matchgan.cli.main
            and print per-command wall times (with their time.perf_counter()
            start, to match them with bench/pace.py's probes) and exit
            codes, plus the peak resident memory of this process and its
            workers. With
            spec["trace"], every layers.TARGETS function is wrapped and the
            spans are written to spec["trace_path"] once all commands end.

The last stdout line is the result as JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_matchgan():
    sys.path.insert(0, str(ROOT / "src"))
    import matchgan.cli

    if not Path(matchgan.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"matchgan imported from {matchgan.cli.__file__}, not this checkout")
    return matchgan.cli


def _generate(spec) -> dict:
    _import_matchgan()
    import workloads

    return workloads.generate(
        workloads.WORKLOADS[spec["workload"]], spec["seed"], Path(spec["out"])
    )


def _pipeline(spec) -> dict:
    t0 = time.perf_counter()
    cli = _import_matchgan()
    import_s = time.perf_counter() - t0
    tracer = None
    if spec.get("trace"):
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
    results = []
    for name, argv in spec["commands"]:
        out = io.StringIO()
        span = tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), span:
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash is a failed operation, not a lost run
                print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
                code = -1
        results.append({"name": name, "start": start, "seconds": time.perf_counter() - start,
                        "exit": code, "stdout": out.getvalue()})
        if code != 0:
            break
    total_s = time.perf_counter() - t0
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if tracer is not None:
        tracer.restore()
        tracer.write(spec["trace_path"])
    return {"start": t0, "import_s": import_s, "total_s": total_s,
            "peak_rss_mb": peak_kib / 1024, "commands": results}


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = _generate(spec) if spec["mode"] == "generate" else _pipeline(spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
