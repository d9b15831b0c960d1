"""Compile-transient guard: the memory that compiling each module takes.

    python3 tools/compile_budget.py

Compiling a module holds its whole syntax tree at once. The benchmark runs
with PYTHONDONTWRITEBYTECODE=1, so every repetition compiles matchgan from
source and pays that peak. It jumps by about 250 KiB between 4,078 and
4,106 significant tokens (Python's tokens without comments and without the
NL tokens of blank or continued lines).

For every src/matchgan/*.py this prints the tracemalloc peak of
compile(source, path, "exec") in KiB and the module's significant-token
count. It exits 1 if any module's peak is above LIMIT_KIB.
"""

from __future__ import annotations

import io
import sys
import tokenize
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIMIT_KIB = 1427


def significant_tokens(source: str) -> int:
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return sum(tok.type not in (tokenize.COMMENT, tokenize.NL) for tok in tokens)


def compile_peak_kib(source: str, path: Path) -> float:
    tracemalloc.start()
    try:
        compile(source, str(path), "exec")
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def main() -> int:
    over = []
    print(f"{'module':<16} {'peak KiB':>9} {'tokens':>7}")
    for path in sorted((ROOT / "src" / "matchgan").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        peak = compile_peak_kib(source, path)
        print(f"{path.name:<16} {peak:>9,.0f} {significant_tokens(source):>7,}")
        if peak > LIMIT_KIB:
            over.append(path.name)
    if over:
        print(f"above {LIMIT_KIB:,} KiB: {', '.join(over)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
