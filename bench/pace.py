"""The host's pace: a fixed probe, timed over and over beside a repetition.

    python3 bench/pace.py

On a shared host the same command runs at a speed that drifts with the
other guests' load: on a 2-CPU VM, matchgan's train on one fixed input took
from 9.6 to 19.6 s within half an hour. This process runs a fixed probe every
PERIOD_S on the CPU that the measured process leaves free, until SIGTERM. The
probe does the kinds of work matchgan does (random lookups in a large dict
keyed by id pairs, small numpy products, a sort with tuple keys), so its
duration follows the host's speed for that work.

It prints "ready" once the probe's table is built, and on SIGTERM (or once
its parent has gone) one JSON list of [start, end] time.perf_counter()
pairs, one per probe. That clock is system-wide, so run_bench can match the
probes to each command's window.
"""

from __future__ import annotations

import json
import os
import random
import signal
import sys
import time

import numpy as np

PERIOD_S = 0.05
TABLE_SIZE = 200_000
LOOKUPS = 2_000


def main() -> int:
    stop = False

    def on_term(signum, frame):
        nonlocal stop
        stop = True

    signal.signal(signal.SIGTERM, on_term)
    rng = random.Random(0)
    keys = [(f"a{i:06d}", f"b{i * 7919 % TABLE_SIZE:06d}") for i in range(TABLE_SIZE)]
    table = {key: i for i, key in enumerate(keys)}
    probe_keys = [keys[rng.randrange(TABLE_SIZE)] for _ in range(LOOKUPS)]
    x = np.random.default_rng(0).random((100, 5))
    w = np.random.default_rng(1).random((5, 32))

    def probe() -> float:
        total = sum(table[key] for key in probe_keys)
        for _ in range(20):
            total += float(np.tanh(x @ w).sum())
        sorted(probe_keys[:500], key=lambda key: (key[1], key[0]))
        return total

    parent = os.getppid()
    print("ready", flush=True)
    samples = []
    while not stop and os.getppid() == parent:
        start = time.perf_counter()
        probe()
        samples.append((start, time.perf_counter()))
        time.sleep(PERIOD_S)
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
