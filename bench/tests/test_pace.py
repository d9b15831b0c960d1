"""Rescaling wall times to the host's nominal pace."""

import time

import pytest

import run_bench


def test_a_window_is_rescaled_by_the_probes_inside_it():
    # five 5 ms probes inside the window: the host ran at half its nominal pace
    probes = [(t, t + 0.005) for t in (0.0, 1.0, 2.0, 3.0, 4.0)] + [(9.0, 9.0025)]
    assert run_bench.at_nominal_pace(5.0, 0.0, probes) == pytest.approx(2.5)


def test_a_window_with_few_probes_uses_the_whole_repetition():
    probes = [(0.1, 0.105), (2.0, 2.0025), (3.0, 3.0025)]
    assert run_bench.at_nominal_pace(0.5, 0.0, probes) == pytest.approx(0.5)


def test_pace_probes_until_the_block_ends():
    with run_bench.Pace() as pace:
        time.sleep(0.3)
    assert pace.proc.returncode == 0
    assert len(pace.samples) >= 2
    assert all(begin < end for begin, end in pace.samples)
