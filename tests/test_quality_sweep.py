"""The quality sweep's pinned plan and its collapse classifier."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "quality_sweep.py"
_spec = importlib.util.spec_from_file_location("quality_sweep", _PATH)
quality_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(quality_sweep)


def test_plan_is_pinned():
    # fixed before any result was seen: a re-seeded or resized sweep
    # would compare commits on different distributions
    assert quality_sweep.PLAN == (
        (10, tuple(range(301, 321))),
        (100, tuple(range(301, 321))),
        (1000, tuple(range(301, 311))),
    )
    assert (quality_sweep.IMBALANCE_RATE, quality_sweep.N_FEATURES,
            quality_sweep.SEPARATION) == (100, 4, 0.9)
    assert (quality_sweep.TRAIN_SEED, quality_sweep.SEED_BUDGET) == (61, 50)


def _report(f, matches, non_matches):
    return {"final": {"metrics": {"f_measure": f},
                      "pseudo_label_counts": {"M": matches, "N": non_matches}}}


@pytest.mark.parametrize(
    "report, expected",
    [
        (_report(0.98, 95, 900), False),
        (_report(0.0, 40, 900), True),  # both classes, none right
        (_report(0.0, 0, 960), True),  # every propagated label N
        (_report(0.02, 960, 0), True),  # every propagated label M
        (_report(1e-9, 1, 1), False),
    ],
)
def test_collapse_classifier(report, expected):
    assert quality_sweep.collapsed(report) is expected


def test_summary_of_hand_built_runs():
    summary = quality_sweep.summarize([1.0, 0.0, 0.5, 0.9], 1)
    assert summary == {"runs": 4, "mean_f": 0.6, "min_f": 0.0, "median_f": 0.7,
                       "collapsed": 1}
