"""Median-split subspace partitioning and diversity-maximizing sampling.

Instances are assigned to one of 2^k subspaces by comparing k feature
values against per-feature medians. Minibatch selection maximizes the
l2,1 norm of the per-subspace selection counts (sum of square roots),
which for a binary selection vector spreads the budget across as many
subspaces as possible. The objective is separable and concave, so greedy
water-filling is exactly optimal.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

PARTITION_FORMAT_VERSION = 1

# Medians are estimated from a uniform sample when pools exceed this size.
MEDIAN_SAMPLE_CAP = 1_000_000


def compute_medians(features: np.ndarray) -> np.ndarray:
    """Per-feature median; even-length columns use the lower-middle value."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ValueError("median computation needs a non-empty 2-D sample")
    ordered = np.sort(features, axis=0)
    return ordered[(features.shape[0] - 1) // 2]


@dataclass
class SubspacePartition:
    """Median thresholds over selected features and the induced assignment.

    subspaces[r] is the subspace of row r of the feature matrix that
    assign_all last saw.
    """

    medians: np.ndarray
    feature_indices: tuple[int, ...]
    subspaces: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))

    def __post_init__(self):
        self.medians = np.asarray(self.medians, dtype=np.float64)
        if len(self.feature_indices) != self.medians.shape[0]:
            raise ValueError("one median per selected feature required")

    @property
    def b(self) -> int:
        return 1 << len(self.feature_indices)

    def assign_all(self, ids: Sequence, features: np.ndarray) -> None:
        """Assign every row of features; ids[r] names row r. Bit k of a
        row's subspace is set iff selected feature k exceeds medians[k], so
        the first is the least-significant bit and a tie falls on the 0 side."""
        if len(ids) != features.shape[0]:
            raise ValueError(f"{len(ids)} ids for {features.shape[0]} feature rows")
        _check_feature_indices(self.feature_indices, features.shape[1])
        bits = features[:, list(self.feature_indices)] > self.medians
        self.subspaces = bits @ (1 << np.arange(bits.shape[1]))

    def populations(self, rows: np.ndarray | None = None) -> list[np.ndarray]:
        """Per-subspace arrays of the given rows (default: every assigned
        row), ascending within each subspace."""
        if rows is None:
            rows = np.arange(len(self.subspaces))
        subs = self.subspaces[rows]
        grouped = rows[np.argsort(subs, kind="stable")]
        return np.split(grouped, np.cumsum(np.bincount(subs, minlength=self.b))[:-1])


def _check_feature_indices(feature_indices: Sequence[int], n_features: int) -> None:
    for ix in feature_indices:
        if not 0 <= ix < n_features:
            raise ValueError(f"feature index {ix} outside the {n_features} features")


def build_partition(
    ids: Sequence,
    features: np.ndarray,
    feature_indices: Sequence[int] | None = None,
    rng: np.random.Generator | None = None,
) -> SubspacePartition:
    """Compute medians (on a capped uniform sample) and assign every instance."""
    features = np.asarray(features, dtype=np.float64)
    if feature_indices is None:
        feature_indices = tuple(range(features.shape[1]))
    else:
        feature_indices = tuple(feature_indices)
        _check_feature_indices(feature_indices, features.shape[1])
    sample = features
    if features.shape[0] > MEDIAN_SAMPLE_CAP:
        rng = rng or np.random.default_rng(0)
        rows = rng.choice(features.shape[0], size=MEDIAN_SAMPLE_CAP, replace=False)
        sample = features[np.sort(rows)]
    medians = compute_medians(sample[:, list(feature_indices)])
    part = SubspacePartition(medians=medians, feature_indices=feature_indices)
    part.assign_all(ids, features)
    return part


def l21_norm(counts: Sequence[int]) -> float:
    """Sum of square roots of the per-subspace selection counts."""
    if any(c < 0 for c in counts):
        raise ValueError("counts must be non-negative")
    return float(sum(math.sqrt(c) for c in counts))


@dataclass
class DiversitySelection:
    counts: list[int]
    selected_ids: list
    budget: int


def waterfill_counts(populations_sizes: Sequence[int], m: int) -> list[int]:
    """Exact maximizer of sum(sqrt(c_i)) s.t. sum(c_i) = m, c_i <= n_i.

    Greedy increments: the marginal gain sqrt(c+1) - sqrt(c) is largest at
    the smallest current count, so each unit goes to a feasible subspace
    with the minimum count, ties broken by subspace index.
    """
    total = sum(populations_sizes)
    if m > total:
        raise ValueError(f"budget {m} exceeds population {total}")
    counts = [0] * len(populations_sizes)
    # heap of (current count, subspace index) over non-full subspaces
    heap = [(0, i) for i, n in enumerate(populations_sizes) if n > 0]
    heapq.heapify(heap)
    for _ in range(m):
        c, i = heapq.heappop(heap)
        counts[i] = c + 1
        if counts[i] < populations_sizes[i]:
            heapq.heappush(heap, (counts[i], i))
    return counts


def diverse_sample(
    populations: Sequence[Sequence], m: int, rng: np.random.Generator
) -> DiversitySelection:
    """Select m instance ids spread over as many subspaces as possible.

    Counts follow the exact water-filling optimum; within each subspace the
    ids are chosen uniformly at random without replacement.
    """
    counts = waterfill_counts([len(p) for p in populations], m)
    selected: list = []
    for pop, c in zip(populations, counts):
        if c == 0:
            continue
        if c == len(pop):
            selected.extend(pop)
        else:
            picks = rng.choice(len(pop), size=c, replace=False)
            selected.extend(pop[k] for k in np.sort(picks))
    return DiversitySelection(counts=counts, selected_ids=selected, budget=m)


def save_partition(part: SubspacePartition, path: str | Path) -> None:
    payload = {
        "format_version": PARTITION_FORMAT_VERSION,
        "feature_indices": list(part.feature_indices),
        "medians": [repr(v) for v in part.medians.tolist()],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_partition(path: str | Path) -> SubspacePartition:
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a partition file")
    version = payload.get("format_version")
    if version != PARTITION_FORMAT_VERSION:
        raise ValueError(f"unsupported partition format version {version!r}")
    indices, medians = payload.get("feature_indices"), payload.get("medians")
    if not isinstance(indices, list) or any(type(ix) is not int or ix < 0 for ix in indices):
        raise ValueError(f"{path}: feature_indices must be a list of non-negative integers")
    try:
        medians = np.array([float(v) for v in medians], dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"{path}: medians must be a list of numbers") from None
    return SubspacePartition(medians=medians, feature_indices=tuple(indices))
