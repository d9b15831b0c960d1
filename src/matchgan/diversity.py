"""Median-split subspace partitioning and diversity-maximizing sampling.

Instances are assigned to one of 2^k subspaces by comparing k feature
values against per-feature medians. Minibatch selection maximizes the
l2,1 norm of the per-subspace selection counts (sum of square roots),
which for a binary selection vector spreads the budget across as many
subspaces as possible. The objective is separable and concave, so greedy
water-filling is exactly optimal. Seed labels are one such draw
(diverse_sample); a MinibatchSampler lays out one run's
water-filled subspaces once and draws many minibatches at a time, each a
row of distinct picks (distinct_picks). Over a partition that splits on
no feature there is one subspace, and both draws are uniform.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .datasets import open_text

PARTITION_FORMAT_VERSION = 1


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
        """The given rows (default: every assigned row) of each occupied
        subspace, in ascending subspace order; each keeps the rows' order.
        An empty subspace has no entry, so 2^k is never allocated."""
        if rows is None:
            rows = np.arange(len(self.subspaces))
        subs = self.subspaces[rows]
        order = np.argsort(subs, kind="stable")
        # a subspace starts where the sorted id changes (ids are never -1)
        return np.split(rows[order], np.flatnonzero(np.diff(subs[order], prepend=-1)))[1:]


def _check_feature_indices(feature_indices: Sequence[int], n_features: int) -> None:
    if len(feature_indices) > 63:
        # bit k of an int64 subspace id weighs 1 << k
        raise ValueError(f"{len(feature_indices)} split features exceed the limit of 63")
    for ix in feature_indices:
        if not 0 <= ix < n_features:
            raise ValueError(f"feature index {ix} outside the {n_features} features")
    if len(set(feature_indices)) != len(feature_indices):
        raise ValueError(f"feature indices {list(feature_indices)} repeat an index")


def build_partition(
    ids: Sequence,
    features: np.ndarray,
    feature_indices: Sequence[int] | None = None,
) -> SubspacePartition:
    """Compute each selected feature's median over every row and assign
    every instance."""
    features = np.asarray(features, dtype=np.float64)
    if feature_indices is None:
        feature_indices = tuple(range(features.shape[1]))
    else:
        feature_indices = tuple(feature_indices)
        _check_feature_indices(feature_indices, features.shape[1])
    medians = compute_medians(features[:, list(feature_indices)])
    part = SubspacePartition(medians=medians, feature_indices=feature_indices)
    part.assign_all(ids, features)
    return part


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


def diverse_sample(populations: Sequence[Sequence], m: int, rng: np.random.Generator) -> list:
    """Select m members spread over as many subspaces as possible.

    Counts follow the exact water-filling optimum; within each subspace the
    members are chosen uniformly at random without replacement. Returns the
    selected members, subspace by subspace.
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
    return selected


def distinct_picks(
    rng: np.random.Generator, lo: np.ndarray, hi: np.ndarray, n: int
) -> np.ndarray:
    """n rows of picks: pick k of a row is lo[k] + i with i uniform below hi[k].

    Within a row, a slot that repeats an earlier slot's pick is drawn again
    until no pick repeats. The rule is blind to which values were picked,
    so slots that share a range hold a uniform sample without replacement.
    """
    width = len(hi)
    pos = lo + rng.integers(0, hi, size=(n, width))
    slots = np.arange(width)
    rows = np.arange(n)
    sub = pos
    while True:
        # sorting pick * width + slot puts equal picks side by side, the
        # earliest slot first
        key = np.sort(sub * width + slots, axis=1)
        pick = key // width
        repeat = pick[:, 1:] == pick[:, :-1]
        r, j = np.nonzero(repeat)
        if not len(r):
            return pos
        slot = key[r, j + 1] % width
        pos[rows[r], slot] = lo[slot] + rng.integers(0, hi[slot])
        # only rows that held a repeat changed
        rows = rows[repeat.any(axis=1)]
        sub = pos[rows]


def uniform_subsets(rng: np.random.Generator, size: int, k: int, n: int) -> np.ndarray:
    """n rows of k distinct positions below size, each a uniform k-subset."""
    if k == size:
        return np.broadcast_to(np.arange(size), (n, size))
    if 2 * k > size:
        # draw the fewer positions to leave out
        keep = np.ones((n, size), dtype=bool)
        keep[np.arange(n)[:, None], uniform_subsets(rng, size, size - k, n)] = False
        return np.nonzero(keep)[1].reshape(n, k)
    return distinct_picks(rng, np.zeros(k, dtype=np.intp), np.full(k, size), n)


class MinibatchSampler:
    """A run's source of minibatches over its fixed unlabeled rows, drawn a
    chunk of iterations at a time.

    Subspace populations do not change within a run, so the diversity
    allocation (water-filling counts) is computed once, and so is a flat
    array of the subspaces drawn from: a subspace whose count equals its
    size is taken whole, the others are laid end to end in population.
    Slot k of a minibatch picks population[lo[k] + i] with i uniform below
    hi[k], where lo and hi are its subspace's offset and size, and no two
    slots of a minibatch pick the same row (distinct_picks). Over a
    one-subspace partition every minibatch is a uniform subset of the rows.
    """

    def __init__(self, partition: SubspacePartition, u_rows: np.ndarray, size: int):
        self.size = size
        pops = partition.populations(u_rows)
        counts = waterfill_counts([len(p) for p in pops], size)
        none = np.empty(0, dtype=np.intp)
        self.whole = np.concatenate([none, *(p for p, c in zip(pops, counts) if c == len(p))])
        drawn = [(p, c) for p, c in zip(pops, counts) if 0 < c < len(p)]
        sizes = np.array([len(p) for p, _ in drawn], dtype=np.intp)
        slots = [c for _, c in drawn]
        self.population = np.concatenate([none, *(p for p, _ in drawn)])
        self.lo = np.repeat(np.cumsum(sizes) - sizes, slots)
        self.hi = np.repeat(sizes, slots)

    def chunk(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n minibatches of pool rows, one per row of the result."""
        out = np.empty((n, self.size), dtype=np.intp)
        out[:, : len(self.whole)] = self.whole
        out[:, len(self.whole) :] = self.population[distinct_picks(rng, self.lo, self.hi, n)]
        return out


def save_partition(part: SubspacePartition, path: str | Path) -> None:
    payload = {
        "format_version": PARTITION_FORMAT_VERSION,
        "feature_indices": list(part.feature_indices),
        "medians": [repr(v) for v in part.medians.tolist()],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_partition(path: str | Path) -> SubspacePartition:
    with open_text(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a partition file")
    version = payload.get("format_version")
    if version != PARTITION_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported partition format version {version!r}")
    indices, medians = payload.get("feature_indices"), payload.get("medians")
    if (not isinstance(indices, list) or any(type(ix) is not int or ix < 0 for ix in indices)
            or len(set(indices)) != len(indices)):
        raise ValueError(
            f"{path}: feature_indices must be a list of distinct non-negative integers"
        )
    try:
        # numbers, or strings of them as save_partition writes; json gives
        # booleans a type of their own
        if not isinstance(medians, list) or any(type(v) not in (int, float, str) for v in medians):
            raise ValueError
        medians = np.array([float(v) for v in medians], dtype=np.float64)
    except (OverflowError, ValueError):
        raise ValueError(f"{path}: medians must be a list of numbers") from None
    if not np.isfinite(medians).all():
        raise ValueError(f"{path}: medians must be finite")
    if len(medians) != len(indices):
        raise ValueError(f"{path}: {len(indices)} feature_indices but {len(medians)} medians")
    return SubspacePartition(medians=medians, feature_indices=tuple(indices))
