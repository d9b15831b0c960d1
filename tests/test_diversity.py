import itertools
import math

import numpy as np
import pytest

from matchgan.diversity import (
    SubspacePartition,
    build_partition,
    compute_medians,
    diverse_sample,
    l21_norm,
    load_partition,
    save_partition,
    waterfill_counts,
)


def brute_force_best_norm(sizes, m):
    """Exhaustive search over all feasible allocations of m across subspaces."""
    best = -1.0
    for counts in itertools.product(*(range(n + 1) for n in sizes)):
        if sum(counts) == m:
            best = max(best, sum(math.sqrt(c) for c in counts))
    return best


class TestComputeMedians:
    def test_odd_count(self):
        med = compute_medians(np.array([[0.1], [0.3], [0.5]]))
        assert med[0] == 0.3

    def test_even_count_lower_middle(self):
        med = compute_medians(np.array([[0.2], [0.4]]))
        assert med[0] == 0.2

    def test_all_equal(self):
        med = compute_medians(np.full((5, 2), 0.7))
        np.testing.assert_array_equal(med, [0.7, 0.7])

    def test_empty_sample(self):
        with pytest.raises(ValueError):
            compute_medians(np.empty((0, 3)))

    def test_per_feature_independent(self, rng):
        X = rng.random((101, 4))
        med = compute_medians(X)
        for k in range(4):
            assert med[k] == np.sort(X[:, k])[50]


def assign_one(x, medians):
    """Subspace of the single feature row x under the given medians."""
    part = SubspacePartition(medians=medians, feature_indices=tuple(range(len(medians))))
    part.assign_all(["x"], np.atleast_2d(x))
    return int(part.subspaces[0])


class TestAssignSubspace:
    def test_mixed_bits(self):
        # bits (1, 0) with feature 0 least significant -> index 1
        assert assign_one(np.array([0.7, 0.2]), np.array([0.5, 0.5])) == 1

    def test_at_median_goes_to_zero_side(self):
        assert assign_one(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0

    def test_all_above_four_features(self):
        assert assign_one(np.full(4, 0.9), np.full(4, 0.5)) == 15

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            assign_one(np.array([0.1]), np.array([0.5, 0.5]))

    def test_total_onto_range_and_partition(self, rng):
        X = rng.random((200, 3))
        ids = [f"i{k}" for k in range(200)]
        part = build_partition(ids, X)
        assert part.b == 8
        assert len(part.subspaces) == len(ids)
        assert all(0 <= ix < 8 for ix in part.subspaces)
        pops = part.populations()
        flat = [row for pop in pops for row in pop]
        assert sorted(flat) == list(range(len(ids)))  # non-overlap + cover
        assert all(np.all(np.diff(pop) > 0) for pop in pops)

    def test_feature_subset(self, rng):
        X = rng.random((50, 5))
        ids = list(range(50))
        part = build_partition(ids, X, feature_indices=[0, 2])
        assert part.b == 4


class TestL21Norm:
    def test_all_zero(self):
        assert l21_norm([0, 0, 0]) == 0.0

    def test_single_square(self):
        assert l21_norm([4, 0]) == 2.0

    def test_two_twos(self):
        assert l21_norm([2, 2]) == pytest.approx(2 * math.sqrt(2))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            l21_norm([-1])


class TestDiverseSample:
    def test_known_allocation_against_brute_force(self, rng):
        sizes = [5, 1, 2]
        sel = diverse_sample([list(range(n)) for n in sizes], 4, rng)
        assert sel.counts == [2, 1, 1]
        assert l21_norm(sel.counts) == pytest.approx(brute_force_best_norm(sizes, 4))
        assert l21_norm(sel.counts) == pytest.approx(math.sqrt(2) + 2)

    def test_full_budget_selects_everything(self, rng):
        pops = [["a", "b"], ["c"]]
        sel = diverse_sample(pops, 3, rng)
        assert sorted(sel.selected_ids) == ["a", "b", "c"]

    def test_single_subspace(self, rng):
        sel = diverse_sample([list("abcde")], 3, rng)
        assert sel.counts == [3]
        assert len(sel.selected_ids) == 3

    def test_budget_exceeds_population(self, rng):
        with pytest.raises(ValueError):
            diverse_sample([["a"]], 2, rng)

    def test_deterministic_under_seed(self):
        pops = [list(range(10)), list(range(10, 14))]
        a = diverse_sample(pops, 6, np.random.default_rng(9)).selected_ids
        b = diverse_sample(pops, 6, np.random.default_rng(9)).selected_ids
        assert a == b

    def test_ties_broken_by_subspace_index(self):
        counts = waterfill_counts([3, 3, 3], 4)
        # three equal subspaces: one extra unit goes to the lowest index
        assert counts == [2, 1, 1]

    def test_greedy_optimal_on_random_cases(self, rng):
        for _ in range(50):
            b = rng.integers(1, 5)
            sizes = [int(rng.integers(0, 5)) for _ in range(b)]
            total = sum(sizes)
            if total == 0:
                continue
            m = int(rng.integers(1, total + 1))
            counts = waterfill_counts(sizes, m)
            assert sum(counts) == m
            assert all(c <= n for c, n in zip(counts, sizes))
            achieved = sum(math.sqrt(c) for c in counts)
            assert achieved == pytest.approx(brute_force_best_norm(sizes, m), abs=1e-12)


class TestPartitionPersistence:
    def test_roundtrip(self, tmp_path, rng):
        X = rng.random((30, 4))
        ids = [f"p{k}" for k in range(30)]
        part = build_partition(ids, X, feature_indices=[0, 1, 3])
        path = tmp_path / "partition.json"
        save_partition(part, path)
        back = load_partition(path)
        assert back.feature_indices == part.feature_indices
        np.testing.assert_array_equal(back.medians, part.medians)
        back.assign_all(ids, X)
        np.testing.assert_array_equal(back.subspaces, part.subspaces)

    def test_version_check(self, tmp_path):
        path = tmp_path / "partition.json"
        path.write_text('{"format_version": 99, "medians": [], "feature_indices": []}')
        with pytest.raises(ValueError, match="version"):
            load_partition(path)
