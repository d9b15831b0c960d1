import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from matchgan.datasets import (
    LABEL_CODES,
    MATCH,
    NON_MATCH,
    UNLABELED,
    IngestError,
    InstancePool,
    SyntheticConfig,
    generate_synthetic,
)
from matchgan.diversity import build_partition
import matchgan.evaluation as evaluation
from matchgan.evaluation import (
    aggregate,
    compute_metrics,
    evaluate_run,
    format_table,
    run_ablation_suite,
    score_labels,
    split_pool,
)
from matchgan.training import TrainConfig, run

# label codes of a match and a non-match
M, N = LABEL_CODES[MATCH], LABEL_CODES[NON_MATCH]


class TestSplit:
    def test_fraction_six_four(self):
        train, test = split_pool(10, seed=0, train_fraction=0.6)
        assert len(train) == 6 and len(test) == 4

    def test_deterministic(self):
        assert split_pool(100, seed=3, train_fraction=0.3) == split_pool(
            100, seed=3, train_fraction=0.3
        )

    def test_disjoint_and_covering(self):
        train, test = split_pool(57, seed=9, train_fraction=0.25)
        assert len(train) == 14
        assert set(train).isdisjoint(test)
        assert sorted(train + test) == list(range(57))

    def test_invalid_arguments(self):
        for fraction in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ValueError):
                split_pool(10, seed=0, train_fraction=fraction)


class TestMetrics:
    def test_harmonic_mean_of_equal_values(self):
        # 1 TP, 1 FP, 1 FN: precision = recall = 0.5
        m = compute_metrics([M, M, N], [M, N, M])
        assert m.precision == 0.5 and m.recall == 0.5
        assert m.f_measure == pytest.approx(0.5)

    def test_derived_two_thirds(self):
        # precision 1, recall 0.5 -> FM = 2/(1/1 + 1/0.5) = 2/3
        m = compute_metrics(
            [M, N, N], [M, M, N]
        )
        assert m.precision == 1.0 and m.recall == 0.5
        assert m.f_measure == pytest.approx(2 / 3)

    def test_zero_predictions_zero_conventions(self):
        m = compute_metrics([N, N], [M, M])
        assert m.precision == 0.0 and m.recall == 0.0 and m.f_measure == 0.0

    def test_objective_score(self):
        m = compute_metrics(
            [M, N, M, N],
            [M, N, N, M],
        )
        assert m.objective_score == pytest.approx(0.5)

    @pytest.mark.parametrize("predicted, actual", [([-1], [M]), ([1], [2]), ([0], [-1])])
    def test_rejects_label_neither_match_nor_non_match(self, predicted, actual):
        with pytest.raises(ValueError, match="neither a match nor a non-match"):
            compute_metrics(predicted, actual)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compute_metrics([M], [M, N])

    @given(
        st.lists(
            st.tuples(st.sampled_from([M, N]), st.sampled_from([M, N])),
            min_size=1,
            max_size=200,
        )
    )
    def test_identities(self, pairs):
        predicted = [p for p, _ in pairs]
        actual = [a for _, a in pairs]
        m = compute_metrics(predicted, actual)
        assert m.tp + m.fp + m.fn + m.tn == len(pairs)
        assert m.objective_score == pytest.approx((m.tp + m.tn) / len(pairs))
        if m.precision + m.recall > 0:
            assert m.f_measure == pytest.approx(
                2 * m.precision * m.recall / (m.precision + m.recall)
            )
            assert min(m.precision, m.recall) - 1e-12 <= m.f_measure <= max(m.precision, m.recall) + 1e-12
        assert (m.f_measure == 0.0) == (m.tp == 0)

    def test_score_labels_joins_on_pair_id(self):
        # file order does not matter, and a pair only one file names is not scored
        pred = ([("a", "b"), ("c", "d"), ("x", "y")], np.array([M, N, M], dtype=np.int8))
        true = ([("c", "d"), ("e", "f"), ("a", "b")], np.array([M, N, M], dtype=np.int8))
        assert score_labels("p.tsv", pred, "t.tsv", true) == compute_metrics([M, N], [M, M])
        with pytest.raises(IngestError, match="no overlapping pairs"):
            score_labels("p.tsv", pred, "t.tsv", ([("e", "f")], np.array([N], dtype=np.int8)))


def tiny_problem():
    pool, gold = generate_synthetic(
        SyntheticConfig(n_matches=6, imbalance_rate=12, separation=0.9, seed=9)
    )
    partition = build_partition(pool.ids, pool.features)
    return pool, partition


class TestEvaluateRun:
    """evaluate_run scores a run and records the scores in its report."""

    def run_of(self, pool, partition):
        cfg = TrainConfig(seed=3, inner_iters=5, propagate_count=15)
        result = run(cfg, pool, partition, seed_budget=12)
        assert len(result.report["rounds"]) >= 4
        return result

    def test_round_scores_cover_the_rows_propagated_so_far(self):
        pool, partition = tiny_problem()
        result = self.run_of(pool, partition)
        assert "pseudo_fm" not in json.dumps(result.report)
        metrics = evaluate_run(pool, result)
        added = result.state.round_added
        for record in result.report["rounds"]:
            rows = np.flatnonzero((added > 0) & (added <= record["round"]))
            expected = compute_metrics(result.state.label[rows], pool.real_labels[rows])
            assert record["pseudo_fm"] == expected.f_measure
        rows = result.state.pseudo_rows()
        assert metrics == compute_metrics(result.state.label[rows], pool.real_labels[rows])
        final = result.report["final"]
        assert final["pseudo_fm"] == result.report["rounds"][-1]["pseudo_fm"]
        assert final["metrics"] == metrics.as_dict()

    @pytest.mark.parametrize("unscored", [1, 3])
    def test_rounds_before_a_row_without_truth_keep_their_scores(self, unscored):
        pool, partition = tiny_problem()
        result = self.run_of(pool, partition)
        # the run never reads that row's truth, so blanking it after the run
        # scores the run that the blanked pool gives
        truth = pool.real_labels.copy()
        truth[np.flatnonzero(result.state.round_added == unscored)[0]] = UNLABELED
        with pytest.raises(ValueError, match="lack real labels"):
            evaluate_run(InstancePool(pool.ids, pool.features, truth), result)
        assert [record["round"] for record in result.report["rounds"]
                if "pseudo_fm" in record] == list(range(1, unscored))
        assert not {"pseudo_fm", "metrics"} & set(result.report["final"])


class TestAblationSuite:
    def test_single_cell(self):
        pool, partition = tiny_problem()
        cfg = TrainConfig(inner_iters=50)
        cells = run_ablation_suite(
            pool, partition, cfg, variants=("full",), budgets=(12,), seeds=(0,)
        )
        assert len(cells) == 1
        rows = aggregate(cells)
        assert rows[0]["seeds"] == 1
        assert rows[0]["fm_std"] == 0.0

    def test_grid_shape_and_aggregation(self):
        pool, partition = tiny_problem()
        cfg = TrainConfig(inner_iters=20)
        cells = run_ablation_suite(
            pool, partition, cfg,
            variants=("full", "no_adversary"), budgets=(10, 16), seeds=(0, 1),
        )
        assert len(cells) == 8
        rows = aggregate(cells)
        assert len(rows) == 4
        assert all(r["seeds"] == 2 for r in rows)

    def test_aggregate_orders_costs_by_value(self):
        # costs used to sort as strings: budget 10 before 5, fraction 1e-05 after 0.5
        metrics = compute_metrics([M], [M])
        costs = [(5, None), (None, 0.5), (20, None), (None, 1e-05), (10, None)]
        cells = [evaluation.AblationCell(v, b, f, 0, metrics)
                 for v in ("no_adversary", "full") for b, f in costs]
        rows = aggregate(cells)
        assert [(r["variant"], r["budget"], r["fraction"]) for r in rows] == [
            (v, b, f) for v in ("full", "no_adversary")
            for b, f in [(5, None), (10, None), (20, None), (None, 1e-05), (None, 0.5)]]

    def test_fraction_mode(self):
        pool, partition = tiny_problem()
        cfg = TrainConfig(inner_iters=50)
        cells = run_ablation_suite(
            pool, partition, cfg, variants=("full",), fractions=(0.6,), seeds=(0,)
        )
        cell = cells[0]
        assert cell.fraction == 0.6
        # 60% of the pool labeled, the remaining 40% scored
        expected_test = len(pool) - int(len(pool) * 0.6)
        assert cell.metrics.tp + cell.metrics.fp + cell.metrics.fn + cell.metrics.tn == expected_test

    def test_requires_some_cost_axis(self):
        pool, partition = tiny_problem()
        with pytest.raises(ValueError):
            run_ablation_suite(pool, partition, TrainConfig())

    def test_parallel_cells_match_serial(self):
        pool, partition = tiny_problem()
        cfg = TrainConfig(inner_iters=20)
        kwargs = dict(variants=("full",), budgets=(10,), seeds=(0, 1))
        serial = run_ablation_suite(pool, partition, cfg, workers=1, **kwargs)
        parallel = run_ablation_suite(pool, partition, cfg, workers=2, **kwargs)
        assert [
            (c.variant, c.seed, c.metrics.f_measure) for c in serial
        ] == [(c.variant, c.seed, c.metrics.f_measure) for c in parallel]

    def test_workers_get_inputs_once_and_pool_is_capped(self, monkeypatch):
        import concurrent.futures

        seen = {}

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                seen["workers"], seen["initargs"] = max_workers, kwargs["initargs"]
                super().__init__(max_workers, **kwargs)

            def map(self, fn, tasks):
                seen["tasks"] = list(tasks)
                return super().map(fn, seen["tasks"])

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        pool, partition = tiny_problem()
        cfg = TrainConfig(inner_iters=20)
        kwargs = dict(variants=("full", "no_adversary"), budgets=(10,), fractions=(0.5,),
                      seeds=(0,))
        parallel = run_ablation_suite(pool, partition, cfg, workers=8, **kwargs)
        serial = run_ablation_suite(pool, partition, cfg, workers=1, **kwargs)
        assert seen["workers"] == 4
        assert all(a is b for a, b in zip(seen["initargs"], (pool, partition, cfg)))
        assert seen["tasks"] == [("full", 0, 10, None), ("full", 0, None, 0.5),
                                 ("no_adversary", 0, 10, None), ("no_adversary", 0, None, 0.5)]
        assert parallel == serial

    def test_cell_keeps_every_base_config_knob(self, monkeypatch):
        seen = []
        real_run = evaluation.run

        def spy(cfg, *args, **kwargs):
            seen.append(cfg)
            return real_run(cfg, *args, **kwargs)

        monkeypatch.setattr(evaluation, "run", spy)
        pool, partition = tiny_problem()
        base = TrainConfig(inner_iters=5, disc_learning_rate=3e-3, real_weight=0.5)
        evaluation.run_cell(pool, partition, base, "no_diversity", seed=4, budget=10)
        assert seen[0] == dataclasses.replace(base, seed=4, variant="no_diversity")
        assert seen[0].disc_learning_rate == 3e-3 and seen[0].real_weight == 0.5

    def test_table_formatting(self):
        rows = [
            {"variant": "full", "budget": 50, "fraction": None, "seeds": 3, "fm_mean": 0.91234, "fm_std": 0.0123},
            *({"variant": "full", "budget": None, "fraction": f, "seeds": 3, "fm_mean": 0.5,
               "fm_std": 0.0} for f in (0.6, 0.12, 0.125, 0.1234561, 0.1234562, 0.07, 1e-05)),
        ]
        text = format_table(rows)
        assert "full" in text and "0.9123" in text
        # a fraction is printed with every digit that tells it apart
        assert [line.split()[1] for line in text.splitlines()[3:]] == [
            "60%", "12%", "12.5%", "12.34561%", "12.34562%", "7%", "0.001%"]
