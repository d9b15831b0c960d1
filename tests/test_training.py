import collections
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import matchgan.nn as nn
import matchgan.training as training
from matchgan.datasets import (
    LABEL_CODES,
    MATCH,
    NON_MATCH,
    UNLABELED,
    InstancePool,
    SyntheticConfig,
    generate_synthetic,
)
from matchgan.diversity import (
    MinibatchSampler,
    SubspacePartition,
    build_partition,
    uniform_subsets,
    waterfill_counts,
)
from matchgan.evaluation import evaluate_run
from matchgan.training import (
    RunState,
    TrainConfig,
    _labeled_arrays,
    inner_train,
    predict,
    propagate,
    run,
    select_seed_labels,
    select_top,
)

from helpers import zero_mlp


def small_problem(n_matches=6, rate=12, separation=0.9, data_seed=5):
    pool, gold = generate_synthetic(
        SyntheticConfig(n_matches=n_matches, imbalance_rate=rate, separation=separation, seed=data_seed)
    )
    partition = build_partition(pool.ids, pool.features)
    return pool, partition, gold


def twin_problem(n_per_class=10, data_seed=5):
    """Labeled instances plus unlabeled twins with identical features, so the
    generated and real joint distributions can coincide exactly."""
    rng = np.random.default_rng(data_seed)
    feats_m = rng.uniform(0.85, 0.95, size=(n_per_class, 4))
    feats_n = rng.uniform(0.05, 0.15, size=(n_per_class, 4))
    ids, rows, codes, labels = [], [], [], {}
    for i in range(n_per_class):
        for prefix, feats, label in (("m", feats_m, MATCH), ("n", feats_n, NON_MATCH)):
            lab_pair = (f"{prefix}{i:02d}L", f"{prefix}{i:02d}R")
            labels[lab_pair] = label
            for pair in (lab_pair, (f"u{prefix}{i:02d}L", f"u{prefix}{i:02d}R")):
                ids.append(pair)
                rows.append(feats[i])
                codes.append(1 if label == MATCH else 0)
    pool = InstancePool(ids, np.vstack(rows), codes)
    partition = build_partition(pool.ids, pool.features)
    state = RunState(len(pool))
    seeds = sorted(labels)
    state.add(
        [pool.ids.index(pid) for pid in seeds],
        [1 if labels[pid] == MATCH else 0 for pid in seeds],
        round_index=0,
    )
    return pool, partition, state


# The training iteration written out plainly: each layer a [W | b] block
# applied to its input with a ones column hstacked on, a logistic split by
# boolean masks and np.clip, hstack-built inputs, a second generator pass
# for the generator's update, each loss gradient taken at the output logit,
# and Adam or SGD layer by layer; the discriminator's step is one pass over
# the stacked [fake; real] batch. inner_train must reproduce it bit for bit.
def _ref_forward(layers, X, acts=None):
    a = X
    for ell, block in enumerate(layers):
        a = np.hstack([a, np.ones((len(a), 1))])
        if acts is not None:
            acts.append(a)
        a = a @ block.T
        if ell < len(layers) - 1:
            np.maximum(a, 0.0, out=a)
    z = a[:, 0]
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out, nn.OUTPUT_EPS, 1.0 - nn.OUTPUT_EPS)


def _ref_backprop(layers, acts, dloss_dz):
    delta = dloss_dz[:, None]
    grads = [None] * len(layers)
    for ell in range(len(layers) - 1, -1, -1):
        grads[ell] = delta.T @ acts[ell]
        dprev = delta @ layers[ell][:, :-1]
        if ell > 0:
            dprev = dprev * (acts[ell][:, :-1] > 0.0)
        delta = dprev
    return grads, delta


def _ref_adam(layers, grads, moments, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    for ell, grad in enumerate(grads):
        m, v = moments[0][ell], moments[1][ell]
        m *= b1
        m += (1.0 - b1) * grad
        v *= b2
        v += (1.0 - b2) * grad * grad
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        layers[ell] -= lr * m_hat / (np.sqrt(v_hat) + eps)


def _ref_sgd(layers, grads, moments, t, lr):
    for ell, grad in enumerate(grads):
        layers[ell] -= lr * grad


def _sampler(partition, state, cfg):
    """The sampler run() builds, over the rows of state without a real label."""
    u_rows = np.flatnonzero(state.round_added != 0)
    return MinibatchSampler(partition, u_rows, min(cfg.batch_size, len(u_rows)),
                            cfg.variant != "no_diversity")


def _ref_inner_train(gen, disc, pool, state, cfg, partition, rng, iters):
    """Layer blocks and Adam moments (lists of [W | b] arrays) of both
    models, plus the mean objective and loss, after iters reference
    iterations."""
    step = {"adam": _ref_adam, "sgd": _ref_sgd}
    G = [np.column_stack([w, b]) for w, b in zip(gen.weights, gen.biases)]
    D = [np.column_stack([w, b]) for w, b in zip(disc.weights, disc.biases)]
    mg, md = ([[np.zeros_like(a) for a in m] for _ in range(2)] for m in (G, D))
    lab_X, lab_y = _labeled_arrays(pool, state)
    real_size = min(cfg.batch_size, lab_X.shape[0])
    sampler = _sampler(partition, state, cfg)
    d_sum = g_sum = 0.0
    for t in range(1, iters + 1):
        # each chunk of iterations draws its fake, then its real minibatches
        i = (t - 1) % training._CHUNK
        if i == 0:
            n = min(training._CHUNK, iters - t + 1)
            fake_plan = sampler.chunk(rng, n)
            real_plan = uniform_subsets(rng, lab_X.shape[0], real_size, n)
        Xf = pool.features[fake_plan[i]]
        g_soft = _ref_forward(G, Xf)
        fake_in = np.hstack([Xf, (g_soft > 0.5).astype(np.float64)[:, None]])
        ridx = real_plan[i]
        real_in = np.hstack([lab_X[ridx], lab_y[ridx][:, None]])
        d_acts = []
        d_all = _ref_forward(D, np.concatenate([fake_in, real_in]), d_acts)
        d_fake, d_real = d_all[: len(fake_in)], d_all[len(fake_in) :]
        d_sum += float(np.mean(np.log(1.0 - d_fake)) + cfg.real_weight * np.mean(np.log(d_real)))
        dz = np.concatenate([d_fake / len(d_fake),
                             (d_real - 1.0) * (cfg.real_weight / len(d_real))])
        d_grads, _ = _ref_backprop(D, d_acts, dz)
        step[cfg.disc_optimizer](D, d_grads, md, t, cfg.disc_learning_rate)
        g_acts, d_acts = [], []
        g_out = _ref_forward(G, Xf, g_acts)
        d_out = _ref_forward(D, np.hstack([Xf, g_out[:, None]]), d_acts)
        g_sum += float(np.mean(np.log(1.0 - d_out)))
        _, dinput = _ref_backprop(D, d_acts, d_out / -len(d_out))
        g_grads, _ = _ref_backprop(G, g_acts, g_out * (1.0 - g_out) * dinput[:, -1])
        step[cfg.optimizer](G, g_grads, mg, t, cfg.learning_rate)
    return G, D, mg, md, d_sum / iters, g_sum / iters


def _opt_states(gen, disc, cfg):
    """Fresh optimizer states of both models, as run() makes them."""
    return (nn.OptState.for_model(gen, cfg.optimizer, cfg.learning_rate),
            nn.OptState.for_model(disc, cfg.disc_optimizer, cfg.disc_learning_rate))


def _flat(layers):
    return np.concatenate([block.ravel() for block in layers])


def inner_train_mismatches(iters_list=(1, 49, 50, 51, 73)):
    """Names of the values where inner_train and the reference differ, at
    iteration counts on both sides of the draw chunk's edges."""
    pool, partition, _ = small_problem()
    state = RunState(len(pool))
    state.add(np.arange(0, len(pool), 4), pool.real_labels[::4], round_index=0)
    pseudo = np.arange(2, len(pool), 8)
    state.add(pseudo, pool.real_labels[pseudo], round_index=1)
    bad = []
    configs = (
        TrainConfig(seed=3, batch_size=16, real_weight=0.7),
        TrainConfig(seed=4, batch_size=500, variant="no_diversity"),
        TrainConfig(seed=5, batch_size=37, optimizer="sgd", disc_optimizer="sgd"),
        # at most half of each index: both draws redraw repeats
        TrainConfig(seed=6, batch_size=12, variant="no_diversity"),
    )
    for iters, cfg in ((i, dataclasses.replace(c, inner_iters=i))
                       for i in iters_list for c in configs):
        rng = np.random.default_rng(cfg.seed)
        gen = nn.init_mlp((pool.n_features, *cfg.gen_hidden, 1), rng)
        disc = nn.init_mlp((pool.n_features + 1, *cfg.disc_hidden, 1), rng)
        ref = _ref_inner_train(gen, disc, pool, state, cfg, partition,
                               np.random.default_rng(cfg.seed), iters)
        opt_g = nn.OptState.for_model(gen, cfg.optimizer, cfg.learning_rate)
        opt_d = nn.OptState.for_model(disc, cfg.disc_optimizer, cfg.disc_learning_rate)
        _, _, stats = inner_train(gen, disc, pool, state, cfg, _sampler(partition, state, cfg),
                                  np.random.default_rng(cfg.seed), opt_g, opt_d)
        got = (gen.params, disc.params, opt_g.moment1, opt_g.moment2,
               opt_d.moment1, opt_d.moment2, stats["d_objective"], stats["g_loss"])
        want = (_flat(ref[0]), _flat(ref[1]), _flat(ref[2][0]), _flat(ref[2][1]),
                _flat(ref[3][0]), _flat(ref[3][1]), ref[4], ref[5])
        names = ("gen", "disc", "gen m1", "gen m2", "disc m1", "disc m2", "d_objective", "g_loss")
        # SGD keeps no moments
        kept = [cfg.optimizer == "adam"] * 2 + [cfg.disc_optimizer == "adam"] * 2
        compared = [True, True, *kept, True, True]
        bad += [f"{cfg.variant}/{cfg.optimizer}/{iters}: {name}"
                for name, a, b, on in zip(names, got, want, compared)
                if on and np.asarray(a).tobytes() != np.asarray(b).tobytes()]
    return bad


class TestLabeledPool:
    """The run state's labeled rows: monotone, with provenance by round."""

    def test_monotone_no_relabeling(self):
        state = RunState(3)
        state.add([0], [1], round_index=0)
        with pytest.raises(ValueError):
            state.add([0], [0], round_index=1)
        with pytest.raises(ValueError):
            state.add([2, 2], [0, 1], round_index=1)
        assert state.label.tolist() == [1, -1, -1]
        assert len(state) == 1

    def test_provenance_split(self):
        state = RunState(3)
        state.add([2], [1], round_index=0)
        state.add([0], [0], round_index=1)
        assert np.flatnonzero(state.round_added == 0).tolist() == [2]
        assert state.pseudo_rows().tolist() == [0]
        assert state.labeled_rows().tolist() == [2, 0]


class TestSelectSeedLabels:
    def test_full_budget_labels_everything(self, rng):
        pool, partition, gold = small_problem()
        ids = select_seed_labels(pool, gold, len(pool), partition, rng)
        assert sorted(ids) == sorted(pool.ids)

    def test_budget_exceeds_pool(self, rng):
        pool, partition, gold = small_problem()
        with pytest.raises(ValueError):
            select_seed_labels(pool, gold, len(pool) + 1, partition, rng)

    def test_diverse_selection_catches_minority(self):
        # separable classes land in their own subspace, so a diverse budget
        # reaches the minority class in every one of 20 attempts
        pool, partition, gold = small_problem(n_matches=5, rate=100, data_seed=3)
        for seed in range(20):
            ids = select_seed_labels(pool, gold, 50, partition, np.random.default_rng(seed))
            matches = int(gold.label_codes(ids).sum())
            assert matches >= 1

    def test_uniform_selection_misses_extreme_minority(self):
        # one match among 4203 instances mirrors the most extreme benchmark
        # imbalance; a uniform 50-instance draw almost surely misses it, and
        # a run trained on an all-non-match pool scores zero
        pool, partition, gold = small_problem(n_matches=1, rate=4202, data_seed=0)
        rows = training._seed_rows(len(pool), 50, partition, np.random.default_rng(0),
                                   "no_diversity")
        assert not gold.label_codes([pool.ids[r] for r in rows]).any()
        cfg = TrainConfig(seed=0, variant="no_diversity", inner_iters=60)
        result = run(cfg, pool, partition, seed_budget=50)
        assert evaluate_run(pool, result).f_measure == 0.0


class TestPseudoLabel:
    def test_threshold_rule(self, rng):
        gen = nn.init_mlp((2, 4, 1), rng)
        gen.biases[-1][0] = 3.0  # output sigmoid(3) > 0.5
        x = np.array([[0.5, 0.5]])
        assert predict(gen, x).tolist() == [LABEL_CODES[MATCH]]
        assert nn.forward_batch(gen, x)[0] > 0.5

    def test_tie_goes_to_non_match(self):
        gen = zero_mlp((2, 2, 1))
        x = np.array([[0.3, 0.4]])
        assert nn.forward_batch(gen, x)[0] == 0.5
        assert predict(gen, x).tolist() == [LABEL_CODES[NON_MATCH]]

    def test_zero_network_labels_everything_non_match(self, rng):
        gen = zero_mlp((3, 4, 1))
        X = np.random.default_rng(0).random((20, 3))
        labels = predict(gen, X)
        assert labels.dtype == np.int8 and labels.tolist() == [LABEL_CODES[NON_MATCH]] * 20


class TestSelectTop:
    def test_top_by_score(self):
        picks = select_top(np.array([0.8, 0.9, 0.1]), 2)
        assert picks.tolist() == [1, 0]

    def test_count_capped_at_population(self):
        assert len(select_top(np.array([0.5, 0.5]), 10)) == 2

    def test_equal_scores_lowest_id_first(self):
        # positions are rows of an id-sorted pool, so the lowest position
        # is the lowest id
        picks = select_top(np.array([0.7, 0.7, 0.7]), 1)
        assert picks.tolist() == [0]

    @given(
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), max_size=60),
        st.integers(min_value=0, max_value=70),
    )
    def test_matches_id_tie_break_sort(self, values, count):
        # the former rule: sort by (-score, id) over id-sorted pool rows
        scores = np.array(values)
        ids = [(f"a{k:03d}", "b") for k in range(len(values))]
        expected = sorted(range(len(ids)), key=lambda k: (-scores[k], ids[k]))[:count]
        assert select_top(scores, count).tolist() == expected

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=5_000, max_value=20_000),
        st.lists(st.sampled_from([nn.OUTPUT_EPS, 0.25, 0.5, 0.75, 1.0 - nn.OUTPUT_EPS]),
                 min_size=1, max_size=5, unique=True),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_partial_selection_at_pool_size(self, n, alphabet, seed):
        # pool-sized ties, the clamp values included, for every count case
        scores = np.random.default_rng(seed).choice(alphabet, size=n)
        for count in (0, 1, n // 2, n - 1, n, n + 5):
            want = np.argsort(-scores, kind="stable")[:count]
            assert np.array_equal(select_top(scores, count), want), count


class TestPropagate:
    def test_zero_networks_give_tie_rule(self, rng):
        pool, partition, gold = small_problem()
        gen = zero_mlp((4, 2, 1))
        disc = zero_mlp((5, 2, 1))
        remaining = np.array([1, 3, 4, 6, 9])
        batch = propagate(gen, disc, pool, remaining, 2)
        # all scores 0.5: lowest rows (so lowest ids) selected, all non-match
        assert batch[:, 0].tolist() == [1, 3]
        assert batch[:, 1].tolist() == [0, 0]

    def test_empty_remaining_rejected(self, rng):
        pool, partition, gold = small_problem()
        with pytest.raises(ValueError):
            propagate(
                zero_mlp((4, 2, 1)), zero_mlp((5, 2, 1)), pool,
                np.empty(0, dtype=np.intp), 1,
            )


def _split_rows(sizes):
    """Consecutive row ranges of the given sizes, one per subspace."""
    bounds = np.cumsum([0, *sizes])
    return [np.arange(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _partition_of(sizes):
    """A partition whose subspaces hold the _split_rows(sizes) ranges."""
    k = max(len(sizes) - 1, 1).bit_length()
    part = SubspacePartition(np.zeros(k), tuple(range(k)))
    part.subspaces = np.repeat(np.arange(len(sizes)), sizes)
    return part


def _subset_frequencies(plan):
    """How often each row of plan holds each set of values."""
    return collections.Counter(tuple(sorted(row)) for row in plan.tolist())


class TestMinibatchSampler:
    def test_draw_is_uniform_without_replacement(self):
        # sizes (3, 4, 1) and a batch of 5 give counts (2, 2, 1): 3 * 6
        # subsets, each drawn with probability 1/18; two picks among 3 rows
        # repeat a third of the time, so the redraw path runs often
        sampler = MinibatchSampler(_partition_of([3, 4, 1]), np.arange(8), 5, diverse=True)
        rng = np.random.default_rng(11)
        n_draws = 18_000
        freq = _subset_frequencies(
            np.vstack([sampler.chunk(rng, training._CHUNK)
                       for _ in range(n_draws // training._CHUNK)])
        )
        assert len(freq) == 18
        assert all(len(set(key)) == 5 and 7 in key for key in freq)
        # within 15% of n_draws / 18: about five standard deviations
        assert all(abs(n - 1000) < 150 for n in freq.values()), freq

    @given(
        st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_planned_distinct_counts_and_full_subspaces_whole(self, sizes, size, n, seed):
        pops = _split_rows(sizes)
        size = min(size, sum(sizes))
        if size == 0:
            return
        counts = waterfill_counts(sizes, size)
        sampler = MinibatchSampler(_partition_of(sizes), np.arange(sum(sizes)), size,
                                   diverse=True)
        plan = sampler.chunk(np.random.default_rng(seed), n)
        assert plan.shape == (n, size)
        for rows in plan:
            assert len(set(rows.tolist())) == size
            for pop, c in zip(pops, counts):
                picked = np.intersect1d(rows, pop)
                assert len(picked) == c
                if c == len(pop):
                    assert picked.tolist() == pop.tolist()

    def test_subspace_drawn_all_but_one(self):
        # sizes (5, 1) and a batch of 5: the lone row is taken whole and 4
        # of the 5 others are drawn, so the redraw rule must find the last
        # free rows; each of the 5 subsets has probability 1/5
        sampler = MinibatchSampler(_partition_of([5, 1]), np.arange(6), 5, diverse=True)
        freq = _subset_frequencies(sampler.chunk(np.random.default_rng(2), 10_000))
        assert len(freq) == 5
        assert all(len(set(key)) == 5 and 5 in key for key in freq)
        assert all(abs(n - 2000) < 300 for n in freq.values()), freq
        # a larger dense subspace: 59 of 60 for every row of a chunk
        plan = MinibatchSampler(_partition_of([60]), np.arange(60), 59, diverse=True).chunk(
            np.random.default_rng(3), training._CHUNK
        )
        assert all(len(set(row)) == 59 for row in plan.tolist())

    @pytest.mark.parametrize("size, k, n_rows", [
        (101, 100, 101_000), (30, 16, 2_500), (30, 12, 2_500), (6, 3, 20_000),
    ])
    def test_uniform_subsets_distinct_and_uniform(self, size, k, n_rows):
        # 100 of 101 and 16 of 30 draw the fewer rows to leave out; 12 of
        # 30 and 3 of 6 redraw repeats
        rng = np.random.default_rng(size * k)
        exhaustive = math.comb(size, k) <= 20
        hits = np.zeros(size, dtype=np.int64)
        freq = collections.Counter()
        for _ in range(n_rows // training._CHUNK):
            plan = uniform_subsets(rng, size, k, training._CHUNK)
            assert plan.shape == (training._CHUNK, k)
            assert np.all(np.diff(np.sort(plan, axis=1), axis=1) > 0)
            hits += np.bincount(plan.ravel(), minlength=size)
            if exhaustive:
                freq += _subset_frequencies(plan)
        # each position is in a row with probability k / size; the rarer
        # of in and out is expected at least 1,000 times per position, and
        # every count is within 15% of that
        rare = np.minimum(hits, n_rows - hits)
        expected = n_rows * min(k, size - k) / size
        assert np.all(np.abs(rare - expected) < 0.15 * expected), rare
        if exhaustive:
            each = n_rows / math.comb(size, k)
            assert len(freq) == math.comb(size, k)
            assert all(abs(n - each) < 0.15 * each for n in freq.values()), freq

    def test_uniform_subsets_of_everything_take_every_row(self):
        plan = uniform_subsets(np.random.default_rng(0), 101, 101, 3)
        assert plan.tolist() == [list(range(101))] * 3


class TestInnerTrain:
    def test_bitwise_equal_to_reference_loop(self):
        # on one BLAS thread, as the benchmark runs; several threads may
        # split a product where OpenBLAS chooses
        one_thread = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS")}
        here = Path(__file__).resolve().parent
        src = str(Path(nn.__file__).resolve().parent.parent)
        out = subprocess.run(
            [sys.executable, "-c",
             "import test_training; print(test_training.inner_train_mismatches())"],
            capture_output=True, text=True, check=True,
            env={**os.environ, **one_thread, "PYTHONPATH": os.pathsep.join([src, str(here)])},
        )
        assert out.stdout.strip() == "[]"

    def test_empty_labeled_pool_rejected(self):
        pool, partition, _ = small_problem()
        rng = np.random.default_rng(0)
        gen, disc = nn.init_mlp((4, 4, 1), rng), nn.init_mlp((5, 4, 1), rng)
        cfg, state = TrainConfig(seed=0), RunState(len(pool))
        with pytest.raises(ValueError):
            inner_train(gen, disc, pool, state, cfg, _sampler(partition, state, cfg), rng,
                        *_opt_states(gen, disc, cfg))

    def test_deterministic_under_seed(self):
        def train_once():
            pool, partition, labeled = twin_problem()
            rng = np.random.default_rng(7)
            gen = nn.init_mlp((4, 8, 1), rng)
            disc = nn.init_mlp((5, 8, 1), rng)
            cfg = TrainConfig(seed=7, batch_size=10, inner_iters=50)
            inner_train(gen, disc, pool, labeled, cfg, _sampler(partition, labeled, cfg), rng,
                        *_opt_states(gen, disc, cfg))
            return gen.weights[0].copy()

        np.testing.assert_array_equal(train_once(), train_once())

    def test_equilibrium_on_twin_fixture(self):
        # when the generator labels the twins correctly, generated and real
        # pairs are indistinguishable and the discriminator tends to 1/2
        pool, partition, state = twin_problem()
        rng = np.random.default_rng(0)
        gen = nn.init_mlp((4, 32, 16, 1), rng)
        disc = nn.init_mlp((5, 32, 16, 1), rng)
        cfg = TrainConfig(seed=0, batch_size=20, inner_iters=1500)
        opt_g = nn.OptState.for_model(gen, cfg.optimizer, cfg.learning_rate)
        opt_d = nn.OptState.for_model(disc, cfg.disc_optimizer, cfg.disc_learning_rate)
        inner_train(gen, disc, pool, state, cfg, _sampler(partition, state, cfg), rng,
                    opt_g, opt_d)

        u_rows = np.flatnonzero(state.label == -1)
        soft = nn.forward_batch(gen, pool.features[u_rows])
        hard = (soft > 0.5).astype(float)
        d_fake = nn.forward_batch(disc, np.hstack([pool.features[u_rows], hard[:, None]]))
        l_rows = state.labeled_rows()
        y = pool.real_labels[l_rows].astype(float)
        d_real = nn.forward_batch(disc, np.hstack([pool.features[l_rows], y[:, None]]))
        assert np.abs(d_fake - 0.5).mean() < 0.15
        assert np.abs(d_real - 0.5).mean() < 0.15


class TestTracedNames:
    """The step and propagation reach the layer functions through the
    module attributes that a tracer wraps."""

    def test_wrapped_attributes_see_every_call(self, monkeypatch):
        calls = collections.Counter()

        def count(owner, name):
            real = getattr(owner, name)

            def passthrough(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, passthrough)

        for name in ("discriminator_backward", "generator_backward", "opt_step", "forward_batch"):
            count(nn, name)
        count(training, "select_top")
        pool, partition, state = twin_problem()
        rng = np.random.default_rng(0)
        gen = nn.init_mlp((4, 8, 1), rng)
        disc = nn.init_mlp((5, 8, 1), rng)
        k = 7
        cfg = TrainConfig(seed=0, batch_size=10, inner_iters=k)
        inner_train(gen, disc, pool, state, cfg, _sampler(partition, state, cfg), rng,
                    *_opt_states(gen, disc, cfg))
        assert calls == {"discriminator_backward": k, "generator_backward": k, "opt_step": 2 * k}
        calls.clear()
        propagate(gen, disc, pool, np.flatnonzero(state.label == -1), 5)
        assert calls == {"forward_batch": 2, "select_top": 1}


class TestRun:
    @pytest.mark.parametrize("variant, built", [("full", 1), ("no_diversity", 1),
                                                ("no_adversary", 0)])
    def test_sampler_built_once_per_run(self, monkeypatch, variant, built):
        # the unlabeled rows are fixed once the seeds are drawn, so a run
        # lays out its sampler once, and only when it trains adversarially
        made = []

        class Counted(MinibatchSampler):
            def __init__(self, *args, **kwargs):
                made.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(training, "MinibatchSampler", Counted)
        pool, partition, gold = small_problem(n_matches=2, rate=6, data_seed=1)
        cfg = TrainConfig(seed=0, inner_iters=2, propagate_count=3, variant=variant)
        result = run(cfg, pool, partition, seed_rows=range(4))
        assert len(result.report["rounds"]) >= 3
        assert len(made) == built

    def test_empty_unlabeled_returns_seed_pool(self):
        pool, partition, gold = small_problem()
        result = run(TrainConfig(seed=0), pool, partition, seed_rows=range(len(pool)))
        assert len(result.state) == len(pool)
        assert len(result.state.pseudo_rows()) == 0
        assert result.report["rounds"] == []

    def test_fixed_count_round_formula(self):
        # ten unlabeled instances propagated three at a time: ceil(10/3) = 4
        pool, partition, gold = small_problem(n_matches=2, rate=6, data_seed=1)
        assert len(pool) == 14
        cfg = TrainConfig(seed=0, inner_iters=2, propagate_count=3)
        result = run(cfg, pool, partition, seed_rows=range(4))
        assert result.report["final"]["rounds"] == 4
        assert [r["propagated"] for r in result.report["rounds"]] == [3, 3, 3, 1]

    def test_propagated_size_is_min_of_gamma_and_remaining(self):
        pool, partition, gold = small_problem(n_matches=2, rate=5, data_seed=1)
        cfg = TrainConfig(seed=0, inner_iters=2, propagate_count=4)
        result = run(cfg, pool, partition, seed_rows=range(2))
        remaining = len(pool) - 2
        for record in result.report["rounds"]:
            assert record["propagated"] == min(4, remaining)
            remaining -= record["propagated"]

    def test_pool_rule_round_bound(self):
        pool, partition, gold = small_problem(n_matches=4, rate=20, data_seed=2)
        budget = 5
        cfg = TrainConfig(seed=1, inner_iters=2)
        result = run(cfg, pool, partition, seed_budget=budget)
        bound = math.ceil(math.log2(len(pool) / budget)) + 1
        assert result.report["final"]["rounds"] <= bound
        # pool at least doubles while instances remain
        sizes = [budget] + [r["pool_size_after"] for r in result.report["rounds"]]
        for prev, now in zip(sizes, sizes[1:-1]):
            assert now == 2 * prev

    def test_monotone_chain_and_real_labels_preserved(self):
        pool, partition, gold = small_problem(n_matches=3, rate=10, data_seed=4)
        cfg = TrainConfig(seed=2, inner_iters=5)
        result = run(cfg, pool, partition, seed_budget=8)
        state = result.state
        real = np.flatnonzero(state.round_added == 0)
        assert len(real) == 8
        assert np.all(state.label[real] == pool.real_labels[real])
        assert state.round_added.min() == 0
        # every unlabeled instance ends up pseudo-labeled exactly once
        assert len(state) == len(pool)
        assert sorted(state.labeled_rows().tolist()) == list(range(len(pool)))
        for record in result.report["rounds"]:
            assert record["pool_size_after"] - record["propagated"] >= 8

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, 120 // m - 1))),
        st.integers(1, 4),
        st.floats(0.0, 1.0),
        st.sampled_from(training.VARIANTS),
        st.sampled_from([None, 1, 3, 17]),
        st.integers(1, 5),
        st.integers(1, 30),
        st.integers(0, 2**16),
    )
    def test_real_labels_survive_every_round(self, size, n_features, separation, variant,
                                             propagate_count, inner_iters, budget, seed):
        n_matches, rate = size
        pool, gold = generate_synthetic(SyntheticConfig(
            n_matches=n_matches, imbalance_rate=rate, n_features=n_features,
            separation=separation, seed=seed,
        ))
        partition = build_partition(pool.ids, pool.features)
        budget = min(budget, len(pool))
        cfg = TrainConfig(seed=seed, batch_size=16, inner_iters=inner_iters,
                          propagate_count=propagate_count, variant=variant)
        seeds = training._seed_rows(len(pool), budget, partition,
                                    np.random.default_rng(seed), variant)
        rounds = []

        class CheckedState(RunState):
            def add(self, rows, labels, round_index):
                super().add(rows, labels, round_index)
                rounds.append(round_index)
                assert np.array_equal(self.label[seeds], pool.real_labels[seeds])
                assert np.array_equal(self.round_added[seeds], np.zeros(budget))

        original, training.RunState = training.RunState, CheckedState
        try:
            state = run(cfg, pool, partition, seed_budget=budget).state
        finally:
            training.RunState = original
        assert rounds == list(range(len(rounds)))
        assert np.array_equal(np.flatnonzero(state.round_added == 0), np.sort(seeds))
        assert np.array_equal(state.label[seeds], pool.real_labels[seeds])
        # every row labeled exactly once, in rounds that never decrease
        assert sorted(state.labeled_rows().tolist()) == list(range(len(pool)))
        assert np.all(np.diff(state.round_added[state.order]) >= 0)

    def test_deterministic_reports_byte_identical(self):
        def report_once():
            pool, partition, gold = small_problem(n_matches=3, rate=8, data_seed=6)
            cfg = TrainConfig(seed=5, inner_iters=10)
            result = run(cfg, pool, partition, seed_budget=6)
            return json.dumps(result.report, sort_keys=True)

        assert report_once() == report_once()

    def test_transductive_success_on_separable_pool(self):
        pool, partition, gold = small_problem(n_matches=8, rate=20, data_seed=9)
        cfg = TrainConfig(seed=0)
        result = run(cfg, pool, partition, seed_budget=30)
        metrics = evaluate_run(pool, result)
        assert metrics.f_measure >= 0.9
        # mode-collapse witness: both labels are present among pseudo labels
        counts = result.report["final"]["pseudo_label_counts"]
        assert counts[MATCH] > 0 and counts[NON_MATCH] > 0

    def test_predict_on_held_out_instances(self):
        pool, partition, gold = small_problem(n_matches=8, rate=20, data_seed=9)
        cfg = TrainConfig(seed=0)
        result = run(cfg, pool, partition, seed_budget=30)
        held_out, held_gold = generate_synthetic(
            SyntheticConfig(n_matches=5, imbalance_rate=20, separation=0.9, seed=77)
        )
        labels = predict(result.generator, held_out.features)
        from matchgan.evaluation import compute_metrics

        assert compute_metrics(labels, held_out.real_labels).f_measure >= 0.9

    def test_predict_empty_list(self, rng):
        labels = predict(nn.init_mlp((4, 2, 1), rng), [])
        assert labels.dtype == np.int8 and labels.tolist() == []

    def test_consistency_reported(self):
        pool, partition, gold = small_problem(n_matches=3, rate=10, data_seed=4)
        cfg = TrainConfig(seed=2, inner_iters=5)
        result = run(cfg, pool, partition, seed_budget=8)
        assert 0.0 <= result.report["final"]["consistency"] <= 1.0

    def test_run_leaves_pool_unchanged_and_repeats(self):
        pool, partition, gold = small_problem(n_matches=3, rate=8, data_seed=6)
        before = (list(pool.ids), pool.features.copy(), pool.real_labels.copy())
        cfg = TrainConfig(seed=5, inner_iters=10)
        reports = [
            json.dumps(run(cfg, pool, partition, seed_budget=6).report, sort_keys=True)
            for _ in range(2)
        ]
        assert pool.ids == before[0]
        assert pool.features.tobytes() == before[1].tobytes()
        assert pool.real_labels.tobytes() == before[2].tobytes()
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("variant", training.VARIANTS)
    def test_run_reads_no_truth_beyond_its_seeds(self, variant):
        # the same run on a pool whose non-seed rows carry no truth
        pool, partition, gold = small_problem(n_matches=3, rate=10, data_seed=4)
        cfg = TrainConfig(seed=2, inner_iters=5, propagate_count=9, variant=variant)
        seen = run(cfg, pool, partition, seed_budget=8)
        seeds = np.flatnonzero(seen.state.round_added == 0)
        truth = np.full(len(pool), UNLABELED)
        truth[seeds] = pool.real_labels[seeds]
        blind = run(cfg, InstancePool(pool.ids, pool.features, truth), partition, seed_budget=8)
        assert len(seen.report["rounds"]) >= (1 if variant == "no_propagation" else 2)
        for name in ("label", "round_added", "order"):
            assert np.array_equal(getattr(seen.state, name), getattr(blind.state, name))
        assert json.dumps(seen.report, sort_keys=True) == json.dumps(blind.report, sort_keys=True)
        models = [(seen.generator, seen.discriminator), *seen.round_models]
        for pair, blind_pair in zip(models, [(blind.generator, blind.discriminator),
                                             *blind.round_models], strict=True):
            for model, blind_model in zip(pair, blind_pair):
                assert (model is None) == (blind_model is None)
                if model is not None:
                    assert model.params.tobytes() == blind_model.params.tobytes()

    @pytest.mark.parametrize("variant", ["full", "no_adversary"])
    def test_round_models_copied_per_round(self, variant):
        pool, partition, gold = small_problem(n_matches=2, rate=6, data_seed=1)
        cfg = TrainConfig(seed=0, inner_iters=2, propagate_count=5, variant=variant)
        result = run(cfg, pool, partition, seed_budget=4)
        assert len(result.round_models) == len(result.report["rounds"]) >= 2
        final = (result.generator, result.discriminator)
        for models in result.round_models:
            assert (models[1] is None) == (variant == "no_adversary")
        for copy, model in zip(result.round_models[-1], final):
            if model is not None:
                assert copy.params.tobytes() == model.params.tobytes()
                assert not np.shares_memory(copy.params, model.params)
        assert result.round_models[0][0].params.tobytes() != result.generator.params.tobytes()


class TestVariants:
    def test_no_propagation_single_round(self):
        pool, partition, gold = small_problem(n_matches=4, rate=15, data_seed=3)
        cfg = TrainConfig(seed=1, variant="no_propagation")
        result = run(cfg, pool, partition, seed_budget=16)
        assert result.report["final"]["rounds"] == 1
        assert len(result.state) == len(pool)
        assert len(result.state.pseudo_rows()) == len(pool) - 16

    def test_no_propagation_labels_are_the_generators(self):
        # the single round takes every remaining row with G's own label
        pool, partition, gold = small_problem(n_matches=4, rate=15, data_seed=3)
        cfg = TrainConfig(seed=1, inner_iters=50, variant="no_propagation")
        result = run(cfg, pool, partition, seed_budget=16)
        rows = result.state.pseudo_rows()
        direct = predict(result.generator, pool.features[rows])
        assert direct.tolist() == result.state.label[rows].tolist()
        assert result.report["final"]["consistency"] == 1.0

    def test_no_adversary_trains_classifier(self):
        pool, partition, gold = small_problem(n_matches=8, rate=20, data_seed=9)
        cfg = TrainConfig(seed=0, variant="no_adversary")
        result = run(cfg, pool, partition, seed_budget=30)
        assert result.discriminator is None
        metrics = evaluate_run(pool, result)
        assert metrics.f_measure >= 0.9

    def test_no_diversity_uses_uniform_batches(self):
        pool, partition, gold = small_problem(n_matches=4, rate=15, data_seed=3)
        cfg = TrainConfig(seed=1, variant="no_diversity", inner_iters=5)
        result = run(cfg, pool, partition, seed_budget=10)
        assert len(result.state) == len(pool)

    def test_invalid_variant_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(variant="bogus")

    def test_config_bounds(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(real_weight=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(inner_iters=0)
        with pytest.raises(ValueError):
            TrainConfig(propagate_count=0)
        with pytest.raises(ValueError):
            TrainConfig(optimizer="lbfgs")
        for hidden in ((0,), (8, 0), (-3,), (4, -1, 4)):
            with pytest.raises(ValueError, match="hidden layer widths must be at least 1"):
                TrainConfig(gen_hidden=hidden)
            with pytest.raises(ValueError, match="hidden layer widths must be at least 1"):
                TrainConfig(disc_hidden=hidden)
        TrainConfig(gen_hidden=(), disc_hidden=(1,))
        for bad in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="learning_rate must be finite and positive"):
                TrainConfig(learning_rate=bad)
            with pytest.raises(ValueError, match="disc_learning_rate must be finite"):
                TrainConfig(disc_learning_rate=bad)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="real_weight"):
                TrainConfig(real_weight=bad)
        TrainConfig(real_weight=0.0, learning_rate=1e-12, disc_learning_rate=5.0)

    def test_run_requires_seed_source(self):
        pool, partition, _ = small_problem()
        with pytest.raises(ValueError, match="seed_rows or seed_budget"):
            run(TrainConfig(seed=0), pool, partition)
        with pytest.raises(ValueError, match="without any seed labels"):
            run(TrainConfig(seed=0), pool, partition, seed_rows=[])
