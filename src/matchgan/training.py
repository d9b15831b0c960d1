"""Alternating adversarial training with confidence-ranked label propagation.

One run interleaves two processes until every unlabeled instance has been
absorbed into the labeled pool:

  1. batch training: for a fixed number of iterations, sample a
     diversity-maximizing minibatch of unlabeled instances, let the
     generator produce soft labels for them, sample a uniform minibatch
     from the labeled pool, then update the discriminator (ascending its
     objective) and the generator (descending its loss);
  2. label propagation: score every not-yet-propagated instance by the
     discriminator's confidence in its pseudo label and move the
     top-scoring slice into the labeled pool.

The run's state is a handful of arrays over pool rows (RunState); the
seed and minibatch draws come from diversity. The labeled set only ever
grows: real seed labels are never overwritten and pseudo-labeled rows
are never relabeled. Ablation variants disable the diversity sampler,
the propagation loop, or the adversarial pairing.

Training is transductive: the run's final label for each unlabeled pool
instance is its propagated pseudo label. Instances outside the pool (held
out from training entirely) are labeled afterwards via predict().
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .datasets import LABEL_CODES, MATCH, NON_MATCH, UNLABELED, GoldStandard, InstancePool, PairId
from .diversity import MinibatchSampler, SubspacePartition, uniform_subsets
# the benchmark traces these two here
from .diversity import diverse_sample, waterfill_counts  # noqa: F401
from . import nn

VARIANTS = ("full", "no_diversity", "no_propagation", "no_adversary")


class RunState:
    """Row-indexed labels of one run over an n-row pool.

    label[r] is row r's label code, UNLABELED until it is labeled.
    round_added[r] is 0 for a real seed label, the propagation round for a
    pseudo label and -1 while unlabeled, so it also records provenance.
    order[:len(self)] lists labeled rows in the order they were added; the
    real minibatches draw from that order. Labels only ever grow: adding an
    already labeled row is rejected.
    """

    def __init__(self, n: int):
        self.label = np.full(n, UNLABELED, dtype=np.int8)
        self.round_added = np.full(n, -1, dtype=np.int32)
        self.order = np.empty(n, dtype=np.intp)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, rows: np.ndarray, labels: np.ndarray, round_index: int) -> None:
        rows = np.asarray(rows, dtype=np.intp)
        if np.any(self.label[rows] != UNLABELED) or len(set(rows.tolist())) != len(rows):
            raise ValueError("row already labeled")
        self.label[rows] = labels
        self.round_added[rows] = round_index
        self.order[self._size : self._size + len(rows)] = rows
        self._size += len(rows)

    def labeled_rows(self) -> np.ndarray:
        """Labeled rows in insertion order."""
        return self.order[: self._size]

    def pseudo_rows(self) -> np.ndarray:
        return np.flatnonzero(self.round_added > 0)


@dataclass
class TrainConfig:
    """Training knobs. The generator's default learning rate is half the
    discriminator's: the generator must commit to hard labels more slowly
    than the discriminator can correct mislabeled regions, otherwise the
    pair chases each other into a single-label collapse."""

    batch_size: int = 100
    real_weight: float = 1.0
    inner_iters: int = 500
    propagate_count: int | None = None  # None: grow by current pool size
    seed: int = 0
    gen_hidden: tuple[int, ...] = (32, 16)
    disc_hidden: tuple[int, ...] = (32, 16)
    optimizer: str = "adam"
    learning_rate: float = 5e-4
    disc_optimizer: str = "adam"
    disc_learning_rate: float = 1e-3
    variant: str = "full"

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not 0.0 <= self.real_weight < math.inf:
            raise ValueError("real_weight must be finite and non-negative")
        if self.inner_iters < 1:
            raise ValueError("inner_iters must be at least 1")
        if self.propagate_count is not None and self.propagate_count < 1:
            raise ValueError("propagate_count must be at least 1 when fixed")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        for opt in (self.optimizer, self.disc_optimizer):
            if opt not in ("adam", "sgd"):
                raise ValueError("optimizer must be 'adam' or 'sgd'")
        for name in ("learning_rate", "disc_learning_rate"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        self.gen_hidden = tuple(self.gen_hidden)
        self.disc_hidden = tuple(self.disc_hidden)
        if min(self.gen_hidden + self.disc_hidden, default=1) < 1:
            raise ValueError("hidden layer widths must be at least 1")


@dataclass
class RunResult:
    """A finished run; its transductive labels are state.label at the
    pseudo rows. round_models[k] holds copies of the (generator,
    discriminator) pair as round k + 1 left them; the discriminator is
    None for no_adversary."""

    state: RunState
    generator: nn.MlpModel
    discriminator: nn.MlpModel | None
    report: dict
    round_models: list[tuple[nn.MlpModel, nn.MlpModel | None]]


# the benchmark calls this to check a run's seed pick
def select_seed_labels(
    pool: InstancePool,
    gold: GoldStandard,
    budget: int,
    partition: SubspacePartition,
    rng: np.random.Generator,
) -> list[PairId]:
    """Pair ids of the seed rows that a full run labels (see _seed_rows).

    gold is never read: a seed's label is the pool's real label.
    """
    return [pool.ids[r] for r in _seed_rows(len(pool), budget, partition, rng, "full")]


def _seed_rows(n: int, budget: int, partition: SubspacePartition,
               rng: np.random.Generator, variant: str) -> np.ndarray:
    """Ascending rows of an n-row pool that receive real labels.

    Diversity-aware selection spreads the budget across subspaces; the
    no_diversity variant draws uniformly instead.
    """
    if budget > n:
        raise ValueError(f"budget {budget} exceeds pool size {n}")
    if variant == "no_diversity":
        return np.sort(rng.choice(n, size=budget, replace=False))
    return np.sort(diverse_sample(partition.populations(), budget, rng))


def _pseudo_labels_batch(gen: nn.MlpModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Label codes (1 iff the soft score exceeds 1/2) plus the soft scores."""
    scores = nn.forward_batch(gen, X)
    return (scores > 0.5).astype(np.int8), scores


def _labeled_arrays(pool: InstancePool, state: RunState):
    rows = state.labeled_rows()
    return pool.features[rows], state.label[rows].astype(np.float64)


_CHUNK = 50  # iterations whose minibatches are drawn at once


def inner_train(
    gen: nn.MlpModel,
    disc: nn.MlpModel,
    pool: InstancePool,
    state: RunState,
    cfg: TrainConfig,
    sampler: MinibatchSampler,
    rng: np.random.Generator,
    opt_gen: nn.OptState,
    opt_disc: nn.OptState,
) -> tuple[nn.MlpModel, nn.MlpModel, dict]:
    """Run the alternating minibatch updates for one propagation round.

    Unlabeled minibatches come from sampler, which belongs to the run: it
    is built once over every row without a real label, regardless of
    propagation progress. Labeled minibatches come uniformly from the rows
    labeled so far. Returns the models plus mean losses for reporting.
    """
    if len(state) == 0:
        raise ValueError("labeled pool is empty")
    n_iters = cfg.inner_iters
    # the labeled [X | y | 1] matrix, so that a real minibatch is one gather
    real_all = np.column_stack((*_labeled_arrays(pool, state), np.ones(len(state))))
    fake_size = sampler.size
    real_size = min(cfg.batch_size, len(real_all))
    # fixed arrays for the round's passes: the generator on the fake rows
    # (g_buf.x), the discriminator on the stacked [fake; real] batch
    # (d_buf.x) and on [X | soft] for the generator's update (s_buf.x)
    g_buf = nn.Buffers(gen, fake_size)
    d_buf = nn.Buffers(disc, fake_size + real_size)
    s_buf = nn.Buffers(disc, fake_size)
    real_block = d_buf.acts[0][fake_size:]
    # the discriminator judges hard pseudo labels, so generated and real
    # pairs share the same label alphabet; the generator's own update keeps
    # the soft differentiable path
    d = pool.n_features
    soft_x, soft_label = s_buf.x[:, :d], s_buf.x[:, d]
    hard_x, hard_label = d_buf.x[:fake_size, :d], d_buf.x[:fake_size, d]

    d_sum = g_sum = 0.0
    for start in range(0, n_iters, _CHUNK):
        n = min(_CHUNK, n_iters - start)
        fake_rows = sampler.chunk(rng, n)
        real_rows = uniform_subsets(rng, len(real_all), real_size, n)
        # each pass's discriminator outputs, whose losses are taken once per
        # chunk; they live only between the draws, whose temporaries set
        # the round's peak memory
        d_rows, g_rows = np.empty((n, fake_size + real_size)), np.empty((n, fake_size))
        for i, (fake, real) in enumerate(zip(fake_rows, real_rows)):
            # the rows are in range; take stages the strided g_buf.x in a copy
            pool.features.take(fake, axis=0, out=g_buf.x, mode="clip")
            g_soft = nn.forward_pass(gen, g_buf)
            np.copyto(soft_x, g_buf.x)
            np.copyto(hard_x, g_buf.x)
            np.copyto(soft_label, g_soft)
            np.greater(g_soft, 0.5, out=hard_label)
            real_all.take(real, axis=0, out=real_block, mode="clip")
            d_grad = nn.discriminator_backward(disc, fake_size, real_size, cfg.real_weight, d_buf)
            np.copyto(d_rows[i], d_buf.out)
            nn.opt_step(disc, d_grad, opt_disc, d_buf)
            # the generator is unchanged since its pass above, so that pass is reused
            g_grad = nn.generator_backward(gen, disc, (g_buf, s_buf))
            np.copyto(g_rows[i], s_buf.out)
            nn.opt_step(gen, g_grad, opt_gen, g_buf)
        d_sum = nn.add_in_order(d_sum, nn.discriminator_loss(
            d_rows[:, :fake_size], d_rows[:, fake_size:], cfg.real_weight))
        g_sum = nn.add_in_order(g_sum, nn.generator_loss(g_rows))
        del d_rows, g_rows
    stats = {
        "iterations": n_iters,
        "d_objective": d_sum / n_iters,
        "g_loss": g_sum / n_iters,
    }
    return gen, disc, stats


def _inner_train_classifier(
    clf: nn.MlpModel,
    pool: InstancePool,
    state: RunState,
    cfg: TrainConfig,
    rng: np.random.Generator,
    opt: nn.OptState,
) -> dict:
    """Plain supervised loop on the labeled pool (adversary removed)."""
    lab_X, lab_y = _labeled_arrays(pool, state)
    # [X | 1], so that a minibatch gathers straight into buf.acts[0]
    lab_X = np.column_stack((lab_X, np.ones(len(lab_y))))
    size = min(cfg.batch_size, len(lab_y))
    buf = nn.Buffers(clf, size)
    out_rows = np.empty((_CHUNK, size))
    loss_sum = 0.0
    for start in range(0, cfg.inner_iters, _CHUNK):
        n = min(_CHUNK, cfg.inner_iters - start)
        idx = uniform_subsets(rng, len(lab_y), size, n)
        y_rows = lab_y.take(idx)
        for i in range(n):
            lab_X.take(idx[i], axis=0, out=buf.acts[0], mode="clip")
            grad = nn.classifier_backward(clf, y_rows[i], buf)
            np.copyto(out_rows[i], buf.out)
            nn.opt_step(clf, grad, opt, buf)
        loss_sum = nn.add_in_order(loss_sum, nn.binary_log_loss(out_rows[:n], y_rows))
    return {
        "iterations": cfg.inner_iters,
        "d_objective": None,
        "g_loss": loss_sum / cfg.inner_iters,
    }


def select_top(scores: np.ndarray, count: int) -> np.ndarray:
    """Positions of the count highest scores; ties go to the lower position.

    Pool rows are in pair-id order, so over ascending rows this breaks
    ties by id ascending. This is np.argsort(-scores, kind="stable")[:count]
    without sorting the rows that are not taken: the count-th highest
    score is found by a partition, every row above it is taken, and so
    are the lowest-positioned rows that equal it, until count are chosen.
    """
    neg = -np.asarray(scores)
    if count >= len(neg):
        return np.argsort(neg, kind="stable")
    if count <= 0:
        return np.empty(0, dtype=np.intp)
    cut = np.partition(neg, count - 1)[count - 1]
    taken = neg < cut
    ties = np.flatnonzero(neg == cut)
    taken[ties[: count - np.count_nonzero(taken)]] = True
    chosen = np.flatnonzero(taken)
    return chosen[np.argsort(neg[chosen], kind="stable")]


def propagate(
    gen: nn.MlpModel,
    disc: nn.MlpModel | None,
    pool: InstancePool,
    remaining: np.ndarray,
    count: int,
) -> np.ndarray:
    """The count most-confident of the ascending remaining rows, as
    (row, pseudo label code) lines in confidence order.

    A row's pseudo label is 1 iff G(x) > 1/2. Adversarial mode ranks
    each row by the discriminator's score of (x, pseudo label).
    Classifier mode uses the classifier's own output, folded so that
    confident predictions of either class rank high.
    """
    if len(remaining) == 0:
        raise ValueError("no remaining instances to propagate")
    X = pool.features[remaining]
    labels, soft = _pseudo_labels_batch(gen, X)
    conf = (np.maximum(soft, 1.0 - soft) if disc is None
            else nn.forward_batch(disc, X, label=labels))
    chosen = select_top(conf, count)
    return np.column_stack([remaining[chosen], labels[chosen]])


def run(
    cfg: TrainConfig,
    pool: InstancePool,
    partition: SubspacePartition,
    seed_budget: int | None = None,
    seed_rows: np.ndarray | None = None,
) -> RunResult:
    """Full training run: seed labeling, alternating training, propagation.

    The seed rows are given, or seed_budget of them are chosen by
    diversity-aware selection; each takes its label from pool.real_labels,
    the run's only oracle, and an unlabeled seed row is an error. No other
    row's real label is read: evaluation.evaluate_run scores the run. Ends
    when every other instance has been propagated; the final prediction
    for each is its propagated pseudo label. The pool is left unchanged.
    """
    if len(partition.subspaces) != len(pool):
        raise ValueError("partition is not assigned over this pool")
    rng = np.random.default_rng(cfg.seed)

    if seed_rows is None:
        if seed_budget is None:
            raise ValueError("need either seed_rows or seed_budget")
        seed_rows = _seed_rows(len(pool), seed_budget, partition, rng, cfg.variant)
    seed_rows = np.sort(np.asarray(seed_rows, dtype=np.intp))
    if not len(seed_rows):
        raise ValueError("cannot train without any seed labels")
    seed_labels = pool.real_labels[seed_rows]
    unlabeled = seed_rows[seed_labels == UNLABELED]
    if len(unlabeled):
        raise ValueError(f"seed pair {pool.ids[unlabeled[0]]} has no real label")
    state = RunState(len(pool))
    state.add(seed_rows, seed_labels, round_index=0)

    d = pool.n_features
    gen = nn.init_mlp((d, *cfg.gen_hidden, 1), rng)
    adversarial = cfg.variant != "no_adversary"
    disc = nn.init_mlp((d + 1, *cfg.disc_hidden, 1), rng) if adversarial else None
    opt_gen = nn.OptState.for_model(gen, cfg.optimizer, cfg.learning_rate)
    opt_disc = (
        nn.OptState.for_model(disc, cfg.disc_optimizer, cfg.disc_learning_rate)
        if adversarial
        else None
    )

    report: dict = {
        "config": asdict(cfg),  # the hidden widths are written as JSON lists
        "seed_count": len(seed_rows),
        "pool_size": len(pool),
        "rounds": [],
    }
    remaining = np.flatnonzero(state.label == UNLABELED)
    sampler = (MinibatchSampler(partition, remaining, min(cfg.batch_size, len(remaining)),
                                cfg.variant != "no_diversity") if adversarial else None)
    round_models: list = []
    round_index = 0
    while len(remaining):
        if adversarial:
            _, _, stats = inner_train(
                gen, disc, pool, state, cfg, sampler, rng, opt_gen, opt_disc
            )
        else:
            stats = _inner_train_classifier(gen, pool, state, cfg, rng, opt_gen)
        round_index += 1

        # no_propagation takes every remaining row, so it runs a single round
        gamma = len(remaining) if cfg.variant == "no_propagation" else cfg.propagate_count
        rows, labels = propagate(gen, disc, pool, remaining, gamma or len(state)).T
        state.add(rows, labels, round_index)
        remaining = remaining[state.label[remaining] == UNLABELED]

        report["rounds"].append({
            "round": round_index,
            "gamma": len(rows),
            "propagated": len(rows),
            "pool_size_after": len(state),
            "remaining_after": len(remaining),
            "d_objective": stats["d_objective"],
            "g_loss": stats["g_loss"],
        })
        round_models.append(tuple(
            None if m is None else nn.MlpModel(m.layer_dims, m.weights, m.biases)
            for m in (gen, disc)))

    report["final"] = _final_summary(pool, state, gen)
    return RunResult(state, gen, disc, report, round_models)


def predict(gen: nn.MlpModel, features: np.ndarray) -> np.ndarray:
    """Label codes of feature rows of instances that never entered the training pool."""
    if len(features) == 0:
        return np.zeros(0, np.int8)
    return _pseudo_labels_batch(gen, np.asarray(features, dtype=np.float64))[0]


def _final_summary(pool: InstancePool, state: RunState, gen: nn.MlpModel) -> dict:
    rows = state.pseudo_rows()
    matches = int(np.count_nonzero(state.label[rows] == LABEL_CODES[MATCH]))
    return {
        "pool_size": len(state),
        "rounds": int(state.round_added.max(initial=0)),
        "pseudo_label_counts": {MATCH: matches, NON_MATCH: len(rows) - matches},
        "consistency": _prediction_consistency(pool, state, gen),
    }


def _prediction_consistency(pool: InstancePool, state: RunState, gen: nn.MlpModel):
    """Agreement between the generator's direct labels and propagated labels.

    Reported only; propagation is authoritative for pool instances.
    """
    rows = state.pseudo_rows()
    if len(rows) == 0:
        return None
    fresh, _ = _pseudo_labels_batch(gen, pool.features[rows])
    return int(np.count_nonzero(fresh == state.label[rows])) / len(rows)


def write_report(report: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
