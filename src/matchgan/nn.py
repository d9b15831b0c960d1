"""Small feed-forward networks with exact analytic gradients.

The same architecture serves both adversarial roles: the label generator
maps a feature vector to a soft label in (0, 1); the discriminator maps a
feature vector concatenated with a scalar label channel to a realness
score in (0, 1). Hidden layers are rectified, the output is logistic and
clamped away from {0, 1} so no loss evaluation can be non-finite.

Backpropagation is written out by hand (no autodiff): the generator's
gradients flow through the discriminator's input while the discriminator
stays frozen, and vice versa.

A model keeps every parameter in one contiguous float64 vector, params,
laid out W0, b0, W1, b1, ...; its weights and biases are views into that
vector. Gradients and Adam moments are vectors with the same layout, so an
optimizer update is one elementwise pass per model.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

OUTPUT_EPS = 1e-7
CHECKPOINT_FORMAT_VERSION = 1
# Rows per forward_batch block. A pool-sized hidden layer (101k rows x 32
# units is 25 MiB) that the allocator maps and unmaps raises glibc's
# dynamic mmap and trim thresholds, after which tens of MiB of freed heap
# stay resident or not depending on allocation order, and peak RSS then
# differs between runs of the same input.
SCORE_BLOCK = 4096


class MlpModel:
    """Parameters of one rectifier network with logistic output.

    The constructor copies the per-layer weights (fan_out x fan_in) and
    biases into params. weights and biases are tuples of views into params,
    so a layer cannot be rebound to an array that params would not see.
    """

    def __init__(self, layer_dims, weights, biases):
        self.layer_dims = dims = tuple(int(d) for d in layer_dims)
        if dims[-1:] != (1,):
            raise ValueError("output dimension must be 1")
        n_layers = len(dims) - 1
        if n_layers < 1 or len(weights) != n_layers or len(biases) != n_layers:
            raise ValueError(f"layer_dims {dims} need {n_layers} weight and bias arrays")
        self.params = np.empty(sum((i + 1) * o for i, o in zip(dims[:-1], dims[1:])))
        self.weights, self.biases = self.split(self.params)
        for ell, (w, b) in enumerate(zip(weights, biases)):
            if np.shape(w) != self.weights[ell].shape or np.shape(b) != self.biases[ell].shape:
                raise ValueError(f"layer {ell} parameter shapes disagree with layer_dims")
            self.weights[ell][...] = w
            self.biases[ell][...] = b

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    def split(self, flat: np.ndarray) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """Per-layer (weights, biases) views into a vector laid out like params."""
        weights, biases, lo = [], [], 0
        for fan_in, fan_out in zip(self.layer_dims[:-1], self.layer_dims[1:]):
            weights.append(flat[lo : lo + fan_out * fan_in].reshape(fan_out, fan_in))
            lo += fan_out * fan_in
            biases.append(flat[lo : lo + fan_out])
            lo += fan_out
        return tuple(weights), tuple(biases)

    def copy(self) -> "MlpModel":
        return MlpModel(self.layer_dims, self.weights, self.biases)


def init_mlp(layer_dims, rng: np.random.Generator) -> MlpModel:
    """Uniform fan-in initialization with a zeroed output layer.

    Hidden layers draw from +-1/sqrt(fan_in). The output layer starts at
    zero so the network opens at exactly 0.5 everywhere: adversarial
    training then starts from a neutral labeling instead of a random one,
    which removes an initialization lottery over which class each input
    region first commits to.
    """
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    weights[-1][:] = 0.0
    biases[-1][:] = 0.0
    return MlpModel(layer_dims=tuple(layer_dims), weights=weights, biases=biases)


def zero_mlp(layer_dims) -> MlpModel:
    """All-zero parameters; the network outputs exactly 0.5 everywhere."""
    weights = [
        np.zeros((fan_out, fan_in))
        for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:])
    ]
    biases = [np.zeros(fan_out) for fan_out in layer_dims[1:]]
    return MlpModel(layer_dims=tuple(layer_dims), weights=weights, biases=biases)


def forward_pass(model: MlpModel, X: np.ndarray, activations: list | None = None):
    """Batch forward pass in one piece; appends every layer input to
    activations when the caller passes a list to fill for backpropagation."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ValueError(
            f"input shape {X.shape} incompatible with input dim {model.input_dim}"
        )
    a = X
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        if activations is not None:
            activations.append(a)
        a = a @ w.T
        a += b
        np.maximum(a, 0.0, out=a)
    if activations is not None:
        activations.append(a)
    z = a @ model.weights[-1].T
    z += model.biases[-1]
    z = z[:, 0]
    # overflow-safe logistic, 1/(1+e) for z >= 0 and e/(1+e) below, where
    # e = exp(-|z|) never overflows
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e)
    out /= 1.0 + e
    np.maximum(out, OUTPUT_EPS, out=out)
    np.minimum(out, 1.0 - OUTPUT_EPS, out=out)
    return out


def forward_batch(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Deterministic feed-forward values in (0, 1), one per row of X.

    Rows go through in blocks of SCORE_BLOCK, the last block taking the
    remainder, so scoring a whole pool never allocates a pool-sized hidden
    layer. Every block starts at a multiple of SCORE_BLOCK and holds at
    least SCORE_BLOCK rows, so single-threaded BLAS runs the same kernels
    on the same row alignment as in one pass and the bits match; a small
    trailing block could take a small-matrix kernel that rounds otherwise.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or len(X) < 2 * SCORE_BLOCK:
        return forward_pass(model, X)
    bounds = [*range(0, len(X) // SCORE_BLOCK * SCORE_BLOCK, SCORE_BLOCK), len(X)]
    return np.concatenate([forward_pass(model, X[lo:hi]) for lo, hi in zip(bounds, bounds[1:])])


def backprop(model: MlpModel, out: np.ndarray, activations, dloss_dout: np.ndarray,
             want_params: bool = True, want_input: bool = False):
    """Gradients of a scalar loss w.r.t. the parameters and the input.

    dloss_dout holds the loss derivative w.r.t. the clamped logistic
    output, one entry per batch row. Returns (grad, dinput): grad is laid
    out like model.params, dinput has one row per input row, and each is
    None, its work skipped, unless asked for.
    """
    grad = np.empty_like(model.params) if want_params else None
    if want_params:
        dws, dbs = model.split(grad)
    delta = (dloss_dout * out * (1.0 - out))[:, None]  # through the logistic output
    for ell in range(len(model.weights) - 1, -1, -1):
        if want_params:
            np.matmul(delta.T, activations[ell], out=dws[ell])
            np.add.reduce(delta, axis=0, out=dbs[ell])
        if ell == 0 and not want_input:
            return grad, None
        dprev = delta @ model.weights[ell]
        if ell > 0:
            dprev *= activations[ell] > 0.0  # rectifier mask
        delta = dprev
    return grad, delta


def _mean(x: np.ndarray) -> np.float64:
    # the sum and one division, as np.mean computes it, without its overhead
    return np.add.reduce(x, axis=None) / x.size


def generator_loss(d_on_fake: np.ndarray) -> float:
    """Mean of log(1 - d) over the discriminator's scores on generated pairs."""
    d = np.asarray(d_on_fake, dtype=np.float64)
    return float(_mean(np.log(1.0 - d)))


def discriminator_loss(
    d_on_fake: np.ndarray, d_on_real: np.ndarray, real_weight: float
) -> float:
    """Objective the discriminator maximizes: mean log(1 - d_fake) plus
    real_weight times mean log(d_real)."""
    fake = np.asarray(d_on_fake, dtype=np.float64)
    real = np.asarray(d_on_real, dtype=np.float64)
    return float(_mean(np.log(1.0 - fake)) + real_weight * _mean(np.log(real)))


def generator_backward(gen: MlpModel, disc: MlpModel, X: np.ndarray, recorded=None):
    """Loss and generator gradient of mean log(1 - D(x, G(x))).

    The gradient flows through the discriminator's label input channel
    with the discriminator's own parameters held fixed; only the
    generator's gradient is produced. recorded, when given, is
    (fake_in, activations) from a recording forward_pass of gen over X:
    the discriminator input [X | G(X)] and the generator's layer inputs,
    which are then not computed again.
    """
    if recorded is None:
        X = np.asarray(X, dtype=np.float64)
        g_acts: list = []
        g_out = forward_pass(gen, X, g_acts)
        fake_in = np.hstack([X, g_out[:, None]])
    else:
        fake_in, g_acts = recorded
        g_out = fake_in[:, -1]
    d_acts: list = []
    d_out = forward_pass(disc, fake_in, d_acts)
    n = d_out.shape[0]
    loss = generator_loss(d_out)
    dloss_dd = -1.0 / (n * (1.0 - d_out))
    _, dinput = backprop(disc, d_out, d_acts, dloss_dd, want_params=False, want_input=True)
    dloss_dg = dinput[:, -1]  # derivative w.r.t. the generated label channel
    grad, _ = backprop(gen, g_out, g_acts, dloss_dg)
    return loss, grad


def discriminator_backward(
    disc: MlpModel,
    fake_inputs: np.ndarray,
    real_inputs: np.ndarray,
    real_weight: float,
):
    """Objective value and descent gradient for the discriminator update.

    fake_inputs carry the generator's labels as their last column, treated
    as constants (the generator is frozen). The returned gradient is that
    of the negated objective, so an optimizer step ascends it.
    """
    fake_acts: list = []
    real_acts: list = []
    d_fake = forward_pass(disc, fake_inputs, fake_acts)
    d_real = forward_pass(disc, real_inputs, real_acts)
    n_f, n_r = d_fake.shape[0], d_real.shape[0]
    objective = discriminator_loss(d_fake, d_real, real_weight)
    # minimized loss is -objective
    dloss_dfake = 1.0 / (n_f * (1.0 - d_fake))
    dloss_dreal = -real_weight / (n_r * d_real)
    # two passes summed afterwards: one pass over both batches would sum
    # the rows in another order
    grad, _ = backprop(disc, d_fake, fake_acts, dloss_dfake)
    grad_real, _ = backprop(disc, d_real, real_acts, dloss_dreal)
    grad += grad_real
    return objective, grad


def binary_log_loss(outputs: np.ndarray, targets: np.ndarray) -> float:
    """Mean binary cross-entropy of clamped outputs against 0/1 targets."""
    s = np.asarray(outputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    return float(-_mean(y * np.log(s) + (1.0 - y) * np.log(1.0 - s)))


def classifier_backward(model: MlpModel, X: np.ndarray, targets: np.ndarray):
    """Loss and gradient of binary cross-entropy for the plain classifier."""
    acts: list = []
    out = forward_pass(model, X, acts)
    y = np.asarray(targets, dtype=np.float64)
    n = out.shape[0]
    loss = binary_log_loss(out, y)
    dloss_dout = (out - y) / (out * (1.0 - out) * n)
    grad, _ = backprop(model, out, acts, dloss_dout)
    return loss, grad


@dataclass
class OptState:
    """Optimizer state: adaptive-moment accumulators, laid out like the
    model's params, or plain SGD (no moments)."""

    kind: str = "adam"
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    moment1: np.ndarray | None = None
    moment2: np.ndarray | None = None

    @classmethod
    def for_model(cls, model: MlpModel, kind: str = "adam", learning_rate: float = 1e-3):
        if kind not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer kind {kind!r}")
        state = cls(kind=kind, learning_rate=learning_rate)
        if kind == "adam":
            state.moment1 = np.zeros_like(model.params)
            state.moment2 = np.zeros_like(model.params)
        return state


def opt_step(model: MlpModel, grad: np.ndarray, state: OptState) -> tuple[MlpModel, OptState]:
    """One deterministic optimizer update of model.params in place.

    grad is laid out like params. Adam uses bias-corrected first/second
    moments:
        m <- b1 m + (1-b1) g        v <- b2 v + (1-b2) g^2
        p <- p - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
    with the products evaluated left to right, as written.
    """
    state.step_count += 1
    t = state.step_count
    lr = state.learning_rate
    if state.kind == "sgd":
        model.params -= lr * grad
        return model, state
    m, v = state.moment1, state.moment2
    m *= state.beta1
    m += (1.0 - state.beta1) * grad
    v *= state.beta2
    v += (1.0 - state.beta2) * grad * grad
    m_hat = m / (1.0 - state.beta1**t)
    v_hat = v / (1.0 - state.beta2**t)
    model.params -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return model, state


@dataclass
class DiscreteJointDistribution:
    """Two discrete distributions over shared (x, y) support points."""

    points: list
    p_real: np.ndarray
    p_generated: np.ndarray

    def __post_init__(self):
        self.p_real = np.asarray(self.p_real, dtype=np.float64)
        self.p_generated = np.asarray(self.p_generated, dtype=np.float64)
        for p in (self.p_real, self.p_generated):
            if np.any(p < 0.0):
                raise ValueError("probabilities must be non-negative")
            if abs(float(p.sum()) - 1.0) > 1e-9:
                raise ValueError("each distribution must sum to 1")


def _ternary_max(objective, lo: float, hi: float, iters: int = 200) -> float:
    for _ in range(iters):
        third = (hi - lo) / 3.0
        a, b = lo + third, hi - third
        if objective(a) < objective(b):
            lo = a
        else:
            hi = b
    return 0.5 * (lo + hi)


def optimal_discriminator_check(
    dist: DiscreteJointDistribution, real_weight: float = 1.0
) -> list[tuple[float, float]]:
    """Closed-form vs. numeric pointwise optimum of the discriminator objective.

    At each support point the objective w*p_real*log(d) + p_gen*log(1-d)
    is concave in d; its maximizer has the closed form
    w*p_real / (w*p_real + p_gen). The numeric value comes from ternary
    search, independent of that formula. Points with both probabilities
    zero are skipped.
    """
    out: list[tuple[float, float]] = []
    for p_d, p_g in zip(dist.p_real, dist.p_generated):
        if p_d == 0.0 and p_g == 0.0:
            continue
        closed = real_weight * p_d / (real_weight * p_d + p_g)

        def pointwise(d, p_d=p_d, p_g=p_g):
            return real_weight * p_d * np.log(d) + p_g * np.log(1.0 - d)

        numeric = _ternary_max(pointwise, 1e-9, 1.0 - 1e-9)
        out.append((float(closed), float(numeric)))
    return out


def save_model(
    path: str | Path,
    model: MlpModel,
    opt_state: OptState | None = None,
    seed: int | None = None,
    kind: str = "",
) -> None:
    """Write a checkpoint: layer dims, parameters, seed, and the Adam
    moments, learning rate and step count when an Adam state is given."""
    payload: dict[str, np.ndarray] = {
        "format_version": np.array(CHECKPOINT_FORMAT_VERSION),
        "layer_dims": np.array(model.layer_dims),
        "kind": np.array(kind),
        "seed": np.array(-1 if seed is None else seed),
    }
    vectors = {"": model.params}
    if opt_state is not None and opt_state.kind == "adam":
        payload["opt_step"] = np.array(opt_state.step_count)
        payload["opt_lr"] = np.array(opt_state.learning_rate)
        vectors.update(m1=opt_state.moment1, m2=opt_state.moment2)
    for prefix, flat in vectors.items():
        for ell, (w, b) in enumerate(zip(*model.split(flat))):
            payload[f"{prefix}W{ell}"], payload[f"{prefix}b{ell}"] = w, b
    np.savez(path, **payload)


def load_model(path: str | Path):
    """Read a checkpoint; returns (model, opt_state_or_None, meta).

    A missing array, or a float array holding a value that is not finite,
    raises ValueError naming it.
    """
    with np.load(path, allow_pickle=False) as data:

        def read(key: str) -> np.ndarray:
            if key not in data:
                raise ValueError(f"{path}: checkpoint has no {key!r} array")
            value = data[key]
            if value.dtype.kind == "f" and not np.isfinite(value).all():
                raise ValueError(f"{path}: checkpoint array {key!r} is not finite")
            return value

        def layers(prefix: str) -> MlpModel:
            # the constructor checks the count and shapes of the arrays
            ells = range(len(dims) - 1)
            return MlpModel(dims, [read(f"{prefix}W{i}") for i in ells],
                            [read(f"{prefix}b{i}") for i in ells])

        version = int(read("format_version"))
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format version {version}")
        dims = tuple(int(d) for d in read("layer_dims"))
        model = layers("")
        opt_state = None
        if "opt_step" in data:
            opt_state = OptState(
                learning_rate=float(read("opt_lr")), step_count=int(read("opt_step")),
                moment1=layers("m1").params, moment2=layers("m2").params,
            )
        meta = {
            "kind": str(read("kind")),
            "seed": int(read("seed")),
            "format_version": version,
        }
    return model, opt_state, meta
