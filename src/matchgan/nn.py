"""Small feed-forward networks with exact analytic gradients.

The same architecture serves both adversarial roles: the label generator
maps a feature vector to a soft label in (0, 1); the discriminator maps a
feature vector concatenated with a scalar label channel to a realness
score in (0, 1). Hidden layers are rectified, the output is logistic and
clamped away from {0, 1} so no loss evaluation can be non-finite.

Backpropagation is written out by hand (no autodiff): the generator's
gradients flow through the discriminator's input while the discriminator
stays frozen, and vice versa. It starts from the loss derivative at the
output logit, which each loss gives in closed form.

A model keeps every parameter in one contiguous float64 vector, params,
that holds each layer as one fan_out x (fan_in + 1) block [W | b], layer
after layer; its weights and biases are views into those blocks. Every
layer input carries a trailing ones column, so a layer's forward product
adds its bias and its parameter gradient is one product delta.T @ [a | 1].
Gradients and Adam moments are vectors with the same layout, so an
optimizer update is one elementwise pass per model.

Every pass takes a caller-owned Buffers of fixed arrays, which names its
model: the pass reads the rows that the caller wrote into its x and
writes its intermediates there. A training loop builds one Buffers per
model and batch size and hands it to each call, and Adam keeps its own
scratch next to its moments, so a step allocates nothing.
The forward pass multiplies with np.matmul, the faster at scoring-block
sizes; backprop uses np.dot, the faster at minibatch sizes, whose bits
agree with @ there. Blocks stay fan_out x (fan_in + 1): products with a
contiguous copy of their transpose round differently.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

OUTPUT_EPS = 1e-7
CHECKPOINT_FORMAT_VERSION = 1
# the dtype kinds, ndim and description of each checkpoint array that is
# not a parameter; parameters are float arrays
_CHECKPOINT_TYPES = {
    "format_version": ("iu", 0, "0-d integer"),
    "seed": ("iu", 0, "0-d integer"),
    "kind": ("U", 0, "0-d string"),
    "layer_dims": ("iu", 1, "1-D integer"),
}
# Rows per forward_batch block. A pool-sized hidden layer (101k rows x 32
# units is 25 MiB) that the allocator maps and unmaps raises glibc's
# dynamic mmap and trim thresholds, after which tens of MiB of freed heap
# stay resident or not depending on allocation order, and peak RSS then
# differs between runs of the same input.
SCORE_BLOCK = 4096
# Adam's moment decay rates and the denominator's guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class MlpModel:
    """Parameters of one rectifier network with logistic output.

    The constructor copies the per-layer weights (fan_out x fan_in) and
    biases into params. blocks holds each layer's [W | b] block, and
    weights and biases its columns; all three are tuples of views into
    params, so a layer cannot be rebound to an array that params would
    not see.
    """

    def __init__(self, layer_dims, weights, biases):
        self.layer_dims = dims = tuple(int(d) for d in layer_dims)
        if dims[-1:] != (1,):
            raise ValueError("output dimension must be 1")
        n_layers = len(dims) - 1
        if n_layers < 1 or len(weights) != n_layers or len(biases) != n_layers:
            raise ValueError(f"layer_dims {dims} need {n_layers} weight and bias arrays")
        # checked first: the blocks of arrays that disagree could still join
        for ell, (w, b, fan_in, fan_out) in enumerate(zip(weights, biases, dims, dims[1:])):
            if np.shape(w) != (fan_out, fan_in) or np.shape(b) != (fan_out,):
                raise ValueError(f"layer {ell} parameter shapes disagree with layer_dims")
        self.params = np.concatenate(
            [np.column_stack((w, b)).ravel() for w, b in zip(weights, biases)], dtype=np.float64)
        self.blocks = self.layer_blocks(self.params)
        self.weights = tuple(b[:, :-1] for b in self.blocks)
        self.biases = tuple(b[:, -1] for b in self.blocks)

    def layer_blocks(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per-layer [W | b] views into a vector laid out like params."""
        blocks, lo = [], 0
        for fan_in, fan_out in zip(self.layer_dims[:-1], self.layer_dims[1:]):
            blocks.append(flat[lo : lo + fan_out * (fan_in + 1)].reshape(fan_out, fan_in + 1))
            lo += fan_out * (fan_in + 1)
        return tuple(blocks)


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
    return MlpModel(layer_dims, weights, biases)


class Buffers:
    """Arrays that the passes of one model over n rows write to.

    The caller builds one Buffers per model and batch size and passes it
    to each call; a pass's results (the output, the gradient, the input
    gradient) are these arrays, overwritten by the next call. acts holds
    each layer's input with its ones column, filled here once; x is the
    input columns of acts[0], which the caller fills before each pass, and
    hidden the rectified columns of the others. dz receives the loss
    derivative at the output logit before backprop. grad is laid out like
    params, with per-layer block views.
    """

    def __init__(self, model: MlpModel, n: int):
        dims = model.layer_dims
        self.model, self.n = model, n
        self.acts = [np.ones((n, d + 1)) for d in dims[:-1]]
        self.x = self.acts[0][:, :-1]
        self.hidden = [a[:, :-1] for a in self.acts[1:]]
        self.blocks_t = tuple(b.T for b in model.blocks)
        self.z = np.empty((n, 1))
        self.out, self.e, self.t = np.empty(n), np.empty(n), np.empty(n)
        self.nonneg = np.empty(n, dtype=bool)
        # deltas[ell] is the loss gradient at layer ell's output
        self.deltas = [np.empty((n, h)) for h in dims[1:]]
        self.dz = self.deltas[-1][:, 0]
        self.masks = [np.empty((n, h), dtype=bool) for h in dims[1:-1]]
        self.dinput = np.empty((n, dims[0]))
        self.grad = np.empty_like(model.params)
        self.grad_blocks = model.layer_blocks(self.grad)


def forward_pass(buf: Buffers) -> np.ndarray:
    """Batch forward pass of buf.model in one piece over the rows the
    caller wrote into buf.x. The returned output is buf.out, and buf.acts
    then holds every layer input for backpropagation."""
    acts, blocks_t = buf.acts, buf.blocks_t
    for ell, h in enumerate(buf.hidden):
        np.matmul(acts[ell], blocks_t[ell], out=h)
        # the ones column stays 1
        np.maximum(acts[ell + 1], 0.0, out=acts[ell + 1])
    np.matmul(acts[-1], blocks_t[-1], out=buf.z)
    z, e, out = buf.z[:, 0], buf.e, buf.out
    # overflow-safe logistic, 1/(1+e) for z >= 0 and e/(1+e) below, where
    # e = exp(-|z|) never overflows; as e <= 1, max(e, z >= 0) is that
    # numerator, without a masked (and slower) divide
    np.abs(z, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.add(e, 1.0, out=buf.t)
    np.greater_equal(z, 0.0, out=buf.nonneg)
    np.maximum(e, buf.nonneg, out=out)
    np.divide(out, buf.t, out=out)
    np.maximum(out, OUTPUT_EPS, out=out)
    np.minimum(out, 1.0 - OUTPUT_EPS, out=out)
    return out


def forward_batch(model: MlpModel, X: np.ndarray, label: np.ndarray | None = None) -> np.ndarray:
    """Deterministic feed-forward values in (0, 1), one per row of X, or
    per row of [X | label] when a label column is given.

    Rows go through in blocks of SCORE_BLOCK, the last block taking the
    remainder, so scoring a whole pool never allocates a pool-sized hidden
    layer or input. Every block starts at a multiple of SCORE_BLOCK and
    holds at least SCORE_BLOCK rows, so single-threaded BLAS runs the same
    kernels on the same row alignment as in one pass and the bits match; a
    small trailing block could take a small-matrix kernel that rounds
    otherwise.
    """
    X = np.asarray(X, dtype=np.float64)
    width = model.layer_dims[0] - (label is not None)
    if X.ndim != 2 or X.shape[1] != width:
        raise ValueError(f"input shape {X.shape} incompatible with input dim {width}")
    n = len(X)
    cuts = [0, n]
    if n >= 2 * SCORE_BLOCK:
        cuts = [*range(0, n // SCORE_BLOCK * SCORE_BLOCK, SCORE_BLOCK), n]
    out, buf = np.empty(n), Buffers(model, cuts[1])
    for lo, hi in zip(cuts, cuts[1:]):
        if buf.n != hi - lo:
            buf = Buffers(model, hi - lo)
        buf.x[:, :width] = X[lo:hi]
        if label is not None:
            buf.x[:, -1] = label[lo:hi]
        out[lo:hi] = forward_pass(buf)
    return out


def backprop(buf: Buffers, want_input: bool = False) -> np.ndarray:
    """Gradient of a scalar loss w.r.t. the parameters, or w.r.t. the input
    when want_input, the other's work skipped.

    buf holds a forward_pass, and buf.dz the loss derivative w.r.t. the
    output logit, one entry per row. Returns buf.grad, laid out like
    buf.model.params, or buf.dinput, which has one row per input row.
    """
    delta, weights = buf.deltas[-1], buf.model.weights
    for ell in range(len(weights) - 1, -1, -1):
        if not want_input:
            np.dot(delta.T, buf.acts[ell], out=buf.grad_blocks[ell])
            if ell == 0:
                break
        prev = buf.deltas[ell - 1] if ell > 0 else buf.dinput
        np.dot(delta, weights[ell], out=prev)
        if ell > 0:
            # rectifier mask
            np.greater(buf.hidden[ell - 1], 0.0, out=buf.masks[ell - 1])
            np.multiply(prev, buf.masks[ell - 1], out=prev)
        delta = prev
    return buf.dinput if want_input else buf.grad


def _mean(x: np.ndarray):
    # the sum over the last axis and one division, as np.mean computes it,
    # without its overhead; each row of a 2-D x gets the bits of a 1-D x
    return np.add.reduce(x, axis=-1) / x.shape[-1]


def add_in_order(total: float, values: np.ndarray) -> float:
    """total plus each of values in turn, with the bits of a loop that adds
    one value per iteration."""
    for value in values.tolist():
        total += value
    return total


def generator_loss(d_on_fake: np.ndarray):
    """Mean of log(1 - d) over the discriminator's scores on generated
    pairs, along the last axis: one loss per row of a 2-D array."""
    return _mean(np.log(1.0 - d_on_fake))


def discriminator_loss(d_on_fake: np.ndarray, d_on_real: np.ndarray, real_weight: float):
    """Objective the discriminator maximizes: mean log(1 - d_fake) plus
    real_weight times mean log(d_real), along the last axis."""
    return _mean(np.log(1.0 - d_on_fake)) + real_weight * _mean(np.log(d_on_real))


def generator_backward(g_buf: Buffers, d_buf: Buffers) -> np.ndarray:
    """Generator gradient of mean log(1 - D(x, G(x))).

    The gradient flows through the discriminator's label input channel
    with the discriminator's own parameters held fixed; only the
    generator's gradient is produced. g_buf and d_buf are the generator's
    and the discriminator's Buffers over the same rows: g_buf holds a
    forward_pass over X, and d_buf.x the discriminator's input [X | G(X)].
    """
    if g_buf.n != d_buf.n:
        raise ValueError(f"generator buffers hold {g_buf.n} rows, discriminator's {d_buf.n}")
    d_out = forward_pass(d_buf)
    # d/dz of log(1 - d) / n
    np.divide(d_out, -len(d_out), out=d_buf.dz)
    dinput = backprop(d_buf, want_input=True)
    # through the generator's logistic to its logit: g (1 - g) dL/dg
    g_out, dz = g_buf.out, g_buf.dz
    np.subtract(1.0, g_out, out=dz)
    np.multiply(dz, g_out, out=dz)
    np.multiply(dz, dinput[:, -1], out=dz)
    return backprop(g_buf)


def discriminator_backward(buf: Buffers, n_f: int, real_weight: float) -> np.ndarray:
    """Descent gradient for the discriminator update.

    buf.x holds n_f generated rows, whose last column is the generator's
    label, a constant (the generator is frozen), and then n_r = buf.n - n_f
    real ones, all run through one forward pass and one backpropagation.
    The minimized loss is -objective, whose derivative w.r.t. a row's logit
    is d / n_f on a fake row and -real_weight (1 - d) / n_r on a real one,
    so an optimizer step on the returned gradient ascends the objective.
    """
    n_r = buf.n - n_f
    d_out = forward_pass(buf)
    dz_fake, dz_real = buf.dz[:n_f], buf.dz[n_f:]
    np.divide(d_out[:n_f], n_f, out=dz_fake)
    np.subtract(d_out[n_f:], 1.0, out=dz_real)
    np.multiply(dz_real, real_weight / n_r, out=dz_real)
    return backprop(buf)


def binary_log_loss(outputs: np.ndarray, targets: np.ndarray):
    """Mean binary cross-entropy of clamped outputs against 0/1 targets,
    along the last axis."""
    return -_mean(targets * np.log(outputs) + (1.0 - targets) * np.log(1.0 - outputs))


def classifier_backward(buf: Buffers, targets: np.ndarray) -> np.ndarray:
    """Gradient of binary cross-entropy for the plain classifier on the
    rows in buf.x, whose derivative w.r.t. a row's logit is
    (out - y) / n."""
    if buf.n != len(targets):
        raise ValueError(f"{len(targets)} targets for buffers of {buf.n} rows")
    out = forward_pass(buf)
    np.subtract(out, targets, out=buf.dz)
    np.divide(buf.dz, len(out), out=buf.dz)
    return backprop(buf)


@dataclass
class OptState:
    """Adam's state: the step count, the moment accumulators and two
    scratch vectors for the update's intermediates, all laid out like the
    model's params."""

    learning_rate: float
    moment1: np.ndarray
    moment2: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray]
    step_count: int = 0

    @classmethod
    def for_model(cls, model: MlpModel, learning_rate: float):
        p = model.params
        return cls(learning_rate, np.zeros_like(p), np.zeros_like(p),
                   (np.empty_like(p), np.empty_like(p)))


def opt_step(model: MlpModel, grad: np.ndarray, state: OptState) -> None:
    """One deterministic Adam update of model.params in place.

    grad is laid out like params. Adam uses bias-corrected first/second
    moments, with b1, b2 and eps the ADAM_ constants:
        m <- b1 m + (1-b1) g        v <- b2 v + (1-b2) g^2
        p <- p - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
    with the products evaluated left to right, as written.
    """
    state.step_count += 1
    t = state.step_count
    lr = state.learning_rate
    s1, s2 = state.scratch
    m, v = state.moment1, state.moment2
    m *= ADAM_BETA1
    np.multiply(grad, 1.0 - ADAM_BETA1, out=s1)
    m += s1
    v *= ADAM_BETA2
    np.multiply(grad, 1.0 - ADAM_BETA2, out=s1)
    s1 *= grad
    v += s1
    np.divide(m, 1.0 - ADAM_BETA1**t, out=s1)  # m_hat
    np.divide(v, 1.0 - ADAM_BETA2**t, out=s2)  # v_hat
    np.sqrt(s2, out=s2)
    s2 += ADAM_EPS
    s1 *= lr
    s1 /= s2
    model.params -= s1


def save_model(path: str | Path, model: MlpModel, seed: int | None = None,
               kind: str = "") -> None:
    """Write a checkpoint: layer dims, parameters, seed and kind."""
    payload: dict[str, np.ndarray] = {
        "format_version": np.array(CHECKPOINT_FORMAT_VERSION),
        "layer_dims": np.array(model.layer_dims),
        "kind": np.array(kind),
        "seed": np.array(-1 if seed is None else seed),
    }
    for ell, (w, b) in enumerate(zip(model.weights, model.biases)):
        payload[f"W{ell}"], payload[f"b{ell}"] = w, b
    np.savez(path, **payload)


def load_model(path: str | Path):
    """Read a checkpoint; returns (model, meta). Arrays it does not read,
    such as optimizer moments, are ignored.

    A file that is not a whole .npz archive, a missing array, an array
    that is not of its _CHECKPOINT_TYPES entry (a float array, if it has
    none), a float array holding a value that is not finite, a kind that
    no command writes ("" is save_model's default), or parameters that
    disagree with layer_dims raises ValueError naming the file.
    """
    try:
        # the file is opened here, as np.load leaves open a file it fails to
        # read; a .npy file loads as an array, which is no context manager
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as archive:
            data = dict(archive)
    except (EOFError, TypeError, ValueError, zipfile.BadZipFile):
        raise ValueError(f"{path}: not a checkpoint, or a damaged one") from None

    def read(key: str) -> np.ndarray:
        if key not in data:
            raise ValueError(f"checkpoint has no {key!r} array")
        value = data[key]
        kinds, ndim, want = _CHECKPOINT_TYPES.get(key, ("f", None, "float"))
        if value.dtype.kind not in kinds or ndim not in (None, value.ndim):
            raise ValueError(f"checkpoint array {key!r} is not a {want} array")
        if kinds == "f" and not np.isfinite(value).all():
            raise ValueError(f"checkpoint array {key!r} is not finite")
        return value

    # every fault below, the constructor's too, is named with the file
    try:
        version = int(read("format_version"))
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format version {version}")
        kind = str(read("kind"))
        if kind not in ("", "generator", "classifier", "discriminator"):
            raise ValueError(f"unknown checkpoint kind {kind!r}")
        dims = read("layer_dims").tolist()
        ells = range(len(dims) - 1)
        model = MlpModel(dims, [read(f"W{i}") for i in ells], [read(f"b{i}") for i in ells])
        meta = {"kind": kind, "seed": int(read("seed")), "format_version": version}
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return model, meta
