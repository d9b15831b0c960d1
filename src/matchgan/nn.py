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

The passes and the optimizer step write every intermediate into a
Buffers of fixed arrays, which a training loop builds once and reuses;
called without one they build their own. Either way the same products and
elementwise operations run in the same order, so the bits do not depend on
whether buffers were passed. The forward pass multiplies with np.matmul,
the faster at scoring-block sizes; backprop uses np.dot, the faster at
minibatch sizes, whose bits agree with @ there. Blocks stay
fan_out x (fan_in + 1): products with a contiguous copy of their transpose
round differently.
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
        self.params = np.empty(sum((i + 1) * o for i, o in zip(dims[:-1], dims[1:])))
        self.blocks = self.layer_blocks(self.params)
        self.weights, self.biases = self.split(self.params)
        for ell, (w, b) in enumerate(zip(weights, biases)):
            if np.shape(w) != self.weights[ell].shape or np.shape(b) != self.biases[ell].shape:
                raise ValueError(f"layer {ell} parameter shapes disagree with layer_dims")
            self.weights[ell][...] = w
            self.biases[ell][...] = b

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    def layer_blocks(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per-layer [W | b] views into a vector laid out like params."""
        blocks, lo = [], 0
        for fan_in, fan_out in zip(self.layer_dims[:-1], self.layer_dims[1:]):
            blocks.append(flat[lo : lo + fan_out * (fan_in + 1)].reshape(fan_out, fan_in + 1))
            lo += fan_out * (fan_in + 1)
        return tuple(blocks)

    def split(self, flat: np.ndarray) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """Per-layer (weights, biases) views into a vector laid out like params."""
        blocks = self.layer_blocks(flat)
        return tuple(b[:, :-1] for b in blocks), tuple(b[:, -1] for b in blocks)


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


class Buffers:
    """Arrays that forward_pass and backprop of one model on n rows write to.

    A loop that runs many passes of the same size builds one Buffers per
    model and size and hands it to each call as buffers=; the pass then
    allocates nothing, and its results (the output, the gradient, the
    input gradient) are these arrays, overwritten by the next call. acts
    holds each layer's input with its ones column, filled here once; x is
    the input columns of acts[0], which callers may gather or stack rows
    into, and hidden the rectified columns of the others. dz receives the
    loss derivative at the output logit before backprop. grad is laid out
    like params, with per-layer block views; step is optimizer scratch. A
    call made without buffers builds its own, so there is one copy of the
    layer math.
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
        self.step = (np.empty_like(model.params), np.empty_like(model.params))


def _buffers_for(model: MlpModel, n: int, buffers: Buffers | None) -> Buffers:
    if buffers is None:
        return Buffers(model, n)
    if buffers.model is not model or buffers.n != n:
        raise ValueError(f"buffers hold {buffers.n} rows of another pass, not {n} of this one")
    return buffers


def forward_pass(model: MlpModel, X: np.ndarray, buffers: Buffers | None = None) -> np.ndarray:
    """Batch forward pass in one piece. The returned output is buffers.out,
    and buffers.acts then holds every layer input for backpropagation. X
    is copied into buffers.x unless it is buffers.x."""
    if buffers is None or X is not buffers.x:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != model.input_dim:
            raise ValueError(
                f"input shape {X.shape} incompatible with input dim {model.input_dim}"
            )
    buf = _buffers_for(model, len(X), buffers)
    if X is not buf.x:
        np.copyto(buf.x, X)
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
    width = model.input_dim - (label is not None)
    if X.ndim != 2 or X.shape[1] != width:
        raise ValueError(f"input shape {X.shape} incompatible with input dim {width}")
    n = len(X)
    cuts = [0, n]
    if n >= 2 * SCORE_BLOCK:
        cuts = [*range(0, n // SCORE_BLOCK * SCORE_BLOCK, SCORE_BLOCK), n]
    out = np.empty(n)
    buf = None
    for lo, hi in zip(cuts, cuts[1:]):
        if buf is None or buf.n != hi - lo:
            buf = Buffers(model, hi - lo)
        x = X[lo:hi]
        if label is not None:
            buf.x[:, :-1] = x
            buf.x[:, -1] = label[lo:hi]
            x = buf.x
        out[lo:hi] = forward_pass(model, x, buffers=buf)
    return out


def backprop(model: MlpModel, buffers: Buffers, want_params: bool = True,
             want_input: bool = False):
    """Gradients of a scalar loss w.r.t. the parameters and the input.

    buffers holds a forward_pass of model, and buffers.dz the loss
    derivative w.r.t. the output logit, one entry per row. Returns
    (grad, dinput): grad is laid out like model.params, dinput has one row
    per input row, and each is None, its work skipped, unless asked for.
    They are buffers.grad and buffers.dinput.
    """
    buf = _buffers_for(model, buffers.n, buffers)
    delta = buf.deltas[-1]
    for ell in range(len(model.blocks) - 1, -1, -1):
        if want_params:
            np.dot(delta.T, buf.acts[ell], out=buf.grad_blocks[ell])
        if ell == 0 and not want_input:
            break
        prev = buf.deltas[ell - 1] if ell > 0 else buf.dinput
        np.dot(delta, model.weights[ell], out=prev)
        if ell > 0:
            # rectifier mask
            np.greater(buf.hidden[ell - 1], 0.0, out=buf.masks[ell - 1])
            np.multiply(prev, buf.masks[ell - 1], out=prev)
        delta = prev
    return (buf.grad if want_params else None), (buf.dinput if want_input else None)


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
    d = np.asarray(d_on_fake, dtype=np.float64)
    return _mean(np.log(1.0 - d))


def discriminator_loss(d_on_fake: np.ndarray, d_on_real: np.ndarray, real_weight: float):
    """Objective the discriminator maximizes: mean log(1 - d_fake) plus
    real_weight times mean log(d_real), along the last axis."""
    fake = np.asarray(d_on_fake, dtype=np.float64)
    real = np.asarray(d_on_real, dtype=np.float64)
    return _mean(np.log(1.0 - fake)) + real_weight * _mean(np.log(real))


def generator_backward(gen: MlpModel, disc: MlpModel, X: np.ndarray, recorded: bool = False,
                       buffers: tuple[Buffers, Buffers] | None = None) -> np.ndarray:
    """Generator gradient of mean log(1 - D(x, G(x))).

    The gradient flows through the discriminator's label input channel
    with the discriminator's own parameters held fixed; only the
    generator's gradient is produced. buffers is a (generator,
    discriminator) pair of Buffers over len(X) rows. recorded says that
    they already hold a forward_pass of gen over X and, in the
    discriminator's x, its input [X | G(X)], which are then not computed
    again.
    """
    if buffers is None:
        buffers = (Buffers(gen, len(X)), Buffers(disc, len(X)))
    g_buf, d_buf = buffers
    if not recorded:
        forward_pass(gen, X, buffers=g_buf)
        d_buf.x[:, :-1] = g_buf.x
        d_buf.x[:, -1] = g_buf.out
    d_out = forward_pass(disc, d_buf.x, buffers=d_buf)
    # d/dz of log(1 - d) / n
    np.divide(d_out, -len(d_out), out=d_buf.dz)
    _, dinput = backprop(disc, d_buf, want_params=False, want_input=True)
    # through the generator's logistic to its logit: g (1 - g) dL/dg
    g_out, dz = g_buf.out, g_buf.dz
    np.subtract(1.0, g_out, out=dz)
    np.multiply(dz, g_out, out=dz)
    np.multiply(dz, dinput[:, -1], out=dz)
    grad, _ = backprop(gen, g_buf)
    return grad


def discriminator_backward(
    disc: MlpModel,
    fake_inputs: np.ndarray,
    real_inputs: np.ndarray,
    real_weight: float,
    buffers: Buffers | None = None,
) -> np.ndarray:
    """Descent gradient for the discriminator update.

    fake_inputs carry the generator's labels as their last column, treated
    as constants (the generator is frozen). Both batches go through one
    forward pass and one backpropagation, stacked as [fake; real] in
    buffers.x; inputs that are views of buffers.x are taken to sit there
    already, fake rows first, and are not copied. The minimized loss is
    -objective, whose derivative w.r.t. a row's logit is d / n_f on a fake
    row and -real_weight (1 - d) / n_r on a real one. The returned
    gradient is that of the negated objective, so an optimizer step
    ascends it.
    """
    n_f = len(fake_inputs)
    buf = _buffers_for(disc, n_f + len(real_inputs), buffers)
    x = buf.x
    if fake_inputs.base is not x.base or real_inputs.base is not x.base:
        np.concatenate((fake_inputs, real_inputs), out=x)
    d_out = forward_pass(disc, x, buffers=buf)
    dz_fake, dz_real = buf.dz[:n_f], buf.dz[n_f:]
    np.divide(d_out[:n_f], n_f, out=dz_fake)
    np.subtract(d_out[n_f:], 1.0, out=dz_real)
    np.multiply(dz_real, real_weight / len(dz_real), out=dz_real)
    grad, _ = backprop(disc, buf)
    return grad


def binary_log_loss(outputs: np.ndarray, targets: np.ndarray):
    """Mean binary cross-entropy of clamped outputs against 0/1 targets,
    along the last axis."""
    s = np.asarray(outputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    return -_mean(y * np.log(s) + (1.0 - y) * np.log(1.0 - s))


def classifier_backward(model: MlpModel, X: np.ndarray, targets: np.ndarray,
                        buffers: Buffers | None = None) -> np.ndarray:
    """Gradient of binary cross-entropy for the plain classifier, whose
    derivative w.r.t. a row's logit is (out - y) / n."""
    buf = _buffers_for(model, len(X), buffers)
    out = forward_pass(model, X, buffers=buf)
    np.subtract(out, targets, out=buf.dz)
    np.divide(buf.dz, len(out), out=buf.dz)
    grad, _ = backprop(model, buf)
    return grad


@dataclass
class OptState:
    """Optimizer state: adaptive-moment accumulators, laid out like the
    model's params, or plain SGD (no moments)."""

    kind: str = "adam"
    learning_rate: float = 1e-3
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


def opt_step(model: MlpModel, grad: np.ndarray, state: OptState,
             buffers: Buffers | None = None) -> tuple[MlpModel, OptState]:
    """One deterministic optimizer update of model.params in place.

    grad is laid out like params. Adam uses bias-corrected first/second
    moments, with b1, b2 and eps the ADAM_ constants:
        m <- b1 m + (1-b1) g        v <- b2 v + (1-b2) g^2
        p <- p - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
    with the products evaluated left to right, as written. Intermediates
    go to buffers.step when buffers are given.
    """
    state.step_count += 1
    t = state.step_count
    lr = state.learning_rate
    if buffers is None:
        s1, s2 = np.empty_like(model.params), np.empty_like(model.params)
    else:
        s1, s2 = buffers.step
    if state.kind == "sgd":
        np.multiply(grad, lr, out=s1)
        model.params -= s1
        return model, state
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
    return model, state


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

        version = int(read("format_version"))
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format version {version}")
        dims = tuple(int(d) for d in read("layer_dims"))
        # the constructor checks the count and shapes of the arrays
        ells = range(len(dims) - 1)
        model = MlpModel(dims, [read(f"W{i}") for i in ells], [read(f"b{i}") for i in ells])
        meta = {
            "kind": str(read("kind")),
            "seed": int(read("seed")),
            "format_version": version,
        }
    return model, meta
