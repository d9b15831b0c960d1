import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from matchgan import nn
from matchgan.nn import (
    MlpModel,
    OptState,
    binary_log_loss,
    classifier_backward,
    discriminator_loss,
    forward_batch,
    generator_backward,
    generator_loss,
    init_mlp,
    load_model,
    opt_step,
    save_model,
)

from helpers import (DiscreteJointDistribution, classifier_grad, copy_model, discriminator_grad,
                     generator_grad, optimal_discriminator_check, zero_mlp)


def hand_rolled_forward(x, weights, biases):
    """Independent scalar re-implementation (plain loops, no shared code)."""
    a = list(x)
    for ell in range(len(weights)):
        out = []
        for row, b in zip(weights[ell], biases[ell]):
            z = sum(w * v for w, v in zip(row, a)) + b
            out.append(z)
        if ell < len(weights) - 1:
            a = [max(z, 0.0) for z in out]
        else:
            a = out
    return 1.0 / (1.0 + math.exp(-a[0]))


def finite_diff_grads(loss_fn, model, h=1e-5):
    """Central differences over every parameter, laid out like model.params."""
    grad = np.zeros_like(model.params)
    for i in range(model.params.size):
        model.params[i] += h
        up = loss_fn()
        model.params[i] -= 2 * h
        down = loss_fn()
        model.params[i] += h
        grad[i] = (up - down) / (2 * h)
    return grad


def relative_error(analytic, numeric):
    num = np.abs(analytic - numeric).sum()
    den = np.abs(analytic).sum() + np.abs(numeric).sum()
    return num / max(den, 1e-12)


def layer_filled(model, w_value, b_value):
    """A vector laid out like model.params, w_value in every weight and
    b_value in every bias."""
    flat = np.empty_like(model.params)
    for block in model.layer_blocks(flat):
        block[:, :-1] = w_value
        block[:, -1] = b_value
    return flat


def forward(model, x):
    """The output for one input vector, as a one-row batch."""
    return forward_batch(model, x[None])[0]


class TestForward:
    def test_zero_network_outputs_half(self):
        model = zero_mlp((3, 4, 1))
        assert forward(model, np.zeros(3)) == 0.5
        assert forward(model, np.array([0.2, 0.9, 0.4])) == 0.5

    def test_single_linear_layer(self):
        model = MlpModel((1, 1), [np.array([[1.0]])], [np.array([0.0])])
        assert forward(model, np.array([0.0])) == 0.5

    def test_matches_hand_rolled_oracle(self, rng):
        model = init_mlp((2, 2, 1), rng)
        # overwrite the zeroed output layer so the oracle sees real values
        model.weights[-1][...] = rng.uniform(-1, 1, size=(1, 2))
        model.biases[-1][...] = rng.uniform(-1, 1, size=1)
        for _ in range(20):
            x = rng.random(2)
            expected = hand_rolled_forward(
                x,
                [w.tolist() for w in model.weights],
                [b.tolist() for b in model.biases],
            )
            assert forward(model, x) == pytest.approx(expected, rel=1e-12)

    def test_forward_batch_bitwise_equals_recording_forward(self, rng):
        for dims in ((3, 1), (4, 8, 1), (5, 16, 8, 1)):
            model = init_mlp(dims, rng)
            model.weights[-1][...] = rng.normal(size=model.weights[-1].shape)
            X = rng.normal(size=(64, dims[0]))
            buf = nn.Buffers(model, len(X))
            buf.x[...] = X
            recorded = nn.forward_pass(buf)
            assert forward_batch(model, X).tobytes() == recorded.tobytes()
            acts = buf.acts
            # every layer input, as backpropagation reads them: each layer
            # is its [W | b] block applied to [input | 1]
            expected = [X]
            for block in model.blocks[:-1]:
                with_ones = np.hstack([expected[-1], np.ones((len(X), 1))])
                expected.append(np.maximum(with_ones @ block.T, 0.0))
            assert len(acts) == len(expected)
            for got, want in zip(acts, expected):
                assert got[:, :-1].tobytes() == want.tobytes()
                np.testing.assert_array_equal(got[:, -1], 1.0)

    def test_forward_batch_blocks_bitwise_equal_one_pass(self):
        # BLAS on several threads splits one pass's rows at points of its
        # own choosing, which decides the last bits; on one thread, as the
        # benchmark runs, blocks must give the bits of one pass
        script = textwrap.dedent("""
            import numpy as np
            from matchgan import nn
            rng = np.random.default_rng(5)
            model = nn.init_mlp((5, 32, 16, 1), rng)
            model.weights[-1][...] = rng.normal(size=model.weights[-1].shape)
            bad = []
            for block in (256, 1000, nn.SCORE_BLOCK):
                for n in (2 * block - 1, 2 * block, 2 * block + 1, 3 * block + 37, 5 * block - 1):
                    X = rng.normal(size=(n, 5))
                    nn.SCORE_BLOCK = block
                    buf = nn.Buffers(model, n)
                    buf.x[...] = X
                    one_pass = nn.forward_pass(buf)
                    if nn.forward_batch(model, X).tobytes() != one_pass.tobytes():
                        bad.append((block, n))
            print(bad)
        """)
        one_thread = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS")}
        src = str(Path(nn.__file__).resolve().parent.parent)
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True,
            env={**os.environ, **one_thread, "PYTHONPATH": src},
        )
        assert out.stdout.strip() == "[]"

    def test_forward_batch_rejects_wrong_width_in_blocks(self, rng, monkeypatch):
        monkeypatch.setattr(nn, "SCORE_BLOCK", 3)
        with pytest.raises(ValueError):
            forward_batch(init_mlp((5, 4, 1), rng), np.zeros((10, 4)))

    def test_dimension_mismatch(self, rng):
        model = init_mlp((3, 2, 1), rng)
        with pytest.raises(ValueError):
            forward(model, np.zeros(4))

    def test_outputs_clamped_and_finite_losses(self):
        # saturating weights: output pinned inside (eps, 1-eps)
        model = MlpModel((1, 1), [np.array([[1000.0]])], [np.array([0.0])])
        high = forward(model, np.array([1.0]))
        low = forward(model, np.array([-1.0]))
        assert high == 1.0 - nn.OUTPUT_EPS
        assert low == nn.OUTPUT_EPS
        assert np.isfinite(generator_loss(np.array([high, low])))
        assert np.isfinite(discriminator_loss(np.array([high]), np.array([low]), 1.0))

    def test_init_opens_at_half(self, rng):
        model = init_mlp((4, 8, 1), rng)
        X = rng.random((10, 4))
        np.testing.assert_array_equal(forward_batch(model, X), np.full(10, 0.5))


class TestModelShapes:
    def test_inconsistent_shapes_rejected(self):
        import numpy as np

        with pytest.raises(ValueError, match="shapes"):
            MlpModel((2, 3, 1), [np.zeros((3, 2)), np.zeros((1, 2))], [np.zeros(3), np.zeros(1)])

    def test_output_dim_must_be_one(self):
        import numpy as np

        with pytest.raises(ValueError, match="output dimension"):
            MlpModel((2, 2), [np.zeros((2, 2))], [np.zeros(2)])


    def test_wrong_layer_count_rejected(self):
        # zip would pair up the layers given and ignore the missing one
        with pytest.raises(ValueError, match="weight and bias arrays"):
            MlpModel((2, 3, 1), [np.zeros((3, 2))], [np.zeros(3)])
        with pytest.raises(ValueError, match="weight and bias arrays"):
            MlpModel((2, 3, 1), [np.zeros((3, 2)), np.zeros((1, 3))], [np.zeros(3)])
        with pytest.raises(ValueError, match="weight and bias arrays"):
            MlpModel((1,), [], [])

    def test_layers_are_views_into_params(self, rng):
        model = init_mlp((3, 4, 1), rng)
        model.biases[0][1] = -3.0
        model.weights[-1][...] = 2.0
        # layout [W0 | b0] (4 x 4), then [W1 | b1] (1 x 5), row by row
        assert model.params.size == 16 + 5
        assert model.params[1 * 4 + 3] == -3.0
        np.testing.assert_array_equal(model.params[16:20], 2.0)
        assert model.params[20] == model.biases[-1][0]
        np.testing.assert_array_equal(model.blocks[0][:, :3], model.weights[0])
        for view in (*model.blocks, *model.weights, *model.biases):
            assert np.shares_memory(view, model.params)

    def test_rebinding_a_layer_raises(self, rng):
        model = init_mlp((3, 4, 1), rng)
        with pytest.raises(TypeError):
            model.weights[-1] = np.zeros((1, 4))
        with pytest.raises(TypeError):
            model.biases[0] = np.zeros(4)

    def test_copy_shares_no_storage(self, rng):
        model = init_mlp((3, 4, 2, 1), rng)
        twin = copy_model(model)
        assert twin.params.tobytes() == model.params.tobytes()
        for mine in (twin.params, *twin.weights, *twin.biases):
            assert not np.shares_memory(mine, model.params)
        twin.weights[0][0, 0] += 1.0
        assert twin.params.tobytes() != model.params.tobytes()


class TestLosses:
    def test_generator_loss_at_half(self):
        assert generator_loss(np.array([0.5])) == pytest.approx(math.log(0.5))

    def test_generator_loss_mean_invariance(self):
        single = generator_loss(np.array([0.5]))
        double = generator_loss(np.array([0.5, 0.5]))
        assert single == pytest.approx(double)

    def test_generator_loss_limit_as_d_vanishes(self):
        # when the discriminator rejects everything the loss tends to 0 from below
        val = generator_loss(np.array([1e-9]))
        assert -1e-6 < val < 0.0

    def test_discriminator_loss_symmetric_half(self):
        val = discriminator_loss(np.array([0.5]), np.array([0.5]), 1.0)
        assert val == pytest.approx(2 * math.log(0.5))

    def test_discriminator_loss_zero_weight(self):
        val = discriminator_loss(np.array([0.3]), np.array([0.9]), 0.0)
        assert val == pytest.approx(math.log(0.7))

    def test_discriminator_loss_derived_example(self):
        val = discriminator_loss(np.array([0.1]), np.array([0.9]), 1.0)
        assert val == pytest.approx(math.log(0.9) + math.log(0.9))
        assert val == pytest.approx(-0.21072, abs=1e-5)

    def test_rows_give_the_bits_of_one_row_each(self, rng):
        # training stores a chunk's outputs, one row per iteration, takes
        # their losses at once and adds them up in iteration order
        stacked = rng.uniform(0.01, 0.99, size=(7, 37 + 12))
        fake, real = stacked[:, :37], stacked[:, 37:]
        y = (rng.random((7, 37)) > 0.5).astype(np.float64)
        rows = (generator_loss(fake), discriminator_loss(fake, real, 0.7),
                binary_log_loss(fake, y))
        for i in range(7):
            ones = (generator_loss(fake[i]), discriminator_loss(fake[i], real[i], 0.7),
                    binary_log_loss(fake[i], y[i]))
            for got, want in zip(rows, ones):
                assert got[i].tobytes() == want.tobytes()
        total = 0.25
        for value in rows[1]:
            total += float(value)
        assert nn.add_in_order(0.25, rows[1]) == total


class TestBackward:
    def test_generator_grads_match_finite_differences(self, rng):
        for _ in range(30):
            gen = init_mlp((4, 3, 1), rng)
            disc = init_mlp((5, 3, 1), rng)
            for m in (gen, disc):  # un-zero output layers for a generic point
                m.weights[-1][...] = rng.uniform(-0.5, 0.5, size=m.weights[-1].shape)
                m.biases[-1][...] = rng.uniform(-0.5, 0.5, size=m.biases[-1].shape)
            X = rng.random((6, 4))
            analytic = generator_grad(gen, disc, X)

            def loss_fn():
                g = forward_batch(gen, X)
                d = forward_batch(disc, np.hstack([X, g[:, None]]))
                return generator_loss(d)

            numeric = finite_diff_grads(loss_fn, gen)
            assert relative_error(analytic, numeric) < 1e-4

    def test_discriminator_grads_match_finite_differences(self, rng):
        for _ in range(30):
            disc = init_mlp((4, 3, 1), rng)
            disc.weights[-1][...] = rng.uniform(-0.5, 0.5, size=(1, 3))
            disc.biases[-1][...] = rng.uniform(-0.5, 0.5, size=1)
            fake = rng.random((5, 4))
            real = rng.random((4, 4))
            weight = float(rng.uniform(0.2, 2.0))
            analytic = discriminator_grad(disc, fake, real, weight)

            def loss_fn():
                return -discriminator_loss(
                    forward_batch(disc, fake), forward_batch(disc, real), weight
                )

            numeric = finite_diff_grads(loss_fn, disc)
            assert relative_error(analytic, numeric) < 1e-4

    def test_classifier_grads_match_finite_differences(self, rng):
        clf = init_mlp((3, 4, 1), rng)
        clf.weights[-1][...] = rng.uniform(-0.5, 0.5, size=(1, 4))
        X = rng.random((8, 3))
        y = (rng.random(8) > 0.5).astype(float)
        analytic = classifier_grad(clf, X, y)
        numeric = finite_diff_grads(lambda: binary_log_loss(forward_batch(clf, X), y), clf)
        assert relative_error(analytic, numeric) < 1e-4

    def test_flat_point_gives_zero_generator_grads(self, rng):
        # a zeroed discriminator outputs 0.5 regardless of input, so the
        # generator's loss is locally flat
        gen = init_mlp((3, 4, 1), rng)
        disc = zero_mlp((4, 2, 1))
        grad = generator_grad(gen, disc, rng.random((5, 3)))
        np.testing.assert_array_equal(grad, 0.0)

    def test_generator_step_leaves_discriminator_untouched(self, rng):
        gen = init_mlp((3, 4, 1), rng)
        disc = init_mlp((4, 4, 1), rng)
        before_w = [w.copy() for w in disc.weights]
        g_grad = generator_grad(gen, disc, rng.random((5, 3)))
        opt_step(gen, g_grad, OptState.for_model(gen, 1e-3))
        for w_now, w_then in zip(disc.weights, before_w):
            np.testing.assert_array_equal(w_now, w_then)


class TestBuffers:
    def test_buffers_of_another_pass_rejected(self, rng):
        # where two row counts meet, a one-row mismatch would broadcast
        gen, disc = init_mlp((3, 4, 1), rng), init_mlp((4, 4, 1), rng)
        with pytest.raises(ValueError, match="generator buffers hold 4 rows, discriminator's 5"):
            generator_backward(nn.Buffers(gen, 4), nn.Buffers(disc, 5))
        with pytest.raises(ValueError, match="generator buffers hold 5 rows, discriminator's 4"):
            generator_backward(nn.Buffers(gen, 5), nn.Buffers(disc, 4))
        with pytest.raises(ValueError, match="5 targets for buffers of 4 rows"):
            classifier_backward(nn.Buffers(gen, 4), np.ones(5))


class TestOptStep:
    def test_zero_gradients_leave_parameters(self, rng):
        model = init_mlp((2, 3, 1), rng)
        before = model.params.copy()
        opt_step(model, np.zeros_like(model.params), OptState.for_model(model, 1e-3))
        np.testing.assert_array_equal(model.params, before)

    def test_single_adam_update_hand_computed(self):
        # one parameter, gradient g: m=(1-b1)g, v=(1-b2)g^2, bias-corrected
        # m_hat=g, v_hat=g^2, step = lr * g / (|g| + eps)
        model = MlpModel((1, 1), [np.array([[0.25]])], [np.array([0.0])])
        g = 0.37
        grad = np.array([g, 0.0])  # W0[0, 0], b0[0]
        state = OptState.for_model(model, learning_rate=1e-3)
        opt_step(model, grad, state)
        expected = 0.25 - 1e-3 * g / (math.sqrt(g * g) + 1e-8)
        assert model.weights[0][0, 0] == pytest.approx(expected, rel=1e-12)

    def test_deterministic(self, rng):
        def run_once():
            r = np.random.default_rng(3)
            model = init_mlp((2, 3, 1), r)
            state = OptState.for_model(model, 1e-3)
            grad = layer_filled(model, 0.1, -0.2)
            for _ in range(5):
                opt_step(model, grad, state)
            return model.weights[0].copy()

        np.testing.assert_array_equal(run_once(), run_once())


class TestOptimalDiscriminatorCheck:
    def test_equal_probabilities_give_half(self):
        dist = DiscreteJointDistribution(
            points=[(0, 0), (1, 1)], p_real=[0.5, 0.5], p_generated=[0.5, 0.5]
        )
        for closed, numeric in optimal_discriminator_check(dist, 1.0):
            assert closed == pytest.approx(0.5)
            assert abs(closed - numeric) < 1e-6

    def test_derived_example(self):
        dist = DiscreteJointDistribution(
            points=[(0, 0), (1, 1)], p_real=[0.8, 0.2], p_generated=[0.2, 0.8]
        )
        pairs = optimal_discriminator_check(dist, 1.0)
        assert pairs[0][0] == pytest.approx(0.8)
        assert abs(pairs[0][0] - pairs[0][1]) < 1e-6

    def test_no_generated_mass_drives_optimum_to_one(self):
        dist = DiscreteJointDistribution(
            points=[(0, 0), (1, 1)], p_real=[1.0, 0.0], p_generated=[0.0, 1.0]
        )
        closed, numeric = optimal_discriminator_check(dist, 1.0)[0]
        assert closed == 1.0
        assert abs(closed - numeric) < 1e-6

    def test_double_zero_point_skipped(self):
        dist = DiscreteJointDistribution(
            points=[(0, 0), (1, 1), (2, 2)],
            p_real=[1.0, 0.0, 0.0],
            p_generated=[0.0, 1.0, 0.0],
        )
        assert len(optimal_discriminator_check(dist, 1.0)) == 2

    def test_random_distributions_multiple_weights(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 6))
            p_d = rng.random(k)
            p_d /= p_d.sum()
            p_g = rng.random(k)
            p_g /= p_g.sum()
            dist = DiscreteJointDistribution(
                points=list(range(k)), p_real=p_d, p_generated=p_g
            )
            for weight in (0.5, 1.0, 2.0):
                for closed, numeric in optimal_discriminator_check(dist, weight):
                    assert abs(closed - numeric) < 1e-6

    def test_invalid_distribution(self):
        with pytest.raises(ValueError):
            DiscreteJointDistribution(points=[0], p_real=[0.4], p_generated=[1.0])


class TestCheckpoint:
    def test_roundtrip(self, tmp_path, rng):
        model = init_mlp((3, 4, 1), rng)
        opt_step(model, layer_filled(model, 0.05, 0.02), OptState.for_model(model, 1e-3))
        path = tmp_path / "model.npz"
        save_model(path, model, seed=11, kind="generator")
        back, meta = load_model(path)
        assert back.layer_dims == model.layer_dims
        assert back.params.tobytes() == model.params.tobytes()
        assert meta == {"seed": 11, "kind": "generator", "format_version": 1}

    def test_optimizer_arrays_of_older_checkpoints_are_ignored(self, tmp_path, rng):
        # checkpoints once also carried the Adam moments (m1*, m2*), step
        # count and learning rate (opt_*); they still load, as the model
        model = init_mlp((3, 4, 1), rng)
        path = tmp_path / "model.npz"
        save_model(path, model, seed=3, kind="generator")
        data = dict(np.load(path, allow_pickle=False))
        for prefix in ("m1", "m2"):
            for ell, (w, b) in enumerate(zip(model.weights, model.biases)):
                data[f"{prefix}W{ell}"], data[f"{prefix}b{ell}"] = w * 0.5, np.full_like(b, np.nan)
        data.update(opt_step=np.array(7), opt_lr=np.array(1e-3))
        np.savez(path, **data)
        back, meta = load_model(path)
        assert back.params.tobytes() == model.params.tobytes()
        assert meta["seed"] == 3

    def test_version_rejected(self, tmp_path, rng):
        model = init_mlp((2, 1), rng)
        path = tmp_path / "model.npz"
        save_model(path, model)
        import numpy as np_

        data = dict(np_.load(path, allow_pickle=False))
        data["format_version"] = np_.array(99)
        np_.savez(path, **data)
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    @pytest.mark.parametrize("key", ["W1", "b0"])
    def test_missing_array_rejected(self, tmp_path, rng, key):
        model = init_mlp((3, 4, 1), rng)
        path = tmp_path / "model.npz"
        save_model(path, model)
        data = dict(np.load(path, allow_pickle=False))
        del data[key]
        np.savez(path, **data)
        with pytest.raises(ValueError, match=f"no '{key}' array"):
            load_model(path)

    @pytest.mark.parametrize("key, value, message", [
        # these used to name no file, end in a TypeError, truncate a width
        # or pass a kind that no command writes
        ("W0", np.zeros((4, 2)), "layer 0 parameter shapes disagree with layer_dims"),
        ("W0", np.zeros((4, 3), dtype=np.int64), "checkpoint array 'W0' is not a float array"),
        ("layer_dims", np.array([3, 4, 2]), "output dimension must be 1"),
        ("layer_dims", np.array([[3, 4, 1]]), "'layer_dims' is not a 1-D integer array"),
        ("layer_dims", np.array([3.5, 4, 1]), "'layer_dims' is not a 1-D integer array"),
        ("format_version", np.array([1, 1]), "'format_version' is not a 0-d integer array"),
        ("seed", np.array([1, 2]), "'seed' is not a 0-d integer array"),
        ("seed", np.array(True), "'seed' is not a 0-d integer array"),
        ("kind", np.array([1, 2]), "'kind' is not a 0-d string array"),
        ("kind", np.array(["generator"]), "'kind' is not a 0-d string array"),
        ("kind", np.array("banana"), "unknown checkpoint kind 'banana'"),
    ])
    def test_malformed_array_rejected_with_the_path(self, tmp_path, rng, key, value, message):
        path = tmp_path / "model.npz"
        save_model(path, init_mlp((3, 4, 1), rng), seed=2, kind="generator")
        data = dict(np.load(path, allow_pickle=False))
        data[key] = value
        np.savez(path, **data)
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: ") and message in str(info.value)

    @pytest.mark.parametrize("key, value", [("W0", np.nan), ("b1", np.inf)])
    def test_non_finite_array_rejected(self, tmp_path, rng, key, value):
        model = init_mlp((3, 4, 1), rng)
        path = tmp_path / "model.npz"
        save_model(path, model)
        data = dict(np.load(path, allow_pickle=False))
        data[key].flat[0] = value
        np.savez(path, **data)
        with pytest.raises(ValueError, match=f"'{key}' is not finite"):
            load_model(path)
