"""Trainable backend: gradients vs finite differences, loss identities,
checkpoint format, and optimizer behavior."""

import hashlib
import os
import tracemalloc

import numpy as np
import pytest

import trflab.train as train_module
from helpers import collect_gradients, copy_params
from trflab.core import RngStream
from trflab.denoiser import Condition
from trflab.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_CHUNK,
    ADAM_EPS,
    AdamState,
    ArchDescriptor,
    CheckpointCorruptError,
    CheckpointVersionError,
    MlpBackend,
    MlpParams,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    _net_inputs,
    backward,
    edm_loss_terms,
    edm_scalings,
    forward,
    fourier_features,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
)
from trflab.worlds import MovingBlobWorld, PinnedGaussianProcessWorld, TrajectoryGmmWorld

_BLOCKS = ("w1", "b1", "w2", "b2", "w3", "b3")


def tiny_arch(**kw):
    base = dict(n_frames=2, frame_dim=2, hidden=8, n_freq=4, sigma_data=0.5)
    base.update(kw)
    return ArchDescriptor(**base)


def tiny_batch(arch, rng, n_items=3):
    batch = []
    for _ in range(n_items):
        seq = rng.normal((arch.n_frames, arch.frame_dim))
        batch.append((seq, Condition(rng.normal((arch.frame_dim,)))))
    sigmas = np.exp(rng.normal((n_items,)) * 0.5)
    noise = rng.normal((n_items, arch.n_frames, arch.frame_dim))
    return batch, sigmas, noise


def zero_params(arch, **blocks):
    """All-zero weights of ``arch``, except the blocks given."""
    return MlpParams(arch, **{**{n: np.zeros(s) for n, s in arch.block_shapes().items()}, **blocks})


class TestGradients:
    def test_matches_finite_differences(self):
        # Central differences on every block, a handful of coordinates each.
        arch = tiny_arch()
        rng = RngStream(77)
        params = init_params(arch, rng.split(0))
        batch, sigmas, noise = tiny_batch(arch, rng.split(1))
        _, stream = edm_loss_terms(params, batch, sigmas, noise)
        grads = collect_gradients(arch, stream)

        h = 1e-6
        probe = RngStream(5)
        for name in _BLOCKS:
            block = getattr(params, name)
            flat_grad = getattr(grads, name).reshape(-1)
            for _ in range(5):
                idx = int(probe.choice(block.size))
                orig = block.reshape(-1)[idx]
                block.reshape(-1)[idx] = orig + h
                up, _ = edm_loss_terms(params, batch, sigmas, noise)
                block.reshape(-1)[idx] = orig - h
                down, _ = edm_loss_terms(params, batch, sigmas, noise)
                block.reshape(-1)[idx] = orig
                numeric = (up - down) / (2 * h)
                denom = max(abs(numeric), abs(flat_grad[idx]), 1e-8)
                assert abs(flat_grad[idx] - numeric) / denom < 1e-4, f"{name}[{idx}]"

    def test_zero_grad_for_exact_net(self):
        # A net already matching the target has zero residual gradient:
        # check via the quadratic form, loss(theta + eps g) ~ loss(theta).
        arch = tiny_arch()
        rng = RngStream(3)
        params = init_params(arch, rng.split(0))
        batch, sigmas, noise = tiny_batch(arch, rng.split(1))
        loss, stream = edm_loss_terms(params, batch, sigmas, noise)
        grads = collect_gradients(arch, stream)
        # Descending along the gradient must reduce the loss to first order.
        step = 1e-4
        for name in _BLOCKS:
            getattr(params, name)[...] -= step * getattr(grads, name)
        after, _ = edm_loss_terms(params, batch, sigmas, noise)
        grad_sq = sum(float((getattr(grads, n) ** 2).sum()) for n in _BLOCKS)
        np.testing.assert_allclose(loss - after, step * grad_sq, rtol=1e-2)


class TestLoss:
    def test_zero_network_loss_is_mean_squared_target(self):
        # All-zero weights mean the raw output is identically zero, so the
        # loss reduces to mean(F_target^2) with
        # F_target = (y - c_skip x_noisy) / c_out.
        arch = tiny_arch()
        params = zero_params(arch)
        rng = RngStream(21)
        batch, sigmas, noise = tiny_batch(arch, rng)
        loss, _ = edm_loss_terms(params, batch, sigmas, noise)

        sd2 = arch.sigma_data ** 2
        targets = []
        for i, (seq, _) in enumerate(batch):
            y = seq.reshape(-1)
            x_noisy = y + sigmas[i] * noise[i].reshape(-1)
            c_skip = sd2 / (sigmas[i] ** 2 + sd2)
            c_out = sigmas[i] * arch.sigma_data / np.sqrt(sigmas[i] ** 2 + sd2)
            targets.append((y - c_skip * x_noisy) / c_out)
        np.testing.assert_allclose(loss, np.mean(np.stack(targets) ** 2), atol=1e-12)

    def test_preconditioned_form_equals_weighted_x0_loss(self):
        # mean((F - F_target)^2) must equal the lambda-weighted denoising
        # loss lambda(sigma) ||D(x) - y||^2 / (N d), lambda = (s^2 + sd^2)
        # / (s sd)^2, since lambda c_out^2 = 1.
        arch = tiny_arch()
        rng = RngStream(9)
        params = init_params(arch, rng.split(0))
        batch, sigmas, noise = tiny_batch(arch, rng.split(1), n_items=4)
        loss, _ = edm_loss_terms(params, batch, sigmas, noise)

        backend = MlpBackend(params)
        sd2 = arch.sigma_data ** 2
        per_item = []
        for i, (seq, cond) in enumerate(batch):
            x_noisy = seq + sigmas[i] * noise[i]
            d = backend.predict_x0(x_noisy[None], float(sigmas[i]), (cond,))[0]
            lam = (sigmas[i] ** 2 + sd2) / (sigmas[i] * arch.sigma_data) ** 2
            per_item.append(lam * np.sum((d - seq) ** 2) / seq.size)
        np.testing.assert_allclose(loss, np.mean(per_item), rtol=1e-10)

    def test_training_draws_lognormal_levels(self, monkeypatch):
        # train draws each step's noise levels as exp(p_mean + p_std z).
        seen = []
        real_terms = train_module.edm_loss_terms

        def recording_terms(params, batch, sigmas, noise):
            seen.append(np.log(sigmas))
            return real_terms(params, batch, sigmas, noise)

        monkeypatch.setattr(train_module, "edm_loss_terms", recording_terms)
        world = PinnedGaussianProcessWorld(a=0.7, q=0.4, dim=1, n_frames=2)
        train(world, TrainConfig(n_steps=40, batch_size=25, hidden=4, n_freq=2,
                                 p_mean=-0.7, p_std=0.5, seed=2))
        log_levels = np.concatenate(seen)
        assert log_levels.shape == (1000,)
        assert abs(log_levels.mean() + 0.7) < 0.05
        assert abs(log_levels.std() - 0.5) < 0.05

    def test_empty_batch_rejected(self):
        arch = tiny_arch()
        params = init_params(arch, RngStream(0))
        with pytest.raises(ValueError):
            edm_loss_terms(params, [], np.empty(0), np.empty((0, 2, 2)))
        batch, sigmas, noise = tiny_batch(arch, RngStream(1))
        wrong_shape = [(np.zeros((3, 2)), cond) for _, cond in batch]
        with pytest.raises(ValueError, match="shape"):
            edm_loss_terms(params, wrong_shape, sigmas, noise)
        batch[1] = (np.full((2, 2), np.nan), batch[1][1])
        with pytest.raises(ValueError, match="non-finite"):
            edm_loss_terms(params, batch, sigmas, noise)


class TestNetwork:
    def test_fourier_features_hand_values(self):
        f = fourier_features(0.25, 4)
        # Octave frequencies 1 and 2: angles pi/2 and pi.
        np.testing.assert_allclose(f, [1.0, 0.0, 0.0, -1.0], atol=1e-12)
        assert fourier_features(0.0, 8).shape == (8,)
        np.testing.assert_allclose(fourier_features(0.0, 8)[4:], 1.0, atol=1e-15)
        # An array of levels gives one row per level, each as if computed alone.
        levels = np.array([[0.25, -0.4], [0.0, 1.7]])
        rows = fourier_features(levels, 8)
        assert rows.shape == (2, 2, 8)
        for idx in np.ndindex(levels.shape):
            np.testing.assert_array_equal(rows[idx], fourier_features(levels[idx], 8))

    def test_init_scale(self):
        arch = tiny_arch(hidden=64)
        params = init_params(arch, RngStream(12))
        assert abs(params.w1.std() * np.sqrt(arch.input_dim) - 1.0) < 0.2
        np.testing.assert_array_equal(params.b1, 0.0)
        np.testing.assert_array_equal(params.b3, 0.0)

    def test_forward_backward_shapes(self):
        arch = tiny_arch()
        params = init_params(arch, RngStream(1))
        x = RngStream(2).normal((5, arch.input_dim))
        out, cache = forward(params, x)
        assert out.shape == (5, arch.seq_dim)
        # The stream covers every block once (collect_gradients checks), and
        # a second pass over the same cache yields the same gradients.
        grads = collect_gradients(arch, backward(params, cache, np.ones_like(out)))
        again = collect_gradients(arch, backward(params, cache, np.ones_like(out)))
        for name in _BLOCKS:
            assert getattr(grads, name).shape == getattr(params, name).shape
            np.testing.assert_array_equal(getattr(grads, name), getattr(again, name))
            assert np.all(np.isfinite(getattr(grads, name)))

    def test_backend_contract(self):
        arch = tiny_arch()
        params = init_params(arch, RngStream(6))
        backend = MlpBackend(params)
        assert backend.seq_shape == (2, 2)
        x = RngStream(7).normal((2, 2))
        cond = Condition(np.array([0.5, -0.5]))
        out = backend.predict_x0(x[None], 0.7, (cond,))[0]
        assert out.shape == (2, 2)
        np.testing.assert_array_equal(out, backend.predict_x0(x[None], 0.7, (cond,))[0])

    def test_arch_validation(self):
        with pytest.raises(ValueError):
            tiny_arch(n_freq=3)
        with pytest.raises(ValueError):
            tiny_arch(hidden=0)
        with pytest.raises(ValueError):
            tiny_arch(sigma_data=0.0)
        with pytest.raises(ValueError):
            MlpParams(tiny_arch(), **{n: np.zeros((3, 3)) for n in _BLOCKS})


class TestPrecondition:
    """The EDM preconditioning and input rows of the network, on real weights."""

    def test_scalings_over_an_array_match_scalar_calls(self):
        # Training takes the coefficients of a whole batch in one call and
        # sampling one sigma at a time; both must agree bit for bit.
        sigmas = np.array([0.002, 0.1, 1.0, 80.0])
        stacked = edm_scalings(sigmas, 0.1)
        for i, sigma in enumerate(sigmas.tolist()):
            assert [c[i] for c in stacked] == list(edm_scalings(sigma, 0.1))

    @pytest.mark.parametrize("per_row", [False, True], ids=["scalar", "per-row"])
    def test_net_inputs_are_scaled_sequence_noise_features_and_frame(self, per_row):
        arch = tiny_arch()
        rng = RngStream(60)
        x = rng.normal((3, arch.seq_dim))
        frames = rng.normal((3, arch.frame_dim))
        if per_row:
            c_in, c_noise = np.array([[0.5], [1.5], [2.0]]), np.array([-0.3, 0.0, 0.7])
        else:
            c_in, c_noise = 0.8, 0.25
        rows = _net_inputs(arch, x, c_in, c_noise, frames)
        assert rows.shape == (3, arch.input_dim)
        cond_at = arch.seq_dim + arch.n_freq
        np.testing.assert_array_equal(rows[:, :arch.seq_dim], c_in * x)
        np.testing.assert_array_equal(rows[:, arch.seq_dim:cond_at],
                                      np.broadcast_to(fourier_features(c_noise, arch.n_freq), (3, arch.n_freq)))
        np.testing.assert_array_equal(rows[:, cond_at:], frames)

    def test_prediction_is_skip_path_plus_scaled_network_output(self):
        # Two conditions on the leading axis, two rows each: slice c's rows
        # carry conds[c]'s frame, and the network sees c_in x and ln(sigma)/4.
        arch = tiny_arch()
        params = init_params(arch, RngStream(61))
        x = RngStream(62).normal((2, 2, arch.n_frames, arch.frame_dim))
        conds = (Condition(np.array([0.5, -0.5])), Condition(np.array([-1.0, 2.0])))
        sigma = 3.0
        sd2 = arch.sigma_data ** 2
        rows = np.concatenate([
            x.reshape(4, -1) / np.sqrt(sigma ** 2 + sd2),
            np.broadcast_to(fourier_features(np.log(sigma) / 4.0, arch.n_freq), (4, arch.n_freq)),
            np.repeat([c.frame for c in conds], 2, axis=0),
        ], axis=1)
        raw, _ = forward(params, rows)
        expected = (sd2 / (sigma ** 2 + sd2)) * x \
            + (sigma * arch.sigma_data / np.sqrt(sigma ** 2 + sd2)) * raw.reshape(x.shape)
        np.testing.assert_allclose(MlpBackend(params).predict_x0(x, sigma, conds), expected,
                                   rtol=0, atol=1e-14)

    def test_zero_weights_give_the_skip_path(self):
        arch = tiny_arch()
        backend = MlpBackend(zero_params(arch))
        x = RngStream(63).normal((1, arch.n_frames, arch.frame_dim))
        cond = (Condition(np.zeros(arch.frame_dim)),)
        for sigma in (0.1, 1.0, 7.0):
            c_skip = 0.25 / (sigma ** 2 + 0.25)
            np.testing.assert_allclose(backend.predict_x0(x, sigma, cond), c_skip * x, rtol=0, atol=1e-15)
        # At sigma = sigma_data the skip path keeps exactly half the input.
        np.testing.assert_allclose(backend.predict_x0(x, arch.sigma_data, cond), 0.5 * x, rtol=0, atol=1e-15)

    def test_unit_output_bias_adds_c_out(self):
        # sigma_data = 0.5, sigma = 1: c_skip = 0.2 and c_out = 0.5 / sqrt(1.25).
        arch = tiny_arch()
        backend = MlpBackend(zero_params(arch, b3=np.ones(arch.seq_dim)))
        x = np.array([[[1.0, -2.0], [0.5, 3.0]]])
        out = backend.predict_x0(x, 1.0, (Condition(np.zeros(arch.frame_dim)),))
        np.testing.assert_allclose(out, 0.2 * x + 0.5 / np.sqrt(1.25), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_rejects_nonpositive_sigma(self, sigma):
        arch = tiny_arch()
        backend = MlpBackend(init_params(arch, RngStream(64)))
        with pytest.raises(ValueError, match="sigma must be > 0"):
            backend.predict_x0(np.zeros((1, arch.n_frames, arch.frame_dim)), sigma,
                               (Condition(np.zeros(arch.frame_dim)),))


def reference_adam_step(params: MlpParams, grads: MlpParams, state: AdamState, lr: float):
    """Whole-block Adam update: the form the chunked adam_step must reproduce."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for name, block in params.blocks():
        g = getattr(grads, name)
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        block -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def whole_blocks(grads: MlpParams):
    """``grads`` as a gradient stream of one chunk per block."""
    return ((name, np.s_[:], block) for name, block in grads.blocks())


def whole_block_backward(params: MlpParams, cache, grad_out) -> MlpParams:
    """Every block's gradient as one product: the form backward's stream must reproduce."""
    inputs, z1, s1, h1, z2, s2, h2 = cache
    gh2 = grad_out @ params.w3.T
    gz2 = gh2 * (s2 * (1.0 + z2 * (1.0 - s2)))
    gh1 = gz2 @ params.w2.T
    gz1 = gh1 * (s1 * (1.0 + z1 * (1.0 - s1)))
    return MlpParams(params.arch, w1=inputs.T @ gz1, b1=gz1.sum(axis=0), w2=h1.T @ gz2,
                     b2=gz2.sum(axis=0), w3=h2.T @ grad_out, b3=grad_out.sum(axis=0))


class TestAdam:
    @pytest.mark.parametrize("arch", [
        # Blocks of 1, ADAM_CHUNK and 2 ADAM_CHUNK + 2 elements.
        ArchDescriptor(n_frames=1, frame_dim=ADAM_CHUNK, hidden=1, n_freq=2),
        # ADAM_CHUNK + 3 and 2 ADAM_CHUNK + 8 elements.
        ArchDescriptor(n_frames=1, frame_dim=ADAM_CHUNK + 3, hidden=1, n_freq=2),
        # The benchmark's network: 8 frames of 16 x 16 pixels, w1 is 2312 x 256.
        ArchDescriptor(n_frames=8, frame_dim=256, hidden=256),
    ], ids=["chunk", "chunk+3", "blob-8x256"])
    def test_chunked_update_is_bit_identical_to_whole_block_form(self, arch):
        params = init_params(arch, RngStream(40))
        ref_params = copy_params(params)
        state, ref_state = AdamState(params), AdamState(ref_params)
        rng = RngStream(41)
        for _ in range(20):
            grads = MlpParams(arch, **{n: rng.normal(s) for n, s in arch.block_shapes().items()})
            adam_step(params, whole_blocks(grads), state, lr=1e-3)
            reference_adam_step(ref_params, grads, ref_state, lr=1e-3)
        assert state.t == ref_state.t == 20
        for name in _BLOCKS:
            np.testing.assert_array_equal(_bits(getattr(params, name)), _bits(getattr(ref_params, name)))
            np.testing.assert_array_equal(_bits(state.m[name]), _bits(ref_state.m[name]))
            np.testing.assert_array_equal(_bits(state.v[name]), _bits(ref_state.v[name]))

    def test_first_step_is_lr_sized(self):
        # With unit gradients, bias correction makes the first update
        # exactly lr / (1 + eps) in every coordinate.
        arch = tiny_arch(hidden=1, n_freq=2)
        params = init_params(arch, RngStream(0))
        before = copy_params(params)
        grads = MlpParams(arch, **{n: np.ones(s) for n, s in arch.block_shapes().items()})
        adam_step(params, whole_blocks(grads), AdamState(params), lr=0.1)
        for name in _BLOCKS:
            delta = getattr(before, name) - getattr(params, name)
            np.testing.assert_allclose(delta, 0.1, rtol=1e-7)

    def test_zero_gradient_is_noop(self):
        arch = tiny_arch()
        params = init_params(arch, RngStream(0))
        before = copy_params(params)
        grads = MlpParams(arch, **{n: np.zeros(s) for n, s in arch.block_shapes().items()})
        adam_step(params, whole_blocks(grads), AdamState(params), lr=0.1)
        for name in _BLOCKS:
            np.testing.assert_array_equal(getattr(params, name), getattr(before, name))


class TestGradientStream:
    """backward's chunks against whole-block products, at a size where every
    weight block spans several chunks (GRAD_CHUNK lowered to 512 elements:
    16 rows of w1 and w2, 8 rows of w3)."""

    ARCH = ArchDescriptor(n_frames=4, frame_dim=16, hidden=32, n_freq=8)  # w1 is 88 x 32

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(train_module, "GRAD_CHUNK", 512)

    def test_streamed_gradients_equal_whole_block_products(self):
        params = init_params(self.ARCH, RngStream(50))
        rng = RngStream(51)
        out, cache = forward(params, rng.normal((6, self.ARCH.input_dim)))
        grad_out = rng.normal(out.shape)
        chunks = {}
        for name, _, _ in backward(params, cache, grad_out):
            chunks[name] = chunks.get(name, 0) + 1
        assert chunks == {"w1": 6, "b1": 1, "w2": 2, "b2": 1, "w3": 4, "b3": 1}
        streamed = collect_gradients(self.ARCH, backward(params, cache, grad_out))
        reference = whole_block_backward(params, cache, grad_out)
        for name in _BLOCKS:
            np.testing.assert_array_equal(_bits(getattr(streamed, name)), _bits(getattr(reference, name)))

    def test_training_steps_equal_whole_block_updates(self, monkeypatch):
        # Adam consumes each chunk before the next is computed, and its slices
        # (lowered to 100 elements) straddle rows and chunks; three steps must
        # still match whole-block gradients followed by the whole-block update.
        monkeypatch.setattr(train_module, "ADAM_CHUNK", 100)
        params = init_params(self.ARCH, RngStream(52))
        ref_params = copy_params(params)
        state, ref_state = AdamState(params), AdamState(ref_params)
        for step in range(3):
            batch, sigmas, noise = tiny_batch(self.ARCH, RngStream(53).split(step), n_items=5)
            loss, stream = edm_loss_terms(params, batch, sigmas, noise)
            adam_step(params, stream, state, lr=1e-2)
            ref_loss, ref_stream = edm_loss_terms(ref_params, batch, sigmas, noise)
            reference_adam_step(ref_params, collect_gradients(self.ARCH, ref_stream), ref_state, lr=1e-2)
            assert loss == ref_loss
            for name in _BLOCKS:
                np.testing.assert_array_equal(_bits(getattr(params, name)), _bits(getattr(ref_params, name)))
                np.testing.assert_array_equal(_bits(state.m[name]), _bits(ref_state.m[name]))
                np.testing.assert_array_equal(_bits(state.v[name]), _bits(ref_state.v[name]))


class TestTraining:
    def _world(self):
        return PinnedGaussianProcessWorld(a=0.7, q=0.4, dim=2, n_frames=3)

    def test_deterministic(self):
        cfg = TrainConfig(n_steps=20, batch_size=8, hidden=16, seed=3)
        p1, c1 = train(self._world(), cfg)
        p2, c2 = train(self._world(), cfg)
        np.testing.assert_array_equal(c1, c2)
        for name in _BLOCKS:
            np.testing.assert_array_equal(getattr(p1, name), getattr(p2, name))

    def test_zero_lr_keeps_initialization(self):
        cfg = TrainConfig(lr=0.0, n_steps=5, batch_size=4, hidden=16, seed=11)
        params, curve = train(self._world(), cfg)
        assert curve.shape == (5,)
        arch = ArchDescriptor(n_frames=3, frame_dim=2, hidden=16,
                              n_freq=cfg.n_freq, sigma_data=cfg.sigma_data)
        expected = init_params(arch, RngStream(11).split(0))
        for name in _BLOCKS:
            np.testing.assert_array_equal(getattr(params, name), getattr(expected, name))

    def test_loss_decreases(self):
        cfg = TrainConfig(n_steps=300, batch_size=16, hidden=32, lr=3e-3, seed=0)
        _, curve = train(self._world(), cfg)
        assert np.all(np.isfinite(curve))
        assert curve[-50:].mean() < 0.8 * curve[:50].mean()

    def test_divergence_reported_with_step(self, monkeypatch):
        # A loss that goes non-finite mid-run must abort, naming the step,
        # and that step must update nothing: the weights and both Adam
        # moments stay those after step 1.
        real_terms = train_module.edm_loss_terms
        real_adam = train_module.adam_step
        calls = {"n": 0}
        after = []

        def flaky_terms(params, batch, sigmas, noise):
            loss, grads = real_terms(params, batch, sigmas, noise)
            if calls["n"] == 2:
                loss = np.inf
            calls["n"] += 1
            return loss, grads

        def recording_adam(params, grads, state, lr):
            real_adam(params, grads, state, lr)
            after.append((params, state, copy_params(params),
                          {n: m.copy() for n, m in state.m.items()},
                          {n: v.copy() for n, v in state.v.items()}))

        monkeypatch.setattr(train_module, "edm_loss_terms", flaky_terms)
        monkeypatch.setattr(train_module, "adam_step", recording_adam)
        with pytest.raises(TrainingDivergedError, match="step 2"):
            train(self._world(), TrainConfig(n_steps=5, batch_size=2, hidden=8))
        assert len(after) == 2
        params, state, params_1, m_1, v_1 = after[-1]
        assert state.t == 2
        for name in _BLOCKS:
            np.testing.assert_array_equal(getattr(params, name), getattr(params_1, name))
            np.testing.assert_array_equal(state.m[name], m_1[name])
            np.testing.assert_array_equal(state.v[name], v_1[name])

    def test_training_allocates_little_beyond_its_weights(self):
        # Three steps at the benchmark's size (8 x 256 blob, hidden 256, batch
        # 64). Weights and both Adam moments are 3 weight copies; the rest
        # (one batch's inputs, targets and activations, rendering, one 1 MiB
        # gradient chunk and an Adam slice) fits in 9 MiB. A weight-sized
        # gradient buffer (9 MiB here) or whole-block Adam temporaries would
        # exceed it.
        traj = TrajectoryGmmWorld.arcs(n_frames=8, tau=0.1)
        world = MovingBlobWorld(traj, grid_size=16, bump_std=1.5, pixels_per_unit=5.0)
        cfg = TrainConfig(n_steps=3, batch_size=64, hidden=256, seed=0)
        tracemalloc.start()
        try:
            params, _ = train(world, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        weight_bytes = sum(block.nbytes for _, block in params.blocks())
        assert peak <= 3 * weight_bytes + 9 * 2 ** 20, (peak / 2 ** 20, weight_bytes / 2 ** 20)

    def test_blob_training_bytes_are_pinned(self, tmp_path):
        # Four steps on a small blob world, one frame of it off the grid: the
        # SHA-256 of the loss curve and of the checkpoint bytes is pinned, so
        # any change to rendering, the loss inputs or the draw order shows.
        traj = TrajectoryGmmWorld.arcs(n_frames=4, tau=0.1)
        world = MovingBlobWorld(traj, grid_size=8, bump_std=1.0, pixels_per_unit=3.0)
        cfg = TrainConfig(n_steps=4, batch_size=8, hidden=16, n_freq=4, sigma_data=0.1,
                          p_mean=-1.6, p_std=1.4, seed=7)
        params, curve = train(world, cfg)
        path = tmp_path / "net.trfw"
        save_checkpoint(params, path)
        assert hashlib.sha256(curve.astype("<f8").tobytes()).hexdigest() == \
            "5fa4d0f1f3f0c21411f846403bb4dae59205f4dadcef094abe37067fbd2694e4"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "fa6bf8abb4d946ba5f5ba7f8d7d6a495716b226d30a7941c61e4591a1ac2590b"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(n_steps=0)
        with pytest.raises(ValueError):
            TrainConfig(p_std=0.0)
        for sizes in ({"hidden": 0}, {"n_freq": -1}, {"n_freq": 3}):
            with pytest.raises(ValueError, match="hidden must be >= 1 and n_freq"):
                TrainConfig(**sizes)


class TestCheckpoint:
    def _params(self):
        return init_params(tiny_arch(), RngStream(33))

    def test_roundtrip_bit_exact(self, tmp_path):
        params = self._params()
        path = tmp_path / "net.trfw"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.arch == params.arch
        for name in _BLOCKS:
            block = getattr(loaded, name)
            np.testing.assert_array_equal(block, getattr(params, name))
            # Writable, and aligned so that matrix products take the BLAS path.
            assert block.flags.writeable and block.flags.aligned

    def test_non_finite_weights_rejected(self, tmp_path):
        path = tmp_path / "net.trfw"
        save_checkpoint(self._params(), path)
        data = bytearray(path.read_bytes())
        data[-8:] = np.array([np.nan], dtype="<f8").tobytes()  # last entry of b3
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="layer b3: non-finite weights"):
            load_checkpoint(path)

    def test_roundtrip_preserves_predictions(self, tmp_path):
        params = self._params()
        path = tmp_path / "net.trfw"
        save_checkpoint(params, path)
        x = RngStream(1).normal((2, 2))
        cond = Condition(np.zeros(2))
        np.testing.assert_array_equal(
            MlpBackend(params).predict_x0(x[None], 0.5, (cond,))[0],
            MlpBackend(load_checkpoint(path)).predict_x0(x[None], 0.5, (cond,))[0],
        )

    def test_expected_size(self, tmp_path):
        params = self._params()
        path = tmp_path / "net.trfw"
        save_checkpoint(params, path)
        n_weights = sum(b.size for _, b in params.blocks())
        assert path.stat().st_size == 4 + 6 * 4 + 8 + 8 * n_weights

    def test_failed_rename_keeps_the_earlier_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "net.trfw"
        save_checkpoint(self._params(), path)
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        other = init_params(tiny_arch(), RngStream(34))
        with pytest.raises(RuntimeError, match="disk full"):
            save_checkpoint(other, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["net.trfw"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "net.trfw"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "net.trfw"
        save_checkpoint(self._params(), path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(CheckpointCorruptError, match="truncated header"):
            load_checkpoint(path)

    def test_truncation_names_layer(self, tmp_path):
        params = self._params()
        path = tmp_path / "net.trfw"
        save_checkpoint(params, path)
        data = path.read_bytes()
        path.write_bytes(data[:-4])  # clip into the final bias block
        with pytest.raises(CheckpointCorruptError, match="b3"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        params = self._params()
        path = tmp_path / "net.trfw"
        save_checkpoint(params, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(CheckpointCorruptError, match="trailing"):
            load_checkpoint(path)

    def test_condition_slot_must_equal_frame_dim(self, tmp_path):
        # The header keeps a condition-dimension slot; the network conditions
        # on one frame, so any other value there is a corrupt header.
        path = tmp_path / "net.trfw"
        save_checkpoint(self._params(), path)
        data = bytearray(path.read_bytes())
        assert data[16:20] == data[12:16] == (2).to_bytes(4, "little")  # frame_dim, then the slot
        data[16:20] = (3).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorruptError, match="condition dimension 3 is not frame_dim 2"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        params = self._params()
        path = tmp_path / "net.trfw"
        save_checkpoint(params, path)
        data = bytearray(path.read_bytes())
        data[4] = 99  # little-endian version field
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)
