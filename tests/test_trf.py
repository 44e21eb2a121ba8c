"""Fused bidirectional sampling: weights, fusion, Algorithm-1 loop, baselines."""

import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from trflab.core import RngBatch, RngStream, reverse, sequence_hash
from trflab.denoiser import AnalyticGaussianBackend, AnalyticGmmBackend, Condition
from trflab.sampler import STREAM_CHURN, STREAM_INIT, STREAM_REINJECT, sample
from trflab.schedule import ChurnParams, build_karras, churn_gamma
from trflab.trf import (
    AlphaSchedule,
    TrfConfig,
    alpha_weights,
    baseline_condition_interp,
    baseline_inpaint,
    fuse,
    fusion_objective,
    trf_sample,
)
from trflab.worlds import PinnedGaussianProcessWorld, TrajectoryGmmWorld

from helpers import DrawLog, FrameReversedRng


class TestAlphaWeights:
    def test_linear_n4(self):
        npt.assert_allclose(
            alpha_weights("linear", 4).weights, [1.0, 2 / 3, 1 / 3, 0.0], atol=1e-15
        )

    def test_exponential_small_lam_is_linear(self):
        lin = alpha_weights("linear", 16).weights
        exp = alpha_weights("exponential", 16, lam=1e-4).weights
        assert np.abs(lin - exp).max() < 1e-4

    def test_endpoints_exact(self):
        for kind, lam in (("linear", None), ("exponential", 4.0)):
            w = alpha_weights(kind, 7, lam=lam).weights
            assert w[0] == 1.0 and w[-1] == 0.0

    def test_monotone_non_increasing(self):
        for lam in (0.5, 4.0, 10.0):
            w = alpha_weights("exponential", 16, lam=lam).weights
            assert np.all(np.diff(w) <= 0)

    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError):
            alpha_weights("linear", 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            alpha_weights("cubic", 4)

    def test_out_of_range_weights_rejected(self):
        with pytest.raises(ValueError):
            AlphaSchedule([1.0, 1.5, 0.0])


class TestFuse:
    def test_two_frame_endpoint_weights(self):
        x_fwd = np.array([[1.0], [2.0]])
        x_bwd = np.array([[10.0], [20.0]])
        out = fuse(x_fwd, x_bwd, alpha_weights("linear", 2))
        # Frame 0 is the forward frame 0; frame 1 is the backward frame 0.
        npt.assert_array_equal(out, [[1.0], [10.0]])

    def test_midpoint_average(self):
        alpha = AlphaSchedule([1.0, 0.5, 0.0])
        x_fwd = np.array([[0.0], [2.0], [0.0]])
        x_bwd = np.array([[0.0], [4.0], [0.0]])
        assert fuse(x_fwd, x_bwd, alpha)[1, 0] == 3.0

    def test_self_consistent_paths_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 2))
        for alpha in (alpha_weights("linear", 6),
                      alpha_weights("exponential", 6, lam=3.0),
                      AlphaSchedule(rng.uniform(size=6))):
            npt.assert_allclose(fuse(x, reverse(x), alpha), x, atol=1e-15)

    def test_endpoint_pinning_random(self):
        rng = np.random.default_rng(1)
        alpha = alpha_weights("linear", 5)
        for _ in range(100):
            x_fwd, x_bwd = rng.normal(size=(2, 5, 3))
            out = fuse(x_fwd, x_bwd, alpha)
            npt.assert_array_equal(out[0], x_fwd[0])
            npt.assert_array_equal(out[-1], x_bwd[0])

    def test_matches_column_weights_exactly_on_every_shape(self):
        # The weights laid out once per shape give the bits of the (N, 1)
        # column formula, on a sequence and on batches of several sizes
        # fused with one schedule.
        rng = np.random.default_rng(2)
        alpha = alpha_weights("exponential", 6, lam=2.0)
        w = alpha.weights[:, None]
        for shape in [(6, 2), (4, 6, 2), (2, 3, 6, 2), (4, 6, 2), (6, 5)]:
            x_fwd, x_bwd = rng.normal(size=(2,) + shape)
            npt.assert_array_equal(fuse(x_fwd, x_bwd, alpha), w * x_fwd + (1.0 - w) * x_bwd[..., ::-1, :])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fuse(np.zeros((3, 2)), np.zeros((4, 2)), alpha_weights("linear", 3))
        with pytest.raises(ValueError):
            fuse(np.zeros((3, 2)), np.zeros((3, 2)), alpha_weights("linear", 4))


class TestFusionObjective:
    def test_zero_on_self_consistent(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 2))
        alpha = alpha_weights("linear", 5)
        fused = fuse(x, reverse(x), alpha)
        assert fusion_objective(fused, x, reverse(x), alpha) < 1e-28

    def test_two_frame_weight_pattern(self):
        alpha = alpha_weights("linear", 2)
        x = np.array([[1.0], [2.0]])
        x_fwd = np.array([[0.0], [9.0]])
        x_bwd = np.array([[5.0], [9.0]])
        # alpha = [1, 0]: only |x0 - fwd0|^2 + |x1 - bwd0|^2 survive.
        expect = (1.0 - 0.0) ** 2 + (2.0 - 5.0) ** 2
        npt.assert_allclose(fusion_objective(x, x_fwd, x_bwd, alpha), expect, rtol=1e-14)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(n_frames=st.integers(2, 8), dim=st.integers(1, 3), data=st.data(),
           scale=st.floats(1e-4, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_fuse_is_argmin(self, n_frames, dim, data, scale, seed):
        # Any weights in [0, 1]^N: moving the fused sequence by delta raises
        # the objective by exactly ||delta||^2, since each frame's two
        # weights sum to 1, so fuse() is its argmin.
        alpha = AlphaSchedule(
            data.draw(st.lists(st.floats(0.0, 1.0), min_size=n_frames, max_size=n_frames)))
        rng = np.random.default_rng(seed)
        x_fwd, x_bwd = rng.normal(size=(2, n_frames, dim))
        fused = fuse(x_fwd, x_bwd, alpha)
        base = fusion_objective(fused, x_fwd, x_bwd, alpha)
        for delta in rng.normal(scale=scale, size=(10, n_frames, dim)):
            moved = fusion_objective(fused + delta, x_fwd, x_bwd, alpha)
            assert moved >= base - 1e-12
            npt.assert_allclose(moved - base, np.sum(delta ** 2), rtol=1e-6, atol=1e-10)


def alg1_reference(backend, sigmas, c_s, c_e, m_reinject, t0, s_churn, seed):
    """Straight-line transliteration of the fused sampling loop, N=2 only.

    Independent of trf_sample: indexing, churn, Euler, fusion, and
    re-injection are written out longhand against the same stream layout.
    """
    n_steps = len(sigmas)
    root = RngStream(seed)
    rng_init = root.split(STREAM_INIT)
    rng_churn = root.split(STREAM_CHURN)
    rng_rein = root.split(STREAM_REINJECT)

    def sigma_of(t):
        return sigmas[n_steps - 1 - t] if t >= 0 else 0.0

    def euler(x, sig, sig_next, cond):
        d = (x - backend.predict_x0(x[None], sig, (cond,))[0]) / sig
        return x + (sig_next - sig) * d

    x = sigmas[0] * rng_init.normal((2, 1))
    fused_states = []
    for t in range(n_steps - 1, -1, -1):
        sig, sig_next = sigma_of(t), sigma_of(t - 1)
        gamma = min(s_churn / n_steps, math.sqrt(2) - 1) if 0.05 <= sig <= 50.0 else 0.0
        if gamma > 0:
            sig_hat = sig * (1 + gamma)
            x_hat = x + math.sqrt(sig_hat**2 - sig**2) * rng_churn.normal((2, 1))
        else:
            sig_hat, x_hat = sig, x
        f = euler(x_hat, sig_hat, sig_next, c_s)
        b = euler(x_hat[::-1].copy(), sig_hat, sig_next, c_e)
        x = np.array([f[0], b[0]])
        if t > t0:
            inj = math.sqrt(sig**2 - sig_next**2)
            for _ in range(m_reinject):
                x_up = x + inj * rng_rein.normal((2, 1))
                f = euler(x_up, sig, sig_next, c_s)
                b = euler(x_up[::-1].copy(), sig, sig_next, c_e)
                x = np.array([f[0], b[0]])
        fused_states.append(x.copy())
    return x, fused_states


def trf_per_step_reference(backend, sched, c_s, c_e, churn, cfg, rng):
    """trf_sample written out with one noise draw at each use.

    Independent of the sampler's whole-run noise tables: the initial
    latent, every churned step and every re-injection round draw from
    their substream at the moment they need noise, as ``rng.normal`` of
    one latent (a (B, N, d) stack from an RngBatch). The arithmetic is
    trf_sample's, operation for operation, so the outputs must be equal
    bit for bit.
    """
    n_steps = sched.n_steps
    shape = backend.seq_shape
    t0 = cfg.resolved_t0(n_steps)
    w = cfg.alpha.weights[:, None]
    rng_churn = rng.split(STREAM_CHURN)
    rng_rein = rng.split(STREAM_REINJECT)

    def fused(x_in, sig, sig_next):
        both = np.stack([x_in, x_in[..., ::-1, :]])
        den = backend.predict_x0(both, sig, (c_s, c_e))
        fwd, bwd = both + (sig_next - sig) * ((both - den) / sig)
        return w * fwd + (1.0 - w) * bwd[..., ::-1, :]

    x = sched.sigma_max * rng.split(STREAM_INIT).normal(shape)
    for t in range(n_steps - 1, -1, -1):
        sig = sched.sigma_at(t)
        sig_next = sched.sigma_at(t - 1) if t > 0 else 0.0
        gamma = churn_gamma(churn, sig, n_steps)
        sig_hat, x_hat = sig, x
        if gamma > 0:
            sig_hat = sig * (1.0 + gamma)
            std = np.sqrt(sig_hat * sig_hat - sig * sig) * churn.s_noise
            x_hat = x + std * rng_churn.normal(shape)
        x = fused(x_hat, sig_hat, sig_next)
        if t > t0:
            inj = float(np.sqrt(sig * sig - sig_next * sig_next))
            for _ in range(cfg.m_reinject):
                x = fused(x + inj * rng_rein.normal(shape), sig, sig_next)
    return x


class Counting:
    """Wraps a backend; records the input shape and the conditions of every call."""

    def __init__(self, base):
        self.base = base
        self.seq_shape = base.seq_shape
        self.calls = []

    def predict_x0(self, x, sigma, cond):
        self.calls.append((x.shape, cond))
        return self.base.predict_x0(x, sigma, cond)


class TestTrfSample:
    def setup_method(self):
        self.world = PinnedGaussianProcessWorld(a=1.0, q=0.3, dim=2, n_frames=8)
        self.backend = AnalyticGaussianBackend(self.world)
        self.c_s = Condition(np.zeros(2))
        self.c_e = Condition(np.array([1.0, 1.0]))
        self.alpha = alpha_weights("linear", 8)

    def test_matches_alg1_transliteration(self):
        world = PinnedGaussianProcessWorld(a=0.7, q=0.25, dim=1, n_frames=2)
        backend = AnalyticGaussianBackend(world)
        sched = build_karras(3, 0.05, 5.0)
        c_s = Condition(np.array([0.3]))
        c_e = Condition(np.array([-0.2]))
        cfg = TrfConfig(alpha=alpha_weights("linear", 2), m_reinject=1, t0=1)
        for seed in range(5):
            x, trace = trf_sample(backend, sched, c_s, c_e, ChurnParams(s_churn=0.5), cfg,
                                  RngStream(seed), diagnostics=True)
            x_ref, fused_ref = alg1_reference(
                backend, sched.sigmas, c_s, c_e, 1, 1, 0.5, seed
            )
            npt.assert_allclose(x, x_ref, rtol=0.0, atol=1e-12)
            for rec, state in zip(trace.records, fused_ref):
                assert rec.denoised_hash == sequence_hash(state)

    def test_all_forward_alpha_matches_sample(self):
        sched = build_karras(12, 0.01, 20.0)
        cfg = TrfConfig(alpha=AlphaSchedule(np.ones(8)), m_reinject=0)
        for seed in (0, 7):
            x_trf, _ = trf_sample(self.backend, sched, self.c_s, self.c_e, ChurnParams(), cfg,
                                  RngStream(seed))
            x_fwd, _ = sample(self.backend, sched, self.c_s, ChurnParams(),
                              RngStream(seed))
            npt.assert_array_equal(x_trf, x_fwd)

    def test_all_backward_alpha_matches_reversed_sample(self):
        # alpha = 0 everywhere collapses to the backward path alone, which
        # equals a plain run from c_e driven by frame-reversed noise.
        sched = build_karras(12, 0.01, 20.0)
        cfg = TrfConfig(alpha=AlphaSchedule(np.zeros(8)), m_reinject=0)
        for seed in (1, 9):
            x_trf, _ = trf_sample(self.backend, sched, self.c_s, self.c_e, ChurnParams(), cfg,
                                  RngStream(seed))
            x_bwd, _ = sample(self.backend, sched, self.c_e, ChurnParams(),
                              FrameReversedRng(RngStream(seed)))
            npt.assert_array_equal(x_trf, reverse(x_bwd))

    def test_trace_counts_fusions(self):
        sched = build_karras(10, 0.01, 20.0)
        cfg0 = TrfConfig(alpha=self.alpha, m_reinject=0)
        _, tr0 = trf_sample(self.backend, sched, self.c_s, self.c_e, ChurnParams(), cfg0, RngStream(0))
        assert len(tr0) == 10
        assert tr0.total_fusions == 10

        cfg2 = TrfConfig(alpha=self.alpha, m_reinject=2, t0=5)
        _, tr2 = trf_sample(self.backend, sched, self.c_s, self.c_e, ChurnParams(), cfg2, RngStream(0))
        # Steps t = 9..6 sit above the cutoff: 4 steps gain 2 fusions each.
        assert tr2.total_fusions == 10 + 8

    def test_deterministic(self):
        sched = build_karras(10, 0.01, 20.0)
        cfg = TrfConfig(alpha=self.alpha)
        a, _ = trf_sample(self.backend, sched, self.c_s, self.c_e, ChurnParams(), cfg, RngStream(5))
        b, _ = trf_sample(self.backend, sched, self.c_s, self.c_e, ChurnParams(), cfg, RngStream(5))
        npt.assert_array_equal(a, b)

    def test_endpoints_pinned_to_conditions(self):
        sched = build_karras(50, 0.002, 80.0)
        cfg = TrfConfig(alpha=self.alpha)
        x, _ = trf_sample(self.backend, sched, self.c_s, self.c_e, ChurnParams(), cfg, RngStream(3))
        assert np.linalg.norm(x[0] - self.c_s.frame) < 0.05
        assert np.linalg.norm(x[-1] - self.c_e.frame) < 0.05

    def test_reversal_symmetry(self):
        # Swapping the conditions and frame-reversing every noise draw must
        # frame-reverse the output in this temporally symmetric world.
        sched = build_karras(20, 0.01, 20.0)
        cfg = TrfConfig(alpha=self.alpha, m_reinject=2, t0=10)
        for seed in range(3):
            x_fwd, _ = trf_sample(self.backend, sched, self.c_s, self.c_e, ChurnParams(), cfg,
                                  RngStream(seed))
            c_s_sw = Condition(self.c_e.frame)
            c_e_sw = Condition(self.c_s.frame)
            x_sw, _ = trf_sample(self.backend, sched, c_s_sw, c_e_sw, ChurnParams(), cfg,
                                 FrameReversedRng(RngStream(seed)))
            npt.assert_allclose(x_sw, reverse(x_fwd), atol=1e-10)

    def test_reinjection_level_bookkeeping(self):
        # In a near-deterministic world the denoiser prediction is the
        # conditional mean, so the latent's marginal noise variance tracks
        # the schedule exactly: after re-injection the m-loop input must sit
        # at variance sigma_t^2 about its mean.
        world = PinnedGaussianProcessWorld(a=0.9, q=1e-6, dim=1, n_frames=3)
        backend = AnalyticGaussianBackend(world)
        sched = build_karras(3, 0.5, 5.0)
        recorded = []

        class Recording:
            seq_shape = backend.seq_shape

            def predict_x0(self, x, sigma, cond):
                if sigma == 5.0:  # only the re-injection calls use raw sigma_max
                    recorded.append(x.copy())
                return backend.predict_x0(x, sigma, cond)

        cfg = TrfConfig(alpha=alpha_weights("linear", 3), m_reinject=1, t0=1)
        c_s = Condition(np.array([0.4]))
        c_e = Condition(np.array([-0.3]))
        trf_sample(Recording(), sched, c_s, c_e, ChurnParams(s_churn=0.5), cfg,
                   RngBatch.from_seeds(range(30_000)))
        # One recorded stack of the forward and the reversed view of the same
        # (30000, 3, 1) states on the condition axis; keep the forward one.
        assert len(recorded) == 1 and recorded[0].shape == (2, 30_000, 3, 1)
        var = recorded[0][0].var(axis=0).mean()
        npt.assert_allclose(var, 25.0, rtol=0.02)


    @pytest.mark.parametrize("lead", [(), (3,)], ids=["stream", "batch"])
    def test_one_backend_call_per_fusion(self, lead):
        counting = Counting(self.backend)
        cfg = TrfConfig(alpha=self.alpha, m_reinject=2)
        rng = RngBatch.from_seeds(range(lead[0])) if lead else RngStream(0)
        _, trace = trf_sample(counting, build_karras(10, 0.01, 20.0), self.c_s, self.c_e, ChurnParams(), cfg, rng)
        assert trace.total_fusions == 10 + 2 * 4  # re-injection at t = 6..9 > t0 = 5
        assert len(counting.calls) == trace.total_fusions
        for shape, cond in counting.calls:
            assert shape == (2,) + lead + (8, 2)
            assert cond[0] is self.c_s and cond[1] is self.c_e and len(cond) == 2

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["stream", "batch"])
    @pytest.mark.parametrize("sampler", ["sample", "inpaint"])
    def test_single_path_calls_carry_a_condition_axis(self, sampler, lead):
        # The single-path samplers use the one contract form too: a tuple
        # of conditions, one per slice of the input's leading axis.
        counting = Counting(self.backend)
        sched = build_karras(10, 0.01, 20.0)
        rng = RngBatch.from_seeds(range(lead[0])) if lead else RngStream(0)
        if sampler == "sample":
            sample(counting, sched, self.c_s, ChurnParams(), rng)
        else:
            baseline_inpaint(counting, sched, self.c_s, self.c_e, ChurnParams(), rng)
        assert len(counting.calls) == 10
        for shape, cond in counting.calls:
            assert shape == (1,) + lead + (8, 2)
            assert type(cond) is tuple and len(cond) == shape[0] and cond[0] is self.c_s

    @pytest.mark.parametrize("sampler", ["sample", "trf"])
    def test_wrapped_batch_matches_wrapped_streams(self, sampler):
        # An RNG that wraps a batch exposes only split and normal, so the
        # samplers must take the batch from the draws' shape. Eight churned
        # steps and eight seeds: a table read the wrong way still broadcasts.
        sched = build_karras(10, 0.01, 20.0)
        cfg = TrfConfig(alpha=self.alpha, m_reinject=2)
        seeds = range(8)

        def run(rng):
            if sampler == "sample":
                return sample(self.backend, sched, self.c_s, ChurnParams(), rng)[0]
            return trf_sample(self.backend, sched, self.c_s, self.c_e, ChurnParams(), cfg, rng)[0]

        batch = run(FrameReversedRng(RngBatch.from_seeds(seeds)))
        for i, seed in enumerate(seeds):
            npt.assert_array_equal(batch[i], run(FrameReversedRng(RngStream(seed))))

    def test_a_run_holds_one_frame_map_and_computes_each_once(self, monkeypatch):
        # 256 frames over 30 levels: one 256 x 256 frame map is 0.5 MiB, so
        # keeping one per noise level would pass 20 MiB.
        backend = AnalyticGaussianBackend(PinnedGaussianProcessWorld(a=1.0, q=0.3, dim=1, n_frames=256))
        frame_map = backend.frame_map
        last, computed = [None], []  # the map last handed out; the sigma of each new one

        def spy(sigma):
            m = frame_map(sigma)
            if m is not last[0]:
                last[0] = m
                computed.append(sigma)
            return m

        monkeypatch.setattr(backend, "frame_map", spy)
        cfg = TrfConfig(alpha=alpha_weights("linear", 256))
        tracemalloc.start()
        try:
            trf_sample(backend, build_karras(30, 0.002, 80.0), Condition(np.zeros(1)), Condition(np.ones(1)),
                       ChurnParams(), cfg, RngBatch.from_seeds([0, 1]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
        assert len(backend._factors) == 1
        assert len(computed) == len(set(computed)) > 30


class TestNoiseTables:
    """The fused sampler draws each substream once per run and uses it row by row."""

    def setup_method(self):
        world = PinnedGaussianProcessWorld(a=1.0, q=0.3, dim=2, n_frames=8)
        self.backend = AnalyticGaussianBackend(world)
        self.c_s = Condition(np.zeros(2))
        self.c_e = Condition(np.array([1.0, 1.0]))
        self.alpha = alpha_weights("linear", 8)

    @pytest.mark.parametrize("world", ["gp", "gmm"])
    @pytest.mark.parametrize("lead", [(), (16,)], ids=["stream", "batch"])
    def test_matches_per_step_draw_reference(self, world, lead):
        if world == "gp":
            backend, c_s, c_e = self.backend, self.c_s, self.c_e
        else:
            backend = AnalyticGmmBackend(TrajectoryGmmWorld.arcs(n_frames=8, tau=0.1))
            c_s = Condition(np.array([-1.0, 0.0]))
            c_e = Condition(np.array([1.0, 0.0]))
        # sigma_max above s_tmax and sigma_min below s_tmin: the churn window
        # excludes steps at both ends of the ladder.
        sched = build_karras(14, 0.002, 80.0)
        churn = ChurnParams()
        cfg = TrfConfig(alpha=self.alpha, m_reinject=2)
        for seed in (0, 5):
            def rng():
                return RngBatch.from_seeds(range(seed, seed + lead[0])) if lead else RngStream(seed)
            x, _ = trf_sample(backend, sched, c_s, c_e, churn, cfg, rng())
            npt.assert_array_equal(x, trf_per_step_reference(backend, sched, c_s, c_e, churn, cfg, rng()))

    def _draws(self, sched, churn, cfg):
        log = []
        trf_sample(self.backend, sched, self.c_s, self.c_e, churn, cfg, DrawLog(RngStream(0), log))
        return {label: shape for label, shape in log}

    def test_churn_table_has_one_row_per_churned_step(self):
        sched = build_karras(14, 0.002, 80.0)
        churn = ChurnParams()
        n_churn = sum(churn_gamma(churn, sched.sigma_at(t), 14) > 0 for t in range(14))
        assert 0 < n_churn < 14
        draws = self._draws(sched, churn, TrfConfig(alpha=self.alpha))
        assert draws[STREAM_CHURN] == (n_churn, 8, 2)
        draws = self._draws(sched, ChurnParams(s_churn=0.0), TrfConfig(alpha=self.alpha))
        assert draws[STREAM_CHURN] == (0, 8, 2)

    @pytest.mark.parametrize("m, t0, rows", [(2, None, 2 * 6), (3, 4, 3 * 9), (0, 4, 0),
                                              (2, 14, 0), (2, 13, 0), (2, 0, 2 * 13)])
    def test_reinjection_table_has_m_rows_per_step_above_t0(self, m, t0, rows):
        draws = self._draws(build_karras(14, 0.002, 80.0), ChurnParams(),
                            TrfConfig(alpha=self.alpha, m_reinject=m, t0=t0))
        assert draws[STREAM_REINJECT] == (rows, 8, 2)
        assert draws[STREAM_INIT] == (8, 2)

    def test_records_without_diagnostics(self):
        sched = build_karras(10, 0.01, 20.0)
        cfg = TrfConfig(alpha=self.alpha, m_reinject=2, t0=5)
        rng = RngBatch.from_seeds(range(3))
        x_off, off = trf_sample(self.backend, sched, self.c_s, self.c_e, ChurnParams(), cfg, rng)
        x_on, on = trf_sample(self.backend, sched, self.c_s, self.c_e, ChurnParams(), cfg,
                              RngBatch.from_seeds(range(3)), diagnostics=True)
        npt.assert_array_equal(x_off, x_on)
        assert len(off) == 10 and off.total_fusions == 10 + 2 * 4
        for a, b in zip(off.records, on.records):
            assert (a.t, a.sigma, a.sigma_hat, a.fusions) == (b.t, b.sigma, b.sigma_hat, b.fusions)
            assert a.fusions == (3 if a.t > 5 else 1)
            assert (a.latent_hash, a.denoised_hash, a.objective, a.disagreement) == (None,) * 4
            assert len(b.latent_hash) == len(b.objective) == len(b.disagreement) == 3


class TestBaselineConditionInterp:
    def setup_method(self):
        self.world = PinnedGaussianProcessWorld(a=0.8, q=0.2, dim=2, n_frames=6)
        self.backend = AnalyticGaussianBackend(self.world)

    def test_equal_conditions_degenerate_to_sample(self):
        sched = build_karras(10, 0.01, 20.0)
        c = Condition(np.array([0.5, 0.5]))
        c_end = Condition(np.array([0.5, 0.5]))
        x_interp, _ = baseline_condition_interp(self.backend, sched, c, c_end, ChurnParams(),
                                                RngStream(4))
        x_plain, _ = sample(self.backend, sched, c, ChurnParams(), RngStream(4))
        npt.assert_allclose(x_interp, x_plain, atol=1e-12)

    def test_one_base_call_per_step(self):
        counting = Counting(self.backend)
        c_s = Condition(np.array([-0.5, 0.0]))
        c_e = Condition(np.array([0.5, 1.0]))
        baseline_condition_interp(counting, build_karras(7, 0.01, 20.0), c_s, c_e, ChurnParams(),
                                  RngBatch.from_seeds(range(4)))
        assert len(counting.calls) == 7
        for shape, cond in counting.calls:
            assert shape == (6, 1, 4, 6, 2) and len(cond) == 6
            npt.assert_allclose([c.frame for c in cond], np.linspace(c_s.frame, c_e.frame, 6), atol=1e-15)

def inpaint_reference(backend, sigmas, c_s, end, s_churn, seed):
    """Straight-line transliteration of the inpainting loop, N=3, d=1 only.

    Independent of baseline_inpaint: indexing, churn, Euler and the
    end-frame overwrite are written out longhand against the stream layout
    (initial latent, churn, overwrite noise on the re-injection stream).
    """
    n_steps = len(sigmas)
    root = RngStream(seed)
    rng_init = root.split(STREAM_INIT)
    rng_churn = root.split(STREAM_CHURN)
    rng_over = root.split(STREAM_REINJECT)

    def sigma_of(t):
        return sigmas[n_steps - 1 - t] if t >= 0 else 0.0

    x = sigmas[0] * rng_init.normal((3, 1))
    for t in range(n_steps - 1, -1, -1):
        sig, sig_next = sigma_of(t), sigma_of(t - 1)
        gamma = min(s_churn / n_steps, math.sqrt(2) - 1) if 0.05 <= sig <= 50.0 else 0.0
        if gamma > 0:
            sig_hat = sig * (1 + gamma)
            x_hat = x + math.sqrt(sig_hat**2 - sig**2) * rng_churn.normal((3, 1))
        else:
            sig_hat, x_hat = sig, x
        d = (x_hat - backend.predict_x0(x_hat[None], sig_hat, (c_s,))[0]) / sig_hat
        x = x_hat + (sig_next - sig_hat) * d
        x[2] = end + sig_next * rng_over.normal((1,))
    return x


class TestBaselineInpaint:
    def setup_method(self):
        self.world = PinnedGaussianProcessWorld(a=0.6, q=0.1, dim=2, n_frames=6)
        self.backend = AnalyticGaussianBackend(self.world)
        self.c_s = Condition(np.array([0.2, -0.2]))

    def test_matches_inpaint_transliteration(self):
        world = PinnedGaussianProcessWorld(a=0.7, q=0.25, dim=1, n_frames=3)
        backend = AnalyticGaussianBackend(world)
        sched = build_karras(4, 0.05, 5.0)
        c_s = Condition(np.array([0.3]))
        end = np.array([-0.2])
        for seed in range(5):
            x, _ = baseline_inpaint(backend, sched, c_s, Condition(end), ChurnParams(s_churn=0.5),
                                    RngStream(seed))
            x_ref = inpaint_reference(backend, sched.sigmas, c_s, end, 0.5, seed)
            npt.assert_allclose(x, x_ref, rtol=0.0, atol=1e-12)

    def test_final_frame_hits_target(self):
        sched = build_karras(20, 0.002, 20.0)
        end = Condition(np.array([0.8, 0.3]))
        x, _ = baseline_inpaint(self.backend, sched, self.c_s, end, ChurnParams(), RngStream(0))
        assert np.linalg.norm(x[-1] - end.frame) < 0.01

    def test_consistent_with_natural_endpoint(self):
        # Inpainting toward the endpoint the forward path would reach anyway
        # reproduces that forward path almost exactly.
        sched = build_karras(30, 0.002, 20.0)
        no_churn = ChurnParams(s_churn=0.0)
        for seed in range(5):
            x_fwd, _ = sample(self.backend, sched, self.c_s, no_churn,
                              RngStream(seed))
            x_in, _ = baseline_inpaint(self.backend, sched, self.c_s, Condition(x_fwd[-1]),
                                       no_churn, RngStream(seed))
            assert np.abs(x_in - x_fwd).max() < 0.05
