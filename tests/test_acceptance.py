"""End-to-end acceptance checks for fused bounded generation.

One test per claim, in order: the fusion rule minimizes its objective;
degenerate fusion weights reduce to single-path sampling bit-for-bit; fused
sampling lands on the end frame where forward guidance does not; it avoids
the inpainting baseline's junction kink; the plain sampler reproduces exact
conditional moments; on the GP bridge, where the two paths disagree, the
re-injection loop lowers the roughness of the expected fused path; fused
sampling explores distinct routes; the trained pixel backend learns and
steers; the schedule/RNG bookkeeping identities hold; and reruns are
byte-identical.

Each test prints a single summary line with the measured values.
"""

import numpy as np
import pytest

from trflab.core import RngBatch, RngStream, reverse
from trflab.denoiser import (
    AnalyticGaussianBackend,
    AnalyticGmmBackend,
    Condition,
)
from trflab.harness import ExperimentConfig, run_experiment
from trflab.metrics import endpoint_error, mode_coverage, roughness
from trflab.sampler import sample
from trflab.schedule import ChurnParams, build_karras, injection_std
from trflab.train import MlpBackend, TrainConfig, train
from trflab.trf import (
    AlphaSchedule,
    KIND_LINEAR,
    TrfConfig,
    alpha_weights,
    baseline_condition_interp,
    baseline_inpaint,
    fuse,
    fusion_objective,
    trf_sample,
)
from trflab.worlds import (
    MovingBlobWorld,
    PinnedGaussianProcessWorld,
    TrajectoryGmmWorld,
    blob_position,
    conditional_moments,
)


class ZeroNoiseRng:
    """RngStream stand-in whose every draw is zero: on an affine denoiser
    a run with it is the expected path over all noise draws."""

    def split(self, label):
        return self

    def normal(self, shape):
        return np.zeros(shape)


class FrameReversedRng:
    """RngStream adapter that frame-reverses every sequence-shaped draw,
    an (N, d) draw or an (n, N, d) table of them, along its frame axis -2;
    the noise half of time-reversal symmetry."""

    def __init__(self, base):
        self._base = base

    def split(self, label):
        return FrameReversedRng(self._base.split(label))

    def normal(self, shape):
        draw = self._base.normal(shape)
        return draw[..., ::-1, :].copy() if draw.ndim >= 2 else draw


def _report(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_criterion_01_fusion_minimizes_two_path_objective():
    rng = np.random.default_rng(10)
    worst = np.inf
    for _ in range(100):
        x_fwd, x_bwd = rng.normal(size=(2, 6, 2))
        alpha = AlphaSchedule(rng.uniform(size=6))
        fused = fuse(x_fwd, x_bwd, alpha)
        base = fusion_objective(fused, x_fwd, x_bwd, alpha)
        for _ in range(1000):
            delta = rng.normal(scale=rng.uniform(1e-4, 1.0), size=(6, 2))
            worst = min(worst, fusion_objective(fused + delta, x_fwd, x_bwd, alpha) - base)
    ok = worst >= -1e-12
    assert _report(1, "fusion optimality", ok,
                   f"worst perturbation margin {worst:.3e} over 100x1000 trials")


def test_criterion_02_degenerate_weights_reduce_to_single_path():
    world = PinnedGaussianProcessWorld(a=0.9, q=0.3, dim=2, n_frames=6)
    backend = AnalyticGaussianBackend(world)
    sched = build_karras(12, 0.01, 20.0)
    c_s = Condition(np.array([0.5, -0.5]))
    c_e = Condition(np.array([1.0, 0.5]))
    churn = ChurnParams()
    cfg_fwd = TrfConfig(alpha=AlphaSchedule(np.ones(6)), m_reinject=0)
    cfg_bwd = TrfConfig(alpha=AlphaSchedule(np.zeros(6)), m_reinject=0)
    fwd_same = bwd_same = 0
    for seed in range(20):
        x1, _ = trf_sample(backend, sched, c_s, c_e, cfg_fwd, RngStream(seed))
        xf, _ = sample(backend, sched, c_s, churn, RngStream(seed))
        fwd_same += np.array_equal(x1, xf)
        x0, _ = trf_sample(backend, sched, c_s, c_e, cfg_bwd, RngStream(seed))
        xb, _ = sample(backend, sched, c_e, churn, FrameReversedRng(RngStream(seed)))
        bwd_same += np.array_equal(x0, reverse(xb))
    ok = fwd_same == 20 and bwd_same == 20
    assert _report(2, "degenerate-weight equivalence", ok,
                   f"bit-identical seeds: forward {fwd_same}/20, backward {bwd_same}/20")


def test_criterion_03_endpoint_adherence_vs_interpolated_guidance():
    world = PinnedGaussianProcessWorld(a=1.0, q=0.3, dim=2, n_frames=16)
    backend = AnalyticGaussianBackend(world)
    sched = build_karras(50, 0.002, 80.0)
    c_s = Condition(np.array([-1.0, 0.0]))
    c_e = Condition(np.array([1.0, 0.0]))
    cfg = TrfConfig(alpha=alpha_weights(KIND_LINEAR, 16))
    trf_err, interp_err = [], []
    for seed in range(200):
        x, _ = trf_sample(backend, sched, c_s, c_e, cfg, RngStream(seed))
        trf_err.append(endpoint_error(x, c_e.frame))
        xi = baseline_condition_interp(backend, sched, c_s, c_e, RngStream(seed))
        interp_err.append(endpoint_error(xi, c_e.frame))
    med_trf = float(np.median(trf_err))
    med_interp = float(np.median(interp_err))
    ok = med_trf < 0.05 and med_interp >= 5.0 * med_trf
    assert _report(3, "endpoint adherence", ok,
                   f"median endpoint error: fused {med_trf:.4f} (< 0.05), "
                   f"interpolated guidance {med_interp:.4f} (>= 5x)")


def test_criterion_04_smoother_than_inpainting_baseline():
    world = PinnedGaussianProcessWorld(a=1.0, q=0.3, dim=2, n_frames=16)
    backend = AnalyticGaussianBackend(world)
    sched = build_karras(50, 0.002, 80.0)
    c_s = Condition(np.array([0.0, 0.0]))
    end = np.array([3.0, 3.0])
    c_e = Condition(end)
    cfg = TrfConfig(alpha=alpha_weights(KIND_LINEAR, 16))
    wins = 0
    for seed in range(100):
        xt, _ = trf_sample(backend, sched, c_s, c_e, cfg, RngStream(seed))
        xi = baseline_inpaint(backend, sched, c_s, end, RngStream(seed))
        wins += roughness(xt) < roughness(xi)
    ok = wins >= 90
    assert _report(4, "smoothness vs inpainting", ok,
                   f"fused sampling smoother in {wins}/100 matched seeds (>= 90)")


def test_criterion_05_forward_sampler_matches_exact_moments():
    world = PinnedGaussianProcessWorld(a=0.8, q=0.3, dim=2, n_frames=8)
    backend = AnalyticGaussianBackend(world)
    sched = build_karras(100, 0.002, 80.0)
    cond = Condition(np.array([1.0, -0.5]))
    x, _ = sample(backend, sched, cond, ChurnParams(), RngBatch.from_seeds(range(5000)))
    draws = x.reshape(5000, 16)
    mean, cov = conditional_moments(world, cond)
    max_abs = float(np.abs(draws.mean(axis=0) - mean).max())
    frob = float(np.linalg.norm(np.cov(draws.T) - cov) / np.linalg.norm(cov))
    ok = max_abs < 0.05 and frob < 0.1
    assert _report(5, "sampler fidelity", ok,
                   f"max per-coordinate mean error {max_abs:.4f} (< 0.05), "
                   f"covariance Frobenius relative error {frob:.4f} (< 0.1)")


def test_criterion_06_reinjection_lowers_roughness():
    # The GP predict_x0 is affine in the latent, and churn, the Euler step,
    # fuse and re-injection are affine in the latent and the noise draws, so
    # a run whose every draw is zero is exactly the expected fused path.
    world = PinnedGaussianProcessWorld(a=1.0, q=0.3, dim=2, n_frames=16)
    backend = AnalyticGaussianBackend(world)
    sched = build_karras(25, 0.002, 80.0)
    c_s = Condition(np.array([0.0, 0.0]))
    end = np.array([3.0, 3.0])
    c_e = Condition(end)
    alpha = alpha_weights(KIND_LINEAR, 16)
    cfg_on = TrfConfig(alpha=alpha, m_reinject=2)   # cutoff defaults to T/2
    cfg_off = TrfConfig(alpha=alpha, m_reinject=0)
    t0 = cfg_on.resolved_t0(sched.n_steps)
    x_on, trace_on = trf_sample(backend, sched, c_s, c_e, cfg_on, ZeroNoiseRng())
    x_off, trace_off = trf_sample(backend, sched, c_s, c_e, cfg_off, ZeroNoiseRng(),
                                  diagnostics=True)
    rough_on, rough_off = roughness(x_on), roughness(x_off)
    disagreement = max(r.disagreement for r in trace_off.records)
    rounds = 1 + cfg_on.m_reinject
    fusions_ok = all(r.fusions == (rounds if r.t > t0 else 1) for r in trace_on.records)
    end_err = max(endpoint_error(x_on, end), endpoint_error(x_off, end))
    # Premises: the paths disagree, re-injection runs where it should, and
    # neither expected path buys its smoothness by leaving the end frame.
    ok = disagreement > 1.0 and fusions_ok and end_err < 1e-3 and rough_on < rough_off
    assert _report(6, "re-injection smoothing", ok,
                   f"GP bridge expected-path roughness with re-injection {rough_on:.5f}, "
                   f"without {rough_off:.5f} (need strictly lower); max path disagreement "
                   f"{disagreement:.2f} (> 1), fusions per step "
                   f"{'as scheduled' if fusions_ok else 'WRONG'}, "
                   f"endpoint error {end_err:.1e} (< 1e-3)")


def test_criterion_07_explores_distinct_routes():
    world = TrajectoryGmmWorld.arcs(n_frames=16, tau=0.1)
    backend = AnalyticGmmBackend(world)
    sched = build_karras(25, 0.002, 80.0)
    c_s = Condition(np.array([-1.0, 0.0]))
    c_e = Condition(np.array([1.0, 0.0]))
    cfg = TrfConfig(alpha=alpha_weights(KIND_LINEAR, 16))
    samples = np.stack(
        [trf_sample(backend, sched, c_s, c_e, cfg, RngStream(seed))[0] for seed in range(200)])
    cov = mode_coverage(samples, world)
    max_share = float(cov.shares.max())
    ok = cov.n_covered >= 2 and max_share <= 0.95
    assert _report(7, "explorative diversity", ok,
                   f"covered {cov.n_covered}/3 routes, counts {cov.counts.tolist()}, "
                   f"max share {max_share:.3f} (<= 0.95)")


@pytest.mark.slow  # trains the pixel denoiser for 5000 steps: most of the Tier-1 wall time
def test_criterion_08_trained_pixel_backend_learns_and_steers():
    traj = TrajectoryGmmWorld.arcs(n_frames=8, tau=0.1)
    world = MovingBlobWorld(traj, grid_size=16, bump_std=1.5, pixels_per_unit=5.0)
    # Noise-level emphasis sits below the pixel scale so the net is trained
    # where the blob structure lives; sigma_data matches the same regime.
    cfg = TrainConfig(lr=1e-3, n_steps=5000, batch_size=64,
                      sigma_data=0.10, p_mean=-1.6, p_std=1.4, seed=0)
    params, curve = train(world, cfg)
    ratio = float(curve[-100:].mean() / curve[:100].mean())

    backend = MlpBackend(params)
    sched = build_karras(25, 0.002, 10.0)
    start_frame = world.render_positions(np.array([[-1.0, 0.0]]))[0][0]
    end_frame = world.render_positions(np.array([[1.0, 0.0]]))[0][0]
    c_s = Condition(start_frame)
    c_e = Condition(end_frame)
    trf_cfg = TrfConfig(alpha=alpha_weights(KIND_LINEAR, 8))
    target = world.to_pixel([1.0, 0.0])
    errs = []
    for seed in range(20):
        x, _ = trf_sample(backend, sched, c_s, c_e, trf_cfg, RngStream(seed))
        errs.append(float(np.linalg.norm(blob_position(x[-1].reshape(16, 16), world.bump_std) - target)))
    mean_err = float(np.mean(errs))
    ok = ratio <= 0.5 and mean_err <= 1.5
    assert _report(8, "trained backend", ok,
                   f"smoothed loss ratio {ratio:.3f} (<= 0.5), "
                   f"mean endpoint pixel error {mean_err:.3f} (<= 1.5 cells)")


def test_criterion_09_bookkeeping_invariants():
    # Noise-injection variance identity on several schedule shapes.
    worst_rel = 0.0
    for sched in (build_karras(25, 0.002, 80.0),
                  build_karras(50, 0.05, 5.0, rho=3.0),
                  build_karras(10, 0.1, 10.0, rho=1.0)):
        for t in range(1, len(sched.sigmas)):
            hi = sched.sigma_at(t)
            lo = sched.sigma_at(t - 1)
            gap = abs(hi * hi - (lo * lo + injection_std(sched, t) ** 2))
            worst_rel = max(worst_rel, gap / (hi * hi))
    variance_ok = worst_rel <= 1e-12

    # Reversal involution and fusion endpoint pinning, bitwise, randomized.
    rng = RngStream(99)
    involution_ok = pinning_ok = True
    for _ in range(10_000):
        n = 2 + int(rng.choice(7))
        d = 1 + int(rng.choice(3))
        x = rng.normal((n, d))
        involution_ok &= np.array_equal(reverse(reverse(x)), x)
        x_bwd = rng.normal((n, d))
        fused = fuse(x, x_bwd, alpha_weights(KIND_LINEAR, n))
        pinning_ok &= np.array_equal(fused[0], x[0])
        pinning_ok &= np.array_equal(fused[-1], x_bwd[0])
    ok = variance_ok and involution_ok and pinning_ok
    assert _report(9, "bookkeeping invariants", ok,
                   f"variance identity worst relative gap {worst_rel:.2e} (<= 1e-12), "
                   f"involution {'exact' if involution_ok else 'BROKEN'}, "
                   f"endpoint pinning {'exact' if pinning_ok else 'BROKEN'} over 10^4 trials")


def test_criterion_10_reruns_are_byte_identical(tmp_path):
    raw = {
        "world": {"kind": "gp", "a": 0.9, "q": 0.3, "dim": 1, "n_frames": 6},
        "schedule": {"n_steps": 8},
        "sampler": "trf",
        "conditions": {"start": [1.0], "end": [0.2]},
        "seeds": [0, 1, 2],
    }
    m1 = run_experiment(ExperimentConfig.from_dict({**raw, "out_dir": str(tmp_path / "a")}))
    m2 = run_experiment(ExperimentConfig.from_dict({**raw, "out_dir": str(tmp_path / "b")}))
    m3 = run_experiment(ExperimentConfig.from_dict({**raw, "out_dir": str(tmp_path / "a")}))
    ok = (m1.outputs == m2.outputs == m3.outputs
          and m1.fingerprint() == m2.fingerprint() == m3.fingerprint())
    assert _report(10, "reproducibility", ok,
                   f"3 reruns, {len(m1.outputs)} seeds each: output hashes "
                   f"{'identical' if ok else 'DIFFER'}")
