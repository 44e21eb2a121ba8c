"""Fused bidirectional sampling between a start and an end frame.

One latent is denoised along two conditional paths at once: a forward path
conditioned on the start frame, and a backward path that sees the
frame-reversed latent conditioned on the end frame. Both paths go to the
denoiser as one call, stacked on the contract's condition axis, and take
one Euler step together. After every step :func:`fuse` combines the two
predictions frame-by-frame with weights that hand the start of the
sequence to the forward path and the end to the backward path; the fused
result is the closed-form minimizer of :func:`fusion_objective`, a
weighted least-squares objective over both paths. Both act on a sequence
or on a batch of them, and check only shapes: the schedule walk already
rejects non-finite latents. Above a cutoff step, noise re-injection repeats
the denoise-and-fuse cycle M times per step while stochasticity is still
high, RePaint-style: each round re-noises the fused state and denoises it
again along both paths. Where the paths disagree this smooths the expected
fused path (on the GP bridge it removes about a third of the fusion kink);
it does not shrink the per-step disagreement between the two paths.

Also here: the two single-path baselines this strategy is measured
against — per-frame condition interpolation, and end-frame inpainting.
Every sampler here takes churn right after its conditions, as the
single-path loop does, runs its walk on one chain or a batch of chains, and
returns the output with the walk's trace (see :mod:`trflab.sampler`).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import RngBatch, RngStream, normal_rows, reverse, sequence_hash
from .denoiser import Condition, DenoiserBackend, PerFrameConditionBackend
from .sampler import STREAM_REINJECT, StepTrace, _denoise_step, _euler_from_denoised, _walk, check_conditions
from .schedule import ChurnParams, NoiseSchedule, injection_std

KIND_LINEAR = "linear"
KIND_EXPONENTIAL = "exponential"


@dataclass(frozen=True, eq=False)
class AlphaSchedule:
    """Per-frame fusion weights: 1 keeps the forward path, 0 the backward path.

    Any weights in [0, 1] are accepted (all ones reduce fusion to the
    forward path); :func:`alpha_weights` builds the pinned schedules.
    """

    weights: np.ndarray
    _laid_out: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 2:
            raise ValueError("alpha weights must be a 1-D array of length >= 2")
        if not np.all(np.isfinite(w)) or np.any(w < 0) or np.any(w > 1):
            raise ValueError("alpha weights must lie in [0, 1]")
        object.__setattr__(self, "weights", w)

    @property
    def n_frames(self) -> int:
        return self.weights.size

    def laid_out(self, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """alpha_n and 1 - alpha_n on every frame n of a (..., N, d) array of
        ``shape``, built once per shape: a product with a full array runs in
        one contiguous loop, where an (N, 1) column broadcasts d values at a
        time."""
        pair = self._laid_out.get(shape)
        if pair is None:
            column = self.weights[:, None]
            pair = (np.broadcast_to(column, shape).copy(), np.broadcast_to(1.0 - column, shape).copy())
            self._laid_out[shape] = pair
        return pair


def alpha_weights(kind: str, n_frames: int, lam: float | None = None) -> AlphaSchedule:
    """Standard decaying weight schedules over n_frames frames.

    linear: alpha_n = 1 - n/(N-1).
    exponential: alpha_n = (exp(-lam n/(N-1)) - exp(-lam)) / (1 - exp(-lam)),
    which decays faster up front for larger lam and tends to linear as
    lam -> 0. lam must be at least 1e-6: below it 1 - exp(-lam) cancels,
    costing about 1e-16/lam of accuracy, and at 1e-17 it is 0. Both kinds
    hit exactly 1 at frame 0 and 0 at frame N-1.
    """
    if n_frames < 2:
        raise ValueError(f"need at least 2 frames, got {n_frames}")
    u = np.arange(n_frames) / (n_frames - 1)
    if kind == KIND_LINEAR:
        w = 1.0 - u
    elif kind == KIND_EXPONENTIAL:
        if lam is None or lam <= 0:
            raise ValueError("exponential weights need lam > 0")
        if lam < 1e-6:
            raise ValueError(f"exponential weights need lam >= 1e-06, got {lam:g}")
        w = (np.exp(-lam * u) - np.exp(-lam)) / (1.0 - np.exp(-lam))
    else:
        raise ValueError(f"unknown alpha kind {kind!r}")
    sched = AlphaSchedule(w)
    assert sched.weights[0] == 1.0 and sched.weights[-1] == 0.0
    assert np.all(np.diff(sched.weights) <= 0)
    return sched


@dataclass(frozen=True)
class TrfConfig:
    """Knobs of the fused sampler that the single-path samplers lack.

    m_reinject is the number of re-injection cycles per step; t0 the cutoff
    step index below which re-injection stops (None resolves to ceil(T/2),
    keeping it active through the high-noise half); churn, which every
    sampler's walk shares, is a sampler argument. Re-injection repeats the
    fusion at high noise; it smooths the expected fused path but leaves the
    forward/backward disagreement of the exact denoisers unchanged (a churned
    run shows less disagreement only because the re-injected rounds step
    from sigma_t rather than the churned sigma_hat).
    """

    alpha: AlphaSchedule
    m_reinject: int = 2
    t0: int | None = None

    def __post_init__(self):
        if self.m_reinject < 0:
            raise ValueError(f"m_reinject must be >= 0, got {self.m_reinject}")
        if self.t0 is not None and self.t0 < 0:
            raise ValueError(f"t0 must be >= 0, got {self.t0}")

    def resolved_t0(self, n_steps: int) -> int:
        t0 = math.ceil(n_steps / 2) if self.t0 is None else self.t0
        if not 0 <= t0 <= n_steps:
            raise ValueError(f"t0 must be in [0, {n_steps}], got {t0}")
        return t0


def fuse(x_fwd: np.ndarray, x_bwd: np.ndarray, alpha: AlphaSchedule) -> np.ndarray:
    """Frame-wise weighted average of the forward path and the reversed backward path.

    Output frame n is alpha_n * x_fwd[n] + (1 - alpha_n) * x_bwd[N-1-n],
    frames on axis -2 of an (N, d) sequence or of a (..., N, d) batch.
    With pinned endpoint weights this hands frame 0 to the forward path and
    frame N-1 to the backward path exactly.
    """
    if x_bwd.shape != x_fwd.shape or x_fwd.shape[-2:-1] != (alpha.n_frames,):
        raise ValueError(f"cannot fuse paths of shapes {x_fwd.shape} and {x_bwd.shape} "
                         f"with {alpha.n_frames} weights")
    w_fwd, w_bwd = alpha.laid_out(x_fwd.shape)
    x = np.multiply(w_fwd, x_fwd)
    x += np.multiply(w_bwd, x_bwd[..., ::-1, :])
    return x


def fusion_objective(x: np.ndarray, x_fwd: np.ndarray, x_bwd: np.ndarray,
                     alpha: AlphaSchedule) -> np.ndarray:
    """Weighted least-squares disagreement of x with both paths.

    sum_n [ alpha_n ||x[n] - x_fwd[n]||^2 + (1-alpha_n) ||x[n] - x_bwd[N-1-n]||^2 ]
    over the trailing (N, d) axes: a scalar for a sequence, one value per
    chain for a batch. Because the two weights sum to 1 per frame, fuse()
    is the exact argmin.
    """
    if not x.shape == x_fwd.shape == x_bwd.shape or x.shape[-2:-1] != (alpha.n_frames,):
        raise ValueError(f"cannot score paths of shapes {x.shape}, {x_fwd.shape} and "
                         f"{x_bwd.shape} against {alpha.n_frames} weights")
    w = alpha.weights
    fwd_term = ((x - x_fwd) ** 2).sum(axis=-1)
    bwd_term = ((x - x_bwd[..., ::-1, :]) ** 2).sum(axis=-1)
    return np.sum(w * fwd_term + (1.0 - w) * bwd_term, axis=-1)


def trf_sample(backend: DenoiserBackend, schedule: NoiseSchedule, c_s: Condition,
               c_e: Condition, churn: ChurnParams, cfg: TrfConfig, rng: RngStream | RngBatch,
               diagnostics: bool = False) -> tuple[np.ndarray, StepTrace]:
    """Bounded generation from c_s to c_e by fused two-path denoising.

    Per step (t counting down): churn the fused latent once, denoise it
    forward under c_s and reversed under c_e, fuse; while t is above the
    cutoff, re-noise the fused state back up to sigma_t (one shared draw),
    redo both denoise steps from sigma_t, and re-fuse, m_reinject times.
    The re-injection std is :func:`~trflab.schedule.injection_std` at t,
    sqrt(sigma_t^2 - sigma_{t-1}^2), and the re-injection noise of the
    whole run is one draw of m_reinject * #{t > t0} rows, used in order.
    Returns the final fused sequence (a (B, N, d) batch when ``rng`` is an
    RngBatch) and a T-record trace of the fusion counts; with
    ``diagnostics`` set the records also carry the state hashes and the
    last fusion's objective value and path-disagreement norm, per chain.
    """
    shape = backend.seq_shape
    if cfg.alpha.n_frames != shape[0]:
        raise ValueError(f"alpha has {cfg.alpha.n_frames} weights for {shape[0]} frames")
    check_conditions(backend, c_s, c_e)
    t0 = cfg.resolved_t0(schedule.n_steps)
    n_rein = cfg.m_reinject * max(schedule.n_steps - 1 - t0, 0)
    rein_rows = iter(normal_rows(rng.split(STREAM_REINJECT), n_rein, shape))

    conds = (c_s, c_e)
    both = None  # the two paths' inputs on a condition axis, reused every fusion

    def fused(x_in, sigma_in, sigma_next):
        # Denoise x_in forward under c_s and reversed under c_e in one
        # backend call and one Euler step on the stack, then fuse.
        nonlocal both
        if both is None:
            both = np.empty((2,) + x_in.shape)
        both[0] = x_in
        both[1] = x_in[..., ::-1, :]
        fwd, bwd = _euler_from_denoised(both, sigma_in, sigma_next,
                                        backend.predict_x0(both, sigma_in, conds))
        return fwd, bwd, fuse(fwd, bwd, cfg.alpha)

    def step(t, sigma, x_hat, sigma_hat, sigma_next):
        fwd, bwd, x = fused(x_hat, sigma_hat, sigma_next)
        rounds = cfg.m_reinject if t > t0 else 0
        if rounds:
            # Re-injection: lift the fused state back to sigma_t, redo both
            # paths from sigma_t with no churn, and fuse again.
            inj = injection_std(schedule, t)
            for _ in range(rounds):
                fwd, bwd, x = fused(x + inj * next(rein_rows), sigma, sigma_next)
        fields = dict(fusions=1 + rounds)
        if diagnostics:
            gap = (fwd - reverse(bwd)).reshape(fwd.shape[:-2] + (-1,))
            fields.update(latent_hash=sequence_hash(x_hat), denoised_hash=sequence_hash(x),
                          objective=fusion_objective(x, fwd, bwd, cfg.alpha).tolist(),
                          disagreement=np.linalg.norm(gap, axis=-1).tolist())
        return x, fields

    return _walk("trf_sample", shape, schedule, churn, rng, step)


def baseline_condition_interp(backend: DenoiserBackend, schedule: NoiseSchedule, c_s: Condition,
                              c_e: Condition, churn: ChurnParams,
                              rng: RngStream | RngBatch) -> tuple[np.ndarray, StepTrace]:
    """Single forward path steered by per-frame interpolated conditions.

    Frame n is denoised under condition (1 - n/(N-1)) c_s + n/(N-1) c_e,
    by :func:`~trflab.sampler.sample`'s step on its own walk, so the
    output comes with that trace and a non-finite latent names this
    baseline.
    """
    check_conditions(backend, c_s, c_e)
    u = np.linspace(0.0, 1.0, backend.seq_shape[0])
    conds = [Condition((1.0 - un) * c_s.frame + un * c_e.frame) for un in u]
    step = _denoise_step(PerFrameConditionBackend(backend, conds), c_s, False)
    return _walk("baseline_condition_interp", backend.seq_shape, schedule, churn, rng, step)


def baseline_inpaint(backend: DenoiserBackend, schedule: NoiseSchedule, c_s: Condition,
                     c_e: Condition, churn: ChurnParams,
                     rng: RngStream | RngBatch) -> tuple[np.ndarray, StepTrace]:
    """Forward sampling with the last frame overwritten each step.

    After every Euler step the latent's final frame is replaced by the
    target c_e diffused to the latent's current level, c_e + sigma * eps;
    the final step overwrites at sigma = 0, so the output ends exactly at
    the target. The rest of the sequence is never told about the target,
    which is what produces the characteristic late-sequence jump. The
    overwrite noise of the whole run is one (T, d) draw, one row per step.
    The trace records the noise levels.
    """
    check_conditions(backend, c_s, c_e)
    over_rows = iter(normal_rows(rng.split(STREAM_REINJECT), schedule.n_steps, (c_e.dim,)))

    denoise = _denoise_step(backend, c_s, False)

    def step(t, sigma, x_hat, sigma_hat, sigma_next):
        x, fields = denoise(t, sigma, x_hat, sigma_hat, sigma_next)
        x[..., -1, :] = c_e.frame + sigma_next * next(over_rows)
        return x, fields

    return _walk("baseline_inpaint", backend.seq_shape, schedule, churn, rng, step)
