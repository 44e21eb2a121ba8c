"""Fused bidirectional sampling between a start and an end frame.

One latent is denoised along two conditional paths at once: a forward path
conditioned on the start frame, and a backward path that sees the
frame-reversed latent conditioned on the end frame. Both paths go to the
denoiser as one call, stacked on the contract's condition axis, and take
one Euler step together. After every step the
two predictions are fused frame-by-frame with weights that hand the start
of the sequence to the forward path and the end to the backward path; the
fused result is the closed-form minimizer of a weighted least-squares
objective over both paths. Above a cutoff step, noise re-injection repeats
the denoise-and-fuse cycle M times per step while stochasticity is still
high, RePaint-style: each round re-noises the fused state and denoises it
again along both paths. Where the paths disagree this smooths the expected
fused path (on the GP bridge it removes about a third of the fusion kink);
it does not shrink the per-step disagreement between the two paths.

Also here: the two single-path baselines this strategy is measured
against — per-frame condition interpolation, and end-frame inpainting.
Every sampler here walks the schedule with the single-path loop's walk and
runs one chain or a batch of chains (see :mod:`trflab.sampler`).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import RngBatch, RngStream, as_frame, as_sequence, normal_rows, reverse, row_hashes
from .denoiser import Condition, DenoiserBackend, PerFrameConditionBackend
from .sampler import STREAM_REINJECT, StepRecord, StepTrace, _euler_from_denoised, _walk, sample
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


def alpha_weights(kind: str, n_frames: int, lam: float | None = None) -> AlphaSchedule:
    """Standard decaying weight schedules over n_frames frames.

    linear: alpha_n = 1 - n/(N-1).
    exponential: alpha_n = (exp(-lam n/(N-1)) - exp(-lam)) / (1 - exp(-lam)),
    which decays faster up front for larger lam and tends to linear as
    lam -> 0. Both kinds hit exactly 1 at frame 0 and 0 at frame N-1.
    """
    if n_frames < 2:
        raise ValueError(f"need at least 2 frames, got {n_frames}")
    u = np.arange(n_frames) / (n_frames - 1)
    if kind == KIND_LINEAR:
        w = 1.0 - u
    elif kind == KIND_EXPONENTIAL:
        if lam is None or lam <= 0:
            raise ValueError("exponential weights need lam > 0")
        w = (np.exp(-lam * u) - np.exp(-lam)) / (1.0 - np.exp(-lam))
    else:
        raise ValueError(f"unknown alpha kind {kind!r}")
    sched = AlphaSchedule(w)
    assert sched.weights[0] == 1.0 and sched.weights[-1] == 0.0
    assert np.all(np.diff(sched.weights) <= 0)
    return sched


@dataclass(frozen=True)
class TrfConfig:
    """Knobs of the fused sampler.

    m_reinject is the number of re-injection cycles per step; t0 the cutoff
    step index below which re-injection stops (None resolves to ceil(T/2),
    keeping it active through the high-noise half). Re-injection repeats the
    fusion at high noise; it smooths the expected fused path but leaves the
    forward/backward disagreement of the exact denoisers unchanged (a churned
    run shows less disagreement only because the re-injected rounds step
    from sigma_t rather than the churned sigma_hat).
    """

    alpha: AlphaSchedule
    m_reinject: int = 2
    t0: int | None = None
    churn: ChurnParams = field(default_factory=ChurnParams)

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

    Output frame n is alpha_n * x_fwd[n] + (1 - alpha_n) * x_bwd[N-1-n].
    With pinned endpoint weights this hands frame 0 to the forward path and
    frame N-1 to the backward path exactly.
    """
    x_fwd = as_sequence(x_fwd)
    x_bwd = as_sequence(x_bwd, n_frames=x_fwd.shape[0], dim=x_fwd.shape[1])
    if alpha.n_frames != x_fwd.shape[0]:
        raise ValueError(f"alpha has {alpha.n_frames} weights for {x_fwd.shape[0]} frames")
    return _fuse(x_fwd, x_bwd, alpha)


def _fuse(x_fwd: np.ndarray, x_bwd: np.ndarray, alpha: AlphaSchedule) -> np.ndarray:
    # Unvalidated fuse on axis -2, for sequences and batches alike.
    w = alpha.weights[:, None]
    return w * x_fwd + (1.0 - w) * x_bwd[..., ::-1, :]


def fusion_objective(x: np.ndarray, x_fwd: np.ndarray, x_bwd: np.ndarray,
                     alpha: AlphaSchedule) -> float:
    """Weighted least-squares disagreement of x with both paths.

    sum_n [ alpha_n ||x[n] - x_fwd[n]||^2 + (1-alpha_n) ||x[n] - x_bwd[N-1-n]||^2 ].
    Because the two weights sum to 1 per frame, fuse() is the exact argmin.
    """
    x = as_sequence(x)
    x_fwd = as_sequence(x_fwd, n_frames=x.shape[0], dim=x.shape[1])
    x_bwd = as_sequence(x_bwd, n_frames=x.shape[0], dim=x.shape[1])
    return float(_fusion_objective(x, x_fwd, x_bwd, alpha))


def _fusion_objective(x, x_fwd, x_bwd, alpha: AlphaSchedule) -> np.ndarray:
    # Unvalidated objective over the trailing (N, d) axes; one value per chain.
    w = alpha.weights
    fwd_term = ((x - x_fwd) ** 2).sum(axis=-1)
    bwd_term = ((x - x_bwd[..., ::-1, :]) ** 2).sum(axis=-1)
    return np.sum(w * fwd_term + (1.0 - w) * bwd_term, axis=-1)


def trf_sample(backend: DenoiserBackend, schedule: NoiseSchedule, c_s: Condition,
               c_e: Condition, cfg: TrfConfig, rng: RngStream | RngBatch,
               diagnostics: bool = False) -> tuple[np.ndarray, StepTrace]:
    """Bounded generation from c_s to c_e by fused two-path denoising.

    Per step (t counting down): churn the fused latent once, denoise it
    forward under c_s and reversed under c_e, fuse; while t is above the
    cutoff, re-noise the fused state back up to sigma_t (one shared draw),
    redo both denoise steps from sigma_t, and re-fuse, m_reinject times.
    The re-injection noise of the whole run is one draw of
    m_reinject * #{t > t0} rows, used in order. Returns the final fused
    sequence (a (B, N, d) batch when ``rng`` is an RngBatch) and a T-record
    trace of the fusion counts; with ``diagnostics`` set the records also
    carry the state hashes and the last fusion's objective value and
    path-disagreement norm, per chain.
    """
    shape = backend.seq_shape
    n_frames, dim = shape
    if cfg.alpha.n_frames != n_frames:
        raise ValueError(f"alpha has {cfg.alpha.n_frames} weights for {n_frames} frames")
    if c_s.frame.shape != (dim,) or c_e.frame.shape != (dim,):
        raise ValueError("conditioning frames do not match the backend's frame dimension")
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
        return fwd, bwd, _fuse(fwd, bwd, cfg.alpha)

    def step(t, sigma, x_hat, sigma_hat, sigma_next):
        fwd, bwd, x = fused(x_hat, sigma_hat, sigma_next)
        fusions = 1
        if t > t0:
            # Re-injection: lift the fused state back to sigma_t (the new
            # noise's variance is exactly sigma_t^2 - sigma_{t-1}^2), redo
            # both paths from sigma_t with no churn, and fuse again.
            inj = injection_std(schedule, t)
            for _ in range(cfg.m_reinject):
                fwd, bwd, x = fused(x + inj * next(rein_rows), sigma, sigma_next)
                fusions += 1
        diag = {}
        if diagnostics:
            gap = (fwd - reverse(bwd)).reshape(fwd.shape[:-2] + (-1,))
            diag = dict(latent_hash=row_hashes(x_hat), denoised_hash=row_hashes(x),
                        objective=_fusion_objective(x, fwd, bwd, cfg.alpha).tolist(),
                        disagreement=np.linalg.norm(gap, axis=-1).tolist())
        return x, StepRecord(t=t, sigma=float(sigma), sigma_hat=float(sigma_hat),
                             fusions=fusions, **diag)

    return _walk("trf_sample", shape, schedule, cfg.churn, rng, step)


def baseline_condition_interp(backend: DenoiserBackend, schedule: NoiseSchedule,
                              c_s: Condition, c_e: Condition, rng: RngStream | RngBatch,
                              churn: ChurnParams | None = None) -> np.ndarray:
    """Single forward path steered by per-frame interpolated conditions.

    Frame n is denoised under condition (1 - n/(N-1)) c_s + n/(N-1) c_e.
    """
    if churn is None:
        churn = ChurnParams()
    u = np.linspace(0.0, 1.0, backend.seq_shape[0])
    conds = [Condition((1.0 - un) * c_s.frame + un * c_e.frame) for un in u]
    per_frame = PerFrameConditionBackend(backend, conds)
    x, _ = sample(per_frame, schedule, c_s, churn, rng)
    return x


def baseline_inpaint(backend: DenoiserBackend, schedule: NoiseSchedule, c_s: Condition,
                     end_frame, rng: RngStream | RngBatch,
                     churn: ChurnParams | None = None) -> np.ndarray:
    """Forward sampling with the last frame overwritten each step.

    After every Euler step the latent's final frame is replaced by the
    target diffused to the latent's current level, end + sigma * eps; the
    final step overwrites at sigma = 0, so the output ends exactly at the
    target. The rest of the sequence is never told about the target, which
    is what produces the characteristic late-sequence jump. The overwrite
    noise of the whole run is one (T, d) draw, one row per step.
    """
    if churn is None:
        churn = ChurnParams()
    dim = backend.seq_shape[1]
    end = as_frame(end_frame, dim=dim)
    over_rows = iter(normal_rows(rng.split(STREAM_REINJECT), schedule.n_steps, (dim,)))

    def step(t, sigma, x_hat, sigma_hat, sigma_next):
        denoised = backend.predict_x0(x_hat, sigma_hat, c_s)
        x = _euler_from_denoised(x_hat, sigma_hat, sigma_next, denoised)
        x[..., -1, :] = end + sigma_next * next(over_rows)
        return x, None

    x, _ = _walk("baseline_inpaint", backend.seq_shape, schedule, churn, rng, step)
    return x
