"""Forward conditional sampling and the one schedule walk every sampler uses.

:func:`_walk` walks a noise schedule from sigma_max down to 0. It draws the
initial latent, and at each step churns the latent up in noise, hands it to
a per-step hook, checks that the hook's new latent is finite, and records
the step: the walk builds every step record from its own levels and the
fields the hook returns. The hook does the denoising: an Euler step
toward the backend's clean-sequence prediction here in :func:`sample`, and
the same step around per-frame conditions in
:func:`~trflab.trf.baseline_condition_interp`; two
denoised paths, their fusion and the re-injection rounds in
:func:`~trflab.trf.trf_sample`; an Euler step plus the end-frame overwrite
in :func:`~trflab.trf.baseline_inpaint`. Churn lives in the walk, not in
the hook, so the fused sampler churns one shared latent and feeds the
identical state to both of its paths; every sampler takes churn right
after its conditions and returns its output with the walk's trace.

RNG substream labels are fixed module-wide so that runs which share a root
stream consume identical draws in identical order — several equivalence
tests depend on this.

Every sampler runs a single chain on an (N, d) latent driven by an
:class:`~trflab.core.RngStream`, or B chains at once on a (B, N, d) latent
driven by an :class:`~trflab.core.RngBatch` (one stream per seed); the
batch shape comes from the initial draw and the same code serves both.
Row i of a batched run is the run of seed i alone. Any object with
``split`` and ``normal`` may stand in for either, a wrapper around a
stream or a batch included: the samplers read the batch from the shape of
what it draws, not from its type. A single-path hook denoises under its one
condition with ``predict_x0(x_hat[None], sigma_hat, (cond,))[0]``.

Each noise substream is drawn once per run: the walk takes one unit-normal
row per churned step from a single ``(n_churn, *shape)`` draw (see
:func:`~trflab.core.normal_rows`), and the fused sampler and the inpainting
baseline do the same for their re-injection and overwrite noise. Since a
generator fills a draw in order, this consumes exactly the values that one
draw per step would. Step records always carry the noise levels and the
fusion count; the latent hashes and the fusion diagnostics cost two SHA-256
per chain per step and are computed only when a caller asks for them with
``diagnostics=True``.
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import RngBatch, RngStream, gaussian_noise, normal_rows, sequence_hash
from .denoiser import Condition, DenoiserBackend
from .schedule import ChurnParams, NoiseSchedule, churn_gamma

# Substream labels. A sampling run splits its root RngStream by these, so
# adding draws to one purpose never shifts the draws of another.
STREAM_INIT = 0
STREAM_CHURN = 1
STREAM_REINJECT = 2


@dataclass
class StepRecord:
    """One step of a sampling run: noise levels, fusion count and, on request, diagnostics.

    ``t``, ``sigma``, ``sigma_hat`` and ``fusions`` are always set. The
    latent and denoised hashes, and for the fused sampler the fusion
    objective and the forward/backward path disagreement, are set only in a
    run with ``diagnostics=True`` and are None otherwise. In a batched run
    they are lists with one entry per chain; the noise levels and the
    fusion count are shared.

    ``latent_hash`` hashes the churned latent the step starts from.
    ``denoised_hash`` hashes the prediction D(x_hat) in :func:`sample`,
    but in :func:`~trflab.trf.trf_sample` the fused latent after the step,
    re-injection rounds included.
    """

    t: int
    sigma: float
    sigma_hat: float
    latent_hash: str | list[str] | None = None
    denoised_hash: str | list[str] | None = None
    fusions: int = 0
    objective: float | list[float] | None = None
    disagreement: float | list[float] | None = None


@dataclass
class StepTrace:
    """Per-step records of one run; exactly T entries for a T-step schedule.

    ``total_fusions`` counts the fusions of one chain, batched or not.
    """

    records: list[StepRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def total_fusions(self) -> int:
        return sum(r.fusions for r in self.records)

    def to_json_lines(self) -> str:
        return "".join(json.dumps(asdict(r), sort_keys=True) + "\n" for r in self.records)


def churn_perturb(x: np.ndarray, sigma: float, gamma: float, s_noise: float,
                  noise: np.ndarray | None) -> tuple[np.ndarray, float]:
    """Raise the latent's noise level from sigma to sigma*(1+gamma).

    ``noise`` is the step's unit standard-normal draw, of the shape of ``x``
    (one row of the walk's churn table); the latent gains it scaled to std
    sqrt(sigma_hat^2 - sigma^2) * s_noise. gamma = 0 is an exact no-op that
    ignores ``noise``, so the walk draws no row for churn-free runs and for
    steps outside the churn window.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if gamma == 0.0:
        return x, sigma
    sigma_hat = sigma * (1.0 + gamma)
    std = np.sqrt(sigma_hat * sigma_hat - sigma * sigma) * s_noise
    return x + std * noise, sigma_hat


def check_finite(x: np.ndarray, sampler: str, t: int, sigma: float, rng: RngStream | RngBatch):
    """Raise RuntimeError naming the sampler, step, level and seed if ``x``
    has a non-finite entry; ``rng`` is the run's root stream or batch. An
    RNG that does not expose its seeds (a wrapper) is named by the index of
    the first bad chain instead."""
    if np.isfinite(x).all():
        return
    chains = x.reshape(-1, x.shape[-2] * x.shape[-1])
    bad = int(np.argmax(~np.isfinite(chains).all(axis=1)))
    streams = getattr(rng, "streams", None)
    seed = streams[bad].seed if streams is not None else getattr(rng, "seed", None)
    who = f"seed {seed}" if seed is not None else f"chain {bad}"
    raise RuntimeError(f"{sampler}: non-finite latent after step t={t} "
                       f"(sigma={sigma:.6g}) for {who}")


def check_conditions(backend: DenoiserBackend, *conds: Condition):
    """Raise ValueError unless every condition is a frame of the backend's
    dimension. Every sampler calls this once, before its first draw; the
    backends take the conditions as they come."""
    dim = backend.seq_shape[1]
    for c in conds:
        if c.dim != dim:
            raise ValueError(f"condition has dimension {c.dim}, but the backend's frames have dimension {dim}")


def _euler_from_denoised(x_hat: np.ndarray, sigma_hat: float, sigma_next: float,
                         denoised: np.ndarray) -> np.ndarray:
    """One Euler step from sigma_hat to sigma_next toward the prediction ``denoised``.

    The step x_hat + (sigma_next - sigma_hat) (x_hat - denoised) / sigma_hat
    is written over ``denoised``, which the backend handed to the caller,
    and returned; it rounds exactly as the out-of-place expression.
    """
    x = np.subtract(x_hat, denoised, out=denoised)
    x /= sigma_hat
    x *= sigma_next - sigma_hat
    x += x_hat
    return x


def _walk(name: str, shape: tuple[int, int], schedule: NoiseSchedule, churn: ChurnParams,
          rng: RngStream | RngBatch, step) -> tuple[np.ndarray, StepTrace]:
    """Walk the schedule top to bottom: churn, then ``step``, per level.

    ``step(t, sigma, x_hat, sigma_hat, sigma_next)`` maps the churned
    latent to the latent at sigma_next and returns it with a dict of the
    step's own record fields (fusions, diagnostics; empty for a hook that
    has none). The walk builds the step's record from its levels and those
    fields, and the trace keeps it. The levels come from one per-run list,
    ``levels[t] = schedule.sigma_at(t)`` as Python floats, so sigma is
    ``levels[t]`` and sigma_next is ``levels[t - 1]`` (0 after the last
    step). The initial latent is drawn from ``STREAM_INIT``, and the
    churn noise of every step with gamma > 0 in one draw from
    ``STREAM_CHURN``, taken row by row; a non-finite latent after any step
    raises, naming ``name``.
    """
    n_steps = schedule.n_steps
    x = gaussian_noise(shape, schedule.sigma_max, rng.split(STREAM_INIT))
    levels = schedule.sigmas[::-1].tolist()
    gammas = [churn_gamma(churn, sigma, n_steps) for sigma in levels]
    churn_rows = iter(normal_rows(rng.split(STREAM_CHURN), sum(g > 0 for g in gammas), shape))
    records = []
    for t in range(n_steps - 1, -1, -1):
        sigma = levels[t]
        sigma_next = levels[t - 1] if t > 0 else 0.0
        gamma = gammas[t]
        x_hat, sigma_hat = churn_perturb(x, sigma, gamma, churn.s_noise,
                                         next(churn_rows) if gamma > 0 else None)
        x, fields = step(t, sigma, x_hat, sigma_hat, sigma_next)
        check_finite(x, name, t, sigma, rng)
        records.append(StepRecord(t=t, sigma=sigma, sigma_hat=float(sigma_hat), **fields))
    return x, StepTrace(records)


def sample(backend: DenoiserBackend, schedule: NoiseSchedule, cond: Condition,
           churn: ChurnParams, rng: RngStream | RngBatch,
           diagnostics: bool = False) -> tuple[np.ndarray, StepTrace]:
    """Forward conditional generation down the full schedule.

    Starts from pure noise at sigma_max and takes T steps, the last one
    landing at sigma = 0. Returns the clean-level sequence (a (B, N, d)
    batch when ``rng`` is an RngBatch) and a trace with exactly T records,
    which carry the latent and denoised hashes when ``diagnostics`` is set.
    """
    check_conditions(backend, cond)
    return _walk("sample", backend.seq_shape, schedule, churn, rng, _denoise_step(backend, cond, diagnostics))


def _denoise_step(backend: DenoiserBackend, cond: Condition, diagnostics: bool):
    """The single-path ``_walk`` step: denoise the churned latent under
    ``cond``, then one Euler step; its record fields are the latent and
    denoised hashes when ``diagnostics`` is set, and none otherwise."""

    def step(t, sigma, x_hat, sigma_hat, sigma_next):
        denoised = backend.predict_x0(x_hat[None], sigma_hat, (cond,))[0]
        fields = {}
        if diagnostics:
            fields = dict(latent_hash=sequence_hash(x_hat), denoised_hash=sequence_hash(denoised))
        return _euler_from_denoised(x_hat, sigma_hat, sigma_next, denoised), fields

    return step
