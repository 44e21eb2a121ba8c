"""Clean-sequence prediction: the denoiser contract and its backends.

A denoiser backend answers one question: given a sequence observed at noise
level sigma and a conditioning frame, what is the clean sequence? It
answers for a stack of sequences at once, each slice of the stack under its
own condition. The analytic backends answer it exactly (posterior means of
Gaussian or Gaussian-mixture worlds) and serve as ground-truth oracles for
every sampler in this package: each world gives its conditional law as
arrays, and its backend here is the one place that law is denoised. Both
keep the law of their last tuple of conditions through one cache,
``_AnalyticBackend.law_for``.
``PerFrameConditionBackend`` wraps any backend to condition each output
frame on its own condition. The trainable backend, a small network and its
noise-level preconditioning, is ``trflab.train.MlpBackend``.
"""

from dataclasses import dataclass

import numpy as np

from .core import as_frame


@dataclass(frozen=True, eq=False)
class Condition:
    """A clean bounding frame; a start frame and an end frame condition alike.

    Conditions compare by identity (``eq=False``), so a backend that keeps
    what it computed for a tuple of conditions knows the tuple again by
    ``==`` at no cost; a condition's frame is not written to after
    construction."""

    frame: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frame", as_frame(self.frame))

    @property
    def dim(self) -> int:
        return self.frame.shape[0]


def _on_condition_axis(stack: np.ndarray, ndim: int) -> np.ndarray:
    """Lay a (C, ...) stack of per-condition values out against an input of
    ``ndim`` axes whose axis 0 is the condition axis: one singleton axis is
    inserted per batch axis, so slice c broadcasts over slice c of the input."""
    return stack.reshape(stack.shape[:1] + (1,) * (ndim - stack.ndim) + stack.shape[1:])


class DenoiserBackend:
    """Contract: deterministic clean-sequence prediction.

    ``predict_x0(x, sigma, conds)`` takes a tuple of C conditions and an
    input of shape (C, ..., N, d) whose leading axis is the condition axis,
    and maps it to an estimate of the clean sequences of the same shape:
    every (N, d) sequence in slice c, the sequence of one chain or each
    row of a (B, N, d) batch, is denoised under ``conds[c]`` at noise level
    sigma. A single-path sampler calls it with one condition on a
    length-1 axis; the fused sampler denoises its forward and backward
    paths in one call with two. Implementations must be deterministic,
    preserve shape, and report the (N, d) shape via ``seq_shape`` so
    sampling loops know what latent to draw. Inputs come from the sampling
    loops and are not re-validated. The returned array belongs to the
    caller, which may write over it: the samplers step in place on it.
    """

    def predict_x0(self, x: np.ndarray, sigma: float, conds: tuple[Condition, ...]) -> np.ndarray:
        raise NotImplementedError

    @property
    def seq_shape(self) -> tuple[int, int]:
        raise NotImplementedError


def _mixture_posterior(x, sigma, log_weights, means, sq_norms, variances):
    """Responsibilities and posterior means under C isotropic Gaussian
    mixtures at once, mixture c for the R observations of slice c of x.

    ``x`` is (C, R, D) and ``means`` is (C, K, D); ``log_weights``, the
    squared norms |mu_k|^2 in ``sq_norms`` and ``variances`` are (C, K). A
    log-weight of -inf, a weight of 0, gives responsibility exactly 0.
    With s_k = tau_k^2 / (tau_k^2 + sigma^2), the posterior mean
    sum_k r_k (mu_k + s_k (x - mu_k)) is taken in expanded form,
    sum_k r_k (1 - s_k) mu_k + (sum_k r_k s_k) x, and so is the squared
    distance, |x|^2 - 2 x.mu_k + |mu_k|^2, so no (R, K, D) array is built.
    Every product is one row's, (1, D) @ (D, K) or (1, K) @ (K, D): a
    product over many rows would take BLAS's matrix-matrix kernel, which
    rounds differently, and a row's result would depend on the batch.
    Returns the (C, R, K) responsibilities and the (C, R, D) means.
    """
    rows = x[:, :, None, :]  # (C, R, 1, D)
    total_var = variances + sigma * sigma  # (C, K)
    quad = rows @ x[..., None] - 2.0 * (rows @ np.swapaxes(means, 1, 2)[:, None]) + sq_norms[:, None, None]
    log_norm = log_weights - 0.5 * x.shape[-1] * np.log(2.0 * np.pi * total_var)
    log_lik = log_norm[:, None, None] - 0.5 * quad / total_var[:, None, None]  # (C, R, 1, K)
    log_lik -= log_lik.max(axis=-1, keepdims=True)
    r = np.exp(log_lik)
    r /= r.sum(axis=-1, keepdims=True)
    shrink = variances / total_var
    mean = (r * (1.0 - shrink)[:, None, None]) @ means[:, None]
    mean += (r @ shrink[:, None, :, None]) * rows
    return r[:, :, 0], mean[:, :, 0]


class _AnalyticBackend(DenoiserBackend):
    """An analytic oracle: a backend that denoises under its world's exact
    conditional law.

    The law under a tuple of conditions is stacked on the condition axis by
    the subclass's ``_stack`` and kept for the last tuple only: a sampler
    passes one tuple for a whole run, so the law is stacked once per run,
    and a new tuple, even of equal frames, is stacked afresh.
    """

    def __init__(self, world):
        self.world = world
        self._conds: tuple[Condition, ...] | None = None
        self._law = None

    @property
    def seq_shape(self) -> tuple[int, int]:
        return self.world.seq_shape

    def law_for(self, conds: tuple[Condition, ...]):
        """The world's law under C conditions, stacked on a leading axis."""
        if conds != self._conds:
            self._law = self._stack(conds)
            self._conds = conds
        return self._law

    def _stack(self, conds: tuple[Condition, ...]):
        raise NotImplementedError


class AnalyticGaussianBackend(_AnalyticBackend):
    """Denoiser contract over a Gaussian-process world, any conditioning frame.

    Conditioning pins frame 0 of the world's data process. The conditional
    covariance is kron(F, I_d) for the world's N x N frame covariance F,
    whatever the condition; only the mean depends on it. The posterior mean
    at level sigma is therefore mean + M_sigma (x - mean) with the frame map
    M_sigma = F (F + sigma^2 I)^(-1) applied along the frame axis. With
    F = U diag(lam) U^T, eigendecomposed when the backend is built, every
    frame map is M_sigma = U diag(lam / (lam + sigma^2)) U^T, shared by
    every condition. The law :meth:`law_for` keeps is the (C, N, d) stack
    of ``world.conditional_moments`` means. A call applies the frame map
    once to the whole stack. Only the frame map of the last sigma is kept,
    in ``_factors`` (at most one entry): a sampler comes back to a sigma
    only in the back-to-back calls of one step, so a run computes each
    frame map once and holds one N x N map, not one per noise level.
    """

    def __init__(self, world):
        super().__init__(world)
        self._factors: dict[float, np.ndarray] = {}
        self._eigh = np.linalg.eigh(world.frame_cov)

    def _stack(self, conds: tuple[Condition, ...]) -> np.ndarray:
        return np.stack([self.world.conditional_moments(c)[0] for c in conds])

    def frame_map(self, sigma: float) -> np.ndarray:
        """M_sigma = F (F + sigma^2 I)^(-1), the posterior-mean map on frames."""
        key = float(sigma)
        m = self._factors.get(key)
        if m is None:
            lam, u = self._eigh
            m = (u * (lam / (lam + key * key))) @ u.T
            self._factors = {key: m}
        return m

    def predict_x0(self, x: np.ndarray, sigma: float, conds: tuple[Condition, ...]) -> np.ndarray:
        if sigma == 0.0:
            return np.array(x, dtype=np.float64)
        mean = _on_condition_axis(self.law_for(conds), x.ndim)
        return mean + self.frame_map(sigma) @ (x - mean)


class AnalyticGmmBackend(_AnalyticBackend):
    """Denoiser contract over a trajectory-mixture world, any conditioning frame.

    ``world.conditional_gmm`` gives the law under a condition as arrays:
    weights w_k, stacked means mu_k and isotropic variances tau_k^2 of K
    components, all K of the world's under every condition. The law
    :meth:`law_for` keeps is the mixtures under C conditions stacked into
    (C, K) log-weights, (C, K, N*d) means, (C, K) squared mean norms and
    (C, K) variances, and a call denoises every slice of the condition axis
    in one pass of :func:`_mixture_posterior`. A weight of 0 is a
    log-weight of -inf.
    """

    def _stack(self, conds: tuple[Condition, ...]) -> tuple[np.ndarray, ...]:
        weights, means, variances = (np.stack(a) for a in zip(*(self.world.conditional_gmm(c) for c in conds)))
        with np.errstate(divide="ignore"):
            return np.log(weights), means, np.einsum("ckd,ckd->ck", means, means), variances

    def predict_x0(self, x: np.ndarray, sigma: float, conds: tuple[Condition, ...]) -> np.ndarray:
        x_flat = x.reshape(len(conds), -1, x.shape[-2] * x.shape[-1])
        return _mixture_posterior(x_flat, sigma, *self.law_for(conds))[1].reshape(x.shape)


class PerFrameConditionBackend(DenoiserBackend):
    """Compose a base backend under a different conditioning frame per output frame.

    Frame n of the prediction is frame n of the base backend's prediction
    under conditions[n]. One call to the base backend predicts the whole
    input under all N conditions at once, on a new leading condition axis,
    and frame n is taken from slice n. The ``conds`` argument is ignored,
    so every leading axis of the input, the caller's condition axis
    included, is a batch axis here.
    Used by the condition-interpolation baseline, where each frame is
    steered by its own blend of the two bounding frames.
    """

    def __init__(self, base: DenoiserBackend, conditions: list[Condition]):
        self.base = base
        self.conditions = tuple(conditions)

    @property
    def seq_shape(self) -> tuple[int, int]:
        return self.base.seq_shape

    def predict_x0(self, x: np.ndarray, sigma: float, conds: tuple[Condition, ...]) -> np.ndarray:
        n_frames = len(self.conditions)
        pred = self.base.predict_x0(np.broadcast_to(x, (n_frames,) + x.shape), sigma, self.conditions)
        # pred[n, ..., n, :] for every n; the indexed axis lands first.
        frames = np.arange(n_frames)
        return np.moveaxis(pred[frames, ..., frames, :], 0, -2)
