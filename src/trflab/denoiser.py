"""Clean-sequence prediction: the denoiser contract and its backends.

A denoiser backend answers one question: given a sequence observed at noise
level sigma and a conditioning frame, what is the clean sequence? It
answers for a stack of sequences at once, each slice of the stack under its
own condition. The analytic backends answer it exactly (posterior means of
Gaussian or Gaussian-mixture worlds) and serve as ground-truth oracles for
every sampler in this package: each world gives its conditional law as
arrays, and its backend here is the one place that law is denoised. The
preconditioned trainable backend answers it with a small network wrapped in
input/output scalings so one set of weights covers all noise levels.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import as_frame


@dataclass(frozen=True, eq=False)
class Condition:
    """A clean bounding frame; a start frame and an end frame condition alike."""

    frame: np.ndarray
    _key: bytes = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "frame", as_frame(self.frame))
        object.__setattr__(self, "_key", np.ascontiguousarray(self.frame, dtype="<f8").tobytes())

    @property
    def dim(self) -> int:
        return self.frame.shape[0]

    def key(self) -> bytes:
        """Byte key identifying the conditioning value, taken at construction:
        a condition's frame is not written to after that."""
        return self._key


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


def edm_scalings(sigma, sigma_data: float):
    """EDM preconditioning (Karras et al. 2022) at one sigma or an array of them:
    c_skip = sd^2 / (sigma^2 + sd^2), c_out = sigma sd / sqrt(sigma^2 + sd^2),
    c_in = 1 / sqrt(sigma^2 + sd^2) and c_noise = ln(sigma) / 4, in that order."""
    sd2 = sigma_data * sigma_data
    s2 = sigma * sigma
    c_skip = sd2 / (s2 + sd2)
    c_out = sigma * sigma_data / np.sqrt(s2 + sd2)
    c_in = 1.0 / np.sqrt(s2 + sd2)
    return c_skip, c_out, c_in, np.log(sigma) / 4.0


def precondition_apply(net, x: np.ndarray, sigma: float, conds: tuple[Condition, ...], sigma_data: float) -> np.ndarray:
    """Wrap a raw network in noise-level-dependent input/output scalings:
    c_skip * x + c_out * net(c_in * x, c_noise, conds), coefficients from
    :func:`edm_scalings`. At low sigma the skip path dominates (the input is
    nearly clean); at high sigma the network output, bounded by c_out -> sd,
    carries the prediction.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    c_skip, c_out, c_in, c_noise = edm_scalings(sigma, sigma_data)
    return c_skip * x + c_out * net(c_in * x, c_noise, conds)


class AnalyticGaussianBackend(DenoiserBackend):
    """Denoiser contract over a Gaussian-process world, any conditioning frame.

    Conditioning pins frame 0 of the world's data process. The conditional
    covariance is kron(F, I_d) for the world's N x N frame covariance F,
    whatever the condition; only the mean depends on it. The posterior mean
    at level sigma is therefore mean + M_sigma (x - mean) with the frame map
    M_sigma = F (F + sigma^2 I)^(-1) applied along the frame axis. With
    F = U diag(lam) U^T, eigendecomposed once per backend, every frame map
    is M_sigma = U diag(lam / (lam + sigma^2)) U^T. Frame maps are cached by
    sigma alone and shared by every condition, since samplers revisit the
    same ladder of sigma values on both paths; the per-condition mean comes
    from ``world.conditional_moments``. A call applies the frame map once to
    the whole stack, with the stacked means cached per tuple of conditions.
    """

    def __init__(self, world):
        self.world = world
        self._means: dict[tuple[bytes, ...], np.ndarray] = {}
        self._factors: dict[float, np.ndarray] = {}
        self._eigh: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def seq_shape(self) -> tuple[int, int]:
        return self.world.seq_shape

    def mean_for(self, conds: tuple[Condition, ...]) -> np.ndarray:
        """The (C, N, d) stack of the world's conditional means under C conditions."""
        key = tuple(c.key() for c in conds)
        mean = self._means.get(key)
        if mean is None:
            mean = np.stack([self.world.conditional_moments(c)[0] for c in conds])
            self._means[key] = mean
        return mean

    def frame_map(self, sigma: float) -> np.ndarray:
        """M_sigma = F (F + sigma^2 I)^(-1), the posterior-mean map on frames."""
        key = float(sigma)
        m = self._factors.get(key)
        if m is None:
            if self._eigh is None:
                self._eigh = np.linalg.eigh(self.world.frame_cov)
            lam, u = self._eigh
            m = (u * (lam / (lam + key * key))) @ u.T
            self._factors[key] = m
        return m

    def predict_x0(self, x: np.ndarray, sigma: float, conds: tuple[Condition, ...]) -> np.ndarray:
        if sigma == 0.0:
            return np.array(x, dtype=np.float64)
        mean = _on_condition_axis(self.mean_for(conds), x.ndim)
        return mean + self.frame_map(sigma) @ (x - mean)


class AnalyticGmmBackend(DenoiserBackend):
    """Denoiser contract over a trajectory-mixture world, any conditioning frame.

    ``world.conditional_gmm`` gives the law under a condition as arrays:
    weights w_k, stacked means mu_k and isotropic variances tau_k^2 of K
    components, all K of the world's under every condition. The mixtures
    under C conditions stack into (C, K) log-weights, squared mean norms and
    variances and (C, K, N*d) means, cached per tuple of conditions, and a
    call denoises every slice of the condition axis in one pass of
    :func:`_mixture_posterior`. A weight of 0 is a log-weight of -inf.
    """

    def __init__(self, world):
        self.world = world
        self._mixtures: dict[tuple[bytes, ...], tuple[np.ndarray, ...]] = {}

    @property
    def seq_shape(self) -> tuple[int, int]:
        return self.world.seq_shape

    def mixture_for(self, conds: tuple[Condition, ...]) -> tuple[np.ndarray, ...]:
        """The world's mixtures under C conditions, stacked: (log-weights,
        means, squared mean norms, variances)."""
        key = tuple(c.key() for c in conds)
        stack = self._mixtures.get(key)
        if stack is None:
            weights, means, variances = (np.stack(a) for a in zip(*(self.world.conditional_gmm(c) for c in conds)))
            with np.errstate(divide="ignore"):
                stack = (np.log(weights), means, np.einsum("ckd,ckd->ck", means, means), variances)
            self._mixtures[key] = stack
        return stack

    def predict_x0(self, x: np.ndarray, sigma: float, conds: tuple[Condition, ...]) -> np.ndarray:
        x_flat = x.reshape(len(conds), -1, x.shape[-2] * x.shape[-1])
        return _mixture_posterior(x_flat, sigma, *self.mixture_for(conds))[1].reshape(x.shape)


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
