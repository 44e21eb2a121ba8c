"""Clean-sequence prediction: the denoiser contract and its backends.

A denoiser backend answers one question: given a sequence observed at noise
level sigma and a conditioning frame, what is the clean sequence? The
analytic backends answer it exactly (posterior means of Gaussian or
Gaussian-mixture worlds) and serve as ground-truth oracles for every
sampler in this package; the preconditioned trainable backend answers it
with a small network wrapped in input/output scalings so one set of weights
covers all noise levels.
"""

from dataclasses import dataclass

import numpy as np

from .core import as_frame, spd_solve


@dataclass(frozen=True, eq=False)
class Condition:
    """A clean bounding frame; a start frame and an end frame condition alike."""

    frame: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frame", as_frame(self.frame))

    @property
    def dim(self) -> int:
        return self.frame.shape[0]

    def key(self) -> bytes:
        """Byte key identifying the conditioning value."""
        return np.ascontiguousarray(self.frame, dtype="<f8").tobytes()


#: What ``predict_x0`` conditions on: one condition, or one per slice of a condition axis.
Conditions = Condition | tuple[Condition, ...]


def _on_condition_axis(stack: np.ndarray, ndim: int) -> np.ndarray:
    """Lay a (C, ...) stack of per-condition values out against an input of
    ``ndim`` axes whose axis 0 is the condition axis: one singleton axis is
    inserted per batch axis, so slice c broadcasts over slice c of the input."""
    return stack.reshape(stack.shape[:1] + (1,) * (ndim - stack.ndim) + stack.shape[1:])


class DenoiserBackend:
    """Contract: deterministic clean-sequence prediction.

    ``predict_x0(x, sigma, cond)`` maps an (N, d) sequence at noise level
    sigma to an (N, d) estimate of the clean sequence, and a (B, N, d)
    batch of sequences row by row to a (B, N, d) batch of estimates.
    ``cond`` is one :class:`Condition` for the whole input, or a tuple of C
    conditions for an input of shape (C, ..., N, d) with a leading
    condition axis: slice c is then denoised under ``cond[c]``, exactly as
    a call on that slice alone would denoise it. The fused sampler uses
    this to denoise its forward and backward paths in one call.
    Implementations must be deterministic, preserve shape, and report the
    (N, d) shape via ``seq_shape`` so sampling loops know what latent to
    draw. Inputs come from the sampling loops and are not re-validated.
    """

    def predict_x0(self, x: np.ndarray, sigma: float, cond: Conditions) -> np.ndarray:
        raise NotImplementedError

    @property
    def seq_shape(self) -> tuple[int, int]:
        raise NotImplementedError


class GmmWorldDenoiser:
    """Exact posterior mean under an isotropic Gaussian-mixture world.

    Component k has weight w_k, stacked mean mu_k (length N*d) and isotropic
    variance tau_k^2. The posterior mean at noise level sigma is
    sum_k r_k(x) m_k(x) with responsibilities
    r_k proportional to w_k N(x; mu_k, (tau_k^2 + sigma^2) I), evaluated in
    log space, and per-component shrinkage
    m_k = mu_k + tau_k^2 / (tau_k^2 + sigma^2) (x - mu_k).
    """

    def __init__(self, weights, means, variances):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.means = np.asarray(means, dtype=np.float64)
        self.variances = np.asarray(variances, dtype=np.float64)
        if self.means.ndim != 2 or self.means.shape[0] != self.weights.size:
            raise ValueError("means must be (K, N*d) with one row per weight")
        if self.variances.shape != self.weights.shape:
            raise ValueError("need one variance per component")
        if np.any(self.weights <= 0) or not np.isclose(self.weights.sum(), 1.0, atol=1e-9):
            raise ValueError("weights must be positive and sum to 1")
        if np.any(self.variances <= 0):
            raise ValueError("component variances must be positive")

    @property
    def n_components(self) -> int:
        return self.weights.size

    def responsibilities(self, x_flat: np.ndarray, sigma: float) -> np.ndarray:
        """Posterior component probabilities of a noisy stacked observation.

        ``x_flat`` is (..., N*d); the result is (..., K).
        """
        total_var = self.variances + sigma * sigma  # (K,)
        quad = np.sum((x_flat[..., None, :] - self.means) ** 2, axis=-1)
        dim = x_flat.shape[-1]
        log_lik = np.log(self.weights) - 0.5 * quad / total_var - 0.5 * dim * np.log(2.0 * np.pi * total_var)
        log_lik -= log_lik.max(axis=-1, keepdims=True)
        r = np.exp(log_lik)
        return r / r.sum(axis=-1, keepdims=True)

    def posterior_x0(self, x: np.ndarray, sigma: float) -> np.ndarray:
        """Posterior mean of an (N, d) sequence or a (B, N, d) batch."""
        x = np.asarray(x, dtype=np.float64)
        if sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {sigma}")
        if x.ndim < 2:
            raise ValueError(f"sequence must be (N, d) or (B, N, d), got shape {x.shape}")
        x_flat = x.reshape(x.shape[:-2] + (-1,))
        if x_flat.shape[-1] != self.means.shape[1]:
            raise ValueError(f"sequence size {x_flat.shape[-1]} does not match mixture size {self.means.shape[1]}")
        r = self.responsibilities(x_flat, sigma)
        shrink = self.variances / (self.variances + sigma * sigma)  # (K,)
        comp_means = self.means + shrink[:, None] * (x_flat[..., None, :] - self.means)
        return (r[..., None, :] @ comp_means).reshape(x.shape)


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


def precondition_apply(net, x: np.ndarray, sigma: float, cond: Conditions, sigma_data: float) -> np.ndarray:
    """Wrap a raw network in noise-level-dependent input/output scalings:
    c_skip * x + c_out * net(c_in * x, c_noise, cond), coefficients from
    :func:`edm_scalings`. At low sigma the skip path dominates (the input is
    nearly clean); at high sigma the network output, bounded by c_out -> sd,
    carries the prediction.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    c_skip, c_out, c_in, c_noise = edm_scalings(sigma, sigma_data)
    return c_skip * x + c_out * net(c_in * x, c_noise, cond)


class AnalyticGaussianBackend(DenoiserBackend):
    """Denoiser contract over a Gaussian-process world, any conditioning frame.

    Conditioning pins frame 0 of the world's data process. The conditional
    covariance is kron(F, I_d) for the world's N x N frame covariance F,
    whatever the condition; only the mean depends on it. The posterior mean
    at level sigma is therefore mean + M_sigma (x - mean) with the frame map
    M_sigma = F (F + sigma^2 I)^(-1) applied along the frame axis. Frame maps
    are cached by sigma alone and shared by every condition, since samplers
    revisit the same ladder of sigma values on both paths; the per-condition
    mean comes from ``world.conditional_moments`` and is cached too. A
    condition-axis call applies the frame map once to the whole stack, with
    the stacked means cached per tuple of conditions.
    """

    def __init__(self, world):
        self.world = world
        self._means: dict[bytes | tuple[bytes, ...], np.ndarray] = {}
        self._factors: dict[float, np.ndarray] = {}

    @property
    def seq_shape(self) -> tuple[int, int]:
        return self.world.seq_shape

    def mean_for(self, cond: Conditions) -> np.ndarray:
        """The (N, d) conditional mean of the world under ``cond``, or the
        (C, N, d) stack of them for a tuple of C conditions."""
        single = isinstance(cond, Condition)
        key = cond.key() if single else tuple(c.key() for c in cond)
        mean = self._means.get(key)
        if mean is None:
            if single:
                mean, _ = self.world.conditional_moments(cond)
                mean = np.asarray(mean, dtype=np.float64).reshape(self.seq_shape)
            else:
                mean = np.stack([self.mean_for(c) for c in cond])
            self._means[key] = mean
        return mean

    def frame_map(self, sigma: float) -> np.ndarray:
        """M_sigma = F (F + sigma^2 I)^(-1), the posterior-mean map on frames."""
        key = float(sigma)
        m = self._factors.get(key)
        if m is None:
            f = self.world.frame_cov
            # (F + s^2 I)^(-1) F is M^T because F and F + s^2 I are symmetric.
            m = spd_solve(f + key * key * np.eye(f.shape[0]), f).T
            self._factors[key] = m
        return m

    def predict_x0(self, x: np.ndarray, sigma: float, cond: Conditions) -> np.ndarray:
        if sigma == 0.0:
            return np.array(x, dtype=np.float64)
        mean = self.mean_for(cond)
        if mean.ndim > 2:
            mean = _on_condition_axis(mean, x.ndim)
        return mean + self.frame_map(sigma) @ (x - mean)


class AnalyticGmmBackend(DenoiserBackend):
    """Denoiser contract over a trajectory-mixture world, any conditioning frame.

    A condition-axis call denoises slice by slice into one output: conditioning
    drops the components whose weight underflows, so the conditions' mixtures
    need not have the same number of components.
    """

    def __init__(self, world):
        self.world = world
        self._denoisers: dict[bytes, GmmWorldDenoiser] = {}

    @property
    def seq_shape(self) -> tuple[int, int]:
        return self.world.seq_shape

    def denoiser_for(self, cond: Condition) -> GmmWorldDenoiser:
        key = cond.key()
        if key not in self._denoisers:
            self._denoisers[key] = self.world.conditional_gmm(cond)
        return self._denoisers[key]

    def predict_x0(self, x: np.ndarray, sigma: float, cond: Conditions) -> np.ndarray:
        if isinstance(cond, Condition):
            return self.denoiser_for(cond).posterior_x0(x, sigma)
        out = np.empty(x.shape)
        for c, cond_c in enumerate(cond):
            out[c] = self.denoiser_for(cond_c).posterior_x0(x[c], sigma)
        return out


class PerFrameConditionBackend(DenoiserBackend):
    """Compose a base backend under a different conditioning frame per output frame.

    Frame n of the prediction is frame n of the base backend's prediction
    under conditions[n]. One condition-axis call to the base backend
    predicts the whole input under all N conditions at once, and frame n is
    taken from slice n. The ``cond`` argument is ignored, so every leading
    axis of the input, a condition axis included, is a batch axis here.
    Used by the condition-interpolation baseline, where each frame is
    steered by its own blend of the two bounding frames.
    """

    def __init__(self, base: DenoiserBackend, conditions: list[Condition]):
        self.base = base
        self.conditions = tuple(conditions)

    @property
    def seq_shape(self) -> tuple[int, int]:
        return self.base.seq_shape

    def predict_x0(self, x: np.ndarray, sigma: float, cond: Conditions) -> np.ndarray:
        n_frames = len(self.conditions)
        if x.shape[-2] != n_frames:
            raise ValueError(f"sequence has {x.shape[-2]} frames, expected {n_frames}")
        pred = self.base.predict_x0(np.broadcast_to(x, (n_frames,) + x.shape), sigma, self.conditions)
        # pred[n, ..., n, :] for every n; the indexed axis lands first.
        frames = np.arange(n_frames)
        return np.moveaxis(pred[frames, ..., frames, :], 0, -2)
