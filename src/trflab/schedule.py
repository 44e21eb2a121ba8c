"""Noise schedules and per-step noise bookkeeping.

A schedule is a strictly decreasing ladder of noise standard deviations
sigma_0 > sigma_1 > ... > sigma_{T-1}. Samplers walk it top to bottom; the
countdown index t (T-1 at the highest noise level, 0 at the lowest) is the
convention used for re-injection cutoffs, so ``sigma_at(t)`` with t = T-1
returns sigma_max.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChurnParams:
    """Per-step stochasticity of the sampling loop.

    gamma = min(s_churn / T, sqrt(2) - 1) is applied at levels inside
    [s_tmin, s_tmax]; the injected noise is scaled by s_noise.
    """

    s_churn: float = 0.5
    s_tmin: float = 0.05
    s_tmax: float = 50.0
    s_noise: float = 1.0

    def __post_init__(self):
        if self.s_churn < 0:
            raise ValueError(f"s_churn must be >= 0, got {self.s_churn}")
        if self.s_tmin > self.s_tmax:
            raise ValueError(f"s_tmin={self.s_tmin} exceeds s_tmax={self.s_tmax}")
        if self.s_noise <= 0:
            raise ValueError(f"s_noise must be > 0, got {self.s_noise}")


@dataclass(frozen=True)
class NoiseSchedule:
    """Non-increasing positive noise levels, sigma_max first; built by :func:`build_karras`."""

    sigmas: np.ndarray

    def __post_init__(self):
        sig = np.asarray(self.sigmas, dtype=np.float64)
        object.__setattr__(self, "sigmas", sig)
        if sig.ndim != 1 or sig.size < 2:
            raise ValueError("schedule needs at least two levels")
        # Ties are tolerated so degenerate diagnostic schedules are
        # representable; any increase is rejected. build_karras always
        # produces strictly decreasing levels.
        if not np.all(np.diff(sig) <= 0):
            raise ValueError("sigmas must be non-increasing")
        if sig[-1] <= 0:
            raise ValueError("sigma_min must be positive")

    @property
    def sigma_max(self) -> float:
        return float(self.sigmas[0])

    @property
    def n_steps(self) -> int:
        return self.sigmas.size

    def sigma_at(self, t: int) -> float:
        """Noise level at countdown index t in [0, T-1]; t = T-1 is sigma_max."""
        T = self.n_steps
        if not 0 <= t <= T - 1:
            raise IndexError(f"countdown index {t} outside [0, {T - 1}]")
        return float(self.sigmas[T - 1 - t])


def build_karras(n_steps: int, sigma_min: float, sigma_max: float, rho: float = 7.0) -> NoiseSchedule:
    """Power-interpolated noise ladder between sigma_max and sigma_min.

    sigmas[i] = (sigma_max^(1/rho) + (i/(T-1)) * (sigma_min^(1/rho) - sigma_max^(1/rho)))^rho.
    rho = 1 reduces to arithmetic spacing.
    """
    if n_steps < 2:
        raise ValueError(f"need n_steps >= 2, got {n_steps}")
    if not 0 < sigma_min < sigma_max:
        raise ValueError(f"need 0 < sigma_min < sigma_max, got ({sigma_min}, {sigma_max})")
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    i = np.arange(n_steps, dtype=np.float64)
    lo, hi = sigma_min ** (1.0 / rho), sigma_max ** (1.0 / rho)
    sigmas = (hi + i / (n_steps - 1) * (lo - hi)) ** rho
    # Pin the endpoints exactly; the power round trip can be off by an ulp.
    sigmas[0] = sigma_max
    sigmas[-1] = sigma_min
    return NoiseSchedule(sigmas)


def injection_std(schedule: NoiseSchedule, t: int) -> float:
    """Std of the noise that lifts a level-(t-1) latent back to level t.

    Returns sqrt(sigma_t^2 - sigma_{t-1}^2) in the countdown convention,
    so that the re-noised latent has marginal variance sigma_t^2 again.
    Valid for 1 <= t <= T-1.
    """
    T = schedule.n_steps
    if not 1 <= t <= T - 1:
        raise IndexError(f"injection index {t} outside [1, {T - 1}]")
    hi = schedule.sigma_at(t)
    lo = schedule.sigma_at(t - 1)
    return float(np.sqrt(hi * hi - lo * lo))


def churn_gamma(params: ChurnParams, sigma: float, n_steps: int) -> float:
    """Per-step noise increase factor; zero outside [s_tmin, s_tmax]."""
    if params.s_tmin <= sigma <= params.s_tmax:
        return min(params.s_churn / n_steps, np.sqrt(2.0) - 1.0)
    return 0.0
