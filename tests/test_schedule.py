"""Noise schedules, injection bookkeeping, and churn amounts."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from trflab.schedule import ChurnParams, NoiseSchedule, build_karras, churn_gamma, injection_std


class TestBuildKarras:
    def test_endpoints_pinned(self):
        sched = build_karras(5, 0.1, 10.0)
        assert sched.sigmas[0] == 10.0
        assert sched.sigmas[4] == 0.1

    def test_interior_value(self):
        # Direct evaluation of the rho-warped interpolation at i=2:
        # (10^(1/7) + 0.5*(0.1^(1/7) - 10^(1/7)))^7
        sched = build_karras(5, 0.1, 10.0, rho=7.0)
        expect = (10 ** (1 / 7) + 0.5 * (0.1 ** (1 / 7) - 10 ** (1 / 7))) ** 7
        npt.assert_allclose(sched.sigmas[2], expect, rtol=1e-12)
        npt.assert_allclose(sched.sigmas[2], 1.4507, rtol=1e-4)

    def test_rho_one_is_arithmetic(self):
        sched = build_karras(6, 1.0, 6.0, rho=1.0)
        npt.assert_allclose(sched.sigmas, [6.0, 5.0, 4.0, 3.0, 2.0, 1.0], atol=1e-12)

    def test_strictly_decreasing(self):
        sched = build_karras(25, 0.002, 80.0)
        assert np.all(np.diff(sched.sigmas) < 0)

    def test_refinement_keeps_endpoints(self):
        for n in (2, 3, 10, 101):
            sched = build_karras(n, 0.01, 50.0)
            assert sched.sigmas[0] == 50.0
            assert sched.sigmas[-1] == 0.01
            assert sched.n_steps == n

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            build_karras(1, 0.1, 10.0)
        with pytest.raises(ValueError):
            build_karras(5, 0.0, 10.0)
        with pytest.raises(ValueError):
            build_karras(5, 10.0, 0.1)
        with pytest.raises(ValueError):
            build_karras(5, 0.1, 10.0, rho=0.0)

    def test_sigma_at_counts_down(self):
        # Countdown index t: t = T-1 is the highest level, t = 0 the lowest.
        sched = build_karras(5, 0.1, 10.0)
        assert sched.sigma_at(4) == 10.0
        assert sched.sigma_at(0) == 0.1
        npt.assert_array_equal(
            [sched.sigma_at(t) for t in range(4, -1, -1)], sched.sigmas
        )


class TestNoiseSchedule:
    def test_increasing_rejected(self):
        with pytest.raises(ValueError):
            NoiseSchedule([1.0, 2.0, 3.0])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            NoiseSchedule([1.0, 0.0])


class TestInjectionStd:
    def test_hand_values(self):
        sched = NoiseSchedule([5.0, 3.0, 2.0, 1.0])
        # t indexes countdown: sigma_at(3)=5 ... sigma_at(0)=1.
        npt.assert_allclose(injection_std(sched, 1), math.sqrt(3), rtol=1e-12)
        npt.assert_allclose(injection_std(sched, 3), 4.0, rtol=1e-12)

    def test_equal_adjacent_levels_give_zero(self):
        sched = NoiseSchedule([2.0, 1.0, 1.0])
        assert injection_std(sched, 1) == 0.0

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 120), lo=st.floats(1e-4, 1.0), hi=st.floats(1.01, 1e3),
           rho=st.floats(0.5, 10.0))
    @example(n=25, lo=0.002, hi=80.0, rho=7.0)
    @example(n=7, lo=0.05, hi=10.0, rho=7.0)
    @example(n=100, lo=0.01, hi=5.0, rho=7.0)
    def test_variance_bookkeeping_identity(self, n, lo, hi, rho):
        # sigma_{t-1}^2 + injection_std(t)^2 == sigma_t^2 at every step of
        # any ladder: the re-noised latent sits exactly at level sigma_t again.
        sched = build_karras(n, lo, hi, rho)
        for t in range(1, n):
            lhs = sched.sigma_at(t - 1) ** 2 + injection_std(sched, t) ** 2
            npt.assert_allclose(lhs, sched.sigma_at(t) ** 2, rtol=1e-12)

    def test_out_of_range_rejected(self):
        sched = build_karras(5, 0.1, 10.0)
        with pytest.raises(IndexError):
            injection_std(sched, 0)
        with pytest.raises(IndexError):
            injection_std(sched, 5)


class TestChurnGamma:
    def test_zero_churn(self):
        p = ChurnParams(s_churn=0.0)
        assert churn_gamma(p, 1.0, 25) == 0.0

    def test_outside_band_is_zero(self):
        p = ChurnParams(s_churn=1.0, s_tmin=0.05, s_tmax=50.0)
        assert churn_gamma(p, 0.01, 25) == 0.0
        assert churn_gamma(p, 60.0, 25) == 0.0

    def test_capped_at_sqrt2_minus_1(self):
        p = ChurnParams(s_churn=80.0)
        npt.assert_allclose(churn_gamma(p, 1.0, 25), math.sqrt(2) - 1, rtol=1e-12)

    def test_linear_below_cap(self):
        p = ChurnParams(s_churn=2.0)
        npt.assert_allclose(churn_gamma(p, 1.0, 50), 0.04, rtol=1e-12)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ChurnParams(s_churn=-1.0)
        with pytest.raises(ValueError):
            ChurnParams(s_tmin=2.0, s_tmax=1.0)
        with pytest.raises(ValueError):
            ChurnParams(s_noise=0.0)
