"""The single-path EDM sampling loop: churn, Euler steps, traces."""

import json
import math
import os

import numpy as np
import numpy.testing as npt
import pytest

from trflab import (
    AnalyticGaussianBackend,
    ChurnParams,
    Condition,
    NoiseSchedule,
    PinnedGaussianProcessWorld,
    RngStream,
    build_karras,
    churn_perturb,
    sample,
)
from trflab.sampler import _euler_from_denoised


class UnitGaussianBackend:
    """D(x, sigma) = x / (1 + sigma^2): exact posterior mean for N(0, I) data."""

    seq_shape = (3, 1)

    def predict_x0(self, x, sigma, cond):
        return x / (1.0 + sigma * sigma)


class TestChurnPerturb:
    def test_gamma_zero_noop(self):
        # A step outside the churn window gets no draw at all.
        x = np.ones((3, 2))
        x_hat, sigma_hat = churn_perturb(x, 1.5, 0.0, 1.0, None)
        assert x_hat is x and sigma_hat == 1.5

    def test_sigma_inflation(self):
        x = np.zeros((2, 2))
        noise = RngStream(0).normal((2, 2))
        x_hat, sigma_hat = churn_perturb(x, 1.0, 1.0, 1.0, noise)
        assert sigma_hat == 2.0
        npt.assert_array_equal(x_hat, np.sqrt(3.0) * noise)

    def test_added_noise_std(self):
        # sigma=1, gamma=1: added std is sqrt(4-1) * s_noise.
        x = np.zeros((100_000, 1))
        x_hat, _ = churn_perturb(x, 1.0, 1.0, 1.0, RngStream(1).normal(x.shape))
        npt.assert_allclose(x_hat.std(), math.sqrt(3), rtol=0.02)

    def test_variance_bookkeeping(self):
        rng = RngStream(2)
        x = np.zeros((100_000, 1))
        for sigma, gamma, s_noise in ((1.0, 0.3, 1.0), (2.0, 0.1, 1.1)):
            x_hat, sigma_hat = churn_perturb(x, sigma, gamma, s_noise, rng.normal(x.shape))
            expect = (sigma_hat**2 - sigma**2) * s_noise**2
            npt.assert_allclose(x_hat.var(), expect, rtol=0.02)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            churn_perturb(np.zeros((2, 1)), 1.0, -0.1, 1.0, np.zeros((2, 1)))


class TestEdmEulerStep:
    """The Euler step every sampler takes, fed the unit-Gaussian prediction."""

    def _step(self, x, sigma_hat, sigma_next):
        denoised = UnitGaussianBackend().predict_x0(x[None], sigma_hat, (Condition(np.zeros(1)),))[0]
        return _euler_from_denoised(x, sigma_hat, sigma_next, denoised)

    def test_hand_computed_unit_gaussian(self):
        # x=2, sigma=1: D = 2/(1+1) = 1, d = (2-1)/1 = 1, step to 0 gives 1.
        out = self._step(np.full((3, 1), 2.0), 1.0, 0.0)
        npt.assert_allclose(out, 1.0, rtol=1e-14)

    def test_no_move_when_sigma_unchanged(self):
        x = np.array([[2.0], [0.5], [-1.0]])
        npt.assert_array_equal(self._step(x, 1.0, 1.0), x)

    def test_step_to_zero_returns_prediction(self):
        x = np.array([[4.0], [-2.0], [1.0]])
        npt.assert_allclose(self._step(x, 2.0, 0.0), x / 5.0, rtol=1e-14)


class TestSample:
    def setup_method(self):
        self.world = PinnedGaussianProcessWorld(a=0.8, q=0.3, dim=2, n_frames=5)
        self.backend = AnalyticGaussianBackend(self.world)
        self.cond = Condition(np.array([0.5, -0.5]))

    def test_deterministic(self):
        sched = build_karras(10, 0.01, 10.0)
        churn = ChurnParams()
        x1, t1 = sample(self.backend, sched, self.cond, churn, RngStream(3), diagnostics=True)
        x2, t2 = sample(self.backend, sched, self.cond, churn, RngStream(3), diagnostics=True)
        npt.assert_array_equal(x1, x2)
        assert t1.to_json_lines() == t2.to_json_lines()

    def test_two_step_structure(self):
        # T=2 without churn: one Euler step sigma_max -> sigma_min from pure
        # noise, then a refinement step to 0; the trace has two records.
        sched = NoiseSchedule(np.array([10.0, 1e-8]))
        x, trace = sample(self.backend, sched, self.cond,
                          ChurnParams(s_churn=0.0), RngStream(5))
        assert len(trace) == 2
        assert trace.records[0].t == 1 and trace.records[0].sigma == 10.0
        assert trace.records[1].t == 0

        rng = RngStream(5).split(0)
        x_t = 10.0 * rng.normal((5, 2))
        pred = self.backend.predict_x0(x_t[None], 10.0, (self.cond,))[0]
        # After stepping to sigma ~ 0 the state is the prediction, and the
        # final step at sigma ~ 0 cannot move it measurably.
        npt.assert_allclose(x, pred, atol=1e-6)

    def test_trace_length_matches_steps(self):
        sched = build_karras(25, 0.002, 80.0)
        _, trace = sample(self.backend, sched, self.cond, ChurnParams(), RngStream(0))
        assert len(trace) == 25

    def test_records_without_diagnostics(self):
        sched = build_karras(6, 0.01, 20.0)
        x_off, off = sample(self.backend, sched, self.cond, ChurnParams(), RngStream(4))
        x_on, on = sample(self.backend, sched, self.cond, ChurnParams(), RngStream(4),
                          diagnostics=True)
        npt.assert_array_equal(x_off, x_on)
        assert len(off) == 6 and off.total_fusions == 0
        for a, b in zip(off.records, on.records):
            assert (a.t, a.sigma, a.sigma_hat, a.fusions) == (b.t, b.sigma, b.sigma_hat, 0)
            assert a.latent_hash is None and a.denoised_hash is None
            assert isinstance(b.latent_hash, str) and isinstance(b.denoised_hash, str)

    def test_trace_sigmas_decrease(self):
        sched = build_karras(25, 0.002, 80.0)
        _, trace = sample(self.backend, sched, self.cond, ChurnParams(), RngStream(1))
        hats = [r.sigma_hat for r in trace.records]
        assert all(a > b for a, b in zip(hats, hats[1:]))

    def test_trace_json_lines_roundtrip(self, tmp_path):
        sched = build_karras(4, 0.01, 5.0)
        _, trace = sample(self.backend, sched, self.cond, ChurnParams(), RngStream(2),
                          diagnostics=True)
        path = tmp_path / "trace.jsonl"
        trace.save_jsonl(path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 4
        assert rows[0]["t"] == 3
        assert {"sigma", "sigma_hat", "latent_hash", "denoised_hash"} <= rows[0].keys()

    def test_failed_trace_write_keeps_the_earlier_trace(self, tmp_path, monkeypatch):
        sched = build_karras(4, 0.01, 5.0)
        path = tmp_path / "trace.jsonl"
        sample(self.backend, sched, self.cond, ChurnParams(), RngStream(2),
               diagnostics=True)[1].save_jsonl(path)
        before = path.read_bytes()
        _, other = sample(self.backend, sched, self.cond, ChurnParams(), RngStream(3),
                          diagnostics=True)

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(RuntimeError, match="cannot write"):
            other.save_jsonl(path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["trace.jsonl"]

    def test_sampler_matches_conditional_mean(self):
        # Coarse distributional check; the tight version is acceptance
        # criterion 5 at T=100 with 5000 samples.
        sched = build_karras(40, 0.002, 80.0)
        mean, _ = self.world.conditional_moments(self.cond)
        runs = np.array([
            sample(self.backend, sched, self.cond, ChurnParams(), RngStream(s))[0].ravel()
            for s in range(500)
        ])
        assert np.abs(runs.mean(axis=0) - mean.ravel()).max() < 0.15
