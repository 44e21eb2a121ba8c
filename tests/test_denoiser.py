"""Denoiser backends against independent oracles.

``GaussianWorldDenoiser`` below is the reference (N*d)-dimensional
posterior solve that the frame-map Gaussian backend is checked against.

The Gaussian-world posterior mean is checked against a self-normalized
importance-sampling estimate (prior draws reweighted by the observation
likelihood) and the mixture posterior against 1-D numerical quadrature,
so neither test shares linear algebra with the implementation.
"""

import numpy as np
import pytest

from trflab.core import RngStream, as_sequence, spd_solve
from trflab.denoiser import (
    AnalyticGaussianBackend,
    AnalyticGmmBackend,
    Condition,
    GmmWorldDenoiser,
    PerFrameConditionBackend,
    edm_scalings,
    precondition_apply,
)
from trflab.worlds import PinnedGaussianProcessWorld, TrajectoryGmmWorld


class GaussianWorldDenoiser:
    """Exact posterior mean under one conditioned Gaussian world.

    Holds the conditional mean (length N*d) and SPD covariance (N*d x N*d)
    of the stacked clean sequence; ``posterior_x0`` returns
    mean + cov (cov + sigma^2 I)^(-1) (x - mean), the Bayes-optimal
    denoiser for this world.
    """

    def __init__(self, mean: np.ndarray, cov: np.ndarray):
        self.mean = np.asarray(mean, dtype=np.float64)
        self.cov = np.asarray(cov, dtype=np.float64)
        n = self.mean.size
        if self.cov.shape != (n, n):
            raise ValueError(f"covariance shape {self.cov.shape} does not match mean size {n}")
        if not np.allclose(self.cov, self.cov.T, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        self._eye = np.eye(n)

    def posterior_x0(self, x: np.ndarray, sigma: float) -> np.ndarray:
        x = as_sequence(x)
        n_frames, dim = x.shape
        if n_frames * dim != self.mean.size:
            raise ValueError(f"sequence size {n_frames * dim} does not match world size {self.mean.size}")
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        if sigma == 0.0:
            # cov (cov + 0)^-1 is the identity; the observation is already clean.
            return x.copy()
        resid = x.reshape(-1) - self.mean
        sol = spd_solve(self.cov + sigma * sigma * self._eye, resid)
        return (self.mean + self.cov @ sol).reshape(n_frames, dim)


class TestCondition:
    def test_dim_and_key(self):
        c = Condition(np.array([1.0, 2.0, 3.0]))
        assert c.dim == 3
        same = Condition(np.array([1.0, 2.0, 3.0]))
        other = Condition(np.array([1.0, 2.0, 3.5]))
        assert c.key() == same.key()
        assert c.key() != other.key()

    def test_frame_coerced(self):
        c = Condition([1, 2])
        assert c.frame.dtype == np.float64
        assert c.frame.shape == (2,)


class TestGaussianPosterior:
    def _small_world(self):
        world = PinnedGaussianProcessWorld(a=0.6, q=0.5, dim=1, n_frames=3)
        cond = Condition(np.array([0.8]))
        mean, cov = world.conditional_moments(cond)
        return GaussianWorldDenoiser(mean, cov), mean, cov

    def test_importance_sampling_oracle(self):
        # Draw clean sequences from the prior, reweight by the Gaussian
        # observation likelihood; the weighted mean estimates the posterior
        # mean without any matrix solve.
        d, mean, cov = self._small_world()
        sigma = 0.8
        x_obs = mean + np.array([0.05, 0.6, -0.4])

        gen = np.random.default_rng(901)
        chol = np.linalg.cholesky(cov)
        x0 = mean[None, :] + gen.standard_normal((1_000_000, 3)) @ chol.T
        log_w = -0.5 * np.sum((x_obs[None, :] - x0) ** 2, axis=1) / sigma ** 2
        w = np.exp(log_w - log_w.max())
        est = (w[:, None] * x0).sum(axis=0) / w.sum()

        got = d.posterior_x0(x_obs.reshape(3, 1), sigma).reshape(-1)
        np.testing.assert_allclose(got, est, atol=0.01)

    def test_scalar_hand_value(self):
        # One frame, one dimension: posterior is plain shrinkage
        # m + v / (v + sigma^2) (x - m).
        d = GaussianWorldDenoiser(np.array([2.0]), np.array([[0.5]]))
        got = d.posterior_x0(np.array([[3.0]]), 1.0)
        expected = 2.0 + (0.5 / 1.5) * 1.0
        np.testing.assert_allclose(got, [[expected]], atol=1e-14)

    def test_sigma_zero_is_identity(self):
        d, mean, _ = self._small_world()
        x = mean.reshape(3, 1) + 0.3
        out = d.posterior_x0(x, 0.0)
        np.testing.assert_array_equal(out, x)
        assert out is not x

    def test_large_sigma_returns_mean(self):
        d, mean, _ = self._small_world()
        x = mean.reshape(3, 1) + 5.0
        np.testing.assert_allclose(d.posterior_x0(x, 1e6).reshape(-1), mean, atol=1e-4)

    def test_small_sigma_returns_observation(self):
        d, mean, _ = self._small_world()
        x = mean.reshape(3, 1) + 0.3
        np.testing.assert_allclose(d.posterior_x0(x, 1e-6), x, atol=1e-4)

    def test_affine_in_x(self):
        # The posterior mean is affine, so it commutes with interpolation.
        d, mean, _ = self._small_world()
        rng = RngStream(11)
        x1 = rng.normal((3, 1))
        x2 = rng.normal((3, 1))
        t = 0.37
        lhs = d.posterior_x0(x1 + t * (x2 - x1), 0.9)
        d1 = d.posterior_x0(x1, 0.9)
        d2 = d.posterior_x0(x2, 0.9)
        np.testing.assert_allclose(lhs, d1 + t * (d2 - d1), atol=1e-12)

    def test_validation(self):
        d, _, _ = self._small_world()
        with pytest.raises(ValueError):
            d.posterior_x0(np.zeros((4, 1)), 1.0)
        with pytest.raises(ValueError):
            d.posterior_x0(np.zeros((3, 1)), -0.5)
        with pytest.raises(ValueError):
            GaussianWorldDenoiser(np.zeros(2), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            GaussianWorldDenoiser(np.zeros(2), np.array([[1.0, 0.5], [0.3, 1.0]]))


class TestGmmPosterior:
    def _mixture(self):
        return GmmWorldDenoiser(
            weights=np.array([0.4, 0.6]),
            means=np.array([[-1.0], [2.0]]),
            variances=np.array([0.09, 0.25]),
        )

    def test_quadrature_oracle(self):
        # 1-D posterior mean by trapezoid quadrature over the clean value.
        d = self._mixture()
        grid = np.linspace(-8.0, 10.0, 200_001)
        prior = (
            0.4 * np.exp(-0.5 * (grid + 1.0) ** 2 / 0.09) / np.sqrt(2 * np.pi * 0.09)
            + 0.6 * np.exp(-0.5 * (grid - 2.0) ** 2 / 0.25) / np.sqrt(2 * np.pi * 0.25)
        )
        for x in (-1.5, 0.2, 1.0, 3.0):
            for sigma in (0.3, 1.0, 2.5):
                lik = np.exp(-0.5 * (x - grid) ** 2 / sigma ** 2)
                post = prior * lik
                expected = np.trapezoid(grid * post, grid) / np.trapezoid(post, grid)
                got = d.posterior_x0(np.array([[x]]), sigma)
                np.testing.assert_allclose(got, [[expected]], atol=1e-6)

    def test_single_component_is_shrinkage(self):
        d = GmmWorldDenoiser(np.array([1.0]), np.array([[1.5, -0.5]]), np.array([0.36]))
        x = np.array([[2.0, 0.0]])
        sigma = 0.8
        shrink = 0.36 / (0.36 + sigma ** 2)
        expected = np.array([1.5, -0.5]) + shrink * (x.reshape(-1) - np.array([1.5, -0.5]))
        np.testing.assert_allclose(d.posterior_x0(x, sigma), expected.reshape(1, 2), atol=1e-14)

    def test_responsibilities_normalized(self):
        d = self._mixture()
        rng = RngStream(5)
        for _ in range(50):
            x = rng.normal((1,)) * 3.0
            r = d.responsibilities(x, 0.7)
            assert np.all(r >= 0)
            assert abs(r.sum() - 1.0) < 1e-12

    def test_responsibilities_symmetric_case(self):
        # Equal weights, equal variances, observation equidistant from the
        # two means: responsibilities are exactly one half each.
        d = GmmWorldDenoiser(
            np.array([0.5, 0.5]), np.array([[-1.0], [1.0]]), np.array([0.04, 0.04])
        )
        np.testing.assert_allclose(d.responsibilities(np.array([0.0]), 0.5), [0.5, 0.5], atol=1e-12)

    def test_small_sigma_returns_observation(self):
        d = self._mixture()
        x = np.array([[1.7]])
        np.testing.assert_allclose(d.posterior_x0(x, 1e-6), x, atol=1e-4)

    def test_large_sigma_returns_prior_mean(self):
        d = self._mixture()
        prior_mean = 0.4 * -1.0 + 0.6 * 2.0
        np.testing.assert_allclose(d.posterior_x0(np.array([[5.0]]), 1e6), [[prior_mean]], atol=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            GmmWorldDenoiser(np.array([0.5, 0.6]), np.array([[0.0], [1.0]]), np.array([0.1, 0.1]))
        with pytest.raises(ValueError):
            GmmWorldDenoiser(np.array([1.0]), np.array([0.0, 1.0]), np.array([0.1]))
        with pytest.raises(ValueError):
            GmmWorldDenoiser(np.array([1.0]), np.array([[0.0]]), np.array([-0.1]))
        d = self._mixture()
        with pytest.raises(ValueError):
            d.posterior_x0(np.array([[0.0]]), 0.0)
        with pytest.raises(ValueError):
            d.posterior_x0(np.array([[0.0, 1.0]]), 1.0)


class TestPrecondition:
    def test_coefficients_at_unit_sigma(self):
        # sigma_data = 0.5, sigma = 1: c_skip = 0.2, c_out = 0.4472,
        # c_in = 0.8944, c_noise = 0.
        seen = {}

        def net(x_in, c_noise, cond):
            seen["x_in"] = x_in
            seen["c_noise"] = c_noise
            return np.ones_like(x_in)

        x = np.array([[1.0, -2.0]])
        out = precondition_apply(net, x, 1.0, Condition(np.zeros(2)), sigma_data=0.5)
        np.testing.assert_allclose(seen["x_in"], x / np.sqrt(1.25), atol=1e-15)
        assert seen["c_noise"] == 0.0
        np.testing.assert_allclose(out, 0.2 * x + 0.5 / np.sqrt(1.25), atol=1e-15)

    def test_scalings_over_an_array_match_scalar_calls(self):
        # Training takes the coefficients of a whole batch in one call and
        # sampling one sigma at a time; both must agree bit for bit.
        sigmas = np.array([0.002, 0.1, 1.0, 80.0])
        stacked = edm_scalings(sigmas, 0.1)
        for i, sigma in enumerate(sigmas.tolist()):
            assert [c[i] for c in stacked] == list(edm_scalings(sigma, 0.1))

    def test_skip_is_half_at_sigma_data(self):
        def net_zero(x_in, c_noise, cond):
            return np.zeros_like(x_in)

        x = np.array([[3.0, -1.0]])
        out = precondition_apply(net_zero, x, 0.5, Condition(np.zeros(2)), sigma_data=0.5)
        np.testing.assert_allclose(out, 0.5 * x, atol=1e-15)

    def test_zero_network_gives_skip_path(self):
        def net_zero(x_in, c_noise, cond):
            return np.zeros_like(x_in)

        x = np.array([[1.0], [2.0]])
        for sigma in (0.1, 1.0, 7.0):
            c_skip = 0.25 / (sigma ** 2 + 0.25)
            np.testing.assert_allclose(
                precondition_apply(net_zero, x, sigma, Condition(np.zeros(1)), 0.5),
                c_skip * x,
                atol=1e-15,
            )

    def test_noise_embedding_tracks_log_sigma(self):
        seen = {}

        def net(x_in, c_noise, cond):
            seen["c_noise"] = c_noise
            return np.zeros_like(x_in)

        precondition_apply(net, np.zeros((1, 1)), 3.0, Condition(np.zeros(1)), 0.5)
        np.testing.assert_allclose(seen["c_noise"], np.log(3.0) / 4.0, atol=1e-15)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            precondition_apply(lambda x, s, c: x, np.zeros((1, 1)), 0.0, Condition(np.zeros(1)), 0.5)


class TestAnalyticBackends:
    def test_gaussian_backend_matches_direct_denoiser(self):
        world = PinnedGaussianProcessWorld(a=0.7, q=0.4, dim=2, n_frames=5)
        backend = AnalyticGaussianBackend(world)
        cond = Condition(np.array([0.5, -0.2]))
        mean, cov = world.conditional_moments(cond)
        direct = GaussianWorldDenoiser(mean, cov)
        rng = RngStream(3)
        x = rng.normal((5, 2))
        for sigma in (0.3, 1.0, 4.0):
            np.testing.assert_allclose(
                backend.predict_x0(x, sigma, cond), direct.posterior_x0(x, sigma), atol=1e-10
            )
        assert backend.seq_shape == (5, 2)

    def test_gaussian_backend_caches_per_condition(self):
        world = PinnedGaussianProcessWorld(a=0.7, q=0.4, dim=1, n_frames=4)
        backend = AnalyticGaussianBackend(world)
        c1 = Condition(np.array([1.0]))
        c2 = Condition(np.array([1.0]))
        assert backend.mean_for(c1) is backend.mean_for(c2)
        x = RngStream(9).normal((4, 1))
        first = backend.predict_x0(x, 0.8, c1)
        second = backend.predict_x0(x, 0.8, c2)
        np.testing.assert_array_equal(first, second)

    def test_gaussian_backend_sigma_zero(self):
        world = PinnedGaussianProcessWorld(a=0.7, q=0.4, dim=1, n_frames=4)
        backend = AnalyticGaussianBackend(world)
        x = RngStream(2).normal((4, 1))
        np.testing.assert_array_equal(backend.predict_x0(x, 0.0, Condition(np.array([0.3]))), x)

    def test_gmm_backend_matches_conditional_mixture(self):
        world = TrajectoryGmmWorld.arcs(n_frames=6, tau=0.1)
        backend = AnalyticGmmBackend(world)
        cond = Condition(np.array([-1.0, 0.0]))
        direct = world.conditional_gmm(cond)
        x = RngStream(4).normal((6, 2))
        for sigma in (0.5, 2.0):
            np.testing.assert_allclose(
                backend.predict_x0(x, sigma, cond), direct.posterior_x0(x, sigma), atol=1e-12
            )
        assert backend.seq_shape == (6, 2)


class TestPerFrameConditionBackend:
    def test_rows_come_from_per_frame_conditions(self):
        world = PinnedGaussianProcessWorld(a=0.5, q=0.3, dim=1, n_frames=3)
        base = AnalyticGaussianBackend(world)
        conds = [Condition(np.array([v])) for v in (0.0, 0.5, 1.0)]
        composed = PerFrameConditionBackend(base, conds)
        x = RngStream(7).normal((3, 1))
        out = composed.predict_x0(x, 0.7, conds[0])
        for n in range(3):
            np.testing.assert_array_equal(out[n], base.predict_x0(x, 0.7, conds[n])[n])
        assert composed.seq_shape == (3, 1)


def _condition_axis_cases():
    """{name: (backend, conditions)} for every backend of the package."""
    from trflab.train import ArchDescriptor, MlpBackend, init_params

    gp = AnalyticGaussianBackend(PinnedGaussianProcessWorld(a=0.8, q=0.3, dim=2, n_frames=5))
    # tau = 0.02 drops the three arcs that start at (1, 0) under the first
    # condition but keeps all six under the second.
    gmm = AnalyticGmmBackend(TrajectoryGmmWorld.arcs(n_frames=5, tau=0.02))
    assert [gmm.denoiser_for(Condition(np.array(f))).n_components
            for f in ([-1.0, 0.0], [0.0, 0.0])] == [3, 6]
    mlp = MlpBackend(init_params(ArchDescriptor(n_frames=5, frame_dim=2, cond_dim=2, hidden=16),
                                 RngStream(5)))
    per_frame = PerFrameConditionBackend(
        gp, [Condition(np.array([v, -v])) for v in np.linspace(-1.0, 1.0, 5)])
    frames = ([-1.0, 0.0], [0.0, 0.0], [0.5, -0.25])
    conds = tuple(Condition(np.array(f)) for f in frames)
    return {"gp": (gp, conds), "gmm": (gmm, conds[:2]), "mlp": (mlp, conds),
            "perframe": (per_frame, conds)}


class TestConditionAxis:
    """Slice c of a condition-axis call is the single-condition call on slice c.

    Bit for bit, with one exception: an unbatched MLP call on one (N, d)
    slice is a one-row forward pass, which numpy hands to BLAS's
    matrix-vector kernel, and that rounds differently from the
    matrix-matrix kernel the stacked rows take. That case holds to 1e-12.
    """

    @pytest.mark.parametrize("lead", [(), (4,)], ids=["unbatched", "batched"])
    @pytest.mark.parametrize("name", ["gp", "gmm", "mlp", "perframe"])
    def test_slices_match_single_condition_calls(self, name, lead):
        backend, conds = _condition_axis_cases()[name]
        x = RngStream(11).normal((len(conds),) + lead + backend.seq_shape) * 2.0
        for sigma in (0.05, 0.7, 6.0):
            out = backend.predict_x0(x, sigma, conds)
            assert out.shape == x.shape
            for c, cond in enumerate(conds):
                single = backend.predict_x0(x[c], sigma, cond)
                if name == "mlp" and not lead:
                    np.testing.assert_allclose(out[c], single, rtol=0, atol=1e-12)
                else:
                    np.testing.assert_array_equal(out[c], single)

    def test_gp_caches_the_stacked_mean_per_tuple(self):
        backend, conds = _condition_axis_cases()["gp"]
        stacked = backend.mean_for(conds)
        assert stacked.shape == (3, 5, 2)
        assert backend.mean_for(tuple(Condition(c.frame.copy()) for c in conds)) is stacked
        for c, cond in enumerate(conds):
            np.testing.assert_array_equal(stacked[c], backend.mean_for(cond))
