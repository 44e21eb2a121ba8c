"""Denoiser backends against independent oracles.

``GaussianWorldDenoiser`` below is the reference (N*d)-dimensional
posterior solve that the frame-map Gaussian backend is checked against,
and ``DifferenceFormMixture`` the reference mixture posterior, built from
the differences x - mu_k, that the expanded-form mixture backend is
checked against. Mixture laws are (weights, means, variances) arrays, as
``TrajectoryGmmWorld.conditional_gmm`` gives them; the oracles below reach
the mixture posterior through ``AnalyticGmmBackend`` over ``_TableWorld``.

The Gaussian-world posterior mean is checked against a self-normalized
importance-sampling estimate (prior draws reweighted by the observation
likelihood) and the mixture posterior against 1-D numerical quadrature,
so neither test shares linear algebra with the implementation.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from trflab.core import RngStream, as_sequence
from trflab.denoiser import (
    AnalyticGaussianBackend,
    AnalyticGmmBackend,
    Condition,
    PerFrameConditionBackend,
    _mixture_posterior,
    edm_scalings,
    precondition_apply,
)
from trflab.schedule import build_karras
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

    @classmethod
    def under(cls, world, cond: Condition) -> "GaussianWorldDenoiser":
        """The reference denoiser of a GP world under ``cond``, its law made
        dense: the flattened mean and the covariance kron(F, I_d)."""
        mean, frame_cov = world.conditional_moments(cond)
        return cls(mean.reshape(-1), np.kron(frame_cov, np.eye(world.dim)))

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
        sol = np.linalg.solve(self.cov + sigma * sigma * self._eye, resid)
        return (self.mean + self.cov @ sol).reshape(n_frames, dim)


class DifferenceFormMixture:
    """Exact posterior mean under one isotropic Gaussian mixture, in
    difference form: the squared distances and the component means are
    taken from the (..., K, N*d) differences x - mu_k. A component of
    weight 0 gets responsibility 0."""

    def __init__(self, weights, means, variances):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.means = np.asarray(means, dtype=np.float64)
        self.variances = np.asarray(variances, dtype=np.float64)

    def responsibilities(self, x_flat: np.ndarray, sigma: float) -> np.ndarray:
        total_var = self.variances + sigma * sigma  # (K,)
        quad = np.sum((x_flat[..., None, :] - self.means) ** 2, axis=-1)
        dim = x_flat.shape[-1]
        with np.errstate(divide="ignore"):
            log_w = np.log(self.weights)
        log_lik = log_w - 0.5 * quad / total_var - 0.5 * dim * np.log(2.0 * np.pi * total_var)
        log_lik -= log_lik.max(axis=-1, keepdims=True)
        r = np.exp(log_lik)
        return r / r.sum(axis=-1, keepdims=True)

    def posterior_x0(self, x: np.ndarray, sigma: float) -> np.ndarray:
        x_flat = x.reshape(x.shape[:-2] + (-1,))
        r = self.responsibilities(x_flat, sigma)
        shrink = self.variances / (self.variances + sigma * sigma)  # (K,)
        comp_means = self.means + shrink[:, None] * (x_flat[..., None, :] - self.means)
        return (r[..., None, :] @ comp_means).reshape(x.shape)


class _TableWorld:
    """A stand-in world whose conditional mixture is looked up by condition."""

    def __init__(self, mixtures: dict, seq_shape: tuple[int, int]):
        self.mixtures = mixtures
        self.seq_shape = seq_shape

    def conditional_gmm(self, cond: Condition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.mixtures[cond.key()]


_ANY = Condition(np.zeros(1))


def _mixture_backend(mixture, seq_shape) -> AnalyticGmmBackend:
    """The mixture backend of a world whose law is ``mixture`` under ``_ANY``."""
    return AnalyticGmmBackend(_TableWorld({_ANY.key(): mixture}, seq_shape))


def _posterior_x0(mixture, x: np.ndarray, sigma: float) -> np.ndarray:
    """Posterior mean of an (N, d) sequence or an (R, N, d) stack under one mixture."""
    return _mixture_backend(mixture, x.shape[-2:]).predict_x0(x[None], sigma, (_ANY,))[0]


def _responsibilities(mixture, x_flat: np.ndarray, sigma: float) -> np.ndarray:
    """(..., K) posterior component probabilities of (..., N*d) observations."""
    stack = _mixture_backend(mixture, (1, x_flat.shape[-1])).mixture_for((_ANY,))
    r, _ = _mixture_posterior(x_flat.reshape(1, -1, x_flat.shape[-1]), sigma, *stack)
    return r[0].reshape(x_flat.shape[:-1] + (-1,))


#: Every noise level of a 100-step Karras ladder, and the schema's largest sigma_max.
LADDER = [*build_karras(100, 0.002, 80.0).sigmas, 1e4]


class TestCondition:
    def test_dim_and_key(self):
        c = Condition(np.array([1.0, 2.0, 3.0]))
        assert c.dim == 3
        same = Condition(np.array([1.0, 2.0, 3.0]))
        other = Condition(np.array([1.0, 2.0, 3.5]))
        assert c.key() == same.key()
        assert c.key() != other.key()

    def test_key_is_taken_once(self):
        # The backends look every condition of every call up by its key.
        c = Condition(np.array([1.0, 2.0]))
        assert c.key() is c.key()

    def test_frame_coerced(self):
        c = Condition([1, 2])
        assert c.frame.dtype == np.float64
        assert c.frame.shape == (2,)


class TestGaussianPosterior:
    def _small_world(self):
        world = PinnedGaussianProcessWorld(a=0.6, q=0.5, dim=1, n_frames=3)
        cond = Condition(np.array([0.8]))
        d = GaussianWorldDenoiser.under(world, cond)
        return d, d.mean, d.cov

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
    #: (weights, means, variances) of a two-component 1-D mixture.
    MIXTURE = (np.array([0.4, 0.6]), np.array([[-1.0], [2.0]]), np.array([0.09, 0.25]))

    def test_quadrature_oracle(self):
        # 1-D posterior mean by trapezoid quadrature over the clean value.
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
                got = _posterior_x0(self.MIXTURE, np.array([[x]]), sigma)
                np.testing.assert_allclose(got, [[expected]], atol=1e-6)

    def test_single_component_is_shrinkage(self):
        mixture = (np.array([1.0]), np.array([[1.5, -0.5]]), np.array([0.36]))
        x = np.array([[2.0, 0.0]])
        sigma = 0.8
        shrink = 0.36 / (0.36 + sigma ** 2)
        expected = np.array([1.5, -0.5]) + shrink * (x.reshape(-1) - np.array([1.5, -0.5]))
        np.testing.assert_allclose(_posterior_x0(mixture, x, sigma), expected.reshape(1, 2), atol=1e-14)

    def test_responsibilities_normalized(self):
        rng = RngStream(5)
        for _ in range(50):
            x = rng.normal((1,)) * 3.0
            r = _responsibilities(self.MIXTURE, x, 0.7)
            assert np.all(r >= 0)
            assert abs(r.sum() - 1.0) < 1e-12

    def test_responsibilities_symmetric_case(self):
        # Equal weights, equal variances, observation equidistant from the
        # two means: responsibilities are exactly one half each.
        mixture = (np.array([0.5, 0.5]), np.array([[-1.0], [1.0]]), np.array([0.04, 0.04]))
        np.testing.assert_allclose(_responsibilities(mixture, np.array([0.0]), 0.5), [0.5, 0.5], atol=1e-12)

    def test_small_sigma_returns_observation(self):
        x = np.array([[1.7]])
        np.testing.assert_allclose(_posterior_x0(self.MIXTURE, x, 1e-6), x, atol=1e-4)

    def test_large_sigma_returns_prior_mean(self):
        prior_mean = 0.4 * -1.0 + 0.6 * 2.0
        np.testing.assert_allclose(_posterior_x0(self.MIXTURE, np.array([[5.0]]), 1e6), [[prior_mean]],
                                   atol=1e-4)

    def test_underflowed_components_get_weight_and_responsibility_zero(self):
        # Endpoints far apart: under the start frame the reversed routes'
        # weights underflow. They stay in the mixture with weight exactly 0
        # and responsibility exactly 0 at every noise level, even for
        # observations on a reversed route, and the posterior is that of
        # the three forward routes alone.
        world = TrajectoryGmmWorld.arcs(start=(-3.0, 0.0), end=(3.0, 0.0), tau=0.1)
        backend = AnalyticGmmBackend(world)
        cond = Condition(np.array([-3.0, 0.0]))
        weights, means, variances = world.conditional_gmm(cond)
        assert weights.size == 6
        assert np.all(weights[:3] > 0)
        np.testing.assert_array_equal(weights[3:], 0.0)
        forward = DifferenceFormMixture(weights[:3] / weights[:3].sum(), means[:3], variances[:3])
        rng = RngStream(13)
        for sigma in LADDER:
            x = means.reshape((6,) + world.seq_shape) + sigma * rng.normal((6,) + world.seq_shape)
            r, _ = _mixture_posterior(x.reshape(1, 6, -1), sigma, *backend.mixture_for((cond,)))
            np.testing.assert_array_equal(r[0, :, 3:], 0.0)
            np.testing.assert_allclose(backend.predict_x0(x[None], sigma, (cond,))[0],
                                       forward.posterior_x0(x, sigma), rtol=0, atol=1e-12)


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
        out = precondition_apply(net, x, 1.0, (Condition(np.zeros(2)),), sigma_data=0.5)
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
        out = precondition_apply(net_zero, x, 0.5, (Condition(np.zeros(2)),), sigma_data=0.5)
        np.testing.assert_allclose(out, 0.5 * x, atol=1e-15)

    def test_zero_network_gives_skip_path(self):
        def net_zero(x_in, c_noise, cond):
            return np.zeros_like(x_in)

        x = np.array([[1.0], [2.0]])
        for sigma in (0.1, 1.0, 7.0):
            c_skip = 0.25 / (sigma ** 2 + 0.25)
            np.testing.assert_allclose(
                precondition_apply(net_zero, x, sigma, (Condition(np.zeros(1)),), 0.5),
                c_skip * x,
                atol=1e-15,
            )

    def test_noise_embedding_tracks_log_sigma(self):
        seen = {}

        def net(x_in, c_noise, cond):
            seen["c_noise"] = c_noise
            return np.zeros_like(x_in)

        precondition_apply(net, np.zeros((1, 1)), 3.0, (Condition(np.zeros(1)),), 0.5)
        np.testing.assert_allclose(seen["c_noise"], np.log(3.0) / 4.0, atol=1e-15)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            precondition_apply(lambda x, s, c: x, np.zeros((1, 1)), 0.0, (Condition(np.zeros(1)),), 0.5)


class TestAnalyticBackends:
    def test_gaussian_backend_matches_direct_denoiser(self):
        world = PinnedGaussianProcessWorld(a=0.7, q=0.4, dim=2, n_frames=5)
        backend = AnalyticGaussianBackend(world)
        cond = Condition(np.array([0.5, -0.2]))
        direct = GaussianWorldDenoiser.under(world, cond)
        rng = RngStream(3)
        x = rng.normal((5, 2))
        for sigma in (0.3, 1.0, 4.0):
            np.testing.assert_allclose(
                backend.predict_x0(x[None], sigma, (cond,))[0], direct.posterior_x0(x, sigma), atol=1e-10
            )
        assert backend.seq_shape == (5, 2)

    def test_gaussian_backend_never_builds_the_dense_covariance(self):
        # A 256 x 32 world's law in dense form, kron(F, I_d), is 512 MiB;
        # its factors, the (256, 32) mean and the 256 x 256 F, under 1 MiB.
        world = PinnedGaussianProcessWorld(a=1.0, q=0.3, dim=32, n_frames=256)
        backend = AnalyticGaussianBackend(world)
        x = np.zeros((1, 256, 32))
        tracemalloc.start()
        try:
            backend.predict_x0(x, 1.0, (Condition(np.ones(32)),))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_gaussian_backend_caches_per_condition(self):
        world = PinnedGaussianProcessWorld(a=0.7, q=0.4, dim=1, n_frames=4)
        backend = AnalyticGaussianBackend(world)
        c1 = Condition(np.array([1.0]))
        c2 = Condition(np.array([1.0]))
        assert backend.mean_for((c1,)) is backend.mean_for((c2,))
        x = RngStream(9).normal((4, 1))
        first = backend.predict_x0(x[None], 0.8, (c1,))[0]
        second = backend.predict_x0(x[None], 0.8, (c2,))[0]
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("a", [1.0, 0.8, 0.3])
    def test_gaussian_frame_map_matches_a_direct_solve(self, a):
        backend = AnalyticGaussianBackend(PinnedGaussianProcessWorld(a=a, q=0.3, dim=2, n_frames=16))
        f = backend.world.frame_cov
        for sigma in [*build_karras(100, 0.002, 80.0).sigmas, 1e-4]:
            ref = np.linalg.solve(f + sigma * sigma * np.eye(16), f).T
            np.testing.assert_allclose(backend.frame_map(sigma), ref, rtol=0, atol=1e-12)

    def test_gaussian_frame_maps_share_one_eigendecomposition(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
        backend = AnalyticGaussianBackend(PinnedGaussianProcessWorld(a=0.9, q=0.3, dim=2, n_frames=6))
        for k, sigma in enumerate((2.0, 0.5, 0.1), start=1):
            backend.frame_map(sigma)
            assert len(backend._factors) == k
            backend.frame_map(sigma)
            assert len(backend._factors) == k
        assert len(calls) == 1

    def test_gaussian_backend_sigma_zero(self):
        world = PinnedGaussianProcessWorld(a=0.7, q=0.4, dim=1, n_frames=4)
        backend = AnalyticGaussianBackend(world)
        x = RngStream(2).normal((4, 1))
        np.testing.assert_array_equal(backend.predict_x0(x[None], 0.0, (Condition(np.array([0.3])),))[0], x)

    def test_gmm_backend_matches_conditional_mixture(self):
        world = TrajectoryGmmWorld.arcs(n_frames=6, tau=0.1)
        backend = AnalyticGmmBackend(world)
        cond = Condition(np.array([-1.0, 0.0]))
        direct = DifferenceFormMixture(*world.conditional_gmm(cond))
        x = RngStream(4).normal((6, 2))
        for sigma in (0.5, 2.0):
            np.testing.assert_allclose(
                backend.predict_x0(x[None], sigma, (cond,))[0], direct.posterior_x0(x, sigma), atol=1e-12
            )
        assert backend.seq_shape == (6, 2)

    def test_gmm_backend_matches_the_difference_form_under_interpolated_conditions(self):
        # The interpolation baseline's call: 16-frame arcs, one condition
        # per frame on the chord, four chains near the routes per condition.
        world = TrajectoryGmmWorld.arcs(n_frames=16, tau=0.1)
        backend = AnalyticGmmBackend(world)
        conds = tuple(Condition(np.array([2.0 * u - 1.0, 0.0])) for u in np.linspace(0.0, 1.0, 16))
        refs = [DifferenceFormMixture(*world.conditional_gmm(c)) for c in conds]
        routes = world.components[np.arange(16 * 4) % 6].reshape((16, 4) + world.seq_shape)
        rng = RngStream(21)
        for sigma in LADDER:
            x = routes + sigma * rng.normal(routes.shape)
            out = backend.predict_x0(x, sigma, conds)
            for c, ref in enumerate(refs):
                np.testing.assert_allclose(out[c], ref.posterior_x0(x[c], sigma), rtol=0, atol=1e-12)


@st.composite
def mixture_calls(draw):
    """C random mixtures of one K (1 to 6, some weights exactly 0), a
    (C, R, N, d) input drawn near their components, and sigma."""
    n_conds, k = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    seq_shape = (draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    dim = seq_shape[0] * seq_shape[1]
    sigma = 10.0 ** draw(st.floats(-3.0, 4.0))
    rows = draw(st.integers(1, 3))
    unit = st.floats(-1.0, 1.0)
    mixtures, x = [], []
    for _ in range(n_conds):
        weights = draw(arrays(np.float64, k, elements=st.floats(0.01, 1.0)))
        weights[draw(arrays(np.bool_, k)) & (np.arange(k) != draw(st.integers(0, k - 1)))] = 0.0
        means = 2.0 * draw(arrays(np.float64, (k, dim), elements=unit))
        variances = draw(arrays(np.float64, k, elements=st.floats(0.01, 1.0)))
        mixtures.append((weights / weights.sum(), means, variances))
        near = means[draw(arrays(np.int64, rows, elements=st.integers(0, k - 1)))]
        x.append(near + sigma * 3.0 * draw(arrays(np.float64, (rows, dim), elements=unit)))
    x = np.reshape(x, (n_conds, rows) + seq_shape)
    return mixtures, x, sigma


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mixture_calls())
def test_gmm_backend_matches_the_difference_form_on_random_mixtures(call):
    mixtures, x, sigma = call
    conds = tuple(Condition(np.array([float(c)])) for c in range(len(mixtures)))
    backend = AnalyticGmmBackend(_TableWorld({c.key(): m for c, m in zip(conds, mixtures)}, x.shape[-2:]))
    out = backend.predict_x0(x, sigma, conds)
    x_flat = x.reshape(x.shape[:2] + (-1,))
    r, _ = _mixture_posterior(x_flat, sigma, *backend.mixture_for(conds))
    for c, mix in enumerate(mixtures):
        ref = DifferenceFormMixture(*mix)
        np.testing.assert_allclose(out[c], ref.posterior_x0(x[c], sigma), rtol=0, atol=1e-12)
        np.testing.assert_allclose(r[c], ref.responsibilities(x_flat[c], sigma), rtol=0, atol=1e-12)
        assert np.all(r[c][:, mix[0] == 0.0] == 0.0)


class TestPerFrameConditionBackend:
    def test_rows_come_from_per_frame_conditions(self):
        world = PinnedGaussianProcessWorld(a=0.5, q=0.3, dim=1, n_frames=3)
        base = AnalyticGaussianBackend(world)
        conds = [Condition(np.array([v])) for v in (0.0, 0.5, 1.0)]
        composed = PerFrameConditionBackend(base, conds)
        x = RngStream(7).normal((3, 1))
        out = composed.predict_x0(x[None], 0.7, (conds[0],))[0]
        for n in range(3):
            np.testing.assert_array_equal(out[n], base.predict_x0(x[None], 0.7, (conds[n],))[0][n])
        assert composed.seq_shape == (3, 1)


def _condition_axis_cases():
    """{name: (backend, conditions)} for every backend of the package."""
    from trflab.train import ArchDescriptor, MlpBackend, init_params

    gp = AnalyticGaussianBackend(PinnedGaussianProcessWorld(a=0.8, q=0.3, dim=2, n_frames=5))
    # tau = 0.02 gives the three arcs that start at (1, 0) weight 0 under
    # the first condition but all six arcs weight under the second.
    gmm = AnalyticGmmBackend(TrajectoryGmmWorld.arcs(n_frames=5, tau=0.02))
    assert [np.count_nonzero(gmm.world.conditional_gmm(Condition(np.array(f)))[0])
            for f in ([-1.0, 0.0], [0.0, 0.0])] == [3, 6]
    mlp = MlpBackend(init_params(ArchDescriptor(n_frames=5, frame_dim=2, hidden=16),
                                 RngStream(5)))
    per_frame = PerFrameConditionBackend(
        gp, [Condition(np.array([v, -v])) for v in np.linspace(-1.0, 1.0, 5)])
    frames = ([-1.0, 0.0], [0.0, 0.0], [0.5, -0.25])
    conds = tuple(Condition(np.array(f)) for f in frames)
    return {"gp": (gp, conds), "gmm": (gmm, conds[:2]), "mlp": (mlp, conds),
            "perframe": (per_frame, conds)}


class TestConditionAxis:
    """Slice c of a C-condition call is the one-condition call on slice c.

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
                single = backend.predict_x0(x[c][None], sigma, (cond,))[0]
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
            np.testing.assert_array_equal(stacked[c], backend.mean_for((cond,))[0])

    def test_gmm_caches_the_stacked_mixture_per_tuple(self, monkeypatch):
        backend, conds = _condition_axis_cases()["gmm"]
        calls = []
        conditional_gmm = backend.world.conditional_gmm
        monkeypatch.setattr(backend.world, "conditional_gmm", lambda c: calls.append(c) or conditional_gmm(c))
        stacked = backend.mixture_for(conds)
        assert [a.shape for a in stacked] == [(2, 6), (2, 6, 10), (2, 6), (2, 6)]
        assert backend.mixture_for(tuple(Condition(c.frame.copy()) for c in conds)) is stacked
        assert calls == list(conds)
        for c, cond in enumerate(conds):
            for whole, single in zip(stacked, backend.mixture_for((cond,))):
                np.testing.assert_array_equal(whole[c], single[0])
        # Both slices keep all six components; under the first condition
        # the three reversed routes have weight 0, log-weight -inf.
        np.testing.assert_array_equal(np.isneginf(stacked[0]).sum(axis=1), [3, 0])
