"""Synthetic worlds: closed-form moments vs Monte Carlo and hand geometry.

The Gaussian-process covariance is rebuilt here from the textbook AR(1)
recursion (variance and lag decay) rather than the innovation factorization
the implementation uses, and blob rendering is checked against the Gaussian
integral and exact argmax/refinement identities.
"""

import numpy as np
import pytest

from trflab.core import RngStream
from trflab.denoiser import Condition, GmmWorldDenoiser
from trflab.worlds import (
    EPS_PIN,
    MovingBlobWorld,
    PinnedGaussianProcessWorld,
    TrajectoryGmmWorld,
    blob_position,
    conditional_gmm,
    conditional_moments,
    render_blob,
)


def ar1_frame_cov(a, q, n):
    """Frame covariance from the scalar recursion: V_0 = pin, V_n = a^2 V + q^2,
    cov(x_m, x_n) = a^(n-m) V_m for m <= n."""
    var = np.empty(n)
    var[0] = EPS_PIN
    for i in range(1, n):
        var[i] = a * a * var[i - 1] + q * q
    cov = np.empty((n, n))
    for m in range(n):
        for k in range(m, n):
            cov[m, k] = cov[k, m] = a ** (k - m) * var[m]
    return cov


class TestGaussianProcessWorld:
    def test_conditional_moments_against_recursion(self):
        world = PinnedGaussianProcessWorld(a=0.6, q=0.5, dim=2, n_frames=6)
        cond = Condition(np.array([1.0, -2.0]))
        mean, cov = world.conditional_moments(cond)
        # Mean decays geometrically from the pinned frame.
        expected_mean = (0.6 ** np.arange(6))[:, None] * np.array([1.0, -2.0])
        np.testing.assert_allclose(mean, expected_mean.reshape(-1), atol=1e-14)
        # Covariance is the AR(1) frame covariance, one copy per dimension.
        expected_cov = np.kron(ar1_frame_cov(0.6, 0.5, 6), np.eye(2))
        np.testing.assert_allclose(cov, expected_cov, atol=1e-12)

    def test_moments_match_monte_carlo(self):
        world = PinnedGaussianProcessWorld(a=0.5, q=0.4, dim=1, n_frames=5)
        cond = Condition(np.array([2.0]))
        mean, cov = world.conditional_moments(cond)
        rng = RngStream(17)
        draws = np.stack([world.sample_sequence(cond, rng).reshape(-1) for _ in range(10_000)])
        np.testing.assert_allclose(draws.mean(axis=0), mean, atol=0.03)
        np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.03)

    def test_covariance_is_spd_even_at_random_walk(self):
        for a in (0.0, 0.5, 1.0, -1.0):
            world = PinnedGaussianProcessWorld(a=a, q=0.3, dim=1, n_frames=12)
            _, cov = world.conditional_moments(Condition(np.array([0.0])))
            np.linalg.cholesky(cov)  # raises LinAlgError if not PD

    def test_pinning(self):
        world = PinnedGaussianProcessWorld(a=0.8, q=0.5, dim=2, n_frames=4)
        cond = Condition(np.array([3.0, -1.0]))
        _, cov = world.conditional_moments(cond)
        np.testing.assert_allclose(cov[0, 0], EPS_PIN, rtol=1e-12)
        x = world.sample_sequence(cond, RngStream(0))
        assert np.max(np.abs(x[0] - cond.frame)) < 5e-3

    def test_sample_determinism(self):
        world = PinnedGaussianProcessWorld(a=0.7, q=0.3, dim=2, n_frames=5)
        cond = Condition(np.array([0.5, 0.5]))
        a = world.sample_sequence(cond, RngStream(42))
        b = world.sample_sequence(cond, RngStream(42))
        np.testing.assert_array_equal(a, b)

    def test_training_pair_start_matches_condition(self):
        world = PinnedGaussianProcessWorld(a=0.7, q=0.3, dim=2, n_frames=5)
        x, cond = world.training_pair(RngStream(8))
        assert x.shape == (5, 2)
        assert np.max(np.abs(x[0] - cond.frame)) < 5e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            PinnedGaussianProcessWorld(a=1.1, q=0.3)
        with pytest.raises(ValueError):
            PinnedGaussianProcessWorld(a=0.5, q=0.0)
        with pytest.raises(ValueError):
            PinnedGaussianProcessWorld(a=0.5, q=0.3, dim=0)


class TestTrajectoryGmmWorld:
    def test_arc_endpoints_and_symmetry(self):
        world = TrajectoryGmmWorld.arcs(n_frames=10, start=(-1.0, 0.0), end=(1.0, 0.0))
        assert world.n_modes == 3
        assert world.seq_shape == (10, 2)
        for k in range(3):
            np.testing.assert_allclose(world.templates[k, 0], [-1.0, 0.0], atol=1e-12)
            np.testing.assert_allclose(world.templates[k, -1], [1.0, 0.0], atol=1e-12)
        # Time-symmetric law: each template also appears reversed.
        assert world.components.shape[0] == 6
        np.testing.assert_array_equal(world.components[3:], world.templates[:, ::-1, :])
        np.testing.assert_allclose(world.component_weights.sum(), 1.0, atol=1e-12)

    def test_bulge_geometry(self):
        # Mid-arc displacement equals the bulge along the perpendicular.
        world = TrajectoryGmmWorld.arcs(n_frames=9, start=(-1.0, 0.0), end=(1.0, 0.0),
                                        bulges=(0.8, 0.0, -0.8))
        mid = world.templates[:, 4, :]  # s = 0.5, sin(pi s) = 1
        np.testing.assert_allclose(mid[0], [0.0, 0.8], atol=1e-12)
        np.testing.assert_allclose(mid[1], [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(mid[2], [0.0, -0.8], atol=1e-12)

    def test_separation_check(self):
        with pytest.raises(ValueError):
            TrajectoryGmmWorld.arcs(tau=0.2)  # reversed arcs collide at 6 tau
        close = np.zeros((2, 4, 2))
        close[1] += 0.3
        with pytest.raises(ValueError):
            TrajectoryGmmWorld(close, tau=0.1)
        with pytest.raises(ValueError, match="K >= 1"):
            TrajectoryGmmWorld.arcs(bulges=[])

    def test_posterior_weights_select_forward_routes(self):
        world = TrajectoryGmmWorld.arcs(tau=0.1, weights=(0.5, 0.3, 0.2))
        post = world.posterior_component_weights(Condition(np.array([-1.0, 0.0])))
        assert abs(post.sum() - 1.0) < 1e-12
        # Reversed routes start at the far endpoint and get negligible mass.
        np.testing.assert_allclose(post[:3], [0.5, 0.3, 0.2], atol=1e-12)
        assert post[3:].max() < 1e-80

    def test_posterior_weights_equidistant(self):
        world = TrajectoryGmmWorld.arcs(tau=0.5, start=(-4.0, 0.0), end=(4.0, 0.0),
                                        bulges=(3.1, 0.0, -3.1))
        post = world.posterior_component_weights(Condition(np.array([0.0, 0.0])))
        np.testing.assert_allclose(post, np.full(6, 1.0 / 6.0), atol=1e-12)

    def test_mode_frequencies(self):
        world = TrajectoryGmmWorld.arcs(tau=0.08, weights=(0.5, 0.3, 0.2))
        cond = Condition(np.array([-1.0, 0.0]))
        rng = RngStream(23)
        counts = np.zeros(3)
        n = 10_000
        for _ in range(n):
            x = world.sample_sequence(cond, rng)
            dists = np.linalg.norm(world.templates - x[None], axis=2).max(axis=1)
            counts[np.argmin(dists)] += 1
        np.testing.assert_allclose(counts / n, [0.5, 0.3, 0.2], atol=0.03)

    def test_sample_pins_start_frame(self):
        world = TrajectoryGmmWorld.arcs(tau=0.1)
        cond = Condition(np.array([-1.0, 0.0]))
        x = world.sample_sequence(cond, RngStream(3))
        np.testing.assert_array_equal(x[0], cond.frame)

    def test_conditional_gmm_structure(self):
        world = TrajectoryGmmWorld.arcs(tau=0.1)
        cond = Condition(np.array([-1.0, 0.0]))
        mix = conditional_gmm(world, cond)
        assert isinstance(mix, GmmWorldDenoiser)
        post = world.posterior_component_weights(cond)
        keep = post > 0
        np.testing.assert_allclose(mix.weights, post[keep] / post[keep].sum(), atol=1e-12)
        # Frame 0 of every component mean is replaced by the condition.
        means = mix.means.reshape(mix.n_components, world.n_frames, 2)
        for k in range(mix.n_components):
            np.testing.assert_array_equal(means[k, 0], cond.frame)
        np.testing.assert_allclose(mix.variances, np.full(mix.n_components, 0.01), atol=1e-15)

    def test_conditional_gmm_drops_underflowed_components(self):
        # Endpoints far apart: reversed routes underflow to exactly zero
        # posterior mass and must be dropped, not kept as zero weights.
        world = TrajectoryGmmWorld.arcs(start=(-3.0, 0.0), end=(3.0, 0.0), tau=0.1)
        mix = world.conditional_gmm(Condition(np.array([-3.0, 0.0])))
        assert mix.n_components == 3

    def test_training_pair(self):
        world = TrajectoryGmmWorld.arcs(tau=0.1)
        x, cond = world.training_pair(RngStream(6))
        assert x.shape == world.seq_shape
        np.testing.assert_array_equal(cond.frame, x[0])

    def test_conditional_moments_rejects_mixture_world(self):
        world = TrajectoryGmmWorld.arcs()
        with pytest.raises(TypeError):
            conditional_moments(world, Condition(np.array([-1.0, 0.0])))
        gp = PinnedGaussianProcessWorld(a=0.5, q=0.3, dim=2, n_frames=4)
        with pytest.raises(TypeError):
            conditional_gmm(gp, Condition(np.array([0.0, 0.0])))


class TestMovingBlobWorld:
    def _world(self):
        traj = TrajectoryGmmWorld.arcs(n_frames=8, tau=0.05)
        return MovingBlobWorld(traj, grid_size=16, bump_std=1.5, pixels_per_unit=5.0)

    def test_pixel_mapping(self):
        world = self._world()
        np.testing.assert_allclose(world.to_pixel((0.0, 0.0)), [7.5, 7.5], atol=1e-12)
        np.testing.assert_allclose(world.to_pixel((1.0, 0.0)), [12.5, 7.5], atol=1e-12)
        p = np.array([0.3, -0.7])
        np.testing.assert_allclose(world.from_pixel(world.to_pixel(p)), p, atol=1e-12)

    def test_render_peak_and_mass(self):
        world = self._world()
        grid, clamped = render_blob(world, np.array([8.0, 5.0]))
        assert not clamped
        assert grid.shape == (16, 16)
        assert grid[8, 5] == 1.0
        assert np.unravel_index(np.argmax(grid), grid.shape) == (8, 5)
        # Pixel sum approximates the Gaussian integral 2 pi std^2 when the
        # bump sits well inside the grid.
        np.testing.assert_allclose(grid.sum(), 2 * np.pi * 1.5 ** 2, rtol=0.02)

    def test_render_clamps_out_of_bounds(self):
        world = self._world()
        grid, clamped = render_blob(world, np.array([-3.0, 5.0]))
        assert clamped
        assert np.unravel_index(np.argmax(grid), grid.shape) == (0, 5)
        # A (..., 2) stack renders and flags each position exactly as a call
        # on it alone.
        stack = np.array([[8.0, 5.0], [-3.0, 5.0], [6.3, 16.2], [15.0, 0.0], [7.5, -0.01]])
        grids, flags = render_blob(world, stack)
        assert grids.shape == (5, 16, 16)
        assert flags.tolist() == [False, True, True, False, True]
        for pos, grid, flag in zip(stack, grids, flags):
            single, single_flag = render_blob(world, pos)
            np.testing.assert_array_equal(grid, single)
            assert flag == single_flag
        nested, nested_flags = render_blob(world, stack[:4].reshape(2, 2, 2))
        np.testing.assert_array_equal(nested, grids[:4].reshape(2, 2, 16, 16))
        np.testing.assert_array_equal(nested_flags, flags[:4].reshape(2, 2))

    def test_blob_position_exact_recovery(self):
        world = self._world()
        for pos in ([6.3, 9.7], [2.0, 2.0], [7.5, 7.5], [0.0, 5.0]):
            grid, _ = render_blob(world, np.array(pos))
            np.testing.assert_allclose(blob_position(grid, 1.5), pos, atol=1e-9)

    def test_blob_position_noisy_frame_stays_near_argmax(self):
        world = self._world()
        grid, _ = render_blob(world, np.array([6.0, 9.0]))
        noisy = grid + 0.05 * RngStream(1).normal(grid.shape)
        pos = blob_position(noisy, 1.5)
        assert np.max(np.abs(pos - [6.0, 9.0])) < 1.0

    def test_render_positions_and_sampling(self):
        world = self._world()
        positions = np.array([[0.0, 0.0], [0.1, 0.2], [4.0, 4.0]])
        frames, flags = world.render_positions(positions)
        assert frames.shape == (3, 256)
        assert flags == [False, False, True]
        assert world.seq_shape == (8, 256)

        # Conditional rollout starts where the conditioning blob sits.
        start_frame = world.render_positions(np.array([[-1.0, 0.0]]))[0][0]
        x = world.sample_sequence(Condition(start_frame), RngStream(2))
        assert x.shape == (8, 256)
        pix0 = blob_position(x[0].reshape(16, 16), 1.5)
        np.testing.assert_allclose(world.from_pixel(pix0), [-1.0, 0.0], atol=0.05)

    def test_training_pair(self):
        world = self._world()
        frames, cond = world.training_pair(RngStream(4))
        assert frames.shape == (8, 256)
        np.testing.assert_array_equal(cond.frame, frames[0])
        assert 0.9 < frames.max() <= 1.0 + 1e-12

    def test_validation(self):
        traj = TrajectoryGmmWorld.arcs(n_frames=4, tau=0.05)
        with pytest.raises(ValueError):
            MovingBlobWorld(traj, grid_size=1)
        with pytest.raises(ValueError):
            MovingBlobWorld(traj, bump_std=0.0)
        for origin in ([], [1.0], [1.0, 2.0, 3.0]):
            with pytest.raises(ValueError, match="2-D origin"):
                MovingBlobWorld(traj, origin=origin)
        with pytest.raises(ValueError):
            blob_position(np.zeros((3, 4)), 1.5)
        for pos in (np.zeros(3), np.zeros((4, 3)), np.float64(1.0)):
            with pytest.raises(ValueError):
                render_blob(self._world(), pos)
