"""Evaluation metrics against hand-computable cases and known laws."""

import math

import numpy as np
import pytest

from trflab.core import RngStream
from trflab.metrics import (
    MetricReport,
    endpoint_error,
    energy_distance,
    mode_coverage,
    roughness,
)
from trflab.worlds import TrajectoryGmmWorld


class TestEndpointError:
    def test_hand_value(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 4.0]])
        assert endpoint_error(x, np.array([0.0, 0.0])) == 5.0
        assert endpoint_error(x, np.array([3.0, 4.0])) == 0.0

    def test_only_last_frame_counts(self):
        x = np.array([[100.0], [-100.0], [2.0]])
        assert endpoint_error(x, np.array([1.5])) == 0.5

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            endpoint_error(np.zeros((3, 2)), np.zeros(3))


class TestRoughness:
    def test_affine_sequences_score_zero(self):
        rng = RngStream(1)
        for _ in range(20):
            start = rng.normal((3,))
            slope = rng.normal((3,))
            x = start[None, :] + np.arange(7)[:, None] * slope[None, :]
            assert roughness(x) < 1e-12

    def test_single_jump_scores_jump_size(self):
        # Linear ramp with one inserted jump of size J: the largest second
        # difference is exactly J.
        ramp = np.arange(8, dtype=np.float64)[:, None] * 0.25
        for jump in (0.5, 2.0, 7.0):
            x = ramp.copy()
            x[5:] += jump
            np.testing.assert_allclose(roughness(x), jump, atol=1e-12)

    def test_parabola(self):
        # x_n = n^2 has constant second difference 2.
        x = (np.arange(6, dtype=np.float64) ** 2)[:, None]
        np.testing.assert_allclose(roughness(x), 2.0, atol=1e-12)

    def test_multi_dim_uses_frame_norm(self):
        x = np.zeros((3, 2))
        x[1] = [0.3, 0.4]
        # second difference at n=1 is (-2)*[0.3, 0.4], norm 1.0
        np.testing.assert_allclose(roughness(x), 1.0, atol=1e-12)

    def test_needs_three_frames(self):
        with pytest.raises(ValueError):
            roughness(np.zeros((2, 2)))


class TestBatches:
    """A (B, N, d) batch scores every row exactly as the row alone."""

    @pytest.mark.parametrize("dim", [1, 2, 256])
    def test_rows_score_as_sequences(self, dim):
        rng = RngStream(4)
        x = 10.0 * rng.normal((5, 7, dim))
        target = rng.normal((dim,))
        errors = endpoint_error(x, target)
        assert errors.shape == (5,)
        np.testing.assert_array_equal(errors, [np.linalg.norm(row[-1] - target) for row in x])
        assert [endpoint_error(row, target) for row in x] == errors.tolist()
        second = [row[2:] - 2.0 * row[1:-1] + row[:-2] for row in x]
        np.testing.assert_array_equal(roughness(x), [np.sqrt((s ** 2).sum(axis=1)).max() for s in second])
        assert [roughness(row) for row in x] == roughness(x).tolist()

    def test_bad_batches_rejected(self):
        x = np.zeros((3, 4, 2))
        x[2, 1, 0] = np.nan
        for bad in (x, np.zeros((0, 4, 2)), np.zeros((3, 0, 2))):
            with pytest.raises(ValueError):
                endpoint_error(bad, np.zeros(2))
            with pytest.raises(ValueError):
                roughness(bad)
        with pytest.raises(ValueError, match="at least 3 frames"):
            roughness(np.zeros((3, 2, 2)))


class TestEnergyDistance:
    def test_identical_multisets_small_negative(self):
        # The unbiased estimator on identical multisets equals
        # -2/m times the mean within-distance.
        rng = RngStream(3)
        a = rng.normal((40, 6))
        m = 40
        diff = a[:, None, :] - a[None, :, :]
        within = np.sqrt((diff ** 2).sum(axis=2)).sum() / (m * (m - 1))
        np.testing.assert_allclose(energy_distance(a, a), -2.0 * within / m, atol=1e-10)

    def test_two_point_hand_value(self):
        # a = {0}, b = {d}: cross = d, withins = 0, so the distance is 2d.
        a = np.zeros((1, 1))
        b = np.full((1, 1), 3.0)
        np.testing.assert_allclose(energy_distance(a, b), 6.0, atol=1e-12)

    def test_monotone_in_offset(self):
        rng = RngStream(7)
        base = rng.normal((300, 4))
        probe = rng.normal((300, 4))
        values = [energy_distance(base, probe + delta) for delta in (0.0, 0.5, 1.0, 2.0)]
        assert values[0] < 0.05
        for lo, hi in zip(values, values[1:]):
            assert hi > lo

    def test_translation_invariant(self):
        rng = RngStream(9)
        a = rng.normal((80, 5))
        b = rng.normal((80, 5)) + 0.7
        shift = rng.normal((5,))
        np.testing.assert_allclose(
            energy_distance(a + shift, b + shift), energy_distance(a, b), atol=1e-10
        )

    def test_scale_homogeneous(self):
        # ||c a - c b|| = c ||a - b||, so the distance scales linearly.
        rng = RngStream(11)
        a = rng.normal((60, 3))
        b = rng.normal((60, 3)) + 1.0
        np.testing.assert_allclose(
            energy_distance(3.0 * a, 3.0 * b), 3.0 * energy_distance(a, b), rtol=1e-10
        )

    def test_gaussian_mean_shift_theory(self):
        # For 1-D standard normals shifted by delta, the population energy
        # distance is 2 E|Z + delta| - 2 E|Z| with Z ~ N(0, sqrt(2)):
        # E|N(mu, s)| = s sqrt(2/pi) exp(-mu^2/(2 s^2)) + mu (1 - 2 Phi(-mu/s)).
        delta = 1.0
        s = np.sqrt(2.0)

        def normal_cdf(z):
            return 0.5 * math.erfc(-z / math.sqrt(2))

        def folded_mean(mu):
            return s * np.sqrt(2 / np.pi) * np.exp(-mu ** 2 / (2 * s ** 2)) + mu * (
                1 - 2 * normal_cdf(-mu / s)
            )

        expected = 2.0 * (folded_mean(delta) - folded_mean(0.0))
        rng = RngStream(13)
        a = rng.normal((4000, 1))
        b = rng.normal((4000, 1)) + delta
        np.testing.assert_allclose(energy_distance(a, b), expected, atol=0.05)

    def test_accepts_sequence_stacks(self):
        rng = RngStream(15)
        stack_a = rng.normal((30, 4, 2))
        stack_b = rng.normal((30, 4, 2))
        flat = energy_distance(stack_a.reshape(30, 8), stack_b.reshape(30, 8))
        np.testing.assert_allclose(energy_distance(stack_a, stack_b), flat, atol=1e-12)

    def test_chunked_paths_match_direct(self):
        # More rows than the internal block size: the blocked pairwise sums
        # must agree with a direct quadratic computation.
        rng = RngStream(17)
        a = rng.normal((300, 3))
        b = rng.normal((290, 3))
        cross = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)).mean()
        da = np.sqrt(((a[:, None, :] - a[None, :, :]) ** 2).sum(axis=2)).sum() / (300 * 299)
        db = np.sqrt(((b[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)).sum() / (290 * 289)
        np.testing.assert_allclose(energy_distance(a, b), 2 * cross - da - db, atol=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            energy_distance(np.zeros((5, 3)), np.zeros((5, 4)))


class TestModeCoverage:
    def _world(self):
        return TrajectoryGmmWorld.arcs(n_frames=10, tau=0.08)

    def test_counts_known_assignment(self):
        world = self._world()
        samples = np.stack([
            world.templates[0], world.templates[2], world.templates[2],
            world.templates[1] + 0.01,
        ])
        cov = mode_coverage(samples, world)
        np.testing.assert_array_equal(cov.counts, [1, 1, 2])
        assert cov.n_covered == 3
        np.testing.assert_allclose(cov.shares, [0.25, 0.25, 0.5], atol=1e-12)

    def test_histogram_matches_sampling_weights(self):
        world = TrajectoryGmmWorld.arcs(n_frames=10, tau=0.08, weights=(0.6, 0.3, 0.1),
                                        time_symmetric=False)
        rng = RngStream(19)
        samples = []
        for _ in range(4000):
            k = rng.choice(3, p=world.weights)
            samples.append(world.templates[k] + world.tau * rng.normal((10, 2)))
        cov = mode_coverage(np.stack(samples), world)
        np.testing.assert_allclose(cov.shares, [0.6, 0.3, 0.1], atol=0.03)
        assert cov.n_covered == 3

    def test_labels_name_each_samples_route(self):
        # The demo writes one draw per visited route from these labels.
        world = self._world()
        samples = np.stack([world.templates[2], world.templates[0] - 0.01, world.templates[2]])
        cov = mode_coverage(samples, world)
        np.testing.assert_array_equal(cov.labels, [2, 0, 2])
        np.testing.assert_array_equal(cov.counts, [1, 0, 2])
        assert cov.n_covered == 2

    def test_missing_mode_reported(self):
        world = self._world()
        samples = np.stack([world.templates[1]] * 5)
        cov = mode_coverage(samples, world)
        np.testing.assert_array_equal(cov.counts, [0, 5, 0])
        assert cov.n_covered == 1

    def test_shape_mismatch(self):
        world = self._world()
        with pytest.raises(ValueError):
            mode_coverage(np.zeros((4, 9, 2)), world)


class TestMetricReport:
    def test_roundtrip(self):
        report = MetricReport()
        report.add("endpoint_error", 0.031, 200)
        report.add("roughness", 1.5, 50)
        clone = MetricReport.from_dict(report.to_dict())
        assert clone.value("endpoint_error") == 0.031
        assert clone.entries == report.entries

    def test_rejects_non_finite(self):
        report = MetricReport()
        with pytest.raises(ValueError):
            report.add("bad", np.nan, 10)
        with pytest.raises(ValueError):
            report.add("bad", np.inf, 10)

    def test_to_dict_is_a_copy(self):
        report = MetricReport()
        report.add("m", 1.0, 1)
        d = report.to_dict()
        d["m"]["value"] = 99.0
        assert report.value("m") == 1.0
