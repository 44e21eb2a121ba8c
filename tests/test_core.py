"""Sequence numerics and RNG streams."""

import hashlib
import random

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from trflab.core import (
    RngBatch,
    RngStream,
    as_frame,
    as_sequence,
    gaussian_noise,
    normal_rows,
    reverse,
    sequence_hash,
)


class TestReverse:
    def test_three_frames(self):
        x = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        npt.assert_array_equal(reverse(x), x[[2, 1, 0]])

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(x=arrays(np.float64, array_shapes(min_dims=2, max_dims=4, max_side=8), elements=st.floats()))
    def test_involution(self, x):
        # Any shape with a frame axis, any float64 bits (NaN, inf, -0.0
        # included): output frame m is input frame N-1-m, and reversing
        # twice gives back the input's exact bytes.
        once = reverse(x)
        n = x.shape[-2]
        for m in range(n):
            assert once[..., m, :].tobytes() == x[..., n - 1 - m, :].tobytes()
        assert reverse(once).tobytes() == x.tobytes()

    def test_single_frame_identity(self):
        x = np.array([[1.5, -2.5]])
        npt.assert_array_equal(reverse(x), x)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = rng.normal(size=2)
            x, y = rng.normal(size=(2, 5, 2))
            npt.assert_allclose(
                reverse(a * x + b * y), a * reverse(x) + b * reverse(y), atol=1e-15
            )

    def test_input_unmodified(self):
        x = np.arange(6.0).reshape(3, 2)
        before = x.copy()
        out = reverse(x)
        out[0, 0] = 99.0
        npt.assert_array_equal(x, before)


class TestRngStream:
    def test_same_key_replays(self):
        a = RngStream(7, stream=3).normal((4, 2))
        b = RngStream(7, stream=3).normal((4, 2))
        npt.assert_array_equal(a, b)

    # The last two pairs once shared draws: a key with one word at or above
    # 2**63 and one below went through float64, which rounds both pairs to
    # one key (split siblings 2 and 3 of (5, 77); seed 2**64 - 1 and seed 0,
    # with a RuntimeWarning from the cast).
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a, b", [((7, 0), (7, 1)),
                                      ((5, 10858069623537357396), (5, 10858069623537357397)),
                                      ((2 ** 64 - 1, 0), (0, 0))],
                             ids=["streams", "split-siblings", "top-seed"])
    def test_distinct_streams_differ(self, a, b):
        x, y = RngStream(*a).normal((8,)), RngStream(*b).normal((8,))
        assert np.abs(x - y).max() > 1e-3

    def test_split_deterministic(self):
        a = RngStream(5).split(2).normal((4,))
        b = RngStream(5).split(2).normal((4,))
        npt.assert_array_equal(a, b)

    def test_split_labels_independent(self):
        root = RngStream(5)
        kids = [root.split(k).stream for k in range(16)]
        assert len(set(kids)) == 16

    def test_nested_splits_distinct(self):
        root = RngStream(11)
        streams = {
            root.split(a).split(b).stream for a in range(4) for b in range(4)
        }
        assert len(streams) == 16

    def test_choice_respects_probabilities(self):
        rng = RngStream(3)
        draws = [rng.choice(3, p=[0.0, 1.0, 0.0]) for _ in range(50)]
        assert set(draws) == {1}

    #: SHA-256 of ``_draw_digest`` per (seed, stream) key.
    PINNED = {
        (0, 0): "a4a25199b75ea1c660611a5302f43337d1871846e2aad1e3060b5274fe7c931c",
        (5, 77): "2c1a7b5580f2703e2d7b741db264573173c954dfa7cab92d7e134703d7367779",
        (2**64 - 1, 2**64 - 1): "09afe2b51653f1790807345ccb58a3b57526b178947ac6b4c9cc120bac58cda4",
    }

    @staticmethod
    def _draw_digest(rng):
        h = hashlib.sha256()
        h.update(rng.normal((3, 4)).tobytes())
        h.update(bytes([rng.choice(7) for _ in range(8)]))
        h.update(bytes([rng.choice(3, p=[0.2, 0.5, 0.3]) for _ in range(8)]))
        h.update(rng.normal(5).tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("key", list(PINNED), ids=["0-0", "5-77", "max-max"])
    def test_draws_are_pinned(self, key):
        assert self._draw_digest(RngStream(*key)) == self.PINNED[key]

    def test_split_child_draws_are_pinned(self):
        child = RngStream(5, 77).split(2)
        assert (child.seed, child.stream) == (5, 10858069623537357396)
        assert self._draw_digest(child) == "6d41203853a201e9e5ff0a0bb8135b8d17ea956008f3d79a586996b0e73a668d"

    def test_streams_read_no_os_entropy(self, monkeypatch):
        # numpy's SeedSequence() takes its entropy from secrets.randbits,
        # which reads random._urandom.
        def urandom(n):
            raise AssertionError("OS entropy read")

        monkeypatch.setattr(random, "_urandom", urandom)
        batch = RngBatch.from_seeds(range(16))
        assert batch.split(1).normal((2, 3)).shape == (16, 2, 3)
        assert batch.normal((4,)).shape == (16, 4)


class TestGaussianNoise:
    def test_zero_std_is_zero(self):
        rng = RngStream(0)
        npt.assert_array_equal(gaussian_noise((3, 2), 0.0, rng), np.zeros((3, 2)))

    def test_zero_std_advances_stream(self):
        # Noise-free draws still consume the stream so that toggling a std
        # between 0 and >0 never shifts later draws.
        a = RngStream(9)
        b = RngStream(9)
        gaussian_noise((3, 2), 0.0, a)
        gaussian_noise((3, 2), 1.0, b)
        npt.assert_array_equal(a.normal((5,)), b.normal((5,)))

    def test_moments(self):
        rng = RngStream(42)
        draws = gaussian_noise((100_000,), 1.0, rng)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.std() - 1.0) < 0.02

    def test_std_scales(self):
        a = gaussian_noise((64,), 1.0, RngStream(4))
        b = gaussian_noise((64,), 2.5, RngStream(4))
        npt.assert_allclose(b, 2.5 * a, rtol=1e-15)

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            gaussian_noise((2, 2), -0.1, RngStream(0))


class TestNormalRows:
    """One draw of n rows must be the n per-step draws it replaces, bit for bit."""

    def test_stream_rows_are_successive_draws(self):
        table = normal_rows(RngStream(3, stream=5), 7, (4, 2))
        rng = RngStream(3, stream=5)
        assert table.shape == (7, 4, 2)
        for row in table:
            npt.assert_array_equal(row, rng.normal((4, 2)))

    def test_batch_rows_stack_every_streams_successive_draws(self):
        seeds = [4, 9, 11]
        table = normal_rows(RngBatch.from_seeds(seeds), 5, (3, 2))
        assert table.shape == (5, 3, 3, 2)
        streams = [RngStream(seed) for seed in seeds]
        for row in table:
            npt.assert_array_equal(row, np.stack([s.normal((3, 2)) for s in streams]))

    def test_stream_rows_of_a_3d_latent(self):
        # A single stream on a (B, N, d) latent draws the whole latent per
        # row, so its chains get independent noise.
        table = normal_rows(RngStream(7), 4, (3, 4, 2))
        rng = RngStream(7)
        for row in table:
            npt.assert_array_equal(row, rng.normal((3, 4, 2)))
        assert not np.array_equal(table[0, 0], table[0, 1])

    def test_zero_rows_consume_nothing(self):
        rng = RngStream(2)
        assert normal_rows(rng, 0, (4, 2)).shape == (0, 4, 2)
        npt.assert_array_equal(rng.normal((3,)), RngStream(2).normal((3,)))


class TestValidation:
    def test_as_frame_shape(self):
        npt.assert_array_equal(as_frame([1, 2]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            as_frame([[1.0, 2.0]])
        with pytest.raises(ValueError):
            as_frame([1.0, 2.0], dim=3)

    def test_as_frame_nonfinite(self):
        with pytest.raises(ValueError):
            as_frame([1.0, np.nan])

    def test_as_sequence_shape(self):
        s = as_sequence([[1, 2], [3, 4]])
        assert s.shape == (2, 2) and s.dtype == np.float64
        with pytest.raises(ValueError):
            as_sequence([1.0, 2.0])
        with pytest.raises(ValueError):
            as_sequence([[1.0], [2.0]], dim=2)

    def test_as_sequence_nonfinite(self):
        with pytest.raises(ValueError):
            as_sequence([[np.inf, 0.0]])


class TestSequenceHash:
    def test_deterministic(self):
        x = np.arange(6.0).reshape(3, 2)
        assert sequence_hash(x) == sequence_hash(x.copy())

    def test_value_sensitive(self):
        x = np.zeros((3, 2))
        y = x.copy()
        y[1, 1] = 1e-300
        assert sequence_hash(x) != sequence_hash(y)

    def test_shape_sensitive(self):
        assert sequence_hash(np.zeros((2, 3))) != sequence_hash(np.zeros((3, 2)))
