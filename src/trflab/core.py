"""Sequence numerics and deterministic RNG streams.

A *sequence* is an (N, d) float64 array: N frames of dimension d. A *frame*
is a (d,) float64 array. The sampling loops also run on a *batch* of
sequences, a (B, N, d) array whose row i is the chain of seed i; frames are
always axis -2, so sequence operations act on either shape.
"""

import functools
import hashlib
import os

import numpy as np


def as_frame(x, dim: int | None = None) -> np.ndarray:
    """Validate and return ``x`` as a (d,) float64 frame."""
    f = np.asarray(x, dtype=np.float64)
    if f.ndim != 1 or f.size < 1:
        raise ValueError(f"frame must be a 1-D vector, got shape {f.shape}")
    if dim is not None and f.shape[0] != dim:
        raise ValueError(f"frame has dimension {f.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(f)):
        raise ValueError("frame has non-finite entries")
    return f


def as_sequence(x, n_frames: int | None = None, dim: int | None = None) -> np.ndarray:
    """Validate and return ``x`` as an (N, d) float64 sequence."""
    s = np.asarray(x, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] < 1 or s.shape[1] < 1:
        raise ValueError(f"sequence must be a 2-D (N, d) array, got shape {s.shape}")
    if n_frames is not None and s.shape[0] != n_frames:
        raise ValueError(f"sequence has {s.shape[0]} frames, expected {n_frames}")
    if dim is not None and s.shape[1] != dim:
        raise ValueError(f"sequence frame dimension is {s.shape[1]}, expected {dim}")
    if not np.all(np.isfinite(s)):
        raise ValueError("sequence has non-finite entries")
    return s


def reverse(x: np.ndarray) -> np.ndarray:
    """Frame-order reversal along axis -2: output frame m is input frame N-1-m.

    Linear and an involution; the input is never modified.
    """
    return np.ascontiguousarray(x[..., ::-1, :])


@functools.cache
def _key_sequence_type():
    """The seed-sequence class that hands Philox its key as its whole state.

    ``np.random.Philox(key=...)`` first builds a ``SeedSequence()`` from OS
    entropy and then ignores it; a seed sequence whose state is the key
    itself gives the same generator with no entropy read. The class is made
    on first use, so importing this module does not import numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class KeySequence(ISeedSequence):
        def __init__(self, seed: int, stream: int):
            self.key = (seed, stream)

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or dtype != np.uint64:
                raise ValueError("a Philox key is two 64-bit words")
            return np.array(self.key, dtype=np.uint64)

    return KeySequence


class RngStream:
    """Counter-based Gaussian noise stream addressed by (seed, stream id).

    A stream is the Philox generator with key (seed, stream id) and counter
    0, built on the stream's first draw, so that the same (seed, stream)
    always replays the same draw sequence and distinct stream ids are
    statistically independent. Derive purpose-specific substreams with
    :meth:`split` (e.g. one stream for latent initialisation, one for churn,
    one for re-injection) so that adding draws to one purpose never shifts
    another; a stream that is only split never builds its generator.
    """

    # Golden-ratio multiplier; mixes (parent stream, label) into a child id.
    _SPLIT_MULT = 0x9E3779B97F4A7C15

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.stream = int(stream) & 0xFFFFFFFFFFFFFFFF
        self._gen = None

    def _generator(self):
        if self._gen is None:
            key = _key_sequence_type()(self.seed, self.stream)
            self._gen = np.random.Generator(np.random.Philox(key))
        return self._gen

    def split(self, label: int) -> "RngStream":
        """Return an independent stream derived from this one, same seed."""
        child = (self.stream * self._SPLIT_MULT + int(label) + 1) & 0xFFFFFFFFFFFFFFFF
        return RngStream(self.seed, child)

    def normal(self, shape) -> np.ndarray:
        """Draw standard-normal float64 values and advance the stream."""
        return self._generator().standard_normal(size=shape, dtype=np.float64)

    def uniform(self, shape=None) -> np.ndarray:
        """Draw uniform [0, 1) float64 values and advance the stream."""
        return self._generator().random(size=shape, dtype=np.float64)

    def choice(self, n: int, p=None) -> int:
        """Draw an index in [0, n) with optional probabilities."""
        return int(self._generator().choice(n, p=p))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream={self.stream})"


class RngBatch:
    """One :class:`RngStream` per chain, drawn as a stack on a leading batch axis.

    ``normal(shape)`` returns a (B, *shape) array whose row i is exactly the
    draw ``streams[i].normal(shape)``, and ``split`` splits every stream, so
    a sampling loop handed a batch consumes each seed's draws in the same
    order as a run of that seed alone.
    """

    def __init__(self, streams):
        self.streams = list(streams)
        if not self.streams:
            raise ValueError("a stream batch needs at least one stream")

    @classmethod
    def from_seeds(cls, seeds) -> "RngBatch":
        return cls(RngStream(seed) for seed in seeds)

    def split(self, label: int) -> "RngBatch":
        return RngBatch(s.split(label) for s in self.streams)

    def normal(self, shape) -> np.ndarray:
        out = np.empty((len(self.streams), *shape))
        for row, s in zip(out, self.streams):
            row[...] = s.normal(shape)
        return out


def gaussian_noise(shape, std: float, rng: RngStream) -> np.ndarray:
    """i.i.d. zero-mean Gaussian array with the given standard deviation.

    Always advances ``rng``, including for ``std == 0``. ``shape`` is the
    shape of one draw; an :class:`RngBatch` prepends its batch axis.
    """
    if std < 0:
        raise ValueError(f"noise std must be >= 0, got {std}")
    return std * rng.normal(shape)


def normal_rows(rng: RngStream | RngBatch, n: int, shape) -> np.ndarray:
    """n standard-normal draws of ``shape`` taken in one call, row j the j-th.

    ``rng.normal((n, *shape))`` fills its values in draw order, so row j
    equals the j-th of n successive ``normal(shape)`` draws, bit for bit.
    A draw with one more leading axis than asked for comes from a batch of
    streams (an :class:`RngBatch`, or any RNG that wraps one); row j is
    then the (B, *shape) stack of every stream's j-th draw (a view into the
    (B, n, *shape) draw).
    """
    table = rng.normal((n,) + tuple(shape))
    return np.moveaxis(table, 1, 0) if table.ndim > len(shape) + 1 else table


def sequence_hash(x: np.ndarray) -> str | list[str]:
    """SHA-256 hex digest of an (N, d) sequence, or the list of one per row of a (B, N, d) batch.

    A sequence's digest covers its shape as two little-endian int64 and
    then its canonical little-endian float64 bytes, so a batch row hashes
    exactly as the same sequence on its own.
    """
    arr = np.ascontiguousarray(x, dtype="<f8")
    head = np.asarray(arr.shape[-2:], dtype="<i8").tobytes()
    rows = arr.reshape((int(np.prod(arr.shape[:-2])),) + arr.shape[-2:])
    digests = [hashlib.sha256(head + row.tobytes()).hexdigest() for row in rows]
    return digests if arr.ndim > 2 else digests[0]


def _atomic_write_bytes(path, data: bytes):
    """Write ``data`` to ``path`` through a temporary file and a rename.

    The temporary name is unique to this write and lives in the target
    directory, so concurrent writers never share one; it is removed again
    if the write or the rename fails, which raises RuntimeError. Readers
    see the old file or the complete new one, never a partial write.
    """
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise RuntimeError(f"cannot write {path}: {exc}") from exc
