"""Test doubles shared by several test modules."""

import numpy as np

from trflab.train import MlpParams


class FrameReversedRng:
    """RNG adapter that frame-reverses every sequence-shaped draw.

    Wrapping the root stream of a run with this is the noise half of the
    time-reversal symmetry: same draws, opposite frame order. Frames are
    axis -2 of an (N, d) draw, of an (n, N, d) table of n such draws, and
    of the (B, ...) stack an ``RngBatch`` draws. It exposes only ``split``
    and ``normal``, so the samplers must not need more of an RNG.
    """

    def __init__(self, base):
        self._base = base

    def split(self, label):
        return FrameReversedRng(self._base.split(label))

    def normal(self, shape):
        draw = self._base.normal(shape)
        return draw[..., ::-1, :].copy() if draw.ndim >= 2 else draw


class DrawLog:
    """RNG adapter that appends (substream label, shape) of every draw to ``log``.

    The label is the one the stream was split by last, None for the root.
    """

    def __init__(self, base, log, label=None):
        self._base, self.log, self.label = base, log, label

    def split(self, label):
        return DrawLog(self._base.split(label), self.log, label)

    def normal(self, shape):
        self.log.append((self.label, tuple(shape)))
        return self._base.normal(shape)


def collect_gradients(arch, stream):
    """Gather a gradient stream, as ``trflab.train.backward`` yields it, into
    whole blocks: an ``MlpParams`` of ``arch``'s shapes.

    Each chunk is copied as it arrives, since the stream may reuse its
    buffer, and every element must be covered by exactly one chunk.
    """
    shapes = arch.block_shapes()
    grads = {name: np.full(shape, np.nan) for name, shape in shapes.items()}
    hits = {name: np.zeros(shape, dtype=int) for name, shape in shapes.items()}
    for name, rows, chunk in stream:
        grads[name][rows] = chunk
        hits[name][rows] += 1
    for name, count in hits.items():
        assert np.all(count == 1), f"{name}: the chunks do not tile the block"
    return MlpParams(arch, **grads)


def copy_params(params):
    """An ``MlpParams`` with the same architecture and copies of every block."""
    return MlpParams(params.arch, **{name: block.copy() for name, block in params.blocks()})
