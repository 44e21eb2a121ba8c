"""Test doubles shared by several test modules."""


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
