"""Desk-scale evaluation: endpoint adherence, smoothness, distribution
distance, and motion-mode diversity.

These are the quantitative stand-ins for full-scale video evaluation:
endpoint_error measures whether a generated sequence actually ends at the
target frame, roughness catches abrupt frame-to-frame jumps, energy
distance compares sample sets without any learned features or kernel
bandwidth, and mode_coverage counts which of a mixture world's routes the
sampler actually explores.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import as_frame, as_sequence


def _as_sequences(x) -> np.ndarray:
    """Validate ``x`` as an (N, d) sequence or a (B, N, d) batch of B >= 1 of them."""
    s = np.asarray(x, dtype=np.float64)
    if s.ndim == 3 and s.shape[0] >= 1:
        as_sequence(s[0])
        if not np.all(np.isfinite(s)):
            raise ValueError("sequence has non-finite entries")
        return s
    return as_sequence(s)


def endpoint_error(x: np.ndarray, target) -> float | np.ndarray:
    """Euclidean distance of the last frame from the target frame.

    A float for an (N, d) sequence; for a (B, N, d) batch, the (B,) array
    of every row's distance, each exactly the row's own score: the squared
    norm is a dot product of the row with itself, as ``np.linalg.norm``
    takes it.
    """
    x = _as_sequences(x)
    target = as_frame(target, dim=x.shape[-1])
    diff = x[..., -1, :] - target
    dist = np.sqrt(diff[..., None, :] @ diff[..., :, None])[..., 0, 0]
    return float(dist) if x.ndim == 2 else dist


def roughness(x: np.ndarray) -> float | np.ndarray:
    """Largest second difference: max_n ||x[n+1] - 2 x[n] + x[n-1]||.

    Zero for any sequence affine in the frame index; a single jump of size
    J in an otherwise-linear sequence scores exactly J. A float for an
    (N, d) sequence, the (B,) array of every row's score for a (B, N, d)
    batch.
    """
    x = _as_sequences(x)
    if x.shape[-2] < 3:
        raise ValueError(f"roughness needs at least 3 frames, got {x.shape[-2]}")
    second = x[..., 2:, :] - 2.0 * x[..., 1:-1, :] + x[..., :-2, :]
    rough = np.sqrt((second ** 2).sum(axis=-1)).max(axis=-1)
    return float(rough) if x.ndim == 2 else rough


def energy_distance(a, b) -> float:
    """2 E||a-b|| - E||a-a'|| - E||b-b'|| over flattened sequences.

    Cross expectation over all pairs; within expectations over distinct
    pairs (unbiased). Nonnegative in expectation, zero iff the
    distributions coincide; the plug-in estimate can dip slightly below
    zero (identical multisets give -2/m times the mean within-distance).
    """
    a = _as_sample_matrix(a)
    b = _as_sample_matrix(b)
    if a.shape[1] != b.shape[1]:
        raise ValueError("sample sets have mismatched shapes")
    m, n = a.shape[0], b.shape[0]
    cross = _pairwise_sum(a, b) / (m * n)
    # Distinct pairs only; a lone sample has none and a zero sum.
    within_a = _pairwise_sum(a, a) / max(m * (m - 1), 1)
    within_b = _pairwise_sum(b, b) / max(n * (n - 1), 1)
    return float(2.0 * cross - within_a - within_b)


def _as_sample_matrix(samples) -> np.ndarray:
    m = np.asarray(samples, dtype=np.float64)
    if m.ndim == 3:
        m = m.reshape(m.shape[0], -1)
    if m.ndim != 2 or m.shape[0] < 1:
        raise ValueError("need a non-empty set of equally shaped sequences")
    return m


_CHUNK = 256  # rows per block, bounds the pairwise work arrays


def _pairwise_sum(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of ||a_i - b_j|| over all pairs (i, j), in row blocks of a."""
    total = 0.0
    for lo in range(0, a.shape[0], _CHUNK):
        diff = a[lo:lo + _CHUNK, None, :] - b[None, :, :]
        total += np.sqrt((diff ** 2).sum(axis=2)).sum()
    return total


@dataclass
class ModeCoverage:
    """Each sample's nearest route, ``labels[i]`` in [0, n_modes), and the
    per-route tallies derived from them."""

    labels: np.ndarray
    n_modes: int

    @property
    def counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_modes)

    @property
    def n_covered(self) -> int:
        return int((self.counts > 0).sum())

    @property
    def shares(self) -> np.ndarray:
        return self.counts / max(self.counts.sum(), 1)


def mode_coverage(samples, world) -> ModeCoverage:
    """Assign each sample to its nearest template route of a mixture world.

    Distance is Euclidean over flattened sequences; the worlds guarantee
    templates are separated by more than 6 tau, so the assignment is
    unambiguous for in-distribution samples.
    """
    templates = world.templates.reshape(world.n_modes, -1)
    m = _as_sample_matrix(samples)
    if m.shape[1] != templates.shape[1]:
        raise ValueError("samples do not match the world's template shape")
    diff = m[:, None, :] - templates[None, :, :]
    return ModeCoverage(labels=((diff ** 2).sum(axis=2)).argmin(axis=1), n_modes=world.n_modes)


@dataclass
class MetricReport:
    """Named scalar metrics with the sample counts behind them."""

    entries: dict[str, dict] = field(default_factory=dict)

    def add(self, name: str, value: float, n_samples: int):
        value = float(value)
        if not np.isfinite(value):
            raise ValueError(f"metric {name!r} is not finite: {value}")
        self.entries[name] = {"value": value, "n_samples": int(n_samples)}

    def value(self, name: str) -> float:
        return self.entries[name]["value"]

    def to_dict(self) -> dict:
        return {name: dict(entry) for name, entry in self.entries.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "MetricReport":
        report = cls()
        for name, entry in data.items():
            report.add(name, entry["value"], entry["n_samples"])
        return report
