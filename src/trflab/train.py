"""A small trainable denoiser with hand-rolled backprop.

The network is a two-hidden-layer SiLU MLP mapping
[scaled noisy sequence, Fourier features of ln(sigma)/4, condition frame]
to a raw prediction, wrapped in the standard noise-level preconditioning so
one set of weights serves every sigma. Training minimizes the
lambda(sigma)-weighted denoising loss, which in preconditioned form is a
plain mean-squared error on the raw network output — gradients are exact
and checked against finite differences in the tests.

Checkpoints are self-contained little-endian binaries (magic "TRFW"):
format version, architecture descriptor, then the weight blocks in fixed
order. Version and corruption problems are reported as distinct error
types, non-finite weights as a ValueError naming the layer; whether the
network's shape fits a world is the caller's check.
"""

import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .core import RngStream, _atomic_write_bytes
from .denoiser import Condition, DenoiserBackend, _on_condition_axis, edm_scalings, precondition_apply

CHECKPOINT_MAGIC = b"TRFW"
CHECKPOINT_VERSION = 1
#: After the magic: version, n_frames, frame_dim, condition dimension,
#: hidden, n_freq (u32 each) and sigma_data (f64).
_HEADER_FORMAT = "<6Id"
_HEADER_SIZE = len(CHECKPOINT_MAGIC) + struct.calcsize(_HEADER_FORMAT)

_BLOCK_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")


class CheckpointError(Exception):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointCorruptError(CheckpointError):
    pass


class TrainingDivergedError(RuntimeError):
    pass


@dataclass(frozen=True)
class ArchDescriptor:
    """Network architecture plus the preconditioning scale it was trained under."""

    n_frames: int
    frame_dim: int
    hidden: int = 256
    n_freq: int = 8
    sigma_data: float = 0.5

    def __post_init__(self):
        if min(self.n_frames, self.frame_dim, self.hidden) < 1:
            raise ValueError("architecture sizes must be >= 1")
        if self.n_freq < 2 or self.n_freq % 2 != 0:
            raise ValueError("n_freq must be a positive even number (sin/cos pairs)")
        if self.sigma_data <= 0:
            raise ValueError("sigma_data must be positive")

    @property
    def seq_dim(self) -> int:
        return self.n_frames * self.frame_dim

    @property
    def input_dim(self) -> int:
        # The condition is one clean frame.
        return self.seq_dim + self.n_freq + self.frame_dim

    def block_shapes(self) -> dict[str, tuple]:
        h = self.hidden
        return {
            "w1": (self.input_dim, h), "b1": (h,),
            "w2": (h, h), "b2": (h,),
            "w3": (h, self.seq_dim), "b3": (self.seq_dim,),
        }


@dataclass
class MlpParams:
    arch: ArchDescriptor
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    def __post_init__(self):
        # C-contiguous, so that every block has a flat view to update in place.
        shapes = self.arch.block_shapes()
        for name in _BLOCK_NAMES:
            block = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if block.shape != shapes[name]:
                raise ValueError(f"layer {name}: shape {block.shape} does not match descriptor {shapes[name]}")
            setattr(self, name, block)

    def blocks(self):
        return [(name, getattr(self, name)) for name in _BLOCK_NAMES]

    def copy(self) -> "MlpParams":
        return replace(self, **{name: block.copy() for name, block in self.blocks()})


def init_params(arch: ArchDescriptor, rng: RngStream) -> MlpParams:
    """Gaussian fan-in initialization, zero biases."""
    blocks = {}
    for name, shape in arch.block_shapes().items():
        if name.startswith("w"):
            blocks[name] = rng.normal(shape) / np.sqrt(shape[0])
        else:
            blocks[name] = np.zeros(shape)
    return MlpParams(arch, **blocks)


def fourier_features(c_noise, n_freq: int) -> np.ndarray:
    """sin/cos features of the noise embedding at octave frequencies 1, 2, 4, ...;
    (n_freq,) for one c_noise, (..., n_freq) for an array of them."""
    freqs = 2.0 ** np.arange(n_freq // 2)
    angles = 2.0 * np.pi * freqs * np.asarray(c_noise)[..., None]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


def _silu(z):
    s = 1.0 / (1.0 + np.exp(-z))
    return z * s, s


def forward(params: MlpParams, inputs: np.ndarray):
    """Batched forward pass; returns (outputs, cache-for-backward)."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    z1 = inputs @ params.w1 + params.b1
    h1, s1 = _silu(z1)
    z2 = h1 @ params.w2 + params.b2
    h2, s2 = _silu(z2)
    out = h2 @ params.w3 + params.b3
    return out, (inputs, z1, s1, h1, z2, s2, h2)


#: Elements per gradient chunk that :func:`backward` yields: 1 MiB of float64.
GRAD_CHUNK = 131072


def _row_chunks(name: str, a: np.ndarray, b: np.ndarray):
    """Yield ``(name, rows, (a.T @ b)[rows])`` over chunks of whole rows.

    ``a`` is (batch, n_rows) and ``b`` is (batch, width). A chunk spans a
    multiple of 8 rows and at most GRAD_CHUNK elements (unless 8 rows are
    more): with OpenBLAS 0.3.31's Haswell kernels, such chunks gave the
    whole product's bits at every size tried, and single rows did not.
    Whole rows of a C-contiguous block are one contiguous slice of it, which
    Adam walks flat. Every chunk is written into one buffer, valid until the
    next chunk is requested.
    """
    n_rows, width = a.shape[1], b.shape[1]
    step = max(8, GRAD_CHUNK // width // 8 * 8)
    buf = np.empty(min(step, n_rows) * width)
    for lo in range(0, n_rows, step):
        rows = np.s_[lo:lo + step]
        part = a[:, rows]
        yield name, rows, np.matmul(part.T, b, out=buf[:part.shape[1] * width].reshape(-1, width))


def backward(params: MlpParams, cache, grad_out: np.ndarray):
    """Stream the exact gradient of every block given d(loss)/d(outputs).

    Yields ``(block name, rows, gradient)``, where ``rows`` slices the
    block's leading axis and ``gradient`` is that of ``block[rows]``: each
    bias whole, each weight block in chunks of rows (see
    :func:`_row_chunks`), in the order b3, w3, b2, w2, b1, w1. A consumer
    may update a block in place before it asks for the next chunk: every
    product that reads a weight block's value is taken before its first
    chunk (``gh2`` before w3's, ``gh1`` before w2's). So no weight-sized
    gradient is ever resident, only one chunk and batch-sized temporaries.
    """
    inputs, z1, s1, h1, z2, s2, h2 = cache
    grad_out = np.atleast_2d(grad_out)
    whole = np.s_[:]
    yield "b3", whole, grad_out.sum(axis=0)
    gh2 = grad_out @ params.w3.T
    yield from _row_chunks("w3", h2, grad_out)
    gz2 = gh2 * (s2 * (1.0 + z2 * (1.0 - s2)))  # d silu(z) / dz
    yield "b2", whole, gz2.sum(axis=0)
    gh1 = gz2 @ params.w2.T
    yield from _row_chunks("w2", h1, gz2)
    gz1 = gh1 * (s1 * (1.0 + z1 * (1.0 - s1)))
    yield "b1", whole, gz1.sum(axis=0)
    yield from _row_chunks("w1", inputs, gz1)


class MlpBackend(DenoiserBackend):
    """Denoiser contract over trained MLP weights (preconditioned).

    Every sequence of the input is one row of a single forward pass, and
    each row carries the frame of the condition it is denoised under, so a
    call costs one pass over the weights, not one per condition.
    """

    def __init__(self, params: MlpParams):
        self.params = params
        self.arch = params.arch

    @property
    def seq_shape(self) -> tuple[int, int]:
        return (self.arch.n_frames, self.arch.frame_dim)

    def _net(self, x_scaled: np.ndarray, c_noise: float, conds: tuple[Condition, ...]) -> np.ndarray:
        # One input row per sequence of the input, all in one forward pass.
        lead = x_scaled.shape[:-2]
        frames = _on_condition_axis(np.stack([c.frame for c in conds]), len(lead) + 1)
        rows = np.concatenate([
            x_scaled.reshape(lead + (-1,)),
            np.broadcast_to(fourier_features(c_noise, self.arch.n_freq), lead + (self.arch.n_freq,)),
            np.broadcast_to(frames, lead + (self.arch.frame_dim,)),
        ], axis=-1)
        out, _ = forward(self.params, rows.reshape(-1, self.arch.input_dim))
        return out.reshape(x_scaled.shape)

    def predict_x0(self, x: np.ndarray, sigma: float, conds: tuple[Condition, ...]) -> np.ndarray:
        return precondition_apply(self._net, x, sigma, conds, self.arch.sigma_data)


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    n_steps: int = 5000
    batch_size: int = 64
    p_mean: float = -1.2
    p_std: float = 1.2
    sigma_data: float = 0.5
    hidden: int = 256
    n_freq: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.lr < 0 or self.n_steps < 1 or self.batch_size < 1:
            raise ValueError("lr must be >= 0 and n_steps/batch_size >= 1")
        if self.p_std <= 0 or self.sigma_data <= 0:
            raise ValueError("p_std and sigma_data must be positive")
        if self.hidden < 1 or self.n_freq < 2 or self.n_freq % 2 != 0:
            raise ValueError("hidden must be >= 1 and n_freq a positive even number")


def edm_loss_terms(params: MlpParams, batch, sigmas: np.ndarray, noise: np.ndarray):
    """Loss, and the stream of its exact gradients, for given per-item noise
    levels and draws.

    The lambda(sigma)-weighted denoising objective,
    mean over items of lambda ||D(y + sigma eps) - y||^2 / (N d) with
    lambda = (sigma^2 + sd^2) / (sigma sd)^2, is computed in its
    preconditioned form mean((F - F_target)^2): identical value, and the
    raw network output F carries an evenly weighted regression target at
    every noise level.

    The loss is computed first. The gradients come as :func:`backward`'s
    stream, which computes nothing until it is consumed, so a caller can
    check the loss before any gradient exists.
    """
    arch = params.arch
    n_items = len(batch)
    if n_items == 0:
        raise ValueError("batch must be non-empty")
    y = np.array([seq for seq, _ in batch], dtype=np.float64)
    if y.shape != (n_items, arch.n_frames, arch.frame_dim):
        raise ValueError(f"batch sequences have shape {y.shape[1:]}, expected {(arch.n_frames, arch.frame_dim)}")
    if not np.all(np.isfinite(y)):
        raise ValueError("sequence has non-finite entries")
    y = y.reshape(n_items, arch.seq_dim)
    sigmas = np.asarray(sigmas, dtype=np.float64).reshape(n_items, 1)
    c_skip, c_out, c_in, c_noise = edm_scalings(sigmas, arch.sigma_data)

    # Row i is [c_in x_noisy, fourier(c_noise), condition frame], filled by column
    # slices. Each (n, N d) intermediate is written into a buffer whose
    # contents are dead, and the batch, the noise and y are dropped before the
    # forward pass: train hands over the batch and the noise without keeping
    # a reference, so dropping them here frees them.
    inputs = np.empty((n_items, arch.input_dim))
    cond_at = arch.seq_dim + arch.n_freq
    x_noisy = np.multiply(sigmas, noise.reshape(n_items, arch.seq_dim))
    x_noisy += y
    np.multiply(c_in, x_noisy, out=inputs[:, :arch.seq_dim])
    inputs[:, arch.seq_dim:cond_at] = fourier_features(c_noise[:, 0], arch.n_freq)
    inputs[:, cond_at:] = [cond.frame for _, cond in batch]
    del batch, noise
    targets = np.multiply(c_skip, x_noisy, out=x_noisy)
    np.subtract(y, targets, out=targets)
    del y
    targets /= c_out

    out, cache = forward(params, inputs)
    resid = np.subtract(out, targets, out=targets)
    loss = float(np.mean(np.multiply(resid, resid, out=out)))
    del out
    grad_out = np.multiply(2.0, resid, out=resid)
    grad_out /= grad_out.size
    return loss, backward(params, cache, grad_out)


#: Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
#: Elements per slice of a gradient chunk that :func:`adam_step` updates at
#: once: the slice and its two scratch buffers stay in L2 cache.
ADAM_CHUNK = 16384


class AdamState:
    def __init__(self, params: MlpParams):
        self.m = {name: np.zeros_like(block) for name, block in params.blocks()}
        self.v = {name: np.zeros_like(block) for name, block in params.blocks()}
        self.t = 0
        self.scratch = (np.empty(ADAM_CHUNK), np.empty(ADAM_CHUNK))


def adam_step(params: MlpParams, grads, state: AdamState, lr: float):
    """In-place Adam update with bias correction (Kingma & Ba 2015), applied
    while ``grads`` is consumed.

    ``grads`` yields ``(block name, rows, gradient of block[rows])``, as
    :func:`backward` does, ``rows`` a slice of the block's leading axis.
    Each chunk updates its rows of the block and of both moments before the
    next chunk is requested, so the weights, the two moments and one chunk
    are all that stays resident. A chunk is walked in flat slices of
    ADAM_CHUNK elements, whose temporaries live in the state's two scratch
    buffers, so a step allocates nothing. Every element gets the operations
    of the whole-block form, in its order:
    m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g;
    block -= (lr (m / bc1)) / (sqrt(v / bc2) + eps).
    Each operation is elementwise, so the result is bit-identical to that
    form for any chunking.
    """
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for name, rows, grad in grads:
        # Whole rows of a C-contiguous block: every flat view below is a view.
        flat = (getattr(params, name)[rows].reshape(-1), grad.reshape(-1),
                state.m[name][rows].reshape(-1), state.v[name][rows].reshape(-1))
        for lo in range(0, grad.size, ADAM_CHUNK):
            p, g, m, v = (a[lo:lo + ADAM_CHUNK] for a in flat)
            step, denom = (a[:p.size] for a in state.scratch)
            m *= ADAM_BETA1
            np.multiply(1.0 - ADAM_BETA1, g, out=step)
            m += step
            v *= ADAM_BETA2
            np.multiply(1.0 - ADAM_BETA2, g, out=step)
            step *= g
            v += step
            np.divide(m, bc1, out=step)
            np.multiply(lr, step, out=step)
            np.divide(v, bc2, out=denom)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            step /= denom
            p -= step


def train(world, cfg: TrainConfig):
    """Adam-optimize the denoising loss over fresh world samples.

    Returns (params, loss_curve). Aborts with the step index if the loss
    goes non-finite; the loss is checked before its gradient stream is
    consumed, so that step updates nothing. Fully determined by
    (world, cfg): data, noise levels, and initialization all come from
    substreams of cfg.seed.

    Adam consumes each step's gradients as :func:`backward` streams them,
    so the weights and the two moments are the only weight-sized arrays:
    beside them a step holds one gradient chunk and one batch's
    temporaries.
    """
    n_frames, frame_dim = world.seq_shape
    arch = ArchDescriptor(n_frames=n_frames, frame_dim=frame_dim, hidden=cfg.hidden,
                          n_freq=cfg.n_freq, sigma_data=cfg.sigma_data)
    root = RngStream(cfg.seed)
    params = init_params(arch, root.split(0))
    rng_data = root.split(1)
    rng_noise = root.split(2)
    state = AdamState(params)

    n_items = cfg.batch_size
    loss_curve = np.empty(cfg.n_steps)
    for step in range(cfg.n_steps):
        # Log-normal noise levels, then the noise. The batch and the noise are
        # passed without a name here, so edm_loss_terms can free them early.
        sigmas = np.exp(cfg.p_mean + cfg.p_std * rng_noise.normal((n_items,)))
        loss, grads = edm_loss_terms(
            params, [world.training_pair(rng_data) for _ in range(n_items)],
            sigmas, rng_noise.normal((n_items, n_frames, frame_dim)))
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"non-finite loss at step {step}")
        loss_curve[step] = loss
        adam_step(params, grads, state, cfg.lr)
    return params, loss_curve


def save_checkpoint(params: MlpParams, path):
    """Write weights + descriptor atomically; bit-exact roundtrip with load_checkpoint.

    The header's condition-dimension slot holds frame_dim: the network
    conditions on one clean frame.
    """
    arch = params.arch
    data = bytearray(_HEADER_SIZE + 8 * sum(block.size for _, block in params.blocks()))
    data[:_HEADER_SIZE] = CHECKPOINT_MAGIC + struct.pack(
        _HEADER_FORMAT, CHECKPOINT_VERSION, arch.n_frames, arch.frame_dim,
        arch.frame_dim, arch.hidden, arch.n_freq, arch.sigma_data,
    )
    # Each block is copied once, straight into the file's bytes.
    offset = _HEADER_SIZE
    for _, block in params.blocks():
        np.frombuffer(data, dtype="<f8", count=block.size, offset=offset)[:] = block.reshape(-1)
        offset += 8 * block.size
    _atomic_write_bytes(path, data)


def load_checkpoint(path) -> MlpParams:
    """Read a checkpoint written by :func:`save_checkpoint`; the one place
    weights arrive from outside, so the only place they are checked finite."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER_SIZE)
        # The weight blocks are read once, into one buffer that they then
        # view. Starting it after the 36-byte header keeps every block
        # 8-byte aligned, which matrix products need for their BLAS path.
        payload = bytearray(max(os.fstat(fh.fileno()).st_size - _HEADER_SIZE, 0))
        payload = memoryview(payload)[:fh.readinto(payload)]
    if len(header) < _HEADER_SIZE or header[:4] != CHECKPOINT_MAGIC:
        raise CheckpointCorruptError(f"{path}: not a checkpoint file (bad magic or truncated header)")
    version, n_frames, frame_dim, cond_dim, hidden, n_freq, sigma_data = struct.unpack(
        _HEADER_FORMAT, header[4:])
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(f"{path}: format version {version}, expected {CHECKPOINT_VERSION}")
    if cond_dim != frame_dim:
        raise CheckpointCorruptError(
            f"{path}: invalid descriptor (condition dimension {cond_dim} is not frame_dim {frame_dim})")
    try:
        arch = ArchDescriptor(n_frames=n_frames, frame_dim=frame_dim,
                              hidden=hidden, n_freq=n_freq, sigma_data=sigma_data)
    except ValueError as exc:
        raise CheckpointCorruptError(f"{path}: invalid descriptor ({exc})") from exc

    blocks = {}
    offset = 0
    for name, shape in arch.block_shapes().items():
        n_bytes = 8 * int(np.prod(shape))
        chunk = payload[offset:offset + n_bytes]
        if len(chunk) != n_bytes:
            raise CheckpointCorruptError(f"{path}: truncated in layer {name}")
        blocks[name] = np.frombuffer(chunk, dtype="<f8").reshape(shape)
        offset += n_bytes
    if offset != len(payload):
        raise CheckpointCorruptError(f"{path}: {len(payload) - offset} trailing bytes")
    for name, block in blocks.items():
        if not np.all(np.isfinite(block)):
            raise ValueError(f"layer {name}: non-finite weights")
    return MlpParams(arch, **blocks)
