"""Synthetic sequence worlds with known conditional structure.

Three desk-scale data distributions stand in for a video corpus:

* ``PinnedGaussianProcessWorld`` — an AR(1) chain per dimension, pinned at
  the conditioning frame. Conditional mean and frame covariance are
  available in closed form, as arrays, so sampler output can be checked
  against exact moments.
* ``TrajectoryGmmWorld`` — a mixture of template trajectories (e.g. three
  arcs joining the same two endpoints) with isotropic jitter, a world with
  genuinely distinct plausible routes. Its exact conditional mixture is
  given as arrays (weights, means, variances) for the mixture backend.
* ``MovingBlobWorld`` — renders a trajectory world's 2-D positions as a
  Gaussian bump on a small pixel grid, for trainable-backend demos.

Worlds are immutable after construction; all sampling goes through a
caller-supplied RngStream. A world only states its law; denoising under it
is the job of the backends in :mod:`trflab.denoiser`.
"""

import numpy as np

from .core import RngStream, as_frame, as_sequence
from .denoiser import Condition

# Pinning variance for the conditioned frame. A hard constraint would make
# conditional covariances singular; this keeps every denoiser well-defined
# at all noise levels.
EPS_PIN = 1e-6


class PinnedGaussianProcessWorld:
    """AR(1) sequence world pinned at frame 0.

    Each of the d dimensions evolves independently as
    x_0 = c + sqrt(eps_pin) z_0, x_n = a x_{n-1} + q z_n, so frame n has
    conditional mean a^n c. |a| <= 1 is allowed up to and including the
    random-walk case a=1, which is time-reversible and therefore suits
    both forward and backward conditioning.
    """

    def __init__(self, a: float, q: float, dim: int = 2, n_frames: int = 16):
        if not abs(a) <= 1.0:
            raise ValueError(f"AR coefficient must satisfy |a| <= 1, got {a}")
        if q <= 0:
            raise ValueError(f"innovation std must be positive, got {q}")
        if dim < 1 or n_frames < 1:
            raise ValueError("dim and n_frames must be >= 1")
        self.a = float(a)
        self.q = float(q)
        self.dim = int(dim)
        self.n_frames = int(n_frames)
        # Innovation-form Cholesky factor of the per-dimension frame
        # covariance: column 0 carries the pinning draw, column j >= 1 the
        # j-th innovation propagated forward by a^(n-j). Building the
        # covariance as L L^T keeps it SPD even at a = 1.
        n = self.n_frames
        powers = self.a ** np.arange(n)
        lower = np.zeros((n, n))
        lower[:, 0] = powers * np.sqrt(EPS_PIN)
        for j in range(1, n):
            lower[j:, j] = powers[: n - j] * self.q
        #: Per-dimension N x N frame covariance F; the conditional covariance
        #: of the stacked sequence is kron(F, I_d) whatever the condition.
        self.frame_cov = lower @ lower.T
        self.frame_cov.flags.writeable = False  # conditional_moments hands it out

    @property
    def seq_shape(self) -> tuple[int, int]:
        return (self.n_frames, self.dim)

    def conditional_moments(self, cond: Condition) -> tuple[np.ndarray, np.ndarray]:
        """Exact law given frame 0, in its factors: the (N, d) mean and the
        SPD (N, N) frame covariance F.

        The covariance of the flattened (N*d,) sequence is kron(F, I_d);
        only the mean depends on the condition.
        """
        frame = as_frame(cond.frame, dim=self.dim)
        powers = self.a ** np.arange(self.n_frames)
        return powers[:, None] * frame[None, :], self.frame_cov

    def sample_sequence(self, cond: Condition, rng: RngStream) -> np.ndarray:
        """Exact conditional draw; matches conditional_moments by construction."""
        frame = as_frame(cond.frame, dim=self.dim)
        z = rng.normal((self.n_frames, self.dim))
        x = np.empty((self.n_frames, self.dim))
        x[0] = frame + np.sqrt(EPS_PIN) * z[0]
        for n in range(1, self.n_frames):
            x[n] = self.a * x[n - 1] + self.q * z[n]
        return x

    def training_pair(self, rng: RngStream) -> tuple[np.ndarray, Condition]:
        """(clean sequence, condition) with a standard-normal start frame."""
        frame = rng.normal((self.dim,))
        cond = Condition(frame)
        return self.sample_sequence(cond, rng), cond


class TrajectoryGmmWorld:
    """Mixture of template trajectories with isotropic jitter.

    ``templates`` are the K forward routes; with ``time_symmetric`` (the
    default) each template also appears frame-reversed as a component, so
    the sequence law is invariant under time reversal and conditioning on
    an end frame selects the reversed routes. Templates must be pairwise
    separated by more than 6 tau at their most distant frame so nearest-
    template mode assignment is unambiguous.
    """

    def __init__(self, templates, weights=None, tau: float = 0.1, time_symmetric: bool = True):
        templates = np.asarray(templates, dtype=np.float64)
        if templates.ndim != 3 or templates.shape[0] < 1:
            raise ValueError("templates must be (K, N, d) with K >= 1")
        k, n, d = templates.shape
        if n < 2:
            raise ValueError("templates need at least 2 frames")
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        if weights is None:
            weights = np.full(k, 1.0 / k)
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (k,) or np.any(weights <= 0):
            raise ValueError("need one positive weight per template")
        weights = weights / weights.sum()

        self.templates = templates
        self.weights = weights
        self.tau = float(tau)
        if time_symmetric:
            self.components = np.concatenate([templates, templates[:, ::-1, :]], axis=0)
            self.component_weights = np.concatenate([weights, weights]) / 2.0
        else:
            self.components = templates
            self.component_weights = weights

        # 6-tau separation at the most distant frame keeps nearest-template
        # assignment unambiguous; checked over the full component set so it
        # also holds for reversed routes.
        kc = self.components.shape[0]
        for i in range(kc):
            for j in range(i + 1, kc):
                diff = self.components[i] - self.components[j]
                max_frame_dist = np.sqrt((diff ** 2).sum(axis=1)).max()
                if max_frame_dist <= 6.0 * self.tau:
                    raise ValueError(
                        f"components {i} and {j} are separated by only {max_frame_dist:.3g} "
                        f"at their most distant frame; need > 6 tau = {6.0 * self.tau:.3g}"
                    )

    @classmethod
    def arcs(cls, n_frames: int = 16, start=(-1.0, 0.0), end=(1.0, 0.0),
             bulges=(0.8, 0.0, -0.8), tau: float = 0.1, weights=None,
             time_symmetric: bool = True) -> "TrajectoryGmmWorld":
        """K arc routes between fixed endpoints, bulging perpendicular to the chord."""
        start = as_frame(np.asarray(start, dtype=np.float64))
        end = as_frame(np.asarray(end, dtype=np.float64))
        if start.shape != (2,) or end.shape != (2,):
            raise ValueError("arc templates are 2-D")
        chord = end - start
        norm = np.linalg.norm(chord)
        if norm == 0:
            raise ValueError("start and end must differ")
        perp = np.array([-chord[1], chord[0]]) / norm
        s = np.linspace(0.0, 1.0, n_frames)
        templates = np.empty((len(bulges), n_frames, 2))
        for k, bulge in enumerate(bulges):
            templates[k] = (1.0 - s)[:, None] * start + s[:, None] * end
            templates[k] += bulge * np.sin(np.pi * s)[:, None] * perp
        return cls(templates, weights=weights, tau=tau, time_symmetric=time_symmetric)

    @property
    def n_modes(self) -> int:
        return self.templates.shape[0]

    @property
    def seq_shape(self) -> tuple[int, int]:
        return (self.templates.shape[1], self.templates.shape[2])

    @property
    def dim(self) -> int:
        return self.templates.shape[2]

    @property
    def n_frames(self) -> int:
        return self.templates.shape[1]

    def posterior_component_weights(self, cond: Condition) -> np.ndarray:
        """Component probabilities given frame 0 = cond."""
        frame = as_frame(cond.frame, dim=self.dim)
        quad = ((self.components[:, 0, :] - frame[None, :]) ** 2).sum(axis=1)
        log_post = np.log(self.component_weights) - 0.5 * quad / self.tau ** 2
        top = log_post.max()
        if not np.isfinite(top):
            raise ValueError("conditioning frame is too far from every component to weight the mixture")
        w = np.exp(log_post - top)
        return w / w.sum()

    def conditional_gmm(self, cond: Condition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The isotropic mixture law given frame 0 = cond, as arrays:
        weights (K,), stacked means (K, N*d) and variances (K,).

        Components are reweighted by their frame-0 likelihood and their
        frame-0 mean is replaced by cond; the isotropic tau^2 is retained.
        Every component is kept, one whose weight underflows with weight
        exactly 0, so the mixtures under all conditions share one K.
        """
        frame = as_frame(cond.frame, dim=self.dim)
        means = self.components.copy()
        means[:, 0, :] = frame[None, :]
        kc = means.shape[0]
        return self.posterior_component_weights(cond), means.reshape(kc, -1), np.full(kc, self.tau ** 2)

    def sample_sequence(self, cond: Condition, rng: RngStream) -> np.ndarray:
        """Draw a route from the posterior weights, jitter it, pin frame 0."""
        frame = as_frame(cond.frame, dim=self.dim)
        post = self.posterior_component_weights(cond)
        k = rng.choice(post.size, p=post)
        x = self.components[k] + self.tau * rng.normal(self.components[k].shape)
        x[0] = frame
        return x

    def training_pair(self, rng: RngStream) -> tuple[np.ndarray, Condition]:
        k = rng.choice(self.component_weights.size, p=self.component_weights)
        x = self.components[k] + self.tau * rng.normal(self.components[k].shape)
        return x, Condition(x[0].copy())


class MovingBlobWorld:
    """Renders a 2-D trajectory world as a Gaussian bump on a G x G grid.

    Frames are flattened G^2 vectors in [0, 1]; positions map into pixel
    coordinates via an affine placing ``origin`` at the grid center with
    ``pixels_per_unit`` scale. The bump has unit peak amplitude, so a
    rendered frame's maximum is 1 when the bump sits on a pixel center.
    """

    def __init__(self, trajectory_world, grid_size: int = 16, bump_std: float = 1.5,
                 pixels_per_unit: float = 5.0, origin=(0.0, 0.0)):
        if trajectory_world.dim != 2:
            raise ValueError("blob rendering needs a 2-D trajectory world")
        self.origin = np.asarray(origin, dtype=np.float64)
        if grid_size < 2 or bump_std <= 0 or pixels_per_unit <= 0 or self.origin.shape != (2,):
            raise ValueError("need grid_size >= 2, bump_std > 0, pixels_per_unit > 0 and a 2-D origin")
        self.trajectory_world = trajectory_world
        self.grid_size = int(grid_size)
        self.bump_std = float(bump_std)
        self.pixels_per_unit = float(pixels_per_unit)
        self.n_frames = trajectory_world.n_frames
        self.dim = self.grid_size ** 2

    @property
    def seq_shape(self) -> tuple[int, int]:
        return (self.n_frames, self.dim)

    def to_pixel(self, pos) -> np.ndarray:
        pos = np.asarray(pos, dtype=np.float64)
        center = (self.grid_size - 1) / 2.0
        return center + self.pixels_per_unit * (pos - self.origin)

    def from_pixel(self, pix) -> np.ndarray:
        pix = np.asarray(pix, dtype=np.float64)
        center = (self.grid_size - 1) / 2.0
        return self.origin + (pix - center) / self.pixels_per_unit

    def render_positions(self, positions: np.ndarray) -> tuple[np.ndarray, list[bool]]:
        """Render world-coordinate positions; returns (N, G^2) frames + clamp flags."""
        positions = as_sequence(positions, dim=2)
        grids, flags = render_blob(self, self.to_pixel(positions))
        return grids.reshape(positions.shape[0], self.dim), flags.tolist()

    def sample_sequence(self, cond: Condition, rng: RngStream) -> np.ndarray:
        """Conditional rollout of the underlying world, rendered to pixels."""
        frame = as_frame(cond.frame, dim=self.dim)
        pix = blob_position(frame.reshape(self.grid_size, self.grid_size), self.bump_std)
        pos0 = self.from_pixel(pix)
        positions = self.trajectory_world.sample_sequence(Condition(pos0), rng)
        return self.render_positions(positions)[0]

    def training_pair(self, rng: RngStream) -> tuple[np.ndarray, Condition]:
        positions, _ = self.trajectory_world.training_pair(rng)
        frames = self.render_positions(positions)[0]
        return frames, Condition(frames[0].copy())


def conditional_moments(world, cond: Condition) -> tuple[np.ndarray, np.ndarray]:
    """Exact conditional mean and frame covariance given frame 0; Gaussian-process worlds only."""
    if not isinstance(world, PinnedGaussianProcessWorld):
        raise TypeError(f"conditional moments are closed-form only for the Gaussian-process world, not {type(world).__name__}")
    return world.conditional_moments(cond)


def conditional_gmm(world: TrajectoryGmmWorld, cond: Condition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact conditional mixture (weights, means, variances) given frame 0; mixture worlds only."""
    if not isinstance(world, TrajectoryGmmWorld):
        raise TypeError(f"conditional_gmm needs a TrajectoryGmmWorld, not {type(world).__name__}")
    return world.conditional_gmm(cond)


def render_blob(world: MovingBlobWorld, pos) -> tuple[np.ndarray, bool | np.ndarray]:
    """Unit-peak Gaussian bump at pixel position ``pos`` (row, col).

    ``pos`` is one (2,) position, giving a (G, G) grid, or a (..., 2) stack
    of them, giving a (..., G, G) stack of grids. Out-of-bounds positions
    are clamped to the grid and flagged in the second return value: one
    bool, or a (...,) bool array for a stack.
    """
    pos = np.asarray(pos, dtype=np.float64)
    if pos.ndim < 1 or pos.shape[-1] != 2:
        raise ValueError("pos must be a 2-D point, or a stack of them, in pixel coordinates")
    g = world.grid_size
    clamped_pos = np.clip(pos, 0.0, g - 1.0)
    clamped = np.any(clamped_pos != pos, axis=-1)
    grid = np.arange(g)
    quad = (grid[:, None] - clamped_pos[..., 0, None, None]) ** 2 + (grid - clamped_pos[..., 1, None, None]) ** 2
    return np.exp(-quad / (2.0 * world.bump_std ** 2)), clamped if pos.ndim > 1 else bool(clamped)


def blob_position(frame: np.ndarray, bump_std: float) -> np.ndarray:
    """Recover the bump's pixel position (row, col) from a rendered frame.

    The argmax pixel is refined with one log-ratio step per axis, which is
    exact for noiseless unit-peak renders: for g(r) = ln f(r, c),
    p = r + 1/2 + std^2 (g(r+1) - g(r)). Frames are clipped below at 1e-300
    so noisy or clipped inputs cannot produce log(0).
    """
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 2 or frame.shape[0] != frame.shape[1]:
        raise ValueError("frame must be a square grid")
    g = frame.shape[0]
    r_hat, c_hat = np.unravel_index(np.argmax(frame), frame.shape)
    log_f = np.log(np.clip(frame, 1e-300, None))
    s2 = bump_std * bump_std

    def refine_axis(idx, line):
        lo = idx if idx < g - 1 else idx - 1
        est = lo + 0.5 + s2 * (line[lo + 1] - line[lo])
        # A garbage frame can push the log-ratio far outside the pixel;
        # stay within one cell of the argmax.
        return float(np.clip(est, idx - 1.0, idx + 1.0))

    row = refine_axis(r_hat, log_f[:, c_hat])
    col = refine_axis(c_hat, log_f[r_hat, :])
    return np.array([row, col])
