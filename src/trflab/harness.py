"""Experiment orchestration: validated configs, deterministic runs, file formats.

A run is a pure function of (config, seed): the config is schema-validated
(unknown keys rejected with their full path), normalized with defaults
applied, and echoed into the manifest together with a SHA-256 over its
canonical JSON form. Outputs are written atomically (temp file + rename)
and the manifest is written last, so a directory containing a manifest is
always a complete run.

File formats:
* trajectory tensor — magic "TRFT", then version/N/d as little-endian u32,
  then N*d float64 values, row-major little-endian (16 header bytes total);
* trajectory CSV — header "frame,dim0,...", 17-significant-digit decimals;
* frame grids — binary 8-bit PGM (P5), [0,1] mapped linearly to [0,255].
"""

import functools
import hashlib
import json
import os
import struct
import time
from dataclasses import dataclass, replace

import numpy as np

from .core import RngBatch, _atomic_write_bytes, as_sequence
from .denoiser import AnalyticGaussianBackend, AnalyticGmmBackend, Condition, ROLE_END, ROLE_START
from .metrics import MetricReport, endpoint_error, roughness
from .sampler import sample
from .schedule import ChurnParams, build_karras
from .trf import KIND_EXPONENTIAL, TrfConfig, alpha_weights, baseline_condition_interp, baseline_inpaint, trf_sample
from .worlds import MovingBlobWorld, PinnedGaussianProcessWorld, TrajectoryGmmWorld

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"
TENSOR_MAGIC = b"TRFT"
TENSOR_VERSION = 1

SAMPLER_KINDS = ("forward", "trf", "baseline-interp", "baseline-inpaint")
SWEEP_AXES = ("m_reinject", "t0", "alpha_kind", "s_churn")


class ConfigError(Exception):
    """Invalid experiment configuration; the message names the offending key."""


def _builds(section: str):
    """Decorate a config builder: a ValueError it raises, which means a value
    out of range, becomes a ConfigError that names config section
    ``section`` and keeps the original message."""
    def decorate(build):
        @functools.wraps(build)
        def wrapper(*args, **kwargs):
            try:
                return build(*args, **kwargs)
            except ValueError as exc:
                raise ConfigError(f"invalid '{section}' config: {exc}") from exc
        return wrapper
    return decorate


_MISSING = object()


def _full_key(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _get(d: dict, key: str, path: str, kind: str, default=_MISSING, choices=None):
    full = _full_key(path, key)
    if key not in d:
        if default is _MISSING:
            raise ConfigError(f"missing required config key '{full}'")
        return default
    v = d[key]
    checks = {
        "number": lambda: isinstance(v, (int, float)) and not isinstance(v, bool),
        "int": lambda: isinstance(v, int) and not isinstance(v, bool),
        "int_or_null": lambda: v is None or (isinstance(v, int) and not isinstance(v, bool)),
        "bool": lambda: isinstance(v, bool),
        "str": lambda: isinstance(v, str),
        "list": lambda: isinstance(v, list),
        "dict": lambda: isinstance(v, dict),
    }
    if not checks[kind]():
        raise ConfigError(f"config key '{full}' must be {kind}, got {type(v).__name__}")
    if choices is not None and v not in choices:
        raise ConfigError(f"config key '{full}' must be one of {list(choices)}, got {v!r}")
    return float(v) if kind == "number" else v


def _number_list(d: dict, key: str, path: str, default=_MISSING):
    v = _get(d, key, path, "list", default=default)
    if v is default and v is not _MISSING:
        return v
    full = _full_key(path, key)
    out = []
    for i, item in enumerate(v):
        if not isinstance(item, (int, float)) or isinstance(item, bool):
            raise ConfigError(f"config key '{full}[{i}]' must be a number")
        out.append(float(item))
    return out


def _check_unknown(d: dict, allowed, path: str):
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown config key '{_full_key(path, unknown[0])}'")


def _parse_world(d, path: str) -> dict:
    if not isinstance(d, dict):
        raise ConfigError(f"config key '{path}' must be an object")
    kind = _get(d, "kind", path, "str", choices=("gp", "gmm", "blob"))
    if kind == "gp":
        out = {
            "kind": "gp",
            "a": _get(d, "a", path, "number", 1.0),
            "q": _get(d, "q", path, "number", 0.3),
            "dim": _get(d, "dim", path, "int", 2),
            "n_frames": _get(d, "n_frames", path, "int", 16),
        }
    elif kind == "gmm":
        out = {
            "kind": "gmm",
            "n_frames": _get(d, "n_frames", path, "int", 16),
            "start": _number_list(d, "start", path, [-1.0, 0.0]),
            "end": _number_list(d, "end", path, [1.0, 0.0]),
            "bulges": _number_list(d, "bulges", path, [0.8, 0.0, -0.8]),
            "tau": _get(d, "tau", path, "number", 0.1),
            "time_symmetric": _get(d, "time_symmetric", path, "bool", True),
        }
    else:
        sub = d.get("trajectory")
        if sub is None:
            raise ConfigError(f"missing required config key '{_full_key(path, 'trajectory')}'")
        traj = _parse_world(sub, _full_key(path, "trajectory"))
        if traj["kind"] == "blob":
            raise ConfigError(f"config key '{_full_key(path, 'trajectory')}' cannot nest another blob world")
        out = {
            "kind": "blob",
            "grid_size": _get(d, "grid_size", path, "int", 16),
            "bump_std": _get(d, "bump_std", path, "number", 1.5),
            "pixels_per_unit": _get(d, "pixels_per_unit", path, "number", 5.0),
            "origin": _number_list(d, "origin", path, [0.0, 0.0]),
            "trajectory": traj,
        }
    _check_unknown(d, out, path)
    return out


def _parse_backend(d, path: str) -> dict:
    if not isinstance(d, dict):
        raise ConfigError(f"config key '{path}' must be an object")
    kind = _get(d, "kind", path, "str", choices=("analytic", "checkpoint"))
    if kind == "analytic":
        out = {"kind": "analytic"}
    else:
        out = {"kind": "checkpoint", "path": _get(d, "path", path, "str")}
    _check_unknown(d, out, path)
    return out


def _parse_conditions(d, path: str) -> dict:
    if not isinstance(d, dict):
        raise ConfigError(f"config key '{path}' must be an object")
    out = {
        "start": _number_list(d, "start", path),
        "end": _number_list(d, "end", path, None),
    }
    _check_unknown(d, out, path)
    return out


_TOP_KEYS = ("world", "backend", "schedule", "churn", "sampler", "trf",
             "conditions", "seeds", "out_dir", "train", "sweep")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, normalized (defaults applied) experiment description."""

    data: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object")
        _check_unknown(raw, _TOP_KEYS, "")
        if "world" not in raw:
            raise ConfigError("missing required config key 'world'")
        data = {"world": _parse_world(raw["world"], "world")}
        data["backend"] = _parse_backend(raw.get("backend", {"kind": "analytic"}), "backend")

        sched = raw.get("schedule", {})
        if not isinstance(sched, dict):
            raise ConfigError("config key 'schedule' must be an object")
        data["schedule"] = {
            "n_steps": _get(sched, "n_steps", "schedule", "int", 25),
            "sigma_min": _get(sched, "sigma_min", "schedule", "number", 0.002),
            "sigma_max": _get(sched, "sigma_max", "schedule", "number", 80.0),
            "rho": _get(sched, "rho", "schedule", "number", 7.0),
        }
        _check_unknown(sched, data["schedule"], "schedule")

        churn = raw.get("churn", {})
        if not isinstance(churn, dict):
            raise ConfigError("config key 'churn' must be an object")
        data["churn"] = {
            "s_churn": _get(churn, "s_churn", "churn", "number", 0.5),
            "s_tmin": _get(churn, "s_tmin", "churn", "number", 0.05),
            "s_tmax": _get(churn, "s_tmax", "churn", "number", 50.0),
            "s_noise": _get(churn, "s_noise", "churn", "number", 1.0),
        }
        _check_unknown(churn, data["churn"], "churn")

        data["sampler"] = _get(raw, "sampler", "", "str", "forward", choices=SAMPLER_KINDS)

        trf = raw.get("trf", {})
        if not isinstance(trf, dict):
            raise ConfigError("config key 'trf' must be an object")
        data["trf"] = {
            "m_reinject": _get(trf, "m_reinject", "trf", "int", 2),
            "t0": _get(trf, "t0", "trf", "int_or_null", None),
            "alpha_kind": _get(trf, "alpha_kind", "trf", "str", "linear",
                               choices=("linear", "exponential")),
            "alpha_lam": _get(trf, "alpha_lam", "trf", "number", 4.0),
        }
        _check_unknown(trf, data["trf"], "trf")

        if "conditions" in raw:
            data["conditions"] = _parse_conditions(raw["conditions"], "conditions")
        else:
            data["conditions"] = None

        seeds = raw.get("seeds", [0])
        if not isinstance(seeds, list) or not seeds:
            raise ConfigError("config key 'seeds' must be a non-empty list of integers")
        seen = set()
        for i, s in enumerate(seeds):
            if not isinstance(s, int) or isinstance(s, bool) or s < 0:
                raise ConfigError(f"config key 'seeds[{i}]' must be a non-negative integer")
            if s in seen:
                # One output file per seed: a repeat would be sampled twice
                # but written once, and counted twice in the metrics.
                raise ConfigError(f"config key 'seeds[{i}]' repeats seed {s}")
            seen.add(s)
        data["seeds"] = list(seeds)

        out_dir = raw.get("out_dir")
        if out_dir is not None and not isinstance(out_dir, str):
            raise ConfigError("config key 'out_dir' must be a string")
        data["out_dir"] = out_dir

        tr = raw.get("train", {})
        if not isinstance(tr, dict):
            raise ConfigError("config key 'train' must be an object")
        data["train"] = {
            "lr": _get(tr, "lr", "train", "number", 1e-3),
            "n_steps": _get(tr, "n_steps", "train", "int", 5000),
            "batch_size": _get(tr, "batch_size", "train", "int", 64),
            "p_mean": _get(tr, "p_mean", "train", "number", -1.2),
            "p_std": _get(tr, "p_std", "train", "number", 1.2),
            "sigma_data": _get(tr, "sigma_data", "train", "number", 0.5),
            "hidden": _get(tr, "hidden", "train", "int", 256),
            "n_freq": _get(tr, "n_freq", "train", "int", 8),
            "seed": _get(tr, "seed", "train", "int", 0),
        }
        _check_unknown(tr, data["train"], "train")

        sweep = raw.get("sweep")
        if sweep is not None:
            if not isinstance(sweep, dict):
                raise ConfigError("config key 'sweep' must be an object")
            _check_unknown(sweep, SWEEP_AXES, "sweep")
            for axis, values in sweep.items():
                if not isinstance(values, list) or not values:
                    raise ConfigError(f"config key 'sweep.{axis}' must be a non-empty list")
        data["sweep"] = sweep

        return cls(data=data)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_raw_config(path))

    # -- builders ----------------------------------------------------------

    @_builds("world")
    def build_world(self):
        return _build_world(self.data["world"])

    def build_backend(self, world):
        spec = self.data["backend"]
        if spec["kind"] == "analytic":
            if isinstance(world, PinnedGaussianProcessWorld):
                return AnalyticGaussianBackend(world)
            if isinstance(world, TrajectoryGmmWorld):
                return AnalyticGmmBackend(world)
            raise ConfigError("the blob world has no analytic denoiser; use a checkpoint backend")
        from .train import MlpBackend, load_checkpoint

        params = load_checkpoint(spec["path"])
        backend = MlpBackend(params)
        if backend.seq_shape != world.seq_shape:
            raise ConfigError(
                f"checkpoint network shape {backend.seq_shape} does not match world {world.seq_shape}")
        return backend

    @_builds("schedule")
    def build_schedule(self):
        s = self.data["schedule"]
        return build_karras(s["n_steps"], s["sigma_min"], s["sigma_max"], s["rho"])

    @_builds("churn")
    def build_churn(self) -> ChurnParams:
        return ChurnParams(**self.data["churn"])

    @_builds("trf")
    def build_trf(self, n_frames: int, n_steps: int) -> TrfConfig:
        """The fused sampler's config, its cutoff t0 resolved against n_steps."""
        t = self.data["trf"]
        lam = t["alpha_lam"] if t["alpha_kind"] == KIND_EXPONENTIAL else None
        cfg = TrfConfig(
            alpha=alpha_weights(t["alpha_kind"], n_frames, lam),
            m_reinject=t["m_reinject"], t0=t["t0"], churn=self.build_churn(),
        )
        return replace(cfg, t0=cfg.resolved_t0(n_steps))

    def build_conditions(self, world) -> tuple[Condition, Condition | None]:
        spec = self.data["conditions"]
        if spec is None:
            raise ConfigError("missing required config key 'conditions'")
        c_s = _frame_condition(world, spec["start"], ROLE_START)
        c_e = None if spec["end"] is None else _frame_condition(world, spec["end"], ROLE_END)
        return c_s, c_e

    def build_train(self):
        from .train import TrainConfig

        return TrainConfig(**self.data["train"])

    def canonical_json(self) -> str:
        return canonical_json(self.data)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def read_raw_config(path) -> dict:
    """The JSON object in config file ``path``, not yet validated."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    return raw


def _build_world(spec: dict):
    if spec["kind"] == "gp":
        return PinnedGaussianProcessWorld(spec["a"], spec["q"], dim=spec["dim"],
                                          n_frames=spec["n_frames"])
    if spec["kind"] == "gmm":
        return TrajectoryGmmWorld.arcs(
            n_frames=spec["n_frames"], start=spec["start"], end=spec["end"],
            bulges=spec["bulges"], tau=spec["tau"],
            time_symmetric=spec["time_symmetric"])
    traj = _build_world(spec["trajectory"])
    return MovingBlobWorld(traj, grid_size=spec["grid_size"], bump_std=spec["bump_std"],
                           pixels_per_unit=spec["pixels_per_unit"], origin=spec["origin"])


def _frame_condition(world, values: list, role: str) -> Condition:
    frame = np.asarray(values, dtype=np.float64)
    # Blob-world conditions may be given as 2-D positions; render them.
    if isinstance(world, MovingBlobWorld) and frame.shape == (2,):
        frame = world.render_positions(frame[None, :])[0][0]
    if frame.shape != (world.seq_shape[1],):
        raise ConfigError(
            f"conditions.{role} has dimension {frame.shape}, world frames have dimension {world.seq_shape[1]}")
    return Condition(frame, role=role)


def apply_overrides(raw: dict, assignments: list[str]) -> dict:
    """Apply --set key.path=value pairs (values parsed as JSON, else strings)."""
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key_path, _, text = item.partition("=")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = raw
        keys = key_path.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {key_path!r} crosses non-object key {key!r}")
        node[keys[-1]] = value
    return raw


# -- manifest --------------------------------------------------------------


@dataclass
class ExperimentManifest:
    format_version: int
    config: dict
    config_hash: str
    outputs: dict
    metrics: MetricReport
    wall_clock_seconds: float

    def to_dict(self) -> dict:
        return {
            "format_version": self.format_version,
            "config": self.config,
            "config_hash": self.config_hash,
            "outputs": self.outputs,
            "metrics": self.metrics.to_dict(),
            "wall_clock_seconds": self.wall_clock_seconds,
        }

    def fingerprint(self) -> str:
        """Hash over everything a rerun must reproduce.

        Wall clock and the output directory are excluded: the same config
        and seeds rerun anywhere must yield the same fingerprint.
        """
        stable = {
            "config": {k: v for k, v in self.config.items() if k != "out_dir"},
            "outputs": self.outputs,
        }
        return hashlib.sha256(canonical_json(stable).encode()).hexdigest()

    def save(self, path):
        _atomic_write_bytes(path, (canonical_json(self.to_dict()) + "\n").encode())

    @classmethod
    def load(cls, path) -> "ExperimentManifest":
        with open(path) as fh:
            d = json.load(fh)
        if d.get("format_version") != MANIFEST_VERSION:
            raise ValueError(f"{path}: manifest format version {d.get('format_version')}, "
                             f"expected {MANIFEST_VERSION}")
        return cls(format_version=d["format_version"], config=d["config"],
                   config_hash=d["config_hash"], outputs=d["outputs"],
                   metrics=MetricReport.from_dict(d["metrics"]),
                   wall_clock_seconds=d["wall_clock_seconds"])


def run_experiment(cfg: ExperimentConfig) -> ExperimentManifest:
    """Run the configured sampler over all seeds; write outputs + manifest.

    All seeds run as one batch of chains in a single sampler call, each
    chain drawing from its own seed's streams. With the analytic denoisers
    every output is bit-identical to a run of that seed alone; with a
    checkpoint it is equal up to rounding, since the MLP's matrix products
    see the whole batch. Every builder runs before the output directory is
    created, so a config error leaves nothing behind. All files are written
    atomically and the manifest last: a directory with a manifest is a
    complete run.
    """
    t_begin = time.time()
    out_dir = cfg.data["out_dir"]
    if not out_dir:
        raise ConfigError("missing required config key 'out_dir'")

    world = cfg.build_world()
    backend = cfg.build_backend(world)
    schedule = cfg.build_schedule()
    churn = cfg.build_churn()
    kind = cfg.data["sampler"]
    c_s, c_e = cfg.build_conditions(world)
    if kind != "forward" and c_e is None:
        raise ConfigError(f"missing required config key 'conditions.end' (sampler {kind!r} is bounded)")
    trf_cfg = cfg.build_trf(world.seq_shape[0], schedule.n_steps) if kind == "trf" else None
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise RuntimeError(f"cannot create output directory {out_dir}: {exc}") from exc

    seeds = cfg.data["seeds"]
    rng = RngBatch.from_seeds(seeds)
    if kind == "forward":
        trajectories, _ = sample(backend, schedule, c_s, churn, rng)
    elif kind == "trf":
        trajectories, _ = trf_sample(backend, schedule, c_s, c_e, trf_cfg, rng)
    elif kind == "baseline-interp":
        trajectories = baseline_condition_interp(backend, schedule, c_s, c_e, rng, churn=churn)
    else:
        trajectories = baseline_inpaint(backend, schedule, c_s, c_e.frame, rng, churn=churn)

    outputs = {}
    for seed, x in zip(seeds, trajectories):
        name = f"seed_{seed:04d}.trft"
        path = os.path.join(out_dir, name)
        export_tensor(x, path)
        outputs[name] = sha256_file(path)

    manifest = ExperimentManifest(
        format_version=MANIFEST_VERSION, config=cfg.data, config_hash=cfg.config_hash(),
        outputs=outputs, metrics=_summary_metrics(trajectories, c_e),
        wall_clock_seconds=time.time() - t_begin)
    manifest.save(os.path.join(out_dir, MANIFEST_NAME))
    return manifest


def evaluate_run(run_dir) -> MetricReport:
    """Recompute metrics for a completed run, verifying output integrity."""
    manifest_path = os.path.join(run_dir, MANIFEST_NAME)
    manifest = ExperimentManifest.load(manifest_path)
    try:
        cfg = ExperimentConfig.from_dict(_strip_normalized(manifest.config))
    except ConfigError as exc:
        # Manifests echo the config of the trflab that wrote them, and keys
        # come and go between versions without a new manifest version.
        raise ConfigError(f"{manifest_path}: its config does not validate under this "
                          f"trflab's schema (written by an older version?): {exc}") from exc
    world = cfg.build_world()
    _, c_e = cfg.build_conditions(world)
    trajectories = []
    for name, digest in sorted(manifest.outputs.items()):
        path = os.path.join(run_dir, name)
        actual = sha256_file(path)
        if actual != digest:
            raise RuntimeError(f"{path}: hash {actual} does not match manifest {digest}")
        trajectories.append(load_tensor(path))
    return _summary_metrics(trajectories, c_e)


def _summary_metrics(trajectories, c_e: Condition | None) -> MetricReport:
    # The manifest's metrics; evaluate_run must reproduce them exactly.
    report = MetricReport()
    n = len(trajectories)
    if c_e is not None:
        report.add("endpoint_error_median",
                   np.median([endpoint_error(x, c_e.frame) for x in trajectories]), n)
    roughnesses = [roughness(x) for x in trajectories if x.shape[0] >= 3]
    if roughnesses:
        report.add("roughness_median", np.median(roughnesses), n)
    return report


def _strip_normalized(config: dict) -> dict:
    # A normalized echo validates as-is except for the None placeholders.
    out = {k: v for k, v in config.items() if v is not None}
    if "conditions" in out and out["conditions"].get("end") is None:
        out["conditions"] = {k: v for k, v in out["conditions"].items() if v is not None}
    return out


# -- serialization helpers -------------------------------------------------


def canonical_json(obj) -> str:
    """Stable serialization: sorted keys, no whitespace, shortest decimals."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# -- trajectory/frame exporters -------------------------------------------


def export_trajectory_csv(x: np.ndarray, path):
    """CSV with header frame,dim0,... and 17-significant-digit values."""
    x = as_sequence(x)
    header = "frame," + ",".join(f"dim{i}" for i in range(x.shape[1]))
    lines = [header]
    for n, row in enumerate(x):
        lines.append(f"{n}," + ",".join(format(v, ".17g") for v in row))
    _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode())


def load_trajectory_csv(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[0] != "frame" or header[1:] != [f"dim{i}" for i in range(len(header) - 1)]:
            raise ValueError(f"{path}: not a trajectory CSV (header {header})")
        rows = [line.strip().split(",")[1:] for line in fh if line.strip()]
    return np.array([[float(v) for v in row] for row in rows])


def export_tensor(x: np.ndarray, path):
    """Binary sequence tensor; 16 header bytes + 8*N*d payload bytes."""
    x = as_sequence(x)
    header = TENSOR_MAGIC + struct.pack("<3I", TENSOR_VERSION, x.shape[0], x.shape[1])
    _atomic_write_bytes(path, header + np.ascontiguousarray(x, dtype="<f8").tobytes())


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 16 or data[:4] != TENSOR_MAGIC:
        raise ValueError(f"{path}: not a sequence tensor file")
    version, n_frames, dim = struct.unpack("<3I", data[4:16])
    if version != TENSOR_VERSION:
        raise ValueError(f"{path}: tensor format version {version}, expected {TENSOR_VERSION}")
    if len(data) != 16 + 8 * n_frames * dim:
        raise ValueError(f"{path}: size {len(data)} does not match {n_frames}x{dim} header")
    return np.frombuffer(data[16:], dtype="<f8").reshape(n_frames, dim).copy()


def export_frames_pgm(frames, out_dir) -> list[str]:
    """One binary PGM (P5, 8-bit) per grid frame; returns written paths."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim == 2:
        frames = frames[None, :, :]
    if frames.ndim != 3:
        raise ValueError("expected one or more 2-D grid frames")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for n, frame in enumerate(frames):
        data = np.clip(np.rint(frame * 255.0), 0, 255).astype(np.uint8)
        header = f"P5\n{frame.shape[1]} {frame.shape[0]}\n255\n".encode()
        path = os.path.join(out_dir, f"frame_{n:03d}.pgm")
        _atomic_write_bytes(path, header + data.tobytes())
        paths.append(path)
    return paths
