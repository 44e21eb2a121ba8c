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
import sys
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import RngBatch, _atomic_write_bytes, as_sequence
from .denoiser import AnalyticGaussianBackend, AnalyticGmmBackend, Condition
from .metrics import MetricReport, endpoint_error, roughness
from .sampler import sample
from .schedule import ChurnParams, build_karras
from .train import CheckpointError, MlpBackend, TrainConfig, load_checkpoint
from .trf import (KIND_EXPONENTIAL, KIND_LINEAR, TrfConfig, alpha_weights, baseline_condition_interp,
                  baseline_inpaint, trf_sample)
from .worlds import MovingBlobWorld, PinnedGaussianProcessWorld, TrajectoryGmmWorld

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"
TENSOR_MAGIC = b"TRFT"
TENSOR_VERSION = 1

SAMPLER_KINDS = ("forward", "trf", "baseline-interp", "baseline-inpaint")
#: Each sweep axis and the config section it sets.
SWEEP_AXES = {"m_reinject": "trf", "t0": "trf", "alpha_kind": "trf", "s_churn": "churn"}


class ConfigError(Exception):
    """Invalid experiment configuration; the message names the offending key."""


def _builds(section: str):
    """Decorate a config builder: a ValueError or OverflowError it raises,
    which means a value out of range, becomes a ConfigError that names
    config section ``section`` and keeps the original message."""
    def decorate(build):
        @functools.wraps(build)
        def wrapper(*args, **kwargs):
            try:
                return build(*args, **kwargs)
            except (ValueError, OverflowError) as exc:
                raise ConfigError(f"invalid '{section}' config: {exc}") from exc
        return wrapper
    return decorate


_REQUIRED = object()


def _dataclass_schema(cls) -> dict:
    """Schema entries of a config dataclass: its fields, types and defaults."""
    kinds = {float: "number", int: "int"}
    return {f.name: (kinds[f.type], f.default) for f in fields(cls)}


#: Every config section: key -> (kind, default[, choices]). A default of
#: None makes the key optional, and an explicit null then means the same as
#: leaving it out. A "section" value is checked against the entry named
#: after its key; a world or backend section has a "kind" key, which picks
#: the entry for its other keys.
_SCHEMA = {
    "": {  # the config root
        "world": ("section", _REQUIRED),
        "backend": ("section", {"kind": "analytic"}),
        "schedule": ("section", {}),
        "churn": ("section", {}),
        "sampler": ("str", "forward", SAMPLER_KINDS),
        "trf": ("section", {}),
        "conditions": ("section", None),
        "seeds": ("seeds", [0]),
        "out_dir": ("str", None),
        "train": ("section", {}),
        "sweep": ("sweep", None),
    },
    "world": {"kind": ("str", _REQUIRED, ("gp", "gmm", "blob"))},
    "trajectory": {"kind": ("str", _REQUIRED, ("gp", "gmm"))},
    "backend": {"kind": ("str", _REQUIRED, ("analytic", "checkpoint"))},
    "gp": {"a": ("number", 1.0), "q": ("number", 0.3), "dim": ("int", 2), "n_frames": ("int", 16)},
    "gmm": {
        "n_frames": ("int", 16),
        "start": ("numbers", [-1.0, 0.0]),
        "end": ("numbers", [1.0, 0.0]),
        "bulges": ("numbers", [0.8, 0.0, -0.8]),
        "tau": ("number", 0.1),
        "time_symmetric": ("bool", True),
    },
    "blob": {
        "grid_size": ("int", 16),
        "bump_std": ("number", 1.5),
        "pixels_per_unit": ("number", 5.0),
        "origin": ("numbers", [0.0, 0.0]),
        "trajectory": ("section", _REQUIRED),
    },
    "analytic": {},
    "checkpoint": {"path": ("str", _REQUIRED)},
    "schedule": {
        "n_steps": ("int", 25),
        "sigma_min": ("number", 0.002),
        "sigma_max": ("number", 80.0),
        "rho": ("number", 7.0),
    },
    "churn": _dataclass_schema(ChurnParams),
    "trf": {
        "m_reinject": ("int", 2),
        "t0": ("int", None),
        "alpha_kind": ("str", KIND_LINEAR, (KIND_LINEAR, KIND_EXPONENTIAL)),
        "alpha_lam": ("number", 4.0),
    },
    "conditions": {"start": ("numbers", _REQUIRED), "end": ("numbers", None)},
    "train": _dataclass_schema(TrainConfig),
}


def _full_key(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _value(v, kind: str, key: str, choices=None):
    """Config value ``v`` of key ``key`` checked against ``kind``; numbers
    come back as finite floats."""
    if kind == "numbers":
        if not isinstance(v, list):
            raise ConfigError(f"config key '{key}' must be a list of numbers, got {type(v).__name__}")
        return [_value(item, "number", f"{key}[{i}]") for i, item in enumerate(v)]
    types = {"number": (int, float), "int": int, "str": str, "bool": bool}[kind]
    if not isinstance(v, types) or (isinstance(v, bool) and kind != "bool"):
        raise ConfigError(f"config key '{key}' must be {kind}, got {type(v).__name__}")
    if kind == "number":
        # NaN fails the comparison; a huge int would overflow float().
        if not abs(v) <= sys.float_info.max:
            raise ConfigError(f"config key '{key}' must be a finite number, got {v}")
        v = float(v)
    if choices is not None and v not in choices:
        raise ConfigError(f"config key '{key}' must be one of {list(choices)}, got {v!r}")
    return v


def _section(d, path: str, schema: dict) -> dict:
    """Section ``d`` at ``path`` validated against ``schema``, defaults applied."""
    if not isinstance(d, dict):
        raise ConfigError(f"config key '{path}' must be an object" if path
                          else "config root must be an object")
    if "kind" in schema:
        schema = {"kind": schema["kind"], **_SCHEMA[_field(d, "kind", schema["kind"], path)]}
    unknown = sorted(set(d) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config key '{_full_key(path, unknown[0])}'")
    return {key: _field(d, key, spec, path) for key, spec in schema.items()}


def _field(d: dict, key: str, spec: tuple, path: str):
    kind, default, *choices = spec
    full = _full_key(path, key)
    v = d.get(key, default)
    if v is _REQUIRED:
        raise ConfigError(f"missing required config key '{full}'")
    if v is None and default is None:
        return None
    if kind == "section":
        return _section(v, full, _SCHEMA[key])
    if kind == "seeds":
        return _seeds(v)
    if kind == "sweep":
        return _sweep(v)
    return _value(v, kind, full, *choices)


def _seeds(seeds) -> list:
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
    return list(seeds)


def _sweep(sweep) -> dict:
    # Values are checked against their axis's schema entry but kept as
    # given; each grid point is validated in full when the sweep expands.
    if not isinstance(sweep, dict):
        raise ConfigError("config key 'sweep' must be an object")
    unknown = sorted(set(sweep) - set(SWEEP_AXES))
    if unknown:
        raise ConfigError(f"unknown config key 'sweep.{unknown[0]}'")
    for axis, values in sweep.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"config key 'sweep.{axis}' must be a non-empty list")
        kind, default, *choices = _SCHEMA[SWEEP_AXES[axis]][axis]
        for i, v in enumerate(values):
            if v is not None or default is not None:
                _value(v, kind, f"sweep.{axis}[{i}]", *choices)
    return sweep


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, normalized (defaults applied) experiment description."""

    data: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        return cls(data=_section(raw, "", _SCHEMA[""]))

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
        try:
            params = load_checkpoint(spec["path"])
        except (OSError, CheckpointError, ValueError) as exc:  # ValueError: non-finite weights
            raise ConfigError(f"invalid 'backend.path' config: {exc}") from exc
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
        c_s = _frame_condition(world, spec["start"], "start")
        c_e = None if spec["end"] is None else _frame_condition(world, spec["end"], "end")
        return c_s, c_e

    @_builds("train")
    def build_train(self) -> TrainConfig:
        return TrainConfig(**self.data["train"])

    def build_run(self):
        """Everything ``run_experiment`` needs, built before it writes anything:
        (backend, schedule, churn, start and end conditions, fused-sampler
        config or None). A bad value raises ConfigError."""
        world = self.build_world()
        backend = self.build_backend(world)
        schedule = self.build_schedule()
        churn = self.build_churn()
        kind = self.data["sampler"]
        c_s, c_e = self.build_conditions(world)
        if kind != "forward" and c_e is None:
            raise ConfigError(f"missing required config key 'conditions.end' (sampler {kind!r} is bounded)")
        trf_cfg = self.build_trf(world.seq_shape[0], schedule.n_steps) if kind == "trf" else None
        return backend, schedule, churn, c_s, c_e, trf_cfg

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
    kwargs = {k: v for k, v in spec.items() if k != "kind"}
    if spec["kind"] == "gp":
        return PinnedGaussianProcessWorld(**kwargs)
    if spec["kind"] == "gmm":
        return TrajectoryGmmWorld.arcs(**kwargs)
    return MovingBlobWorld(_build_world(kwargs.pop("trajectory")), **kwargs)


def _frame_condition(world, values: list, key: str) -> Condition:
    frame = np.asarray(values, dtype=np.float64)
    # Blob-world conditions may be given as 2-D positions; render them.
    if isinstance(world, MovingBlobWorld) and frame.shape == (2,):
        frame = world.render_positions(frame[None, :])[0][0]
    if frame.shape != (world.seq_shape[1],):
        raise ConfigError(
            f"conditions.{key} has dimension {frame.shape}, world frames have dimension {world.seq_shape[1]}")
    return Condition(frame)


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

    backend, schedule, churn, c_s, c_e, trf_cfg = cfg.build_run()
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise RuntimeError(f"cannot create output directory {out_dir}: {exc}") from exc

    seeds = cfg.data["seeds"]
    kind = cfg.data["sampler"]
    rng = RngBatch.from_seeds(seeds)
    if kind == "forward":
        trajectories, _ = sample(backend, schedule, c_s, churn, rng)
    elif kind == "trf":
        trajectories, _ = trf_sample(backend, schedule, c_s, c_e, trf_cfg, rng)
    elif kind == "baseline-interp":
        trajectories = baseline_condition_interp(backend, schedule, c_s, c_e, rng, churn=churn)
    else:
        trajectories = baseline_inpaint(backend, schedule, c_s, c_e.frame, rng, churn=churn)

    # Metrics first: one that fails leaves no trajectory without a manifest.
    metrics = _summary_metrics(trajectories, c_e)
    outputs = {}
    for seed, x in zip(seeds, trajectories):
        name = f"seed_{seed:04d}.trft"
        outputs[name] = export_tensor(x, os.path.join(out_dir, name))

    manifest = ExperimentManifest(
        format_version=MANIFEST_VERSION, config=cfg.data, config_hash=cfg.config_hash(),
        outputs=outputs, metrics=metrics, wall_clock_seconds=time.time() - t_begin)
    manifest.save(os.path.join(out_dir, MANIFEST_NAME))
    return manifest


def evaluate_run(run_dir) -> MetricReport:
    """Recompute metrics for a completed run, verifying output integrity.

    Raises RuntimeError naming any entry of ``run_dir`` other than the
    manifest and its outputs, such as a leftover ``*.tmp``."""
    manifest_path = os.path.join(run_dir, MANIFEST_NAME)
    manifest = ExperimentManifest.load(manifest_path)
    unexpected = sorted(set(os.listdir(run_dir)) - {MANIFEST_NAME, *manifest.outputs})
    if unexpected:
        raise RuntimeError(f"{os.path.join(run_dir, unexpected[0])}: not an output "
                           f"of the run recorded in {manifest_path}")
    try:
        cfg = ExperimentConfig.from_dict(manifest.config)
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


def export_tensor(x: np.ndarray, path) -> str:
    """Binary sequence tensor; 16 header bytes + 8*N*d payload bytes.
    Returns the SHA-256 hex digest of the bytes written."""
    x = as_sequence(x)
    header = TENSOR_MAGIC + struct.pack("<3I", TENSOR_VERSION, x.shape[0], x.shape[1])
    data = header + np.ascontiguousarray(x, dtype="<f8").tobytes()
    _atomic_write_bytes(path, data)
    return hashlib.sha256(data).hexdigest()


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
