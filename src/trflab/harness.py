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
* frame grids — binary 8-bit PGM (P5), [0,1] mapped linearly to [0,255];
* loss curve — CSV with header "step,loss", 17-significant-digit losses.
"""

import contextlib
import functools
import hashlib
import itertools
import json
import os
import re
import struct
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from .core import RngBatch, _atomic_write_bytes, as_sequence
from .denoiser import AnalyticGaussianBackend, AnalyticGmmBackend, Condition
from .metrics import MetricReport, endpoint_error, roughness
from .sampler import sample
from .schedule import ChurnParams, build_karras
from .train import CheckpointError, MlpBackend, TrainConfig, load_checkpoint, save_checkpoint, train
from .trf import (KIND_EXPONENTIAL, KIND_LINEAR, TrfConfig, alpha_weights, baseline_condition_interp,
                  baseline_inpaint, trf_sample)
from .worlds import MovingBlobWorld, PinnedGaussianProcessWorld, TrajectoryGmmWorld

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"
#: A trajectory output's file name: the only kind of file that a rerun
#: deletes on an earlier manifest's word.
_OUTPUT_NAME = re.compile(r"seed_[0-9]+\.trft")
TENSOR_MAGIC = b"TRFT"
TENSOR_VERSION = 1

#: Seeds lie in [0, 2**63), the signed 64-bit range. The RNG streams key
#: Philox with (seed, stream id) as two exact unsigned 64-bit words, so every
#: seed in range keys streams of its own.
SEED_LIMIT = 2 ** 63
SAMPLER_KINDS = ("forward", "trf", "baseline-interp", "baseline-inpaint")
#: Each sweep axis and the config section it sets.
SWEEP_AXES = {"m_reinject": "trf", "t0": "trf", "alpha_kind": "trf", "s_churn": "churn"}


class ConfigError(Exception):
    """Invalid experiment configuration; the message names the offending key."""


@contextlib.contextmanager
def _section_errors(section: str):
    """A ValueError or OverflowError raised inside, which means a value out
    of range, becomes a ConfigError that names config section ``section``
    and keeps the original message."""
    try:
        yield
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid '{section}' config: {exc}") from exc


_REQUIRED = object()


def _dataclass_schema(cls) -> dict:
    """Schema entries of a config dataclass: its fields, types and defaults."""
    kinds = {float: "number", int: "int"}
    return {f.name: (kinds[f.type], f.default) for f in fields(cls)}


#: Every config section: key -> (kind, default[, limit]), where a string's
#: limit is the tuple of its allowed values, a number's, or each of a list
#: of numbers', its largest magnitude, and an int's its largest value.
#: A default of None makes the key optional, and an explicit null then means
#: the same as leaving it out. A "section" value is checked against the
#: entry named after its key; a world or backend section has a "kind" key,
#: which picks the entry for its other keys.
#:
#: These bounds keep every value a run computes far from float
#: overflow, so a huge finite setting is a config error, not a failure
#: after sampling: the initial latent has scale schedule.sigma_max, a GP
#: world's frames scale with q, churn multiplies its noise by s_noise, and
#: a condition is a frame, so its entries share sigma_max's bound.
#: EDM (Karras et al. 2022) uses sigma_max = 80 and s_noise of 1 to 1.007.
#:
#: The size keys are bounded too, so that a mistyped size is a config error
#: naming its key rather than a failed allocation or an hours-long run. The
#: bounds sit far above the sizes this lab runs: 16 frames of dimension 2,
#: 16 x 16 blob grids, 50 sampling steps, and 5000 training steps of a
#: 256-wide network on batches of 64.
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
    "gp": {"a": ("number", 1.0), "q": ("number", 0.3, 1e3), "dim": ("int", 2, 64),
           "n_frames": ("int", 16, 1024)},
    "gmm": {
        "n_frames": ("int", 16, 1024),
        "start": ("numbers", [-1.0, 0.0]),
        "end": ("numbers", [1.0, 0.0]),
        "bulges": ("numbers", [0.8, 0.0, -0.8]),
        "tau": ("number", 0.1),
        "time_symmetric": ("bool", True),
    },
    "blob": {
        "grid_size": ("int", 16, 64),
        "bump_std": ("number", 1.5),
        "pixels_per_unit": ("number", 5.0),
        "origin": ("numbers", [0.0, 0.0]),
        "trajectory": ("section", _REQUIRED),
    },
    "analytic": {},
    "checkpoint": {"path": ("str", _REQUIRED)},
    "schedule": {
        "n_steps": ("int", 25, 1000),
        "sigma_min": ("number", 0.002),
        "sigma_max": ("number", 80.0, 1e4),
        "rho": ("number", 7.0),
    },
    "churn": {**_dataclass_schema(ChurnParams), "s_noise": ("number", ChurnParams.s_noise, 10.0)},
    "trf": {
        "m_reinject": ("int", 2),
        "t0": ("int", None),
        "alpha_kind": ("str", KIND_LINEAR, (KIND_LINEAR, KIND_EXPONENTIAL)),
        "alpha_lam": ("number", 4.0),
    },
    "conditions": {"start": ("numbers", _REQUIRED, 1e4), "end": ("numbers", None, 1e4)},
    "train": {
        **_dataclass_schema(TrainConfig),
        "n_steps": ("int", TrainConfig.n_steps, 100_000),
        "batch_size": ("int", TrainConfig.batch_size, 4096),
        "hidden": ("int", TrainConfig.hidden, 2048),
        "n_freq": ("int", TrainConfig.n_freq, 64),
        "seed": ("seed", TrainConfig.seed),
    },
}


def _full_key(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _value(v, kind: str, key: str, limit=None):
    """Config value ``v`` of key ``key`` checked against ``kind`` and its
    schema limit; numbers come back as finite floats."""
    if kind == "seed":
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < SEED_LIMIT:
            raise ConfigError(f"config key '{key}' must be an integer in [0, 2**63), got {v!r}")
        return v
    if kind == "numbers":
        if not isinstance(v, list):
            raise ConfigError(f"config key '{key}' must be a list of numbers, got {type(v).__name__}")
        return [_value(item, "number", f"{key}[{i}]", limit) for i, item in enumerate(v)]
    types = {"number": (int, float), "int": int, "str": str, "bool": bool}[kind]
    if not isinstance(v, types) or (isinstance(v, bool) and kind != "bool"):
        raise ConfigError(f"config key '{key}' must be {kind}, got {type(v).__name__}")
    if kind == "number":
        # NaN fails the comparison; a huge int would overflow float().
        if not abs(v) <= sys.float_info.max:
            raise ConfigError(f"config key '{key}' must be a finite number, got {v}")
        v = float(v)
    if kind == "str":
        if limit is not None and v not in limit:
            raise ConfigError(f"config key '{key}' must be one of {list(limit)}, got {v!r}")
    elif limit is not None:
        # An int is shown exactly: one too large for a float has no :g form.
        shown = "g" if kind == "number" else "d"
        if v > limit:
            raise ConfigError(f"config key '{key}' must be at most {limit:{shown}}, got {v:{shown}}")
        if kind == "number" and v < -limit:
            raise ConfigError(f"config key '{key}' must be at least {-limit:g}, got {v:g}")
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
    kind, default, *limit = spec
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
    return _value(v, kind, full, *limit)


def _seeds(seeds) -> list:
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("config key 'seeds' must be a non-empty list of integers")
    seen = set()
    for i, s in enumerate(seeds):
        _value(s, "seed", f"seeds[{i}]")
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
        kind, default, *limit = _SCHEMA[SWEEP_AXES[axis]][axis]
        for i, v in enumerate(values):
            if v is not None or default is not None:
                _value(v, kind, f"sweep.{axis}[{i}]", *limit)
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

    def build_world(self):
        with _section_errors("world"):
            return _build_world(self.data["world"])

    def build_backend(self, world):
        spec = self.data["backend"]
        if spec["kind"] == "analytic":
            analytic = {"gp": AnalyticGaussianBackend, "gmm": AnalyticGmmBackend}.get(self.data["world"]["kind"])
            if analytic is None:
                raise ConfigError("the blob world has no analytic denoiser; use a checkpoint backend")
            return analytic(world)
        try:
            params = load_checkpoint(spec["path"])
        except (OSError, CheckpointError, ValueError) as exc:  # ValueError: non-finite weights
            raise ConfigError(f"invalid 'backend.path' config: {exc}") from exc
        backend = MlpBackend(params)
        if backend.seq_shape != world.seq_shape:
            raise ConfigError(
                f"checkpoint network shape {backend.seq_shape} does not match world {world.seq_shape}")
        return backend

    def build_schedule(self):
        with _section_errors("schedule"):
            return build_karras(**self.data["schedule"])

    def build_churn(self) -> ChurnParams:
        with _section_errors("churn"):
            return ChurnParams(**self.data["churn"])

    def build_trf(self, n_frames: int, n_steps: int) -> TrfConfig:
        """The fused sampler's config, its cutoff t0 checked against n_steps."""
        t = self.data["trf"]
        with _section_errors("trf"):
            cfg = TrfConfig(alpha=alpha_weights(t["alpha_kind"], n_frames, t["alpha_lam"]),
                            m_reinject=t["m_reinject"], t0=t["t0"])
            cfg.resolved_t0(n_steps)
        return cfg

    def build_conditions(self, world) -> tuple[Condition, Condition | None]:
        spec = self.data["conditions"]
        if spec is None:
            raise ConfigError("missing required config key 'conditions'")
        c_s = _frame_condition(world, spec["start"], "start")
        c_e = None if spec["end"] is None else _frame_condition(world, spec["end"], "end")
        return c_s, c_e

    def build_train(self) -> TrainConfig:
        with _section_errors("train"):
            return TrainConfig(**self.data["train"])

    def build_run(self):
        """The configured sampler as a call on the run's RNG, bound to its
        backend, schedule, conditions, churn and fused-sampler config, and
        the end condition for the metrics (None for an unbounded run). Built
        before ``run_experiment`` writes anything; a bad value raises
        ConfigError."""
        world = self.build_world()
        backend = self.build_backend(world)
        schedule = self.build_schedule()
        churn = self.build_churn()
        kind = self.data["sampler"]
        c_s, c_e = self.build_conditions(world)
        if kind != "forward" and c_e is None:
            raise ConfigError(f"missing required config key 'conditions.end' (sampler {kind!r} is bounded)")
        bounds = (c_s,) if kind == "forward" else (c_s, c_e)
        trf_cfg = (self.build_trf(world.seq_shape[0], schedule.n_steps),) if kind == "trf" else ()
        # Looked up as module globals on every call, never kept in a table
        # filled at import, so that a tracer patching them sees each run.
        sampler = {"forward": sample, "trf": trf_sample, "baseline-interp": baseline_condition_interp,
                   "baseline-inpaint": baseline_inpaint}[kind]
        return functools.partial(sampler, backend, schedule, *bounds, churn, *trf_cfg), c_e

    def out_dir(self) -> str:
        """The output directory; ConfigError if the config names none."""
        if not self.data["out_dir"]:
            raise ConfigError("missing required config key 'out_dir'")
        return self.data["out_dir"]

    def config_hash(self) -> str:
        return hashlib.sha256(canonical_json(self.data).encode()).hexdigest()


def read_raw_config(path) -> dict:
    """The JSON object in config file ``path``, not yet validated."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bytes that are not UTF-8, or an integer past Python's digit limit
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
        (frame,), (clamped,) = world.render_positions(frame[None, :])
        if clamped:
            raise ConfigError(f"conditions.{key} position {values} lies off the "
                              f"{world.grid_size}x{world.grid_size} blob grid")
    if frame.shape != (world.seq_shape[1],):
        raise ConfigError(
            f"conditions.{key} has dimension {frame.shape}, world frames have dimension {world.seq_shape[1]}")
    return Condition(frame)


def _override_value(text: str, kind: str):
    """The value of ``--set key=text``: the raw text for a string key, else
    the text read as JSON, else, for a number key, as a Python float, else
    the raw text, which the key's type check then rejects."""
    if kind == "str":
        return text
    try:
        return json.loads(text)
    except ValueError:  # JSONDecodeError, or an integer past Python's digit limit
        pass
    if kind == "number":
        try:
            return float(text)
        except ValueError:
            pass
    return text


def apply_overrides(raw: dict, assignments: list[str]) -> dict:
    """Apply --set key.path=value pairs, each value read as its schema key's
    type. One walk follows the path down ``raw`` and the schema together;
    a world or backend section's keys are those of its kind as it stands."""
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key_path, _, text = item.partition("=")
        *path, last = key_path.split(".")
        node, schema = raw, _SCHEMA[""]
        for key in path:
            schema = _SCHEMA[key] if schema.get(key, ("",))[0] == "section" else {}
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {key_path!r} crosses non-object key {key!r}")
            if "kind" in schema and node.get("kind") in schema["kind"][2]:
                schema = {**schema, **_SCHEMA[node["kind"]]}
        node[last] = _override_value(text, schema.get(last, ("",))[0])
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
        return {f.name: getattr(self, f.name) for f in fields(self)} | {"metrics": self.metrics.to_dict()}

    def fingerprint(self) -> str:
        """Hash over everything a rerun must reproduce.

        Wall clock, the output directory and a checkpoint backend's path are
        excluded: the same config and seeds rerun anywhere must yield the
        same fingerprint, and the output digests already pin what the
        checkpoint produced.
        """
        config = {k: v for k, v in self.config.items() if k != "out_dir"}
        config["backend"] = {k: v for k, v in config["backend"].items() if k != "path"}
        stable = {"config": config, "outputs": self.outputs}
        return hashlib.sha256(canonical_json(stable).encode()).hexdigest()

    def save(self, path):
        _write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "ExperimentManifest":
        with open(path) as fh:
            d = json.load(fh)
        if d.get("format_version") != MANIFEST_VERSION:
            raise ValueError(f"{path}: manifest format version {d.get('format_version')}, "
                             f"expected {MANIFEST_VERSION}")
        return cls(**{f.name: d[f.name] for f in fields(cls)} | {"metrics": MetricReport.from_dict(d["metrics"])})


def run_experiment(cfg: ExperimentConfig) -> ExperimentManifest:
    """Run the configured sampler over all seeds; write outputs + manifest.

    All seeds run as one batch of chains in a single sampler call, each
    chain drawing from its own seed's streams. With the analytic denoisers
    every output is bit-identical to a run of that seed alone; with a
    checkpoint it is equal up to rounding, since the MLP's matrix products
    see the whole batch. Every builder runs before the output directory is
    created, so a config error leaves nothing behind. All files are written
    atomically and the manifest last: a directory with a manifest is a
    complete run. An earlier run in out_dir is cleared first (see
    :func:`_clear_earlier_run`).
    """
    t_begin = time.time()
    out_dir = cfg.out_dir()
    run, c_e = cfg.build_run()
    seeds = cfg.data["seeds"]
    names = [f"seed_{seed:04d}.trft" for seed in seeds]
    _clear_earlier_run(out_dir, names)
    _make_dir(out_dir)

    trajectories, _ = run(RngBatch.from_seeds(seeds))

    # Metrics first: one that fails leaves no trajectory without a manifest.
    metrics = _summary_metrics(trajectories, c_e)
    outputs = {name: export_tensor(x, os.path.join(out_dir, name)) for name, x in zip(names, trajectories)}

    manifest = ExperimentManifest(
        format_version=MANIFEST_VERSION, config=cfg.data, config_hash=cfg.config_hash(),
        outputs=outputs, metrics=metrics, wall_clock_seconds=time.time() - t_begin)
    manifest.save(os.path.join(out_dir, MANIFEST_NAME))
    return manifest


def _clear_earlier_run(out_dir, names):
    """Remove what an earlier run's manifest in ``out_dir`` names, except ``names``.

    The manifest goes first, so that a run that then fails leaves no
    complete-looking directory. Then each output it lists that is not in
    ``names`` (this run's outputs) is deleted, but only a plain
    ``seed_NNNN.trft`` name: a hand-edited manifest cannot reach outside
    ``out_dir`` or delete other files. A manifest that cannot be read is a
    RuntimeError naming it, and nothing is deleted.
    """
    path = os.path.join(out_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        return
    try:
        with open(path) as fh:
            outputs = json.load(fh)["outputs"]
        if not isinstance(outputs, dict):
            raise ValueError("'outputs' is not an object")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise RuntimeError(f"{path}: cannot read the earlier run's manifest ({exc}); "
                           f"nothing was deleted") from exc
    os.remove(path)
    for name in outputs.keys() - set(names):
        if _OUTPUT_NAME.fullmatch(name):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, name))


def run_sweep(cfg: ExperimentConfig) -> tuple[list[dict], str]:
    """Run every point of the config's sweep grid and write its summary.

    Point i is the normalized config with each axis value placed into its
    section, run into ``run_NNN`` (i, zero-padded) under out_dir. Every
    point is validated and built before the first run writes. The summary,
    written last to ``summary.json`` in out_dir, lists each run's params,
    directory, metrics and fingerprint; returns those runs and its path.
    """
    sweep = cfg.data["sweep"]
    if not sweep:
        raise ConfigError("missing required config key 'sweep'")
    out_dir = cfg.out_dir()
    points = []
    for i, combo in enumerate(itertools.product(*sweep.values())):
        params = dict(zip(sweep, combo))
        data = json.loads(canonical_json(cfg.data))
        data.update(sweep=None, out_dir=os.path.join(out_dir, f"run_{i:03d}"))
        for axis, value in params.items():
            data[SWEEP_AXES[axis]][axis] = value
        point = ExperimentConfig.from_dict(data)
        point.build_run()
        points.append((params, point))

    runs = []
    for params, point in points:
        manifest = run_experiment(point)
        runs.append({"params": params, "dir": os.path.basename(point.data["out_dir"]),
                     "metrics": manifest.metrics.to_dict(), "fingerprint": manifest.fingerprint()})
    summary_path = os.path.join(out_dir, "summary.json")
    _write_json(summary_path, {"runs": runs})
    return runs, summary_path


def run_training(cfg: ExperimentConfig) -> tuple[str, np.ndarray]:
    """Train the MLP denoiser on the configured world and save it to
    out_dir (see :func:`save_training`); returns the checkpoint path and
    the loss curve. The world and the training settings are built before
    out_dir is created."""
    out_dir = cfg.out_dir()
    world = cfg.build_world()
    train_cfg = cfg.build_train()
    _make_dir(out_dir)
    params, curve = train(world, train_cfg)
    return save_training(out_dir, params, curve), curve


def save_training(out_dir, params, curve) -> str:
    """Write a trained network as ``checkpoint.trfw`` and its per-step loss
    as ``loss_curve.csv`` in ``out_dir``, each atomically; returns the
    checkpoint path."""
    ckpt = os.path.join(out_dir, "checkpoint.trfw")
    save_checkpoint(params, ckpt)
    lines = ["step,loss"] + [f"{i},{format(v, '.17g')}" for i, v in enumerate(curve)]
    _atomic_write_bytes(os.path.join(out_dir, "loss_curve.csv"), ("\n".join(lines) + "\n").encode())
    return ckpt


def _make_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise RuntimeError(f"cannot create output directory {path}: {exc}") from exc


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
    _, c_e = cfg.build_conditions(cfg.build_world())
    trajectories = []
    for name, digest in sorted(manifest.outputs.items()):
        path = os.path.join(run_dir, name)
        actual = sha256_file(path)
        if actual != digest:
            raise RuntimeError(f"{path}: hash {actual} does not match manifest {digest}")
        trajectories.append(load_tensor(path))
    return _summary_metrics(np.stack(trajectories), c_e)


def _summary_metrics(trajectories: np.ndarray, c_e: Condition | None) -> MetricReport:
    # The manifest's metrics over the (B, N, d) stack of a run's outputs,
    # one call per metric; evaluate_run must reproduce them exactly.
    report = MetricReport()
    n = len(trajectories)
    if c_e is not None:
        report.add("endpoint_error_median", np.median(endpoint_error(trajectories, c_e.frame)), n)
    if trajectories.shape[-2] >= 3:
        report.add("roughness_median", np.median(roughness(trajectories)), n)
    return report


# -- serialization helpers -------------------------------------------------


def canonical_json(obj) -> str:
    """Stable serialization: sorted keys, no whitespace, shortest decimals."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _write_json(path, obj):
    """``obj`` as one line of canonical JSON, written atomically."""
    _atomic_write_bytes(path, (canonical_json(obj) + "\n").encode())


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
