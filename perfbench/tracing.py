"""Per-layer tracing from outside the package.

``Tracer.install`` replaces the public functions and methods of each trflab
module with timing wrappers, patching every name under which the package
looks a function up (``trflab.trf.as_sequence`` as well as
``trflab.core.as_sequence``), and ``uninstall`` puts the originals back.
Wrappers record only while ``Tracer.active`` is true, so the benchmark's own
correctness checks stay out of the numbers.

Each wrapped call is a span. Spans nest on a stack; a span's self time is
its duration minus the time of the spans it called. Spans are aggregated by
layer name as they close (calls and self time), and a few layers also add
work counts derived from argument sizes.
"""

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _gp_predict_pre(args, kwargs):
    return len(args[0]._factors)


def _gp_predict_post(counts, args, kwargs, result, factors_before):
    sigma = args[2] if len(args) > 2 else kwargs["sigma"]
    if sigma == 0.0:
        return  # returns a copy before touching the factor cache
    n = int(np.asarray(args[1]).size)
    counts["denoiser.gp.factor_cache.lookups"] += 1
    # cho_solve (two triangular solves) + cov @ sol + residual and mean add.
    flop = 4 * n * n + 2 * n
    if len(args[0]._factors) > factors_before:
        counts["denoiser.gp.factor_cache.misses"] += 1
        flop += n ** 3 // 3 + 2 * n * n  # Cholesky of cov + sigma^2 I
    counts["denoiser.gp.flop_computed"] += flop


def _rng_draw_post(counts, args, kwargs, result, pre):
    counts["core.rng.draws"] += 1


def _trf_sample_post(counts, args, kwargs, result, pre):
    counts["trf.chains"] += 1
    counts["trf.fusions"] += result[1].total_fusions


def _mlp_dims(params):
    return params.w1.shape[0], params.w1.shape[1], params.w3.shape[1]


def _forward_post(counts, args, kwargs, result, pre):
    n_in, h, n_out = _mlp_dims(args[0])
    batch = result[0].shape[0]
    counts["train.matmul_flop"] += 2 * batch * (n_in * h + h * h + h * n_out)


def _backward_post(counts, args, kwargs, result, pre):
    n_in, h, n_out = _mlp_dims(args[0])
    batch = np.atleast_2d(args[2]).shape[0]
    # gw3, gh2, gw2, gh1, gw1
    counts["train.matmul_flop"] += 2 * batch * (2 * h * n_out + 2 * h * h + n_in * h)


def _save_checkpoint_post(counts, args, kwargs, result, pre):
    counts["train.checkpoint.bytes"] += os.path.getsize(args[1])


def _load_checkpoint_post(counts, args, kwargs, result, size):
    counts["train.checkpoint.bytes"] += size


def _export_tensor_post(counts, args, kwargs, result, pre):
    counts["harness.export_tensor.bytes"] += 16 + 8 * int(np.asarray(args[0]).size)


def _first_arg_file_size(args, kwargs):
    return os.path.getsize(args[0])


def _sha256_file_post(counts, args, kwargs, result, size):
    counts["harness.sha256_file.bytes"] += size


def _targets():
    """(owner, attribute, layer, pre, post) for everything the tracer wraps."""
    # By module path: the package re-exports a function named ``train``.
    cli, core, denoiser, harness, metrics, sampler, schedule, train, trf, worlds = (
        importlib.import_module(f"trflab.{name}") for name in (
            "cli", "core", "denoiser", "harness", "metrics", "sampler", "schedule", "train",
            "trf", "worlds"))
    t = [
        (denoiser.AnalyticGaussianBackend, "predict_x0", "denoiser.predict_x0.gp",
         _gp_predict_pre, _gp_predict_post),
        (denoiser.AnalyticGmmBackend, "predict_x0", "denoiser.predict_x0.gmm", None, None),
        (train.MlpBackend, "predict_x0", "denoiser.predict_x0.mlp", None, None),
        (denoiser.PerFrameConditionBackend, "predict_x0", "denoiser.predict_x0.perframe", None, None),
        (core, "as_sequence", "core.as_sequence", None, None),
        (core, "sequence_hash", "core.sequence_hash", None, None),
        (core, "gaussian_noise", "core.rng", None, None),
        (core.RngStream, "__init__", "core.rng", None, None),
        (core.RngStream, "split", "core.rng", None, None),
        (schedule, "build_karras", "schedule", None, None),
        (schedule, "injection_std", "schedule", None, None),
        (schedule, "churn_gamma", "schedule", None, None),
        (schedule.NoiseSchedule, "sigma_at", "schedule", None, None),
        (sampler, "churn_perturb", "sampler.churn_perturb", None, None),
        (sampler, "sample", "sampler.sample", None, None),
        (trf, "trf_sample", "trf.trf_sample", None, _trf_sample_post),
        (trf, "fuse", "trf.fuse", None, None),
        (trf, "fusion_objective", "trf.fusion_objective", None, None),
        (trf, "baseline_inpaint", "trf.baseline_inpaint", None, None),
        (trf, "baseline_condition_interp", "trf.baseline_condition_interp", None, None),
        (worlds, "render_blob", "worlds.render_blob", None, None),
        (worlds, "conditional_moments", "worlds.conditional_moments", None, None),
        (worlds.PinnedGaussianProcessWorld, "conditional_moments", "worlds.conditional_moments", None, None),
        (worlds, "conditional_gmm", "worlds.conditional_gmm", None, None),
        (worlds.TrajectoryGmmWorld, "conditional_gmm", "worlds.conditional_gmm", None, None),
        (train, "forward", "train.forward", None, _forward_post),
        (train, "backward", "train.backward", None, _backward_post),
        (train, "adam_step", "train.adam_step", None, None),
        (train, "edm_loss_terms", "train.edm_loss_terms", None, None),
        (train, "save_checkpoint", "train.checkpoint", None, _save_checkpoint_post),
        (train, "load_checkpoint", "train.checkpoint", _first_arg_file_size, _load_checkpoint_post),
        (metrics, "endpoint_error", "metrics", None, None),
        (metrics, "roughness", "metrics", None, None),
        (metrics, "energy_distance", "metrics", None, None),
        (metrics, "mode_coverage", "metrics", None, None),
        (metrics.MetricReport, "add", "metrics", None, None),
        (harness, "apply_overrides", "harness.config", None, None),
        (harness, "export_tensor", "harness.export_tensor", None, _export_tensor_post),
        (harness, "sha256_file", "harness.sha256_file", _first_arg_file_size, _sha256_file_post),
        (harness.ExperimentManifest, "save", "harness.manifest_save", None, None),
        (harness, "run_experiment", "harness.run_experiment", None, None),
        (cli, "main", "cli.main", None, None),
    ]
    for name in ("normal", "uniform", "choice"):
        t.append((core.RngStream, name, "core.rng", None, _rng_draw_post))
    for cls in (worlds.PinnedGaussianProcessWorld, worlds.TrajectoryGmmWorld, worlds.MovingBlobWorld):
        t.append((cls, "training_pair", "worlds.training_pair", None, None))
    for name in ("from_dict", "from_file", "build_world", "build_backend", "build_schedule",
                 "build_churn", "build_trf", "build_conditions", "build_train", "config_hash"):
        t.append((harness.ExperimentConfig, name, "harness.config", None, None))
    return t


class Tracer:
    """Aggregates spans of wrapped trflab calls; see the module docstring."""

    def __init__(self):
        self.active = False
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # per open span: time spent in its child spans
        self._undo = []

    def _wrap(self, fn, layer, pre, post):
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            before = pre(args, kwargs) if pre is not None else None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                tracer.calls[layer] += 1
                tracer.self_s[layer] += dt - child
            if post is not None:
                post(tracer.counts, args, kwargs, result, before)
            return result

        return wrapper

    def install(self):
        """Wrap every target, under every module name that refers to it."""
        modules = [m for name, m in sys.modules.items() if name.startswith("trflab.") and m is not None]
        for owner, attr, layer, pre, post in _targets():
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, layer, pre, post))
                self._patch(owner, attr, raw, wrapped)
                continue
            wrapped = self._wrap(raw, layer, pre, post)
            if isinstance(owner, type):
                self._patch(owner, attr, raw, wrapped)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is raw:
                        self._patch(module, name, raw, wrapped)

    def _patch(self, owner, name, original, wrapped):
        setattr(owner, name, wrapped)
        self._undo.append((owner, name, original))

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def metrics(self) -> dict:
        """Per-layer metrics as ``{name: (value, unit)}``."""
        out = {}
        for layer in dict.fromkeys(target[2] for target in _targets()):
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        c = self.counts
        out["denoiser.gp.factor_cache.lookups"] = (c["denoiser.gp.factor_cache.lookups"], "count")
        out["denoiser.gp.factor_cache.misses"] = (c["denoiser.gp.factor_cache.misses"], "count")
        out["denoiser.gp.flop_computed"] = (c["denoiser.gp.flop_computed"], "flop")
        out["core.rng.draws"] = (c["core.rng.draws"], "count")
        out["trf.fusions_per_chain"] = (c["trf.fusions"] / max(c["trf.chains"], 1), "count")
        out["train.matmul_gflop_computed"] = (c["train.matmul_flop"] / 1e9, "Gflop")
        out["train.checkpoint.bytes"] = (c["train.checkpoint.bytes"], "B")
        out["harness.export_tensor.bytes"] = (c["harness.export_tensor.bytes"], "B")
        out["harness.sha256_file.bytes"] = (c["harness.sha256_file.bytes"], "B")
        return out
