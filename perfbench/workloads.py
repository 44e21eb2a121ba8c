"""Workload inputs: config files and seed ranges, generated from the workload seed.

Everything the program sees comes from here. ``make_plan`` writes the JSON
configs of one workload into a work directory and returns the commands to
issue, so the same workload seed always yields the same configs, the same
training seed and the same sampling seed ranges.
"""

import json
import math
import os
import random
from dataclasses import dataclass

#: gp-bounded: pinned GP random walk, fused sampling only. Exercises the
#: Gaussian posterior solve, validation and fusion; bypasses training and
#: rendering entirely.
GP = "gp-bounded"
#: gmm-mixed: mixture world, cycling the single-path loops and the fused
#: sampler. Same sampler and denoiser layers as gp-bounded but mixture
#: responsibilities instead of a solve, and the per-frame-condition baseline
#: that sets the tail latency.
GMM = "gmm-mixed"
#: blob-train-sample: MLP training on rendered frames, then fused sampling
#: with the trained checkpoint. Exercises training, rendering, checkpoint
#: I/O and the MLP denoiser; bypasses every analytic denoiser.
BLOB = "blob-train-sample"
WORKLOADS = (GP, GMM, BLOB)


@dataclass(frozen=True)
class Sizes:
    """Work per run. ``FULL`` is the benchmark; the smoke test shrinks it."""

    seeds_per_experiment: int
    min_experiments: int = 100
    train_steps: int = 100
    trace_experiments: int = 24
    setup_repeats: int = 3


FULL = {
    GP: Sizes(seeds_per_experiment=16),
    GMM: Sizes(seeds_per_experiment=16),
    # One 16-seed MLP experiment takes about 1 s, so 100 of them would not
    # fit a run; 2 seeds keep >= 100 experiments (>= 10 beyond p90).
    BLOB: Sizes(seeds_per_experiment=2),
}


@dataclass
class Plan:
    """Commands of one workload; argv lists for ``trflab.cli.main``."""

    workload: str
    train_argv: list | None
    train_dir: str | None
    train_steps: int
    cycle: list  # (label, argv prefix) pairs issued round-robin
    seed_base: int
    seeds_per_experiment: int

    def experiment(self, i: int, out_dir: str) -> tuple[str, list]:
        """Label and full argv of experiment ``i``; seeds never repeat within a run."""
        label, argv = self.cycle[i % len(self.cycle)]
        lo = self.seed_base + i * self.seeds_per_experiment
        hi = lo + self.seeds_per_experiment - 1
        return label, argv + ["--seeds", f"{lo}..{hi}", "--out", out_dir]


def _write(workdir: str, name: str, config: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(config, fh, sort_keys=True, indent=1)
    return path


def _chord(rnd: random.Random) -> tuple[list, list]:
    """Start and end points of an arc chord: length 1.6 to 2.2, random direction.

    Kept within +-1.1 of the origin so arcs with bulge 0.8 stay on the
    16x16 blob grid (+-1.5 units at 5 pixels per unit).
    """
    theta = rnd.uniform(0.0, math.pi)
    half = rnd.uniform(0.8, 1.1)
    d = [half * math.cos(theta), half * math.sin(theta)]
    return [-d[0], -d[1]], [d[0], d[1]]


def make_plan(workload: str, seed: int, workdir: str, sizes: Sizes) -> Plan:
    """Write the workload's configs under ``workdir`` and return its commands."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rnd = random.Random(f"{workload}/{seed}")
    os.makedirs(workdir, exist_ok=True)
    seed_base = rnd.randrange(0, 1_000_000)
    spe = sizes.seeds_per_experiment

    if workload == GP:
        start = [rnd.uniform(-1.5, 1.5) for _ in range(2)]
        end = [rnd.uniform(-1.5, 1.5) for _ in range(2)]
        cfg = _write(workdir, "gp.json", {
            "world": {"kind": "gp", "a": 1.0, "q": 0.3, "dim": 2, "n_frames": 16},
            "schedule": {"n_steps": 50},
            "conditions": {"start": start, "end": end},
        })
        return Plan(workload, None, None, 0, [("trf", ["trf", "--config", cfg])],
                    seed_base, spe)

    start, end = _chord(rnd)
    if workload == GMM:
        cfg = _write(workdir, "gmm.json", {
            "world": {"kind": "gmm", "n_frames": 16, "start": start, "end": end},
            "schedule": {"n_steps": 25},
            "conditions": {"start": start, "end": end},
        })
        # trf and interp twice per cycle, so p50 falls in the middle of the
        # trf times and p90 inside the interp times. With four equal shares
        # p50 sits on the gap between the fast single-path commands and trf
        # and jumps from run to run.
        trf = ("trf", ["trf", "--config", cfg])
        interp = ("interp", ["baseline", "--kind", "interp", "--config", cfg])
        cycle = [
            ("sample", ["sample", "--config", cfg]), trf, interp,
            ("inpaint", ["baseline", "--kind", "inpaint", "--config", cfg]), trf, interp,
        ]
        return Plan(workload, None, None, 0, cycle, seed_base, spe)

    world = {"kind": "blob", "grid_size": 16,
             "trajectory": {"kind": "gmm", "n_frames": 8, "start": start, "end": end}}
    train_dir = os.path.join(workdir, "train")
    train_cfg = _write(workdir, "blob_train.json", {
        "world": world,
        # The demo's settings: sigma_data at the pixel scale, noise levels
        # leaning low where the bump structure lives.
        "train": {"n_steps": sizes.train_steps, "batch_size": 64, "hidden": 256,
                  "sigma_data": 0.1, "p_mean": -1.6, "p_std": 1.4,
                  "seed": rnd.randrange(0, 1_000_000)},
        "out_dir": train_dir,
    })
    trf_cfg = _write(workdir, "blob_trf.json", {
        "world": world,
        "backend": {"kind": "checkpoint", "path": os.path.join(train_dir, "checkpoint.trfw")},
        "schedule": {"n_steps": 25, "sigma_max": 10.0},
        "conditions": {"start": start, "end": end},
    })
    return Plan(workload, ["train", "--config", train_cfg], train_dir, sizes.train_steps,
                [("trf", ["trf", "--config", trf_cfg])], seed_base, spe)
