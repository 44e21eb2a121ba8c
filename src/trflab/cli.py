"""Command-line front end: run samplers, train the toy denoiser, evaluate,
and sweep fusion hyperparameters.

Every subcommand takes a JSON config (--config), optional seed overrides
(--seed N or --seeds A..B, inclusive), an output directory (--out), and
dotted-path overrides (--set trf.m_reinject=3). Exit codes: 0 success,
1 configuration error, 2 runtime error.
"""

import argparse
import dataclasses
import functools
import itertools
import json
import os
import sys

from .core import _atomic_write_bytes
from .harness import (
    ConfigError,
    ExperimentConfig,
    SWEEP_AXES,
    apply_overrides,
    canonical_json,
    evaluate_run,
    read_raw_config,
    run_experiment,
)


def _add_common(p: argparse.ArgumentParser, need_config=True):
    p.add_argument("--config", required=need_config, help="JSON experiment config")
    p.add_argument("--seed", type=int, help="run a single seed")
    p.add_argument("--seeds", help="run an inclusive seed range A..B")
    p.add_argument("--out", help="output directory (overrides config out_dir)")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="dotted-path config override, value read as the key's type")


def _load_raw(args) -> dict:
    raw = read_raw_config(args.config)
    apply_overrides(raw, args.overrides)
    if args.seed is not None and args.seeds is not None:
        raise ConfigError("--seed and --seeds are mutually exclusive")
    if args.seed is not None:
        raw["seeds"] = [args.seed]
    if args.seeds is not None:
        lo, sep, hi = args.seeds.partition("..")
        if sep != ".." or not lo.isdigit() or not hi.isdigit() or int(lo) > int(hi):
            raise ConfigError(f"--seeds must be A..B with A <= B, got {args.seeds!r}")
        raw["seeds"] = list(range(int(lo), int(hi) + 1))
    if args.out is not None:
        raw["out_dir"] = args.out
    return raw


def _run_sampler(args, sampler: str) -> int:
    raw = _load_raw(args)
    raw["sampler"] = sampler
    manifest = run_experiment(ExperimentConfig.from_dict(raw))
    print(f"wrote {len(manifest.outputs)} trajectories to {manifest.config['out_dir']}")
    for name, entry in manifest.metrics.entries.items():
        print(f"  {name} = {entry['value']:.6g}  (n={entry['n_samples']})")
    print(f"  fingerprint {manifest.fingerprint()}")
    return 0


def _cmd_sample(args) -> int:
    return _run_sampler(args, "forward")


def _cmd_trf(args) -> int:
    return _run_sampler(args, "trf")


def _cmd_baseline(args) -> int:
    return _run_sampler(args, f"baseline-{args.kind}")


def _cmd_train(args) -> int:
    from .train import save_checkpoint, train

    cfg = ExperimentConfig.from_dict(_load_raw(args))
    out_dir = cfg.data["out_dir"]
    if not out_dir:
        raise ConfigError("missing required config key 'out_dir'")
    world = cfg.build_world()
    train_cfg = cfg.build_train()
    if args.seed is not None:
        train_cfg = dataclasses.replace(train_cfg, seed=args.seed)
    os.makedirs(out_dir, exist_ok=True)
    params, curve = train(world, train_cfg)
    ckpt = os.path.join(out_dir, "checkpoint.trfw")
    save_checkpoint(params, ckpt)
    lines = ["step,loss"] + [f"{i},{format(v, '.17g')}" for i, v in enumerate(curve)]
    _atomic_write_bytes(os.path.join(out_dir, "loss_curve.csv"), ("\n".join(lines) + "\n").encode())
    print(f"wrote {ckpt}")
    print(f"  first-100-step mean loss {curve[:100].mean():.6g}")
    print(f"  last-100-step mean loss  {curve[-100:].mean():.6g}")
    return 0


def _cmd_eval(args) -> int:
    run_dir = args.out or os.path.dirname(args.config or "") or "."
    report = evaluate_run(run_dir)
    print(canonical_json(report.to_dict()))
    return 0


def _cmd_sweep(args) -> int:
    raw = _load_raw(args)
    raw.setdefault("sampler", "trf")
    cfg = ExperimentConfig.from_dict(raw)
    sweep = cfg.data["sweep"]
    if not sweep:
        raise ConfigError("missing required config key 'sweep'")
    out_dir = cfg.data["out_dir"]
    if not out_dir:
        raise ConfigError("missing required config key 'out_dir'")

    # Every grid point is validated and built before the first run writes.
    points = []
    for i, combo in enumerate(itertools.product(*sweep.values())):
        params = dict(zip(sweep, combo))
        sub_raw = json.loads(canonical_json(raw))
        del sub_raw["sweep"]
        for axis, value in params.items():
            sub_raw.setdefault(SWEEP_AXES[axis], {})[axis] = value
        sub_raw["out_dir"] = os.path.join(out_dir, f"run_{i:03d}")
        sub_cfg = ExperimentConfig.from_dict(sub_raw)
        sub_cfg.build_run()
        points.append((params, sub_cfg))

    runs = []
    for i, (params, sub_cfg) in enumerate(points):
        manifest = run_experiment(sub_cfg)
        runs.append({
            "params": params,
            "dir": f"run_{i:03d}",
            "metrics": manifest.metrics.to_dict(),
            "fingerprint": manifest.fingerprint(),
        })
        shown = ", ".join(f"{k}={v}" for k, v in params.items())
        print(f"run_{i:03d}: {shown}")
    summary_path = os.path.join(out_dir, "summary.json")
    _atomic_write_bytes(summary_path, (canonical_json({"runs": runs}) + "\n").encode())
    print(f"wrote {summary_path}")
    return 0


@functools.cache  # one parser per process; each parse copies the --set default list
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trflab",
        description="Bounded sequence generation by fused forward/backward diffusion sampling.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="forward conditional sampling from the start frame")
    _add_common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("trf", help="fused bounded generation between start and end frames")
    _add_common(p)
    p.set_defaults(func=_cmd_trf)

    p = sub.add_parser("baseline", help="single-path baselines for comparison")
    p.add_argument("--kind", choices=("interp", "inpaint"), default="interp")
    _add_common(p)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("train", help="train the MLP denoiser on a world")
    _add_common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="recompute metrics for a completed run directory")
    _add_common(p, need_config=False)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="grid over fusion hyperparameters (m_reinject, t0, alpha_kind, s_churn)")
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures map to a distinct exit code
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
