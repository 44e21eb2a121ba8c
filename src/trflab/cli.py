"""Command-line front end: run samplers, train the toy denoiser, evaluate,
and sweep fusion hyperparameters. Each command is one call into
:mod:`trflab.harness`; this module parses arguments and prints results.

Every subcommand takes a JSON config (--config), optional seed overrides
(--seed N or --seeds A..B, inclusive), an output directory (--out), and
dotted-path overrides (--set trf.m_reinject=3). ``train`` takes one seed,
its training seed: --seed N sets train.seed. ``eval`` reads a finished run
directory (--out, or the directory of --config). A flag a command has no
use for is a config error. Exit codes: 0 success, 1 configuration error,
2 runtime error.
"""

import argparse
import functools
import os
import sys

from .harness import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    canonical_json,
    evaluate_run,
    read_raw_config,
    run_experiment,
    run_sweep,
    run_training,
)


def _add_common(p: argparse.ArgumentParser, need_config=True):
    p.add_argument("--config", required=need_config, help="JSON experiment config")
    p.add_argument("--seed", type=int, help="run a single seed (train: set train.seed)")
    p.add_argument("--seeds", help="run an inclusive seed range A..B")
    p.add_argument("--out", help="output directory (overrides config out_dir)")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="dotted-path config override, value read as the key's type")


def _refuse(args, *flags):
    """ConfigError naming the first of the common ``flags`` given to a
    command that has no use for them."""
    given = {"--seed": args.seed, "--seeds": args.seeds, "--set": args.overrides or None}
    for flag in flags:
        if given[flag] is not None:
            raise ConfigError(f"trflab {args.command} takes no {flag}")


def _load_raw(args) -> dict:
    raw = read_raw_config(args.config)
    apply_overrides(raw, args.overrides)
    if args.seed is not None and args.seeds is not None:
        raise ConfigError("--seed and --seeds are mutually exclusive")
    if args.seed is not None and args.command == "train":
        apply_overrides(raw, [f"train.seed={args.seed}"])
    elif args.seed is not None:
        raw["seeds"] = [args.seed]
    if args.seeds is not None:
        lo, sep, hi = args.seeds.partition("..")
        if sep != ".." or not lo.isdigit() or not hi.isdigit() or int(lo) > int(hi):
            raise ConfigError(f"--seeds must be A..B with A <= B, got {args.seeds!r}")
        raw["seeds"] = list(range(int(lo), int(hi) + 1))
    if args.out is not None:
        raw["out_dir"] = args.out
    return raw


def _cmd_run(args) -> int:
    raw = _load_raw(args)
    raw["sampler"] = f"baseline-{args.kind}" if args.command == "baseline" else args.sampler
    manifest = run_experiment(ExperimentConfig.from_dict(raw))
    print(f"wrote {len(manifest.outputs)} trajectories to {manifest.config['out_dir']}")
    for name, entry in manifest.metrics.entries.items():
        print(f"  {name} = {entry['value']:.6g}  (n={entry['n_samples']})")
    print(f"  fingerprint {manifest.fingerprint()}")
    return 0


def _cmd_train(args) -> int:
    _refuse(args, "--seeds")
    ckpt, curve = run_training(ExperimentConfig.from_dict(_load_raw(args)))
    print(f"wrote {ckpt}")
    print(f"  first-100-step mean loss {curve[:100].mean():.6g}")
    print(f"  last-100-step mean loss  {curve[-100:].mean():.6g}")
    return 0


def _cmd_eval(args) -> int:
    _refuse(args, "--seed", "--seeds", "--set")
    run_dir = args.out or os.path.dirname(args.config or "") or "."
    print(canonical_json(evaluate_run(run_dir).to_dict()))
    return 0


def _cmd_sweep(args) -> int:
    raw = _load_raw(args)
    raw.setdefault("sampler", "trf")
    runs, summary_path = run_sweep(ExperimentConfig.from_dict(raw))
    for run in runs:
        shown = ", ".join(f"{k}={v}" for k, v in run["params"].items())
        print(f"{run['dir']}: {shown}")
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
    p.set_defaults(func=_cmd_run, sampler="forward")

    p = sub.add_parser("trf", help="fused bounded generation between start and end frames")
    _add_common(p)
    p.set_defaults(func=_cmd_run, sampler="trf")

    p = sub.add_parser("baseline", help="single-path baselines for comparison")
    p.add_argument("--kind", choices=("interp", "inpaint"), default="interp")
    _add_common(p)
    p.set_defaults(func=_cmd_run)

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
