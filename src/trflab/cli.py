"""Command-line front end: run samplers, train the toy denoiser, evaluate,
and sweep fusion hyperparameters. Each command is one call into
:mod:`trflab.harness`; this module parses arguments and prints results.

The sampling commands and ``sweep`` take a JSON config (--config), a seed
override (--seed N or --seeds A..B, inclusive, not both), an output
directory (--out), and dotted-path overrides (--set trf.m_reinject=3).
``train`` takes the same flags but one seed, its training seed: --seed N
sets train.seed. ``eval`` takes only --out, the run directory, or
--config, whose out_dir it then reads. Each subcommand's parser declares
exactly these flags, and is the only check of them: a usage error, such
as a flag the command does not take, is a config error. Exit codes: 0
success, 1 configuration error, 2 runtime error.
"""

import argparse
import functools
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are config errors (exit 1)."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _seed_range(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    if sep != ".." or not lo.isdigit() or not hi.isdigit() or int(lo) > int(hi):
        raise argparse.ArgumentTypeError(f"must be A..B with A <= B, got {text!r}")
    return list(range(int(lo), int(hi) + 1))


def _add_config_flags(p: argparse.ArgumentParser, seeds=True):
    """Add --config, --seed, --out and --set to ``p``, and with ``seeds``
    --seeds as the alternative to --seed; without, --seed sets train.seed."""
    p.add_argument("--config", required=True, help="JSON experiment config")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--seed", type=int, help="run a single seed" if seeds else "set train.seed")
    if seeds:
        group.add_argument("--seeds", type=_seed_range, help="run an inclusive seed range A..B")
    p.add_argument("--out", help="output directory (overrides config out_dir)")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="dotted-path config override, value read as the key's type")


def _load_raw(args) -> dict:
    raw = apply_overrides(read_raw_config(args.config), args.overrides)
    if args.command == "train":
        if args.seed is not None:
            apply_overrides(raw, [f"train.seed={args.seed}"])
    elif args.seed is not None or args.seeds is not None:
        raw["seeds"] = args.seeds or [args.seed]
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
    ckpt, curve = run_training(ExperimentConfig.from_dict(_load_raw(args)))
    print(f"wrote {ckpt}")
    print(f"  first-100-step mean loss {curve[:100].mean():.6g}")
    print(f"  last-100-step mean loss  {curve[-100:].mean():.6g}")
    return 0


def _cmd_eval(args) -> int:
    run_dir = args.out or (args.config and ExperimentConfig.from_file(args.config).data["out_dir"])
    print(canonical_json(evaluate_run(run_dir or ".").to_dict()))
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
    parser = _Parser(
        prog="trflab",
        description="Bounded sequence generation by fused forward/backward diffusion sampling.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="forward conditional sampling from the start frame")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_run, sampler="forward")

    p = sub.add_parser("trf", help="fused bounded generation between start and end frames")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_run, sampler="trf")

    p = sub.add_parser("baseline", help="single-path baselines for comparison")
    p.add_argument("--kind", choices=("interp", "inpaint"), default="interp")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("train", help="train the MLP denoiser on a world")
    _add_config_flags(p, seeds=False)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="recompute metrics for a completed run directory")
    p.add_argument("--config", help="JSON experiment config; the run is read from its out_dir")
    p.add_argument("--out", help="run directory (overrides the config's out_dir)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="grid over fusion hyperparameters (m_reinject, t0, alpha_kind, s_churn)")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args, rest = build_parser().parse_known_args(argv)
        if rest:
            raise ConfigError(f"trflab {args.command} takes no {rest[0]}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures map to a distinct exit code
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
