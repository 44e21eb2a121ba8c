"""trflab benchmark: users' CLI commands, timed end to end, with correctness checks.

    python3 perfbench/run.py --workload gp-bounded --seed 1 --seconds 40 --trace 0

Run from the repository root (the package is imported from ``src/``). Each
run is one closed-loop client issuing ``trflab`` commands back to back
through ``trflab.cli.main``, the function the ``trflab`` script calls.

``--trace 0`` measures the end-to-end metrics: experiments (one sampling
command each) are issued until ``--seconds`` have passed and at least 100
have completed. ``--trace 1`` runs a fixed plan twice, untraced and then
with every trflab module wrapped by ``tracing.Tracer``, and reports the
per-layer metrics of the traced pass; the ratio of the two passes'
throughputs is the tracing overhead.

Every command and every correctness check counts as one attempted
operation, and a failure of either counts as one failed operation; the run
carries on after a failure. Human-readable lines come first; the last line
of standard output is the JSON result.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

from workloads import BLOB, FULL, GP, WORKLOADS, make_plan

#: BLAS / OpenMP threads; one thread keeps runs on a shared machine steady.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: GP endpoint error bound: the fused sampler lands within ~5e-4.
GP_ENDPOINT_LIMIT = 1e-2

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")


def _prepare_imports():
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    # One client on one core, the highest-numbered one allowed (CPU 0 takes
    # most interrupts). On a shared 2-vCPU VM this halved the run-to-run
    # spread of throughput against letting the process migrate.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(SRC, "trflab", "cli.py")):
        raise FileNotFoundError(f"trflab sources not found under {SRC}; run from a checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


@dataclass
class PassResult:
    """What one pass over a plan measured and checked."""

    experiment_s: list = field(default_factory=list)
    chains: int = 0
    train_s: float | None = None
    train_steps: int = 0
    train_loss_final: float | None = None
    endpoint_errors: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def op(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)

    @property
    def chains_per_s(self) -> float:
        total = sum(self.experiment_s)
        return self.chains / total if total > 0 else 0.0


class Runner:
    """Issues CLI commands for one plan and checks their outputs."""

    def __init__(self, plan, workdir: str, tracer=None):
        from trflab import cli

        self.cli = cli
        self.plan = plan
        self.workdir = workdir
        self.tracer = tracer

    def command(self, argv) -> tuple[int, float]:
        """Run one CLI command; returns (exit code, wall seconds)."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        if self.tracer is not None:
            self.tracer.active = True
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc = -1
            err.write(traceback.format_exc())
        finally:
            if self.tracer is not None:
                self.tracer.active = False
        dt = time.perf_counter() - t0
        if rc != 0:
            print(f"command {' '.join(argv)}: {err.getvalue().strip()}", file=sys.stderr)
        return rc, dt

    def check(self, res: PassResult, what: str, fn):
        """One correctness check: ``fn`` returns truthy on success or raises."""
        try:
            ok = bool(fn())
        except Exception as exc:
            ok = False
            what = f"{what}: {type(exc).__name__}: {exc}"
        res.op(ok, what)

    def train(self, res: PassResult, tag: str):
        import numpy as np
        from trflab.train import load_checkpoint

        plan = self.plan
        rc, dt = self.command(plan.train_argv)
        res.op(rc == 0, f"train exited {rc}")
        if rc != 0:
            return
        res.train_s = dt
        res.train_steps = plan.train_steps

        def loss_finite():
            path = os.path.join(plan.train_dir, "loss_curve.csv")
            loss = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1]
            res.train_loss_final = float(loss[-50:].mean())
            # load_checkpoint rejects non-finite weights.
            load_checkpoint(os.path.join(plan.train_dir, "checkpoint.trfw"))
            return loss.size == plan.train_steps and np.all(np.isfinite(loss))

        self.check(res, f"{tag} blob loss and weights finite", loss_finite)

    def experiment(self, res: PassResult, i: int, tag: str):
        """Issue experiment ``i``, check it, and return its fingerprint."""
        from trflab.harness import MANIFEST_NAME, ExperimentManifest

        out_dir = os.path.join(self.workdir, f"{tag}-{i:04d}")
        label, argv = self.plan.experiment(i, out_dir)
        rc, dt = self.command(argv)
        res.op(rc == 0, f"{label} experiment {i} exited {rc}")
        if rc != 0:
            return None
        res.experiment_s.append(dt)
        res.chains += self.plan.seeds_per_experiment
        what = f"{tag} {label} experiment {i}"
        try:
            manifest = ExperimentManifest.load(os.path.join(out_dir, MANIFEST_NAME))
        except (OSError, ValueError, KeyError) as exc:
            res.op(False, f"{what}: manifest unreadable: {exc}")
            return None
        self.check_run_dir(res, out_dir, manifest, label, what)
        shutil.rmtree(out_dir, ignore_errors=True)
        return argv, manifest.fingerprint()

    def check_run_dir(self, res: PassResult, out_dir, manifest, label, what):
        from trflab.harness import evaluate_run, load_tensor

        self.check(res, f"{what}: evaluate_run reproduces the manifest metrics",
                   lambda: evaluate_run(out_dir).to_dict() == manifest.metrics.to_dict())
        if label != "trf":
            return
        err = manifest.metrics.value("endpoint_error_median")
        res.endpoint_errors.append(err)
        if self.plan.workload == GP:
            self.check(res, f"{what}: GP endpoint error {err:.3g} < {GP_ENDPOINT_LIMIT}",
                       lambda: err < GP_ENDPOINT_LIMIT)
        if self.plan.workload == BLOB:
            import numpy as np

            self.check(res, f"{what}: blob outputs finite", lambda: all(
                np.all(np.isfinite(load_tensor(os.path.join(out_dir, name))))
                for name in manifest.outputs))

    def repeat(self, res: PassResult, first, tag: str):
        """Rerun the pass's first experiment; its fingerprint must match bit for bit."""
        from trflab.harness import MANIFEST_NAME, ExperimentManifest

        argv, fingerprint = first
        out_dir = os.path.join(self.workdir, f"{tag}-repeat")
        rc, _ = self.command(argv[:-1] + [out_dir])
        res.op(rc == 0, f"repeat exited {rc}")
        if rc == 0:
            self.check(res, f"{tag} rerun reproduces fingerprint {fingerprint[:12]}",
                       lambda: ExperimentManifest.load(
                           os.path.join(out_dir, MANIFEST_NAME)).fingerprint() == fingerprint)
        shutil.rmtree(out_dir, ignore_errors=True)

    def run_pass(self, tag: str, seconds: float, n_experiments: int) -> PassResult:
        """Train (blob only), then issue experiments until at least
        ``n_experiments`` are done and ``seconds`` have passed."""
        res = PassResult()
        t0 = time.perf_counter()
        if self.plan.train_argv is not None:
            self.train(res, tag)
        first = None
        i = 0
        while i < n_experiments or time.perf_counter() - t0 < seconds:
            done = self.experiment(res, i, tag)
            first = first or done
            i += 1
        if first is not None:
            self.repeat(res, first, tag)
        return res


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def measure_setup(workload: str, seed: int, repeats: int) -> list[float]:
    """Wall time of fresh interpreters that import trflab and write the workload's configs."""
    times = []
    for k in range(repeats):
        workdir = os.path.join(OUT_ROOT, f"setup-{os.getpid()}-{k}")
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-only",
                        "--workload", workload, "--seed", str(seed), "--workdir", workdir],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(workdir, ignore_errors=True)
    return times


def setup_only(workload: str, seed: int, workdir: str):
    import trflab.cli  # noqa: F401  (numpy and scipy come with it)

    make_plan(workload, seed, workdir, FULL[workload])


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        blas = "unknown"
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "trflab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        "blas_threads": BLAS_THREADS, "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "git_commit": commit, "src_sha256": src.hexdigest(),
    }


def end_to_end_metrics(res: PassResult, setup_times: list[float]) -> dict:
    n = len(res.experiment_s)
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "chains_per_s": (res.chains_per_s, "1/s", res.chains),
        "experiment_s_p50": (statistics.median(res.experiment_s) if n else 0.0, "s", n),
        "experiment_s_p90": (_p90(res.experiment_s) if n else 0.0, "s", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB", 1),
        "endpoint_err_median": (statistics.median(res.endpoint_errors) if res.endpoint_errors else 0.0,
                                "1", len(res.endpoint_errors)),
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """One benchmark run; prints the human-readable report and returns the result."""
    from tracing import Tracer

    sizes = sizes or FULL[workload]
    workdir = os.path.join(OUT_ROOT, f"{workload}-s{seed}-p{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        plan = make_plan(workload, seed, os.path.join(workdir, "inputs"), sizes)
        if not trace:
            setup_times = measure_setup(workload, seed, sizes.setup_repeats)
            res = Runner(plan, workdir).run_pass("e2e", seconds, sizes.min_experiments)
            table = end_to_end_metrics(res, setup_times)
            passes = [res]
        else:
            plain = Runner(plan, workdir).run_pass("plain", 0, sizes.trace_experiments)
            tracer = Tracer()
            tracer.install()
            try:
                traced = Runner(plan, workdir, tracer).run_pass("traced", 0, sizes.trace_experiments)
            finally:
                tracer.uninstall()
            table = {name: (value, unit, None) for name, (value, unit) in tracer.metrics().items()}
            train_rate = plain.train_steps / plain.train_s if plain.train_s else 0.0
            table["train.steps_per_s"] = (train_rate, "1/s", plain.train_steps)
            table["train.loss_final"] = (plain.train_loss_final or 0.0, "1", min(plain.train_steps, 50))
            ratio = traced.chains_per_s / plain.chains_per_s if plain.chains_per_s else 0.0
            table["tracing.chains_per_s_ratio"] = (ratio, "ratio", None)
            passes = [plain, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"workload {workload}  seed {seed}  {'traced' if trace else 'end-to-end'}")
    for name, (value, unit, n) in table.items():
        shown = f"{name:44s} {value:14.6g} {unit}"
        print(shown + (f"  (n={n})" if n is not None else ""))
    print(f"{'failed_frac':44s} {failed / max(attempted, 1):14.6g} 1  ({failed} of {attempted} operations)")
    if not trace and res.train_s and res.train_loss_final is not None:
        print(f"{'train_steps_per_s':44s} {res.train_steps / res.train_s:14.6g} 1/s  (n={res.train_steps})")
        print(f"{'train_loss_final':44s} {res.train_loss_final:14.6g} 1  (last 50 steps)")
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in table.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        _prepare_imports()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        setup_only(args.workload, args.seed, args.workdir)
        return 0
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
