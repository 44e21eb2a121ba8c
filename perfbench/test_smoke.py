"""Smoke test of the benchmark at tiny sizes, so it cannot rot.

Runs every workload through both the plain and the traced path with a few
2-seed experiments and a handful of training steps, and checks that each
run is correct and reports exactly the metrics BENCHMARK.json names.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS, Sizes, make_plan

# Four experiments cover every command of the gmm-mixed cycle.
TINY = Sizes(seeds_per_experiment=2, min_experiments=4, train_steps=5,
             trace_experiments=4, setup_repeats=1)

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace, monkeypatch):
    monkeypatch.syspath_prepend(run.SRC)
    result = run.run_benchmark(workload, seed=3, seconds=0, trace=trace, sizes=TINY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    json.dumps(result, allow_nan=False)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_inputs_come_from_the_workload_seed(tmp_path):
    def configs(seed, sub):
        plan = make_plan("gmm-mixed", seed, str(tmp_path / sub), TINY)
        with open(plan.cycle[0][1][-1]) as fh:
            return fh.read(), plan.seed_base

    assert configs(5, "a") == configs(5, "b")
    assert configs(5, "a") != configs(6, "c")


def test_fails_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gp-bounded",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
