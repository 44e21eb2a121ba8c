"""Smoke tests for the narrative scripts in demos/.

The two analytic demos run end to end on a few seeds; the blob-training
demo trains for about 40 s, so it is only imported.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trflab

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(trflab.__file__).resolve().parent.parent


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(DEMOS / script), *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script, seeds, written", [
    ("fused_inbetweening.py", 3, {"fused.csv", "forward.csv", "interp.csv"}),
    ("mode_exploration.py", 6, None),
])
def test_demo_runs(tmp_path, script, seeds, written):
    out = tmp_path / "out"
    proc = _run(script, "--seeds", str(seeds), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert f"to {out}/" in proc.stdout
    names = set(os.listdir(out))
    if written is None:
        assert names and all(n.startswith("route_") and n.endswith(".csv") for n in names)
    else:
        assert names == written


def test_blob_training_imports():
    spec = importlib.util.spec_from_file_location("blob_training", DEMOS / "blob_training.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
