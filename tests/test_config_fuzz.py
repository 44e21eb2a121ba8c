"""Config fuzzing: valid configs with one value or key mutated.

Parsing and building a mutated config either succeeds or raises a
ConfigError that names a config key or section; a CLI run of one exits 0,
or 1 without writing anything, and never 2.
"""

import contextlib
import copy
import io
import json
import os
import re
import tempfile

from hypothesis import given, settings, strategies as st

from trflab.cli import main
from trflab.harness import ConfigError, ExperimentConfig

GP = {
    "world": {"kind": "gp", "a": 0.5, "q": 0.3, "dim": 1, "n_frames": 4},
    "schedule": {"n_steps": 3, "sigma_max": 10.0},
    "churn": {"s_churn": 0.5, "s_tmax": 20.0},
    "sampler": "trf",
    "trf": {"m_reinject": 1, "t0": 1, "alpha_kind": "exponential", "alpha_lam": 2.0},
    "conditions": {"start": [1.0], "end": [0.5]},
    "seeds": [0, 1],
    "train": {"n_steps": 5, "batch_size": 4, "hidden": 8, "lr": 0.01},
    "sweep": {"m_reinject": [0, 1], "s_churn": [0.0, 0.5], "t0": [None, 2]},
}
GMM = {
    "world": {"kind": "gmm", "n_frames": 4, "start": [-1.0, 0.0], "end": [1.0, 0.0],
              "bulges": [0.5, -0.5], "tau": 0.2, "time_symmetric": False},
    "schedule": {"n_steps": 3, "sigma_min": 0.01, "rho": 5.0},
    "sampler": "baseline-inpaint",
    "conditions": {"start": [-1.0, 0.0], "end": [1.0, 0.0]},
}
BLOB = {
    "world": {"kind": "blob", "grid_size": 8, "bump_std": 1.0, "pixels_per_unit": 2.0,
              "origin": [0.0, 0.5], "trajectory": {"kind": "gmm", "n_frames": 3}},
    "backend": {"kind": "analytic"},
    "conditions": {"start": [-1.0, 0.0]},
}

VALUES = st.sampled_from([None, True, "x", [], {}, [0.5, "x"], -1, 0, 1, 2, 3, 0.5, -0.5,
                          1e-300, 1e-16, 1e300, float("nan"), float("inf"), -float("inf")])
# Every error names the config key or section it is about.
NAMED = re.compile(r"\b(world|backend|schedule|churn|sampler|trf|conditions|seeds|out_dir|train|sweep)")


def _paths(node, prefix=()):
    """Path of every dict key and list item under ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated(draw, bases):
    """A copy of one of ``bases`` with one value replaced, one key or item
    deleted, or one key renamed."""
    raw = copy.deepcopy(draw(st.sampled_from(bases)))
    *parent_path, key = draw(st.sampled_from(list(_paths(raw))))
    parent = raw
    for k in parent_path:
        parent = parent[k]
    op = draw(st.sampled_from(["set", "delete", "rename"]))
    if op == "delete":
        del parent[key]
    elif op == "rename" and isinstance(parent, dict):
        parent[f"{key}_x"] = parent.pop(key)
    else:
        parent[key] = draw(VALUES)
    return raw


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(mutated([GP, GMM, BLOB]))
def test_mutated_config_builds_or_raises_a_named_config_error(raw):
    try:
        cfg = ExperimentConfig.from_dict(raw)
        cfg.config_hash()
        cfg.build_train()
        cfg.build_run()
    except ConfigError as exc:
        assert NAMED.search(str(exc)), str(exc)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(mutated([GP, GMM]))
def test_mutated_config_run_exits_0_or_1_and_1_writes_nothing(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        out = os.path.join(tmp, "run")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["trf", "--config", path, "--out", out])
        assert rc in (0, 1), err.getvalue()
        if rc == 1:
            assert NAMED.search(err.getvalue()), err.getvalue()
            assert not os.path.exists(out)
