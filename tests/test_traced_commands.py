"""Every command reaches the layers the benchmark's tracer wraps.

``perfbench/tracing.Tracer`` patches the module globals under which trflab
looks its functions up. A command that reached a sampler or a harness
function through a reference taken earlier (a table filled at import, a
default bound into the cached parser) would run untraced, and the
benchmark's per-layer counts for it would read 0 while its metric names
stayed intact.
"""

import json
import os

import pytest

from trflab import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_LAYERS = ("harness.config", "harness.run_experiment", "harness.export_tensor",
              "harness.manifest_save")
#: Each command's arguments and the layers that must record calls.
COMMANDS = {
    "sample": (["sample"], ("sampler.sample", *RUN_LAYERS)),
    "trf": (["trf"], ("trf.trf_sample", "trf.fuse", *RUN_LAYERS)),
    "interp": (["baseline", "--kind", "interp"],
               ("trf.baseline_condition_interp", "denoiser.predict_x0.perframe", *RUN_LAYERS)),
    "inpaint": (["baseline", "--kind", "inpaint"], ("trf.baseline_inpaint", *RUN_LAYERS)),
    "train": (["train"], ("train.forward", "train.backward", "train.adam_step", "train.edm_loss_terms",
                          "train.checkpoint", "harness.config")),
    "sweep": (["sweep", "--set", 'sweep={"m_reinject":[0,1]}'], ("trf.trf_sample", *RUN_LAYERS)),
}


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_layers_record_calls(tmp_path, tracer, name):
    argv, layers = COMMANDS[name]
    config = tmp_path / "gp.json"
    config.write_text(json.dumps({
        "world": {"kind": "gp", "a": 0.5, "q": 0.3, "dim": 1, "n_frames": 4},
        "schedule": {"n_steps": 5}, "conditions": {"start": [1.0], "end": [0.5]},
        "train": {"n_steps": 5, "batch_size": 4, "hidden": 8},
    }))
    tracer.active = True
    try:
        rc = cli.main(argv + ["--config", str(config), "--out", str(tmp_path / "out")])
    finally:
        tracer.active = False
    assert rc == 0
    assert {layer: tracer.calls[layer] for layer in ("cli.main", *layers) if tracer.calls[layer] == 0} == {}
