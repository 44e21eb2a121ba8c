"""The batch contract: B chains on a (B, N, d) latent, one RngStream per seed.

Row i of a batched run must be the run of seed i alone: bit for bit on the
analytic backends, whose per-row arithmetic does not depend on the batch,
and within 1e-12 on the MLP, whose matrix products may block rows
differently. The harness batches the seeds of a command, so a seed's output
file must not depend on which other seeds ran with it.
"""

import json
import os

import numpy as np
import pytest

from trflab import (
    AnalyticGaussianBackend,
    AnalyticGmmBackend,
    ArchDescriptor,
    ChurnParams,
    Condition,
    MlpBackend,
    PinnedGaussianProcessWorld,
    RngBatch,
    RngStream,
    TrajectoryGmmWorld,
    TrfConfig,
    alpha_weights,
    baseline_condition_interp,
    baseline_inpaint,
    build_karras,
    sample,
    trf_sample,
)
from trflab.cli import main
from trflab.core import normal_rows
from trflab.sampler import churn_perturb
from trflab.train import init_params

SEEDS = list(range(100, 116))


def _gp():
    world = PinnedGaussianProcessWorld(a=1.0, q=0.3, dim=2, n_frames=6)
    return AnalyticGaussianBackend(world), np.array([-1.0, 0.0]), np.array([1.0, 0.5])


def _gmm():
    world = TrajectoryGmmWorld.arcs(n_frames=6, tau=0.1)
    return AnalyticGmmBackend(world), np.array([-1.0, 0.0]), np.array([1.0, 0.0])


def _mlp():
    arch = ArchDescriptor(n_frames=6, frame_dim=2, cond_dim=2, hidden=32, sigma_data=0.5)
    return MlpBackend(init_params(arch, RngStream(0))), np.array([-1.0, 0.0]), np.array([1.0, 0.5])


BACKENDS = {"gp": _gp, "gmm": _gmm, "mlp": _mlp}
KINDS = ("sample", "trf", "interp", "inpaint")


def _run(kind, backend, start, end, rng):
    """Output and trace, with its diagnostics (None for the baselines), of one sampler kind."""
    sched = build_karras(12, 0.01, 20.0)
    c_s = Condition(start)
    c_e = Condition(end)
    if kind == "sample":
        return sample(backend, sched, c_s, ChurnParams(), rng, diagnostics=True)
    if kind == "trf":
        cfg = TrfConfig(alpha=alpha_weights("linear", 6), m_reinject=2)
        return trf_sample(backend, sched, c_s, c_e, cfg, rng, diagnostics=True)
    if kind == "interp":
        return baseline_condition_interp(backend, sched, c_s, c_e, rng), None
    return baseline_inpaint(backend, sched, c_s, end, rng), None


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_batch_rows_match_batch_of_one(name, kind):
    backend, start, end = BACKENDS[name]()
    x, trace = _run(kind, backend, start, end, RngBatch.from_seeds(SEEDS))
    assert x.shape == (len(SEEDS), 6, 2)
    for i, seed in enumerate(SEEDS):
        x1, trace1 = _run(kind, backend, start, end, RngBatch.from_seeds([seed]))
        assert x1.shape == (1, 6, 2)
        if name == "mlp":
            np.testing.assert_allclose(x[i], x1[0], rtol=0, atol=1e-12)
            continue
        np.testing.assert_array_equal(x[i], x1[0])
        if trace is not None:
            for rec, rec1 in zip(trace.records, trace1.records):
                assert rec.latent_hash[i] == rec1.latent_hash[0]
                assert rec.denoised_hash[i] == rec1.denoised_hash[0]
                assert rec.fusions == rec1.fusions


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_batch_of_one_matches_single_stream(name, kind):
    backend, start, end = BACKENDS[name]()
    for seed in SEEDS[:3]:
        xb, trace_b = _run(kind, backend, start, end, RngBatch.from_seeds([seed]))
        xs, trace_s = _run(kind, backend, start, end, RngStream(seed))
        assert xs.shape == (6, 2)
        np.testing.assert_allclose(xb[0], xs, rtol=0, atol=1e-12)
        if trace_s is not None:
            assert trace_b.total_fusions == trace_s.total_fusions
            assert isinstance(trace_s.records[0].latent_hash, str)
            assert len(trace_b.records[0].latent_hash) == 1


def test_churn_with_one_stream_draws_the_whole_latent():
    # A single stream on a 3-D latent gives every row its own noise; a
    # batch gives row i the (N, d) draw of seed i. The unit draws are the
    # first rows of the walk's churn tables.
    x = np.zeros((3, 4, 2))
    x_hat, _ = churn_perturb(x, 1.0, 1.0, 1.0, normal_rows(RngStream(7), 2, (3, 4, 2))[0])
    np.testing.assert_array_equal(x_hat, np.sqrt(3.0) * RngStream(7).normal((3, 4, 2)))
    assert not np.array_equal(x_hat[0], x_hat[1])
    batch = RngBatch.from_seeds([7, 8, 9])
    x_hat, _ = churn_perturb(x, 1.0, 1.0, 1.0, normal_rows(batch, 2, (4, 2))[0])
    for i, seed in enumerate([7, 8, 9]):
        np.testing.assert_array_equal(x_hat[i], np.sqrt(3.0) * RngStream(seed).normal((4, 2)))


@pytest.mark.parametrize("world", [
    {"kind": "gp", "a": 1.0, "q": 0.3, "dim": 2, "n_frames": 8},
    {"kind": "gmm", "n_frames": 8},
], ids=["gp", "gmm"])
@pytest.mark.parametrize("command", [["trf"], ["sample"], ["baseline", "--kind", "interp"],
                                     ["baseline", "--kind", "inpaint"]],
                         ids=["trf", "sample", "interp", "inpaint"])
def test_output_bytes_do_not_depend_on_the_seed_list(tmp_path, world, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "world": world, "schedule": {"n_steps": 10},
        "conditions": {"start": [-1.0, 0.0], "end": [1.0, 0.0]},
    }))
    assert main(command + ["--config", str(cfg), "--seeds", "3..9", "--out", str(tmp_path / "all")]) == 0
    for seed in (3, 6, 9):
        one = tmp_path / f"one{seed}"
        assert main(command + ["--config", str(cfg), "--seed", str(seed), "--out", str(one)]) == 0
        name = f"seed_{seed:04d}.trft"
        assert (one / name).read_bytes() == (tmp_path / "all" / name).read_bytes()


class NanBelow:
    """Wraps a backend; puts a NaN into row ``row`` of its prediction
    (the only sequence when unbatched) at every level up to ``sigma_bad``,
    in every slice of a condition-axis call."""

    def __init__(self, base, sigma_bad, row=0):
        self.base = base
        self.sigma_bad = sigma_bad
        self.row = row
        self.seq_shape = base.seq_shape

    def predict_x0(self, x, sigma, cond):
        out = self.base.predict_x0(x, sigma, cond)
        if sigma <= self.sigma_bad:
            for pred in (out,) if isinstance(cond, Condition) else out:
                (pred[self.row] if pred.ndim == 3 else pred)[0, 0] = np.nan
        return out


@pytest.mark.parametrize("kind", KINDS)
def test_non_finite_latent_names_sampler_step_and_seed(kind):
    backend, start, end = _gp()
    sched = build_karras(12, 0.01, 20.0)
    t_bad = 7
    sigma = sched.sigma_at(t_bad)
    # Churn lifts step t's level by under 5%; the ladder's ratio there is ~1.8,
    # so only steps t <= t_bad denoise at a level below 1.2 sigma_t.
    sigma_bad = 1.2 * sigma
    loop = {"sample": "sample", "trf": "trf_sample", "interp": "sample",
            "inpaint": "baseline_inpaint"}[kind]
    with pytest.raises(RuntimeError) as err:
        _run(kind, NanBelow(backend, sigma_bad, row=5), start, end, RngBatch.from_seeds(SEEDS))
    assert str(err.value) == (f"{loop}: non-finite latent after step t={t_bad} "
                              f"(sigma={sigma:.6g}) for seed {SEEDS[5]}")

    with pytest.raises(RuntimeError, match=f"t={t_bad} .*seed 42$"):
        _run(kind, NanBelow(backend, sigma_bad), start, end, RngStream(42))


def test_cli_exits_2_on_a_non_finite_latent(tmp_path, monkeypatch, capsys):
    from trflab import denoiser

    original = denoiser.AnalyticGaussianBackend.predict_x0

    def nan_late(self, x, sigma, cond):
        out = original(self, x, sigma, cond)
        return out * np.nan if sigma < 1.0 else out

    monkeypatch.setattr(denoiser.AnalyticGaussianBackend, "predict_x0", nan_late)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "world": {"kind": "gp", "dim": 2, "n_frames": 8}, "schedule": {"n_steps": 10},
        "conditions": {"start": [-1.0, 0.0], "end": [1.0, 0.0]},
    }))
    out = tmp_path / "run"
    assert main(["trf", "--config", str(cfg), "--seeds", "0..3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "RuntimeError: trf_sample: non-finite latent" in err and "seed 0" in err
    assert not os.path.exists(out / "manifest.json")
