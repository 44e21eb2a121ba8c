"""The batch contract: B chains on a (B, N, d) latent, one RngStream per seed.

Row i of a batched run must be the run of seed i alone: bit for bit on the
analytic backends, whose per-row arithmetic does not depend on the batch,
and within 1e-12 on the MLP, whose matrix products may block rows
differently. The harness batches the seeds of a command, so a seed's output
file must not depend on which other seeds ran with it.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from trflab.cli import main
from trflab.core import RngBatch, RngStream, normal_rows
from trflab.denoiser import AnalyticGaussianBackend, AnalyticGmmBackend, Condition
from trflab.sampler import StepTrace, churn_perturb, sample
from trflab.schedule import ChurnParams, build_karras
from trflab.train import ArchDescriptor, MlpBackend, init_params
from trflab.trf import TrfConfig, alpha_weights, baseline_condition_interp, baseline_inpaint, trf_sample
from trflab.worlds import PinnedGaussianProcessWorld, TrajectoryGmmWorld

from helpers import DrawLog, FrameReversedRng

SEEDS = list(range(100, 116))


def _gp():
    world = PinnedGaussianProcessWorld(a=1.0, q=0.3, dim=2, n_frames=6)
    return AnalyticGaussianBackend(world), np.array([-1.0, 0.0]), np.array([1.0, 0.5])


def _gmm():
    world = TrajectoryGmmWorld.arcs(n_frames=6, tau=0.1)
    return AnalyticGmmBackend(world), np.array([-1.0, 0.0]), np.array([1.0, 0.0])


def _mlp():
    arch = ArchDescriptor(n_frames=6, frame_dim=2, hidden=32, sigma_data=0.5)
    return MlpBackend(init_params(arch, RngStream(0))), np.array([-1.0, 0.0]), np.array([1.0, 0.5])


BACKENDS = {"gp": _gp, "gmm": _gmm, "mlp": _mlp}
KINDS = ("sample", "trf", "interp", "inpaint")
#: The kinds whose traces carry diagnostics; the baselines' carry the levels.
DIAGNOSED = ("sample", "trf")


def _run(kind, backend, start, end, rng):
    """Output and 12-record trace of one sampler kind, with diagnostics where it has them."""
    sched = build_karras(12, 0.01, 20.0)
    c_s = Condition(start)
    c_e = Condition(end)
    churn = ChurnParams()
    if kind == "sample":
        return sample(backend, sched, c_s, churn, rng, diagnostics=True)
    if kind == "trf":
        cfg = TrfConfig(alpha=alpha_weights("linear", 6), m_reinject=2)
        return trf_sample(backend, sched, c_s, c_e, churn, cfg, rng, diagnostics=True)
    if kind == "interp":
        return baseline_condition_interp(backend, sched, c_s, c_e, churn, rng)
    return baseline_inpaint(backend, sched, c_s, c_e, churn, rng)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_batch_rows_match_batch_of_one(name, kind):
    backend, start, end = BACKENDS[name]()
    x, trace = _run(kind, backend, start, end, RngBatch.from_seeds(SEEDS))
    assert x.shape == (len(SEEDS), 6, 2)
    assert isinstance(trace, StepTrace) and len(trace) == 12
    for i, seed in enumerate(SEEDS):
        x1, trace1 = _run(kind, backend, start, end, RngBatch.from_seeds([seed]))
        assert x1.shape == (1, 6, 2)
        assert isinstance(trace1, StepTrace) and len(trace1) == 12
        for rec, rec1 in zip(trace.records, trace1.records):
            assert (rec.t, rec.sigma, rec.sigma_hat, rec.fusions) == \
                (rec1.t, rec1.sigma, rec1.sigma_hat, rec1.fusions)
            if kind in DIAGNOSED and name != "mlp":
                assert rec.latent_hash[i] == rec1.latent_hash[0]
                assert rec.denoised_hash[i] == rec1.denoised_hash[0]
        if name == "mlp":
            np.testing.assert_allclose(x[i], x1[0], rtol=0, atol=1e-12)
        else:
            np.testing.assert_array_equal(x[i], x1[0])


#: SHA-256 over the outputs and traces of test_mixture_outputs_are_pinned.
MIXTURE_DIGEST = "f5e26c5bbefaa31d03fdb3b5aab8e8e916b6fbfbdf67ddc7320db2197c63693a"
#: SHA-256 over the outputs and traces of test_gaussian_outputs_are_pinned.
GAUSSIAN_DIGEST = "bf9eddc3248e63210e8c9039d8f3c487685146cb7cdd0b406f0fc3327ee3736d"


def _pinned_digest(backend, c_s, c_e):
    """SHA-256 over the outputs and traces of sample and trf with m = 0 and 2,
    and over the outputs of both baselines, each run on a 4-seed batch over
    12 levels."""
    sched = build_karras(12, 0.01, 20.0)
    seeds = [100, 101, 102, 103]
    churn = ChurnParams()
    runs = [sample(backend, sched, c_s, churn, RngBatch.from_seeds(seeds), diagnostics=True)]
    for m in (0, 2):
        cfg = TrfConfig(alpha=alpha_weights("linear", 6), m_reinject=m)
        runs.append(trf_sample(backend, sched, c_s, c_e, churn, cfg, RngBatch.from_seeds(seeds),
                               diagnostics=True))
    for baseline in (baseline_condition_interp, baseline_inpaint):
        runs.append((baseline(backend, sched, c_s, c_e, churn, RngBatch.from_seeds(seeds))[0], None))
    digest = hashlib.sha256()
    for x, trace in runs:
        assert x.shape == (4, 6, 2) and x.dtype == np.float64
        digest.update(np.ascontiguousarray(x).tobytes())
        if trace is not None:
            digest.update(trace.to_json_lines().encode())
    return digest.hexdigest()


def test_mixture_outputs_are_pinned():
    # Endpoints far apart, so under each endpoint the other direction's
    # routes have weight exactly 0, while the interpolated conditions near
    # the middle weigh all six routes.
    world = TrajectoryGmmWorld.arcs(n_frames=6, start=(-3.0, 0.0), end=(3.0, 0.0), tau=0.1)
    backend = AnalyticGmmBackend(world)
    c_s, c_e = Condition(np.array([-3.0, 0.0])), Condition(np.array([3.0, 0.0]))
    assert [np.count_nonzero(world.posterior_component_weights(c)) for c in (c_s, c_e)] == [3, 3]
    assert _pinned_digest(backend, c_s, c_e) == MIXTURE_DIGEST


def test_gaussian_outputs_are_pinned():
    backend, start, end = _gp()
    assert _pinned_digest(backend, Condition(start), Condition(end)) == GAUSSIAN_DIGEST


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_batch_of_one_matches_single_stream(name, kind):
    backend, start, end = BACKENDS[name]()
    for seed in SEEDS[:3]:
        xb, trace_b = _run(kind, backend, start, end, RngBatch.from_seeds([seed]))
        xs, trace_s = _run(kind, backend, start, end, RngStream(seed))
        assert xs.shape == (6, 2)
        np.testing.assert_allclose(xb[0], xs, rtol=0, atol=1e-12)
        assert trace_b.total_fusions == trace_s.total_fusions
        if kind in DIAGNOSED:
            assert isinstance(trace_s.records[0].latent_hash, str)
            assert len(trace_b.records[0].latent_hash) == 1


@pytest.mark.parametrize("kind,bad", [(kind, bad) for kind in KINDS for bad in ("start", "end")
                                      if kind != "sample" or bad == "start"])
@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_a_condition_of_another_dimension_fails_before_any_draw_or_prediction(name, kind, bad):
    backend, start, end = BACKENDS[name]()
    predictions, draws = [], []
    predict_x0 = backend.predict_x0
    backend.predict_x0 = lambda *args: predictions.append(args) or predict_x0(*args)
    frames = {"start": start, "end": end, bad: np.zeros(3)}
    with pytest.raises(ValueError) as err:
        _run(kind, backend, frames["start"], frames["end"], DrawLog(RngBatch.from_seeds(SEEDS[:2]), draws))
    assert str(err.value) == "condition has dimension 3, but the backend's frames have dimension 2"
    assert predictions == [] and draws == []


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
    """Wraps a backend; puts a NaN into row ``row`` (axis -3) of its
    prediction (the only sequence when unbatched) at every level up to
    ``sigma_bad``, in every slice of the condition axis."""

    def __init__(self, base, sigma_bad, row=0):
        self.base = base
        self.sigma_bad = sigma_bad
        self.row = row
        self.seq_shape = base.seq_shape

    def predict_x0(self, x, sigma, conds):
        out = self.base.predict_x0(x, sigma, conds)
        if sigma <= self.sigma_bad:
            for pred in out:
                pred[(..., self.row, 0, 0) if pred.ndim > 2 else (0, 0)] = np.nan
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
    loop = {"sample": "sample", "trf": "trf_sample", "interp": "baseline_condition_interp",
            "inpaint": "baseline_inpaint"}[kind]
    with pytest.raises(RuntimeError) as err:
        _run(kind, NanBelow(backend, sigma_bad, row=5), start, end, RngBatch.from_seeds(SEEDS))
    assert str(err.value) == (f"{loop}: non-finite latent after step t={t_bad} "
                              f"(sigma={sigma:.6g}) for seed {SEEDS[5]}")

    with pytest.raises(RuntimeError, match=f"t={t_bad} .*seed 42$"):
        _run(kind, NanBelow(backend, sigma_bad), start, end, RngStream(42))


def test_non_finite_latent_in_a_wrapped_batch_names_the_chain():
    # A wrapper around an RngBatch has no per-seed streams to name.
    backend, start, end = _gp()
    sigma_bad = 1.2 * build_karras(12, 0.01, 20.0).sigma_at(7)
    with pytest.raises(RuntimeError, match=r"t=7 .*for chain 5$"):
        _run("trf", NanBelow(backend, sigma_bad, row=5), start, end,
             FrameReversedRng(RngBatch.from_seeds(SEEDS)))


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
