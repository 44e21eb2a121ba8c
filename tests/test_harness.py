"""Config validation, file formats, run orchestration, and the CLI contract."""

import dataclasses
import json
import os
import pathlib
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from trflab.cli import main
from trflab.core import RngStream
from trflab.harness import (
    ConfigError,
    ExperimentConfig,
    ExperimentManifest,
    apply_overrides,
    evaluate_run,
    export_frames_pgm,
    export_tensor,
    export_trajectory_csv,
    load_tensor,
    load_trajectory_csv,
    run_experiment,
    sha256_file,
)
from trflab.schedule import ChurnParams
from trflab.train import ArchDescriptor, TrainConfig, init_params, save_checkpoint
from trflab.worlds import MovingBlobWorld, PinnedGaussianProcessWorld

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: SHA-256 of the summary.json that test_sweep_grid's 2 x 2 grid writes.
SWEEP_SUMMARY_SHA256 = "ec888e4c884d4e5cadbe7ab2ec38d11068348c9e15932b6324eff0f2fc9a6901"


def gp_raw(**extra):
    raw = {
        "world": {"kind": "gp", "a": 0.5, "q": 0.3, "dim": 1, "n_frames": 4},
        "schedule": {"n_steps": 5},
        "conditions": {"start": [1.0], "end": [0.5]},
        "seeds": [0],
    }
    raw.update(extra)
    return raw


class TestConfigValidation:
    def test_unknown_keys_rejected_with_full_path(self):
        with pytest.raises(ConfigError, match="mothion_id"):
            ExperimentConfig.from_dict(gp_raw(mothion_id=3))
        with pytest.raises(ConfigError, match="world.qq"):
            ExperimentConfig.from_dict({"world": {"kind": "gp", "qq": 1}})
        with pytest.raises(ConfigError, match="schedule.steps"):
            ExperimentConfig.from_dict({"world": {"kind": "gp"}, "schedule": {"steps": 5}})
        with pytest.raises(ConfigError, match="trf.alpha"):
            ExperimentConfig.from_dict({"world": {"kind": "gp"}, "trf": {"alpha": "linear"}})

    def test_missing_world(self):
        with pytest.raises(ConfigError, match="'world'"):
            ExperimentConfig.from_dict({"seeds": [0]})

    def test_type_errors_name_key(self):
        with pytest.raises(ConfigError, match="schedule.n_steps"):
            ExperimentConfig.from_dict(gp_raw(schedule={"n_steps": "25"}))
        with pytest.raises(ConfigError, match="world.a"):
            ExperimentConfig.from_dict({"world": {"kind": "gp", "a": True}})
        with pytest.raises(ConfigError, match="'churn.s_tmax' must be a finite number, got inf"):
            ExperimentConfig.from_dict(gp_raw(churn={"s_tmax": float("inf")}))
        with pytest.raises(ConfigError, match=r"'conditions.start\[0\]' must be a finite number"):
            ExperimentConfig.from_dict(gp_raw(conditions={"start": [float("nan")]}))
        with pytest.raises(ConfigError, match="seeds"):
            ExperimentConfig.from_dict(gp_raw(seeds=[-1]))
        with pytest.raises(ConfigError, match=r"seeds\[1\]"):
            ExperimentConfig.from_dict(gp_raw(seeds=[0, 0, 1]))
        with pytest.raises(ConfigError, match="seeds"):
            ExperimentConfig.from_dict(gp_raw(seeds=[]))
        # Seeds lie in [0, 2**63), the signed 64-bit range: 2**63 is past
        # it, and 2**64 would also wrap to seed 0's streams.
        for raw, key in ((gp_raw(seeds=[2 ** 64]), r"seeds\[0\]"),
                         (gp_raw(seeds=[0, 2 ** 63]), r"seeds\[1\]"),
                         (gp_raw(train={"seed": -1}), "train.seed"),
                         (gp_raw(train={"seed": 2 ** 63}), "train.seed"),
                         (gp_raw(train={"seed": 1.0}), "train.seed")):
            with pytest.raises(ConfigError, match=rf"'{key}' must be an integer in \[0, 2\*\*63\)"):
                ExperimentConfig.from_dict(raw)
        top = ExperimentConfig.from_dict(gp_raw(seeds=[2 ** 63 - 1], train={"seed": 2 ** 63 - 1}))
        assert top.data["seeds"] == [top.build_train().seed] == [2 ** 63 - 1]
        # One run takes at most 2**16 seeds, far above any batch this lab runs.
        assert len(ExperimentConfig.from_dict(gp_raw(seeds=list(range(2 ** 16)))).data["seeds"]) == 2 ** 16
        with pytest.raises(ConfigError, match="'seeds' must be a list of 1 to 65536 integers"):
            ExperimentConfig.from_dict(gp_raw(seeds=list(range(2 ** 16 + 1))))

    def test_choice_errors(self):
        with pytest.raises(ConfigError, match="sampler"):
            ExperimentConfig.from_dict(gp_raw(sampler="sideways"))
        with pytest.raises(ConfigError, match="trf.alpha_kind"):
            ExperimentConfig.from_dict(gp_raw(trf={"alpha_kind": "cubic"}))
        with pytest.raises(ConfigError, match="world.kind"):
            ExperimentConfig.from_dict({"world": {"kind": "video"}})

    def test_defaults_applied(self):
        cfg = ExperimentConfig.from_dict({"world": {"kind": "gp"}})
        assert cfg.data["schedule"] == {"n_steps": 25, "sigma_min": 0.002,
                                        "sigma_max": 80.0, "rho": 7.0}
        assert cfg.data["churn"]["s_churn"] == 0.5
        assert cfg.data["sampler"] == "forward"
        assert cfg.data["trf"]["m_reinject"] == 2
        assert cfg.data["trf"]["t0"] is None
        assert cfg.data["seeds"] == [0]
        assert cfg.data["world"]["a"] == 1.0
        assert cfg.data["churn"] == dataclasses.asdict(ChurnParams())
        assert cfg.data["train"] == dataclasses.asdict(TrainConfig())
        # An explicit null means the same as leaving an optional key out.
        nulls = {"world": {"kind": "gp"}, "trf": {"t0": None}, "conditions": None,
                 "out_dir": None, "sweep": None}
        assert ExperimentConfig.from_dict(nulls).data == cfg.data

    def test_blob_world_requires_trajectory(self):
        with pytest.raises(ConfigError, match="world.trajectory"):
            ExperimentConfig.from_dict({"world": {"kind": "blob"}})
        with pytest.raises(ConfigError, match="world.trajectory"):
            ExperimentConfig.from_dict(
                {"world": {"kind": "blob", "trajectory": {"kind": "blob"}}})

    def test_sweep_validation(self):
        with pytest.raises(ConfigError, match="sweep.gamma"):
            ExperimentConfig.from_dict(gp_raw(sweep={"gamma": [1]}))
        with pytest.raises(ConfigError, match="sweep.t0"):
            ExperimentConfig.from_dict(gp_raw(sweep={"t0": []}))
        with pytest.raises(ConfigError, match=r"sweep.m_reinject\[1\]"):
            ExperimentConfig.from_dict(gp_raw(sweep={"m_reinject": [0, "x"]}))

    def test_build_world_and_conditions(self):
        cfg = ExperimentConfig.from_dict(gp_raw())
        world = cfg.build_world()
        assert isinstance(world, PinnedGaussianProcessWorld)
        assert world.seq_shape == (4, 1)
        c_s, c_e = cfg.build_conditions(world)
        np.testing.assert_array_equal(c_s.frame, [1.0])
        np.testing.assert_array_equal(c_e.frame, [0.5])
        with pytest.raises(ConfigError, match="dimension"):
            ExperimentConfig.from_dict(
                gp_raw(conditions={"start": [1.0, 2.0]})).build_conditions(world)

    def test_blob_conditions_rendered_from_positions(self):
        raw = {
            "world": {"kind": "blob",
                      "trajectory": {"kind": "gmm", "n_frames": 4, "tau": 0.05}},
            "conditions": {"start": [-1.1, 0.1], "end": [1.0, 0.0]},
        }
        cfg = ExperimentConfig.from_dict(raw)
        world = cfg.build_world()
        assert isinstance(world, MovingBlobWorld)
        c_s, _ = cfg.build_conditions(world)
        assert c_s.frame.shape == (256,)
        # (-1.1, 0.1) lands exactly on pixel (2, 8); the bump peak is 1 there.
        assert c_s.frame.reshape(16, 16)[2, 8] == pytest.approx(1.0)

    def test_analytic_backend_dispatch(self):
        gp_cfg = ExperimentConfig.from_dict(gp_raw())
        assert gp_cfg.build_backend(gp_cfg.build_world()).seq_shape == (4, 1)
        gmm_cfg = ExperimentConfig.from_dict({"world": {"kind": "gmm", "n_frames": 4}})
        assert gmm_cfg.build_backend(gmm_cfg.build_world()).seq_shape == (4, 2)
        blob_cfg = ExperimentConfig.from_dict(
            {"world": {"kind": "blob", "trajectory": {"kind": "gmm", "n_frames": 4}}})
        with pytest.raises(ConfigError, match="checkpoint"):
            blob_cfg.build_backend(blob_cfg.build_world())

    def test_hash_ignores_key_order_but_not_values(self):
        a = ExperimentConfig.from_dict(gp_raw())
        reordered = json.loads(json.dumps(gp_raw()))
        reordered["world"] = dict(reversed(list(reordered["world"].items())))
        b = ExperimentConfig.from_dict(reordered)
        assert a.config_hash() == b.config_hash()
        c = ExperimentConfig.from_dict(gp_raw(seeds=[1]))
        assert a.config_hash() != c.config_hash()


# Normalized configs are echoed into manifests and hashed into fingerprints,
# so their hashes must not move. "sweep", "start-only" and the benchmark
# workload configs at workload seed 5 (paths replaced) are pinned as well.
PINNED = {
    "gp": ({"world": {"kind": "gp"}},
           "405111aa3e699182f08a03301dbe48aeb93ad796a69750163b6a546f11fd7e63"),
    "gmm": ({"world": {"kind": "gmm"}},
            "697775e6a6dd7b33556d87a466265e679b2e680d1353faa75682963874fd2058"),
    "blob-checkpoint": (
        {"world": {"kind": "blob", "grid_size": 12, "origin": [0, 1],
                   "trajectory": {"kind": "gmm", "n_frames": 5, "bulges": [1, -1]}},
         "backend": {"kind": "checkpoint", "path": "x.trfw"},
         "conditions": {"start": [-1, 0], "end": [1, 0]},
         "train": {"n_steps": 30, "lr": 0.01, "hidden": 8}, "out_dir": "o"},
        "96f225c8c439ab3c33361de5134b1c59d8c011cdb5d11d42d72b01f82d6b9f57"),
    "sweep": (
        {"world": {"kind": "gp", "a": 0.5, "q": 0.3, "dim": 1, "n_frames": 4},
         "schedule": {"n_steps": 5, "sigma_max": 10}, "sampler": "trf",
         "conditions": {"start": [1.0], "end": [0.5]}, "seeds": [0, 3],
         "churn": {"s_churn": 1, "s_tmax": 20},
         "trf": {"t0": 2, "alpha_kind": "exponential", "alpha_lam": 3},
         "sweep": {"m_reinject": [0, 2], "s_churn": [0, 0.5]}},
        "2526ff710ee7ec7a37ff5ad723062d5017ac1111ab5090c01a643cc7ee09c1f6"),
    "start-only": ({"world": {"kind": "gp", "a": 1, "q": 1, "dim": 3},
                    "conditions": {"start": [0, 0, 0]}},
                   "11ae3e55d618a5ba851bb65b6360206edad7769d540b8d3b7a621b7e7c6c667f"),
}
PINNED_WORKLOADS = {
    "gp-bounded/gp.json": "48a6ccdd5503b491214ea277f37320a16db294c021a9702890c5123261860e16",
    "gmm-mixed/gmm.json": "3a540c8743ad07ed274cba387f6aa7393a9f3254a68898203be87626c2266a0f",
    "blob-train-sample/blob_train.json":
        "57bed9b165db819f8cab7b510490ea43baba3a3287c60b19c1da0f6a467767fc",
    "blob-train-sample/blob_trf.json":
        "0a37a7fe5f8886a1b91ca9f684e2ac664cb0c410a790228f457b01f9af2777ad",
}


class TestPinnedConfigHashes:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_config(self, name):
        raw, digest = PINNED[name]
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.config_hash() == digest
        # The normalized echo in a manifest validates as it is, to itself.
        assert ExperimentConfig.from_dict(cfg.data).data == cfg.data

    def test_benchmark_workload_configs(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
        from workloads import FULL, WORKLOADS, make_plan

        hashes = {}
        for workload in WORKLOADS:
            make_plan(workload, 5, str(tmp_path / workload), FULL[workload])
            for path in sorted((tmp_path / workload).glob("*.json")):
                raw = json.loads(path.read_text())
                if "backend" in raw:
                    raw["backend"]["path"] = "ckpt.trfw"
                if "out_dir" in raw:
                    raw["out_dir"] = "train"
                hashes[f"{workload}/{path.name}"] = ExperimentConfig.from_dict(raw).config_hash()
        assert hashes == PINNED_WORKLOADS


class TestApplyOverrides:
    def test_json_values_and_paths(self):
        raw = {"world": {"kind": "gp"}}
        apply_overrides(raw, ["schedule.n_steps=50", "trf.m_reinject=3",
                              "world.a=0.25", "sampler=trf"])
        assert raw["schedule"] == {"n_steps": 50}
        assert raw["trf"] == {"m_reinject": 3}
        assert raw["world"]["a"] == 0.25
        assert raw["sampler"] == "trf"

    def test_non_json_text_stays_string(self):
        raw = {}
        apply_overrides(raw, ["trf.alpha_kind=exponential"])
        assert raw["trf"]["alpha_kind"] == "exponential"

    def test_string_keys_keep_the_raw_text(self):
        raw = {"backend": {"kind": "checkpoint"}}
        apply_overrides(raw, ["out_dir=2024", "backend.path=1.5", "sampler=trf"])
        assert raw == {"out_dir": "2024", "backend": {"kind": "checkpoint", "path": "1.5"}, "sampler": "trf"}
        assert ExperimentConfig.from_dict({**gp_raw(), "out_dir": raw["out_dir"]}).data["out_dir"] == "2024"

    def test_number_keys_read_python_floats(self):
        raw = gp_raw()
        apply_overrides(raw, ["churn.s_churn=.5", "world.a=-.25", "schedule.sigma_max=1_000", "world.q=2"])
        assert (raw["churn"]["s_churn"], raw["world"]["a"], raw["schedule"]["sigma_max"]) == (0.5, -0.25, 1000.0)
        assert raw["world"]["q"] == 2 and isinstance(raw["world"]["q"], int)
        # A key outside the schema is read as JSON, else kept as text.
        apply_overrides(raw, ["world.qq=.5"])
        assert raw["world"]["qq"] == ".5"

    @pytest.mark.parametrize("override, message", [
        ("schedule.n_steps=abc", "'schedule.n_steps' must be int, got str"),
        ("churn.s_noise=1.0.0", "'churn.s_noise' must be number, got str"),
    ])
    def test_text_that_is_no_number_still_fails_the_type_check(self, override, message):
        raw = apply_overrides(gp_raw(), [override])
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(raw)

    def test_a_kind_set_earlier_in_the_list_types_the_next_key(self):
        raw = apply_overrides(gp_raw(), ["world.kind=gmm", "world.tau=.05"])
        assert raw["world"]["tau"] == 0.05 and isinstance(raw["world"]["tau"], float)

    def test_an_override_into_an_absent_section_creates_it(self):
        raw = apply_overrides({}, ["schedule.sigma_max=.5", "world.trajectory.tau=.05"])
        # A schedule's keys are fixed; an absent world has no kind to pick its keys by.
        assert raw == {"schedule": {"sigma_max": 0.5}, "world": {"trajectory": {"tau": ".05"}}}

    def test_malformed(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides({}, ["n_steps50"])
        with pytest.raises(ConfigError, match="crosses"):
            apply_overrides({"sampler": "forward"}, ["sampler.kind=trf"])


#: Any finite (N, d) float64 sequence: subnormals, -0.0 and the extremes included.
sequences = arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=8),
                   elements=st.floats(allow_nan=False, allow_infinity=False))
#: One file path per test, rewritten by every example.
roundtrip_settings = settings(max_examples=200, deadline=None, derandomize=True, database=None,
                              suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestTensorFormat:
    @roundtrip_settings
    @given(x=sequences)
    def test_roundtrip_bit_exact(self, tmp_path, x):
        path = tmp_path / "x.trft"
        assert export_tensor(x, path) == sha256_file(path)
        loaded = load_tensor(path)
        assert loaded.shape == x.shape and loaded.tobytes() == x.tobytes()

    def test_file_size(self, tmp_path):
        x = np.zeros((5, 4))
        path = tmp_path / "x.trft"
        export_tensor(x, path)
        assert path.stat().st_size == 16 + 8 * 5 * 4

    def test_bad_magic_and_version(self, tmp_path):
        path = tmp_path / "x.trft"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(ValueError, match="not a sequence tensor"):
            load_tensor(path)
        export_tensor(np.zeros((2, 2)), path)
        data = bytearray(path.read_bytes())
        data[4] = 9
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="version"):
            load_tensor(path)

    def test_size_mismatch(self, tmp_path):
        path = tmp_path / "x.trft"
        export_tensor(np.zeros((2, 2)), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(ValueError, match="size"):
            load_tensor(path)

    def test_failed_rename_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(RuntimeError, match="cannot write .*disk full"):
            export_tensor(np.zeros((2, 2)), tmp_path / "x.trft")
        assert os.listdir(tmp_path) == []

    def test_temporary_names_are_unique(self, tmp_path, monkeypatch):
        seen = []
        real_replace = os.replace

        def record(src, dst):
            seen.append(os.path.basename(src))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", record)
        for _ in range(2):
            export_tensor(np.zeros((2, 2)), tmp_path / "x.trft")
        assert len(set(seen)) == 2 and all(name.startswith("x.trft.") for name in seen)
        assert os.listdir(tmp_path) == ["x.trft"]


class TestCsvFormat:
    @roundtrip_settings
    @given(x=sequences)
    def test_roundtrip_exact(self, tmp_path, x):
        # 17 significant digits name every float64 exactly.
        path = tmp_path / "x.csv"
        export_trajectory_csv(x, path)
        loaded = load_trajectory_csv(path)
        assert loaded.shape == x.shape and loaded.tobytes() == x.tobytes()

    def test_header(self, tmp_path):
        path = tmp_path / "x.csv"
        export_trajectory_csv(np.zeros((2, 3)), path)
        first = path.read_text().splitlines()[0]
        assert first == "frame,dim0,dim1,dim2"
        path.write_text("a,b\n0,1\n")
        with pytest.raises(ValueError, match="header"):
            load_trajectory_csv(path)


class TestPgmExport:
    def test_format_and_values(self, tmp_path):
        frame = np.zeros((4, 4))
        frame[1, 2] = 1.0
        frame[0, 0] = 0.5
        paths = export_frames_pgm(frame, tmp_path)
        assert paths == [os.path.join(tmp_path, "frame_000.pgm")]
        data = pathlib.Path(paths[0]).read_bytes()
        assert data.startswith(b"P5\n4 4\n255\n")
        pixels = np.frombuffer(data[len(b"P5\n4 4\n255\n"):], dtype=np.uint8).reshape(4, 4)
        assert pixels[1, 2] == 255
        assert pixels[0, 0] == 128
        assert pixels[3, 3] == 0

    def test_stack_and_clipping(self, tmp_path):
        frames = np.stack([np.full((3, 3), -1.0), np.full((3, 3), 2.0)])
        paths = export_frames_pgm(frames, tmp_path)
        assert paths == [os.path.join(tmp_path, f"frame_00{i}.pgm") for i in range(2)]
        head = len(b"P5\n3 3\n255\n")
        assert set(pathlib.Path(paths[0]).read_bytes()[head:]) == {0}
        assert set(pathlib.Path(paths[1]).read_bytes()[head:]) == {255}


class TestRunExperiment:
    def test_outputs_and_manifest(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            gp_raw(seeds=[0, 1, 2], out_dir=str(tmp_path / "run")))
        manifest = run_experiment(cfg)
        run_dir = tmp_path / "run"
        names = sorted(os.listdir(run_dir))
        assert names == ["manifest.json", "seed_0000.trft", "seed_0001.trft", "seed_0002.trft"]
        assert sorted(manifest.outputs) == names[1:]
        for name, digest in manifest.outputs.items():
            assert sha256_file(run_dir / name) == digest
            assert load_tensor(run_dir / name).shape == (4, 1)
        assert "endpoint_error_median" in manifest.metrics.entries
        assert "roughness_median" in manifest.metrics.entries
        loaded = ExperimentManifest.load(run_dir / "manifest.json")
        assert loaded.fingerprint() == manifest.fingerprint()

    def test_rerun_fingerprint_identical(self, tmp_path):
        m1 = run_experiment(ExperimentConfig.from_dict(
            gp_raw(sampler="trf", seeds=[0, 1], out_dir=str(tmp_path / "a"))))
        m2 = run_experiment(ExperimentConfig.from_dict(
            gp_raw(sampler="trf", seeds=[0, 1], out_dir=str(tmp_path / "b"))))
        assert m1.outputs == m2.outputs
        assert m1.fingerprint() == m2.fingerprint()

    def test_fingerprint_ignores_where_the_checkpoint_lives(self, tmp_path):
        # The output digests pin what the checkpoint produced, so one
        # checkpoint copied into two directories gives one fingerprint.
        arch = ArchDescriptor(n_frames=4, frame_dim=1, hidden=2, n_freq=2)
        first = tmp_path / "a" / "net.trfw"
        first.parent.mkdir()
        save_checkpoint(init_params(arch, RngStream(0)), first)
        second = tmp_path / "b" / "net.trfw"
        second.parent.mkdir()
        second.write_bytes(first.read_bytes())
        m1, m2 = (run_experiment(ExperimentConfig.from_dict(gp_raw(
            sampler="trf", seeds=[0, 1], backend={"kind": "checkpoint", "path": str(path)},
            out_dir=str(path.parent / "run")))) for path in (first, second))
        assert m1.config["backend"] != m2.config["backend"]
        assert m1.outputs == m2.outputs
        assert m1.fingerprint() == m2.fingerprint()

    def test_bounded_sampler_needs_end_condition(self, tmp_path):
        raw = gp_raw(sampler="trf", out_dir=str(tmp_path / "run"))
        raw["conditions"]["end"] = None
        with pytest.raises(ConfigError, match="conditions.end"):
            run_experiment(ExperimentConfig.from_dict(raw))

    def test_requires_out_dir(self):
        with pytest.raises(ConfigError, match="out_dir"):
            run_experiment(ExperimentConfig.from_dict(gp_raw()))

    def test_evaluate_run_verifies_hashes(self, tmp_path):
        cfg = ExperimentConfig.from_dict(gp_raw(seeds=[0, 1], out_dir=str(tmp_path / "run")))
        manifest = run_experiment(cfg)
        report = evaluate_run(tmp_path / "run")
        assert report.value("roughness_median") == manifest.metrics.value("roughness_median")
        # Corrupt one output: integrity check must fail loudly.
        victim = tmp_path / "run" / "seed_0001.trft"
        data = bytearray(victim.read_bytes())
        data[-1] ^= 0xFF
        victim.write_bytes(bytes(data))
        with pytest.raises(RuntimeError, match="hash"):
            evaluate_run(tmp_path / "run")

    @pytest.mark.parametrize("name", ["notes.txt", "seed_0000.trft.0123456789abcdef.tmp"],
                             ids=["stray", "leftover-tmp"])
    def test_evaluate_run_rejects_unexpected_entries(self, tmp_path, capsys, name):
        # A run directory holds the manifest and its outputs, nothing else;
        # a leftover temporary file or a stray one is named, and eval exits 2.
        run_dir = tmp_path / "run"
        run_experiment(ExperimentConfig.from_dict(gp_raw(seeds=[0, 1], out_dir=str(run_dir))))
        (run_dir / name).write_bytes(b"")
        with pytest.raises(RuntimeError, match=re.escape(str(run_dir / name))):
            evaluate_run(run_dir)
        assert main(["eval", "--out", str(run_dir)]) == 2
        assert name in capsys.readouterr().err

    def test_rerun_with_fewer_seeds_leaves_no_stale_outputs(self, tmp_path, capsys):
        # trf with seeds 0..3, then 0..1 into one out_dir: the second run's
        # directory holds only its own outputs, so eval accepts it.
        cfg = tmp_path / "gp.json"
        cfg.write_text(json.dumps(gp_raw()))
        out = tmp_path / "run"
        assert main(["trf", "--config", str(cfg), "--seeds", "0..3", "--out", str(out)]) == 0
        assert main(["trf", "--config", str(cfg), "--seeds", "0..1", "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["manifest.json", "seed_0000.trft", "seed_0001.trft"]
        assert main(["eval", "--out", str(out)]) == 0

    def test_rerun_deletes_only_plain_output_names(self, tmp_path):
        # A hand-edited manifest cannot make a rerun delete anything but a
        # seed_NNNN.trft directly inside out_dir.
        run_dir = tmp_path / "run"
        run_experiment(ExperimentConfig.from_dict(gp_raw(seeds=[0, 5], out_dir=str(run_dir))))
        (run_dir / "sub").mkdir()
        kept = [tmp_path / "seed_0009.trft", run_dir / "notes.txt", run_dir / "sub" / "seed_0001.trft",
                run_dir / "seed_0007.trft.tmp"]
        for path in kept:
            path.write_bytes(b"")
        manifest = json.loads((run_dir / "manifest.json").read_text())
        manifest["outputs"].update({"../seed_0009.trft": "", "notes.txt": "", "sub/seed_0001.trft": "",
                                    "seed_0007.trft.tmp": "", "seed_0008.trft": ""})
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        run_experiment(ExperimentConfig.from_dict(gp_raw(seeds=[0], out_dir=str(run_dir))))
        assert not (run_dir / "seed_0005.trft").exists()
        assert all(path.exists() for path in kept)
        assert sorted(ExperimentManifest.load(run_dir / "manifest.json").outputs) == ["seed_0000.trft"]

    @pytest.mark.parametrize("text", ["{not json", "[]", '{"outputs": ["seed_0001.trft"]}', "{}"],
                             ids=["syntax", "array", "outputs-list", "no-outputs"])
    def test_unreadable_earlier_manifest_stops_the_rerun(self, tmp_path, capsys, text):
        run_dir = tmp_path / "run"
        run_experiment(ExperimentConfig.from_dict(gp_raw(seeds=[0, 1], out_dir=str(run_dir))))
        path = run_dir / "manifest.json"
        path.write_text(text)
        before = sorted(os.listdir(run_dir))
        with pytest.raises(RuntimeError, match=re.escape(f"{path}: cannot read the earlier run's manifest")):
            run_experiment(ExperimentConfig.from_dict(gp_raw(seeds=[0], out_dir=str(run_dir))))
        assert sorted(os.listdir(run_dir)) == before
        assert path.read_text() == text
        cfg = tmp_path / "gp.json"
        cfg.write_text(json.dumps(gp_raw()))
        assert main(["sample", "--config", str(cfg), "--out", str(run_dir)]) == 2
        assert str(path) in capsys.readouterr().err

    def test_all_sampler_kinds_run(self, tmp_path):
        for kind in ("forward", "trf", "baseline-interp", "baseline-inpaint"):
            cfg = ExperimentConfig.from_dict(
                gp_raw(sampler=kind, out_dir=str(tmp_path / kind)))
            manifest = run_experiment(cfg)
            assert len(manifest.outputs) == 1

    def test_older_manifest_config_names_the_manifest(self, tmp_path, capsys):
        # A run written while trf.share_churn_noise was still a config key:
        # its outputs are intact, but its echoed config no longer validates.
        run_experiment(ExperimentConfig.from_dict(gp_raw(sampler="trf", out_dir=str(tmp_path / "run"))))
        path = tmp_path / "run" / "manifest.json"
        d = json.loads(path.read_text())
        d["config"]["trf"]["share_churn_noise"] = True
        path.write_text(json.dumps(d))
        with pytest.raises(ConfigError) as err:
            evaluate_run(tmp_path / "run")
        msg = str(err.value)
        assert msg.startswith(f"{path}: its config does not validate under this trflab's schema")
        assert msg.endswith("unknown config key 'trf.share_churn_noise'")
        assert main(["eval", "--out", str(tmp_path / "run")]) == 1
        assert str(path) in capsys.readouterr().err

    def test_manifest_version_check(self, tmp_path):
        cfg = ExperimentConfig.from_dict(gp_raw(out_dir=str(tmp_path / "run")))
        run_experiment(cfg)
        path = tmp_path / "run" / "manifest.json"
        d = json.loads(path.read_text())
        d["format_version"] = 99
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match="version"):
            ExperimentManifest.load(path)


class TestCli:
    def _write_config(self, tmp_path, raw):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return str(path)

    def test_sample_end_to_end(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, gp_raw())
        out = str(tmp_path / "run")
        assert main(["sample", "--config", cfg, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "manifest.json"))
        assert "fingerprint" in capsys.readouterr().out

    def test_seed_range(self, tmp_path):
        cfg = self._write_config(tmp_path, gp_raw())
        out = str(tmp_path / "run")
        assert main(["trf", "--config", cfg, "--seeds", "3..5", "--out", out]) == 0
        names = sorted(n for n in os.listdir(out) if n.endswith(".trft"))
        assert names == ["seed_0003.trft", "seed_0004.trft", "seed_0005.trft"]

    def test_set_overrides_reach_manifest(self, tmp_path):
        cfg = self._write_config(tmp_path, gp_raw())
        out = str(tmp_path / "run")
        assert main(["sample", "--config", cfg, "--out", out,
                     "--set", "schedule.n_steps=7"]) == 0
        manifest = ExperimentManifest.load(os.path.join(out, "manifest.json"))
        assert manifest.config["schedule"]["n_steps"] == 7
        # The parser is reused between calls; an earlier --set must not leak.
        assert main(["sample", "--config", cfg, "--out", out + "2"]) == 0
        manifest = ExperimentManifest.load(os.path.join(out + "2", "manifest.json"))
        assert manifest.config["schedule"]["n_steps"] == 5

    def test_set_reads_values_by_their_schema_type(self, tmp_path, capsys, monkeypatch):
        cfg = self._write_config(tmp_path, gp_raw())
        monkeypatch.chdir(tmp_path)
        assert main(["sample", "--config", cfg, "--set", "out_dir=2024", "--set", "churn.s_churn=.5"]) == 0
        manifest = ExperimentManifest.load(tmp_path / "2024" / "manifest.json")
        assert manifest.config["churn"]["s_churn"] == 0.5
        capsys.readouterr()
        assert main(["sample", "--config", cfg, "--set", "out_dir=bad", "--set", "schedule.n_steps=abc"]) == 1
        assert "config key 'schedule.n_steps' must be int, got str" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    def test_config_errors_exit_1(self, tmp_path, capsys):
        bad = self._write_config(tmp_path, gp_raw(mothion_id=1))
        assert main(["sample", "--config", bad, "--out", str(tmp_path / "r")]) == 1
        assert "config error" in capsys.readouterr().err
        cfg = self._write_config(tmp_path, gp_raw())
        assert main(["sample", "--config", cfg, "--seed", "1", "--seeds", "1..2",
                     "--out", str(tmp_path / "r")]) == 1
        assert main(["sample", "--config", cfg, "--seeds", "5..2",
                     "--out", str(tmp_path / "r")]) == 1
        assert main(["sample", "--config", cfg, "--seeds", f"{2 ** 63}..{2 ** 63 + 1}",
                     "--out", str(tmp_path / "r")]) == 1
        assert main(["sample", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "r")]) == 1
        capsys.readouterr()
        # A range is measured before its list is built: a trillion seeds
        # would fail out of memory.
        for seeds in ("0..1000000000000", "7..65543"):
            assert main(["sample", "--config", cfg, "--seeds", seeds, "--out", str(tmp_path / "r")]) == 1
            assert capsys.readouterr().err == (f"config error: trflab sample: argument --seeds: must span "
                                               f"at most 65536 seeds, got '{seeds}'\n")
        # An integer literal past Python's 4 300-digit conversion limit, and
        # bytes that are not UTF-8.
        huge, binary = tmp_path / "huge.json", tmp_path / "binary.json"
        huge.write_text(json.dumps(gp_raw()).replace('"n_steps": 5', '"n_steps": ' + "1" * 5000))
        binary.write_bytes(b"\xff\xfe{}")
        for path in (huge, binary):
            assert main(["sample", "--config", str(path), "--out", str(tmp_path / "r")]) == 1
            assert f"config {path} is not valid JSON" in capsys.readouterr().err
        for raw, key in ((gp_raw(seeds=[0, 0, 1]), "seeds[1]"),
                         (gp_raw(trf={"share_churn_noise": False}), "trf.share_churn_noise")):
            bad = self._write_config(tmp_path, raw)
            assert main(["trf", "--config", bad, "--out", str(tmp_path / "r")]) == 1
            assert key in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("argv, message", [
        (["trf", "--seed", "abc"], "trflab trf: argument --seed: invalid int value: 'abc'"),
        (["trf"], "trflab trf: the following arguments are required: --config"),
        (["trf", "--config", "config.json", "--bogus", "1"], "trflab trf takes no --bogus"),
        ([], "trflab: the following arguments are required: command"),
    ], ids=["bad-seed", "no-config", "unknown-flag", "no-command"])
    def test_usage_errors_exit_1_and_write_nothing(self, tmp_path, capsys, monkeypatch, argv, message):
        self._write_config(tmp_path, gp_raw(out_dir="run"))
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"config error: {message}\n")
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("command, flags", [
        ("sample", "--config --out --seed --seeds --set"),
        ("trf", "--config --out --seed --seeds --set"),
        ("baseline", "--config --kind --out --seed --seeds --set"),
        ("train", "--config --out --seed --set"),
        ("eval", "--config --out"),
        ("sweep", "--config --out --seed --seeds --set"),
    ], ids=["sample", "trf", "baseline", "train", "eval", "sweep"])
    def test_help_exits_0_showing_exactly_the_commands_flags(self, capsys, command, flags):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert sorted(set(re.findall(r"--[a-z]+", usage))) == flags.split()

    def test_eval_config_reads_the_run_in_its_out_dir(self, tmp_path, capsys, monkeypatch):
        cfg = self._write_config(tmp_path, gp_raw(out_dir="runs/a"))
        monkeypatch.chdir(tmp_path)
        assert main(["trf", "--config", cfg]) == 0
        capsys.readouterr()
        assert main(["eval", "--config", cfg]) == 0
        assert "endpoint_error_median" in json.loads(capsys.readouterr().out)

    def test_eval_config_without_out_dir_exits_1_naming_it(self, tmp_path, capsys, monkeypatch):
        # Without --config or --out, eval reads the current directory; a
        # config with no out_dir names no run, so it is a config error.
        cfg = self._write_config(tmp_path, gp_raw())
        assert main(["trf", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        monkeypatch.chdir(tmp_path / "run")
        assert main(["eval"]) == 0
        assert "endpoint_error_median" in json.loads(capsys.readouterr().out)
        assert main(["eval", "--config", cfg]) == 1
        assert capsys.readouterr() == ("", "config error: missing required config key 'out_dir'\n")

    @pytest.mark.parametrize("key", ["start", "end"])
    def test_a_blob_position_off_the_grid_exits_1_naming_it(self, tmp_path, capsys, key):
        ckpt = tmp_path / "blob.trfw"
        save_checkpoint(init_params(ArchDescriptor(n_frames=4, frame_dim=256, hidden=2, n_freq=2),
                                    RngStream(0)), ckpt)
        # The default 16 x 16 grid spans +-1.5 units; (10, 10) would render at its corner.
        cfg = self._write_config(tmp_path, {
            "world": {"kind": "blob", "trajectory": {"kind": "gmm", "n_frames": 4}},
            "backend": {"kind": "checkpoint", "path": str(ckpt)},
            "conditions": {"start": [-1.0, 0.0], "end": [1.0, 0.0], key: [10.0, 10.0]},
        })
        out = tmp_path / "r"
        assert main(["trf", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: conditions.{key} position [10.0, 10.0] lies off "), err
        assert not out.exists()

    def test_runtime_errors_exit_2(self, tmp_path, capsys):
        assert main(["eval", "--out", str(tmp_path / "nowhere")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("override, section, message", [
        ("churn.s_tmin=60", "churn", "s_tmin=60.0 exceeds s_tmax=50.0"),
        ("schedule.n_steps=0", "schedule", "need n_steps >= 2, got 0"),
        ("schedule.sigma_min=-1", "schedule", "need 0 < sigma_min < sigma_max"),
        ("trf.t0=999", "trf", "t0 must be in [0, 5], got 999"),
        ("world.q=-0.3", "world", "innovation std must be positive, got -0.3"),
        ("trf.m_reinject=-1", "trf", "m_reinject must be >= 0, got -1"),
        ("schedule.rho=0", "schedule", "rho must be > 0"),
        ("world.n_frames=1", "trf", "need at least 2 frames, got 1"),
    ])
    def test_range_errors_exit_1_naming_the_section(self, tmp_path, capsys, override, section,
                                                    message):
        cfg = self._write_config(tmp_path, gp_raw())
        out = tmp_path / "r"
        assert main(["trf", "--config", cfg, "--out", str(out), "--set", override]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: invalid '{section}' config: ")
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("command, override, named", [
        ("trf", "churn.s_churn=NaN", r"'churn.s_churn' must be a finite number, got nan"),
        ("trf", "churn.s_noise=Infinity", r"'churn.s_noise' must be a finite number, got inf"),
        ("trf", "churn.s_tmax=Infinity", r"'churn.s_tmax' must be a finite number, got inf"),
        ("trf", "schedule.sigma_max=1e400", r"'schedule.sigma_max' must be a finite number"),
        ("trf", "churn.s_noise=1e300", r"'churn.s_noise' must be at most 10, got 1e\+300"),
        ("trf", "schedule.sigma_max=1e5", r"'schedule.sigma_max' must be at most 10000, got 100000"),
        ("train", "world.q=1e4", r"'world.q' must be at most 1000, got 10000"),
        ("trf", "schedule.rho=1e-300", r"invalid 'schedule' config: "),
        ("train", "train.lr=-1", r"invalid 'train' config: lr must be >= 0"),
        ("train", "train.batch_size=0", r"invalid 'train' config: .*batch_size >= 1"),
        ("train", "train.hidden=0", r"invalid 'train' config: hidden must be >= 1"),
        ("train", "train.n_freq=-1", r"invalid 'train' config: .*n_freq a positive even"),
        ("train", "world.q=-1", r"invalid 'world' config: innovation std"),
        ("train", "train.seed=-1", r"'train.seed' must be an integer in \[0, 2\*\*63\), got -1"),
        ("trf", f"seeds=[{2 ** 64}]", r"'seeds\[0\]' must be an integer in \[0, 2\*\*63\)"),
        ("sweep", 'sweep={"t0":[1,999]}', r"invalid 'trf' config: t0 must be in \[0, 5\], got 999"),
        ("sweep", 'sweep={"m_reinject":[0,"x"]}', r"'sweep.m_reinject\[1\]' must be int"),
        ("sweep", 'sweep={"s_churn":[0.5,-1]}', r"invalid 'churn' config: s_churn must be >= 0"),
        ("trf", "conditions.end=[1e300]", r"'conditions.end\[0\]' must be at most 10000, got 1e\+300"),
        ("trf", "conditions.start=[-1e300]",
         r"'conditions.start\[0\]' must be at least -10000, got -1e\+300"),
        pytest.param("trf", ('world={"kind":"gmm"}', 'conditions={"start":[-1,0],"end":[1e300,0]}'),
                     r"'conditions.end\[0\]' must be at most 10000, got 1e\+300", id="gmm-end-1e300"),
        pytest.param("trf", ('world={"kind":"gmm"}', 'conditions={"start":[-1,-1e300],"end":[1,0]}'),
                     r"'conditions.start\[1\]' must be at least -10000, got -1e\+300",
                     id="gmm-start-minus-1e300"),
        # One past each size bound: rejected by the schema, so nothing that size is built.
        ("train", "world.n_frames=1025", r"'world.n_frames' must be at most 1024, got 1025"),
        ("train", "world.dim=65", r"'world.dim' must be at most 64, got 65"),
        pytest.param("trf", 'world={"kind":"gmm","n_frames":1025}',
                     r"'world.n_frames' must be at most 1024, got 1025", id="gmm-n_frames-1025"),
        pytest.param("train", 'world={"kind":"blob","grid_size":65,"trajectory":{"kind":"gmm"}}',
                     r"'world.grid_size' must be at most 64, got 65", id="blob-grid_size-65"),
        pytest.param("train", 'world={"kind":"blob","trajectory":{"kind":"gmm","n_frames":1025}}',
                     r"'world.trajectory.n_frames' must be at most 1024, got 1025",
                     id="blob-trajectory-n_frames-1025"),
        ("trf", "schedule.n_steps=1001", r"'schedule.n_steps' must be at most 1000, got 1001"),
        ("train", "train.n_steps=100001", r"'train.n_steps' must be at most 100000, got 100001"),
        ("train", "train.batch_size=4097", r"'train.batch_size' must be at most 4096, got 4097"),
        ("train", "train.hidden=2049", r"'train.hidden' must be at most 2048, got 2049"),
        ("train", "train.n_freq=65", r"'train.n_freq' must be at most 64, got 65"),
        pytest.param("train", f"train.n_steps={10 ** 400}",
                     rf"'train.n_steps' must be at most 100000, got {10 ** 400}", id="n_steps-10**400"),
        pytest.param("trf", "schedule.n_steps=" + "1" * 5000, r"'schedule.n_steps' must be int",
                     id="n_steps-5000-digits"),
        pytest.param("trf", "schedule.sigma_max=" + "1" * 5000, r"'schedule.sigma_max' must be a finite number",
                     id="sigma_max-5000-digits"),
    ])
    def test_bad_values_exit_1_before_anything_is_written(self, tmp_path, capsys, command,
                                                          override, named):
        cfg = self._write_config(tmp_path, gp_raw(train={"n_steps": 5, "batch_size": 4, "hidden": 8}))
        out = tmp_path / "r"
        sets = [arg for o in ([override] if isinstance(override, str) else override) for arg in ("--set", o)]
        assert main([command, "--config", cfg, "--out", str(out), *sets]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and re.search(named, err), err
        assert not out.exists()

    @pytest.mark.parametrize("checkpoint", ["missing", "config", "truncated", "directory", "nan"])
    def test_unloadable_checkpoint_exits_1_naming_backend_path(self, tmp_path, capsys, checkpoint):
        cfg = self._write_config(tmp_path, gp_raw())
        paths = {"missing": tmp_path / "nope.trfw", "config": cfg, "directory": tmp_path,
                 "truncated": tmp_path / "short.trfw", "nan": tmp_path / "nan.trfw"}
        (tmp_path / "short.trfw").write_bytes(b"TRFW\x01")
        arch = ArchDescriptor(n_frames=4, frame_dim=1, hidden=2, n_freq=2)
        save_checkpoint(init_params(arch, RngStream(0)), paths["nan"])
        paths["nan"].write_bytes(paths["nan"].read_bytes()[:-8] + np.float64(np.nan).tobytes())
        out = tmp_path / "r"
        backend = json.dumps({"kind": "checkpoint", "path": str(paths[checkpoint])})
        assert main(["trf", "--config", cfg, "--out", str(out), "--set", f"backend={backend}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid 'backend.path' config: "), err
        assert not out.exists()

    def test_value_error_while_sampling_exits_2(self, tmp_path, capsys, monkeypatch):
        from trflab import denoiser

        def broken(self, x, sigma, cond):
            raise ValueError("denoiser failed")

        monkeypatch.setattr(denoiser.AnalyticGaussianBackend, "predict_x0", broken)
        cfg = self._write_config(tmp_path, gp_raw())
        assert main(["trf", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "error: ValueError: denoiser failed" in capsys.readouterr().err

    def test_failed_metric_exits_2_and_writes_no_trajectory(self, tmp_path, capsys, monkeypatch):
        # Sampling succeeds, but the endpoint error comes out as inf (as a
        # huge finite end frame makes it), which a metric report refuses.
        monkeypatch.setattr("trflab.harness.endpoint_error", lambda x, frame: np.inf)
        cfg = self._write_config(tmp_path, gp_raw())
        out = tmp_path / "r"
        assert main(["trf", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", [["sample"], ["trf"], ["baseline", "--kind", "interp"],
                                         ["baseline", "--kind", "inpaint"]],
                             ids=["sample", "trf", "interp", "inpaint"])
    def test_commands_hash_no_trace(self, tmp_path, monkeypatch, command):
        # Runs discard their step traces, so they must not pay for hashes.
        def fail(x):
            raise AssertionError("sequence_hash called")

        monkeypatch.setattr("trflab.sampler.sequence_hash", fail)
        monkeypatch.setattr("trflab.trf.sequence_hash", fail)
        cfg = self._write_config(tmp_path, gp_raw(seeds=[0, 1]))
        assert main(command + ["--config", cfg, "--out", str(tmp_path / "r")]) == 0

    def test_eval_prints_metrics(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, gp_raw())
        out = str(tmp_path / "run")
        assert main(["trf", "--config", cfg, "--out", out]) == 0
        capsys.readouterr()
        assert main(["eval", "--out", out]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "endpoint_error_median" in report

    def test_train_writes_checkpoint_and_curve(self, tmp_path, capsys):
        raw = gp_raw(train={"n_steps": 30, "batch_size": 4, "hidden": 8})
        cfg = self._write_config(tmp_path, raw)
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "checkpoint.trfw"))
        curve = pathlib.Path(out, "loss_curve.csv").read_text().splitlines()
        assert curve[0] == "step,loss"
        assert len(curve) == 31

    def test_train_seed_sets_the_training_seed(self, tmp_path):
        cfg = self._write_config(tmp_path, gp_raw(train={"n_steps": 10, "batch_size": 4, "hidden": 8}))
        digests = {}
        for name, flags in (("flag", ["--seed", "7"]), ("set", ["--set", "train.seed=7"]), ("config", [])):
            out = tmp_path / name
            assert main(["train", "--config", cfg, "--out", str(out), *flags]) == 0
            digests[name] = sha256_file(out / "checkpoint.trfw")
        assert digests["flag"] == digests["set"] != digests["config"]

    @pytest.mark.parametrize("command, flags", [
        ("train", ["--seeds", "5..9"]),
        ("eval", ["--seed", "0"]),
        ("eval", ["--seeds", "0..1"]),
        ("eval", ["--set", "seeds=[1]"]),
    ], ids=["train-seeds", "eval-seed", "eval-seeds", "eval-set"])
    def test_a_flag_the_command_does_not_use_exits_1_naming_it(self, tmp_path, capsys, command, flags):
        cfg = self._write_config(tmp_path, gp_raw(train={"n_steps": 5, "batch_size": 4, "hidden": 8}))
        out = tmp_path / "run"
        if command == "eval":
            assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
            capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == f"config error: trflab {command} takes no {flags[0]}\n"
        if command == "train":
            assert not out.exists()

    @pytest.mark.parametrize("command", [["trf"], ["train"], ["sweep", "--set", 'sweep={"m_reinject":[0,1]}']],
                             ids=["trf", "train", "sweep"])
    def test_an_out_dir_that_cannot_be_made_exits_2_naming_it(self, tmp_path, capsys, command):
        cfg = self._write_config(tmp_path, gp_raw(train={"n_steps": 5, "batch_size": 4, "hidden": 8}))
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(command + ["--config", cfg, "--out", str(blocker / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: RuntimeError: cannot create output directory {blocker / 'out'}"), err

    def test_checkpoint_backend_roundtrip(self, tmp_path):
        raw = gp_raw(train={"n_steps": 20, "batch_size": 4, "hidden": 8})
        cfg = self._write_config(tmp_path, raw)
        train_dir = str(tmp_path / "trained")
        assert main(["train", "--config", cfg, "--out", train_dir]) == 0
        ckpt = os.path.join(train_dir, "checkpoint.trfw")
        out = str(tmp_path / "run")
        assert main(["trf", "--config", cfg, "--out", out,
                     "--set", f'backend={{"kind":"checkpoint","path":"{ckpt}"}}']) == 0
        assert os.path.exists(os.path.join(out, "seed_0000.trft"))

    def test_sweep_grid(self, tmp_path):
        raw = gp_raw(sweep={"m_reinject": [0, 2], "alpha_kind": ["linear", "exponential"]})
        cfg = self._write_config(tmp_path, raw)
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--config", cfg, "--out", out]) == 0
        summary = json.loads(pathlib.Path(out, "summary.json").read_text())
        assert sha256_file(os.path.join(out, "summary.json")) == SWEEP_SUMMARY_SHA256
        assert len(summary["runs"]) == 4
        for i, run in enumerate(summary["runs"]):
            sub = os.path.join(out, f"run_{i:03d}")
            assert os.path.exists(os.path.join(sub, "manifest.json"))
            manifest = ExperimentManifest.load(os.path.join(sub, "manifest.json"))
            assert manifest.config["trf"]["m_reinject"] == run["params"]["m_reinject"]
        # Same grid rerun reproduces every fingerprint.
        out2 = str(tmp_path / "sweep2")
        assert main(["sweep", "--config", cfg, "--out", out2]) == 0
        summary2 = json.loads(pathlib.Path(out2, "summary.json").read_text())
        assert [r["fingerprint"] for r in summary["runs"]] == \
            [r["fingerprint"] for r in summary2["runs"]]

    def test_sweep_requires_axes(self, tmp_path):
        cfg = self._write_config(tmp_path, gp_raw())
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 1
