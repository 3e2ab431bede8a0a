"""Command-line surface: artifacts, manifests, exit codes, determinism."""

import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

from renderopt.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from renderopt.config import DEFAULTS
from renderopt.diffusion import (AttentionGatedDenoiser, DenoiserConfig, NoiseSchedule,
                                 Standardizer, load_checkpoint, save_checkpoint)
from renderopt.prerender import save_trace

FAST_DIFFUSION = {
    "diffusion": {"dataset_users": 48, "epochs": 3, "learning_rate": 0.003,
                  "d_model": 16, "heads": 2},
}
FAST_BENCH = {
    "bench": {"scenes": 4, "train": {"users": 48, "epochs": 3, "learning_rate": 0.003,
                                     "batch_size": 32, "patience": 5}},
    "diffusion": {"d_model": 16, "heads": 2},
}
# the config of acceptance criterion 7
CRITERION_7 = {**FAST_BENCH, **FAST_DIFFUSION}


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def _run_cli(*argv, timeout=60, memory_cap=None):
    """`python -m renderopt.cli argv` in a fresh interpreter, so warnings reach
    stderr as they would for a user; `memory_cap` bytes of address space, if
    given, make a blow-up fail the run instead of exhausting the host."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (memory_cap, memory_cap))

    return subprocess.run([sys.executable, "-m", "renderopt.cli", *argv], capture_output=True,
                          text=True, timeout=timeout, env=env,
                          preexec_fn=cap if memory_cap else None)


class TestGameSolve:
    def test_writes_equilibrium_record(self, tmp_path):
        out = tmp_path / "out"
        assert main(["game-solve", "--out-dir", str(out)]) == EXIT_OK
        record = json.loads((out / "equilibrium.json").read_text())
        assert record["converged"] is True
        assert record["price"] > 0
        manifest = _manifest(out)
        assert manifest["outputs"] == ["equilibrium.json"]
        assert manifest["command"] == "game-solve"
        assert len(manifest["config_digest"]) == 64

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["game-solve", "--out-dir", str(a)])
        main(["game-solve", "--out-dir", str(b)])
        assert (a / "equilibrium.json").read_bytes() == (b / "equilibrium.json").read_bytes()

    # sha256 of the equilibrium.json `game-solve --seed 3` wrote when the
    # leader re-solved the follower game at every price it evaluated
    UNCACHED_DIGEST = "c29da77cdf23b9939550d794a44a849991a6f826a4f006e0f43a80e5725b0126"

    @pytest.mark.parametrize("config", ["default", "criterion-7"])
    def test_equilibrium_unchanged(self, tmp_path, config):
        out = tmp_path / "out"
        argv = ["game-solve", "--seed", "3", "--out-dir", str(out)]
        if config == "criterion-7":
            argv += ["--config", _write_config(tmp_path, CRITERION_7)]
        assert main(argv) == EXIT_OK
        got = hashlib.sha256((out / "equilibrium.json").read_bytes()).hexdigest()
        assert got == self.UNCACHED_DIGEST

    def test_huge_demand_cap_solves(self, tmp_path):
        nodes = [dict(n) for n in DEFAULTS["game"]["nodes"]]
        nodes[0]["demand_max"] = 1e308
        cfg = _write_config(tmp_path, {"game": {"nodes": nodes}})
        proc = _run_cli("game-solve", "--config", cfg, "--out-dir", str(tmp_path / "out"))
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads((tmp_path / "out" / "equilibrium.json").read_text())["converged"]

    def test_convergence_warnings_reported_in_one_line(self, tmp_path):
        cfg = _write_config(tmp_path, {"game": {"solver": {"br_max_iters": 1}}})
        proc = _run_cli("game-solve", "--config", cfg, "--out-dir", str(tmp_path / "out"))
        assert proc.returncode == EXIT_OK
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("game-solve: warning: ConvergenceWarning x")
        assert "follower game did not converge at price" in proc.stderr


class TestPrerenderSim:
    def test_walk_artifacts(self, tmp_path):
        out = tmp_path / "out"
        assert main(["prerender-sim", "--out-dir", str(out)]) == EXIT_OK
        lines = (out / "walk_steps.csv").read_text().strip().splitlines()
        assert len(lines) == 501
        summary = json.loads((out / "walk_summary.json").read_text())
        assert summary["steps"] == 500
        assert summary["deadline_misses"] == 0

    def test_trace_replay(self, tmp_path):
        trace_path = tmp_path / "path.trace"
        save_trace(trace_path, [(0, 0), (1, 0), (2, 0), (2, 1)])
        out = tmp_path / "out"
        assert main(["prerender-sim", "--out-dir", str(out),
                     "--trace", str(trace_path)]) == EXIT_OK
        summary = json.loads((out / "walk_summary.json").read_text())
        assert summary["steps"] == 3

    def test_huge_floor_walks_in_bounded_memory(self, tmp_path):
        cfg = _write_config(tmp_path, {"prerender": {"width": 10**8, "height": 10**8}})
        out = tmp_path / "out"
        proc = _run_cli("prerender-sim", "--config", cfg, "--out-dir", str(out),
                        memory_cap=2 << 30)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads((out / "walk_summary.json").read_text())["steps"] == 500

    def test_seed_changes_walk(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["prerender-sim", "--out-dir", str(a), "--seed", "1"])
        main(["prerender-sim", "--out-dir", str(b), "--seed", "2"])
        assert (a / "walk_steps.csv").read_text() != (b / "walk_steps.csv").read_text()


class TestDiffusionCommands:
    def test_train_then_infer(self, tmp_path):
        cfg = _write_config(tmp_path, FAST_DIFFUSION)
        out = tmp_path / "train"
        assert main(["diffusion-train", "--config", cfg, "--out-dir", str(out)]) == EXIT_OK
        assert (out / "checkpoint.npz").exists()
        curve = (out / "training_curve.csv").read_text().strip().splitlines()
        assert curve[0] == "epoch,train_loss,val_loss"
        model, schedule, standardizer = load_checkpoint(out / "checkpoint.npz")
        assert schedule.steps == 700
        assert standardizer is not None

        infer_out = tmp_path / "infer"
        assert main(["diffusion-infer", "--config", cfg, "--out-dir", str(infer_out),
                     "--checkpoint", str(out / "checkpoint.npz")]) == EXIT_OK
        rows = (infer_out / "probabilities.csv").read_text().strip().splitlines()
        assert rows[0] == "user,item,probability,interest_flag"
        assert len(rows) > 1

    def test_infer_requires_checkpoint(self, tmp_path):
        assert main(["diffusion-infer", "--out-dir", str(tmp_path / "x")]) == EXIT_CONFIG

    def test_divergent_training_exits_numerical(self, tmp_path):
        payload = {"diffusion": {"dataset_users": 16, "epochs": 2,
                                 "learning_rate": 1e160, "d_model": 8, "heads": 2}}
        cfg = _write_config(tmp_path, payload)
        with np.errstate(all="ignore"):
            code = main(["diffusion-train", "--config", cfg,
                         "--out-dir", str(tmp_path / "x")])
        assert code == EXIT_NUMERICAL

    def test_huge_schedule_exits_config_with_one_line(self, tmp_path):
        cfg = _write_config(tmp_path, {"diffusion": {"steps": 10**12}})
        proc = _run_cli("diffusion-train", "--config", cfg, "--out-dir", str(tmp_path / "x"),
                        memory_cap=2 << 30)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr == ("diffusion-train: config error: diffusion.steps: must be an "
                               "integer in [1, 100000], got 1000000000000\n")

    def test_large_split_evaluates_in_bounded_memory(self, tmp_path):
        # one predict over all 1800 training sequences would need 900 MiB for
        # the (1800, 4, 128, 128) attention scores alone
        payload = {"diffusion": {"seq_len": 128, "d_model": 8, "heads": 4,
                                 "dataset_users": 2000, "epochs": 1}}
        cfg = _write_config(tmp_path, payload)
        proc = _run_cli("diffusion-train", "--config", cfg, "--out-dir", str(tmp_path / "x"),
                        memory_cap=2 << 30)
        assert proc.returncode == EXIT_OK, proc.stderr

    def test_checkpoint_roundtrip_preserves_weights(self, tmp_path):
        cfg = _write_config(tmp_path, FAST_DIFFUSION)
        out = tmp_path / "train"
        main(["diffusion-train", "--config", cfg, "--out-dir", str(out)])
        m1, _, _ = load_checkpoint(out / "checkpoint.npz")
        m2, _, _ = load_checkpoint(out / "checkpoint.npz")
        for key in m1.params:
            assert np.array_equal(m1.params[key], m2.params[key])


class TestBenchRun:
    def test_single_policy_run(self, tmp_path):
        cfg = _write_config(tmp_path, FAST_BENCH)
        out = tmp_path / "out"
        assert main(["bench-run", "--config", cfg, "--out-dir", str(out),
                     "--policies", "none"]) == EXIT_OK
        summary = json.loads((out / "bench_summary.json").read_text())
        assert len(summary["table"]) == 1
        assert summary["table"][0]["policy"] == "none"

    def test_plot_data_flag(self, tmp_path):
        cfg = _write_config(tmp_path, FAST_BENCH)
        out = tmp_path / "out"
        assert main(["bench-run", "--config", cfg, "--out-dir", str(out),
                     "--policies", "mdp,none", "--plot-data"]) == EXIT_OK
        assert (out / "plot_time_mdp.csv").exists()
        assert (out / "plot_time_none.csv").exists()
        assert (out / "plot_metrics.csv").exists()
        manifest = _manifest(out)
        assert "plot_metrics.csv" in manifest["outputs"]

    def test_unknown_policy_rejected(self, tmp_path):
        assert main(["bench-run", "--out-dir", str(tmp_path / "x"),
                     "--policies", "wizard"]) == EXIT_CONFIG

    def test_proposed_policy_from_checkpoint(self, tmp_path):
        cfg = _write_config(tmp_path, {**FAST_BENCH, **FAST_DIFFUSION})
        train_out = tmp_path / "train"
        assert main(["diffusion-train", "--config", cfg,
                     "--out-dir", str(train_out)]) == EXIT_OK
        out = tmp_path / "bench"
        assert main(["bench-run", "--config", cfg, "--out-dir", str(out),
                     "--policies", "proposed,none",
                     "--checkpoint", str(train_out / "checkpoint.npz")]) == EXIT_OK
        summary = json.loads((out / "bench_summary.json").read_text())
        assert {row["policy"] for row in summary["table"]} == {"proposed", "none"}
        proposed = next(r for r in summary["table"] if r["policy"] == "proposed")
        assert proposed["inference_denoiser_calls"] > 0


class TestErrorPaths:
    def test_bad_config_file_exit_code(self, tmp_path):
        cfg = _write_config(tmp_path, {"diffusoin": {}})
        assert main(["game-solve", "--config", cfg,
                     "--out-dir", str(tmp_path / "x")]) == EXIT_CONFIG

    def test_missing_config_file_exit_code(self, tmp_path):
        assert main(["game-solve", "--config", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path / "x")]) == EXIT_CONFIG

    INF = float("inf")
    NODE = {"id": "edge-0", "alpha": 2.0, "beta": 0.5, "demand_max": INF}
    PROBES = [
        ({"game": {"cloud": {"unit_cost": "x"}}}, "game.cloud.unit_cost"),
        ({"game": {"solver": {"br_tolerance": INF}}}, "game.solver.br_tolerance"),
        ({"game": {"nodes": [NODE]}}, "game.nodes[0].demand_max"),
        ({"game": {"cloud": {"price_max": INF}}}, "game.cloud.price_max"),
        ({"bench": {"lod_high": INF}}, "bench.lod_high"),
        ({"prerender": {"spacing": INF}}, "prerender.spacing"),
        ({"diffusion": {"learning_rate": INF}}, "diffusion.learning_rate"),
        ({"game": {"cloud": {"capacity": -INF}}}, "game.cloud.capacity"),
        ({"bench": {"focus_quantile": float("nan")}}, "bench.focus_quantile"),
    ]

    @pytest.mark.parametrize("payload, key", PROBES, ids=[k for _, k in PROBES])
    def test_bad_value_exits_config_with_one_line(self, tmp_path, capsys, payload, key):
        cfg = _write_config(tmp_path, payload)
        code = main(["game-solve", "--config", cfg, "--out-dir", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1
        assert err.startswith(f"game-solve: config error: {key}: ")

    # each of these died with a MemoryError traceback, or ran until killed (scenes),
    # before its size had an upper bound
    OVERSIZED = [
        ("diffusion-train", {"diffusion": {"d_model": 10**6}}, [], "diffusion.d_model"),
        ("diffusion-train", {"diffusion": {"dataset_users": 10**12}}, [],
         "diffusion.dataset_users"),
        ("bench-run", {"bench": {"regions_per_scene": 10**12}}, ["--policies", "none"],
         "bench.regions_per_scene"),
        ("bench-run", {"bench": {"scenes": 10**12}}, ["--policies", "none"],
         "bench.regions_per_scene: must be an integer in [2, 100000 // scenes"),
        ("bench-run", {"bench": {"train": {"users": 10**12}}}, ["--policies", "proposed"],
         "bench.train.users"),
        ("diffusion-infer", {"diffusion": {"seq_len": 10**12}}, [], "diffusion.seq_len"),
        ("prerender-sim", {"prerender": {"steps": 10**12}}, [], "prerender.steps"),
        ("diffusion-infer", {}, ["--users", str(10**9)], "--users"),
    ]

    @pytest.mark.parametrize("command, payload, flags, named", OVERSIZED,
                             ids=["d_model", "dataset_users", "regions_per_scene", "scenes",
                                  "train.users", "seq_len", "prerender.steps", "--users"])
    def test_oversized_input_exits_config_with_one_line(self, tmp_path, command, payload,
                                                        flags, named):
        argv = [command, "--config", _write_config(tmp_path, payload),
                "--out-dir", str(tmp_path / "out"), *flags]
        if command == "diffusion-infer":
            ckpt = tmp_path / "model.npz"
            save_checkpoint(ckpt, AttentionGatedDenoiser(DenoiserConfig(d_model=8, heads=2)),
                            NoiseSchedule(), Standardizer(mean=np.zeros(6), std=np.ones(6)))
            argv += ["--checkpoint", str(ckpt)]
        proc = _run_cli(*argv, timeout=30, memory_cap=2 << 30)
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith(f"{command}: config error: ") and named in proc.stderr

    # both exited 0 with Infinity and NaN in their JSON artifacts
    NON_FINITE = [
        ("prerender-sim", {"prerender": {"encoding": {"base_i_size": 1e308}, "steps": 50}},
         [], "walk_summary.json"),
        ("bench-run", {"bench": {"lod_high": 1e308}}, ["--policies", "mdp,none"],
         "bench_summary.json"),
    ]

    @pytest.mark.parametrize("command, payload, flags, name", NON_FINITE,
                             ids=[c for c, *_ in NON_FINITE])
    def test_non_finite_artifact_exits_numerical_with_one_line(self, tmp_path, capsys, command,
                                                               payload, flags, name):
        code = main([command, "--config", _write_config(tmp_path, payload),
                     "--out-dir", str(tmp_path / "out"), *flags])
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            f"{command}: numerical failure: {name}: non-finite value, not written as JSON\n")

    PRERENDER_FLOATS = [("spacing",), ("panorama_work",),
                        *(("timing", k) for k in DEFAULTS["prerender"]["timing"]),
                        *(("encoding", k) for k in DEFAULTS["prerender"]["encoding"])]

    @hyp_settings(max_examples=60, deadline=None)
    @given(values=st.dictionaries(st.sampled_from(PRERENDER_FLOATS),
                                  st.floats(-300.0, 308.0).map(lambda e: 10.0 ** e),
                                  min_size=1))
    @example(values={("encoding", "base_i_size"): 1e308})      # the sums overflow
    @example(values={("timing", "t_request"): 1e308})
    def test_prerender_floats_give_strict_json_or_one_line(self, values):
        section: dict = {"steps": 20}
        for keys, value in values.items():
            node = section
            for key in keys[:-1]:
                node = node.setdefault(key, {})
            node[keys[-1]] = value

        def reject(constant):
            raise ValueError(f"{constant} in a JSON artifact")

        with tempfile.TemporaryDirectory() as tmp, redirect_stderr(io.StringIO()) as err:
            out = Path(tmp) / "out"
            cfg = _write_config(Path(tmp), {"prerender": section})
            code = main(["prerender-sim", "--config", cfg, "--out-dir", str(out)])
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL), err.getvalue()
            if code == EXIT_OK:
                for path in out.glob("*.json"):
                    json.loads(path.read_text(), parse_constant=reject)
            else:
                assert err.getvalue().count("\n") == 1, err.getvalue()

    TRACES = [("0 0 0\n1 5 5\n", "trace step 1: hop (0, 0) -> (5, 5) is not to a grid neighbour"),
              ("0 0 0\n1 1 0\n1 2 0\n", "path.trace:3: step index 1 does not follow 1")]

    @pytest.mark.parametrize("text, problem", TRACES, ids=["teleport", "duplicate-index"])
    def test_bad_trace_exits_config_with_one_line(self, tmp_path, capsys, text, problem):
        trace_path = tmp_path / "path.trace"
        trace_path.write_text(text)
        code = main(["prerender-sim", "--trace", str(trace_path),
                     "--out-dir", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1
        assert err.startswith("prerender-sim: error: ") and problem in err

    @pytest.mark.parametrize("command", ["prerender-sim", "game-solve"])
    def test_negative_seed_exits_config_with_one_line(self, tmp_path, capsys, command):
        out = tmp_path / "x"
        code = main([command, "--seed", "-1", "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err == f"{command}: config error: --seed: must be an integer >= 0, got -1\n"
        assert not out.exists()

    PATHS = [("game-solve", "--config", "adir", "cannot read 'adir': Is a directory"),
             ("game-solve", "--config", "binary", "cannot read 'binary': 'utf-8' codec"),
             ("prerender-sim", "--trace", "adir", "cannot read 'adir': Is a directory"),
             ("prerender-sim", "--trace", "nope", "cannot read 'nope': No such file"),
             ("diffusion-infer", "--checkpoint", "adir", "cannot read 'adir': Is a directory"),
             ("bench-run", "--checkpoint", "nope", "cannot read 'nope': No such file"),
             ("game-solve", "--out-dir", "afile", "cannot create directory 'afile': File exists"),
             ("game-solve", "--out-dir", "afile/sub", "cannot create directory 'afile/sub'")]

    @pytest.mark.parametrize("command, option, path, problem", PATHS,
                             ids=[f"{c}{o}={p}" for c, o, p, _ in PATHS])
    def test_bad_path_names_its_option(self, tmp_path, monkeypatch, capsys,
                                       command, option, path, problem):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("x\n")
        (tmp_path / "binary").write_bytes(b"\xff\xfe\x00")
        argv = [command, option, path]
        if option != "--out-dir":
            argv += ["--out-dir", "out"]
        if command == "bench-run":
            argv += ["--policies", "proposed"]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1
        assert err.startswith(f"{command}: config error: {option}: {problem}")

    def test_unmakeable_config_out_dir_names_the_key(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("x\n")
        cfg = _write_config(tmp_path, {"out_dir": "afile"})
        assert main(["game-solve", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == ("game-solve: config error: out_dir: cannot create "
                                           "directory 'afile': File exists\n")

    def test_failed_run_removes_the_directories_it_made(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        code = main(["prerender-sim", "--trace", "adir", "--out-dir", "o2/sub"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir"]

    def test_failed_run_keeps_a_directory_that_existed(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        (tmp_path / "o2").mkdir()
        assert main(["prerender-sim", "--trace", "adir", "--out-dir", "o2/sub"]) == EXIT_CONFIG
        assert main(["prerender-sim", "--trace", "adir", "--out-dir", "adir"]) == EXIT_CONFIG
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "o2"]
        assert not any((tmp_path / "o2").iterdir())

    def test_manifest_lists_every_output(self, tmp_path):
        out = tmp_path / "out"
        main(["prerender-sim", "--out-dir", str(out)])
        manifest = _manifest(out)
        on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert set(manifest["outputs"]) == on_disk
