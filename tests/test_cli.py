"""Command-line surface: artifacts, manifests, exit codes, determinism."""

import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import unicodedata
import zipfile
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

from oracles import save_trace
from renderopt.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from renderopt.config import DEFAULTS
from renderopt.diffusion import (AttentionGatedDenoiser, DenoiserConfig, NoiseSchedule,
                                 Standardizer, load_checkpoint, save_checkpoint)
from renderopt.prerender import MAX_WALK_STEPS

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

    def test_huge_weight_and_cap_exits_numerical_quickly(self, tmp_path):
        # the follower's best response came back as inf, so no sweep converged and
        # the run went on for minutes; now the equilibrium's utility is not finite
        nodes = [dict(n) for n in DEFAULTS["game"]["nodes"]]
        nodes[0]["alpha"] = nodes[0]["demand_max"] = 1e308
        cfg = _write_config(tmp_path, {"game": {"nodes": nodes}})
        proc = _run_cli("game-solve", "--config", cfg, "--out-dir", str(tmp_path / "out"),
                        timeout=30)
        assert proc.returncode == EXIT_NUMERICAL, proc.stderr
        assert proc.stderr == ("game-solve: numerical failure: equilibrium.json: non-finite "
                               "value, not written as JSON\n")

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

    # sha256 of walk_steps.csv and walk_summary.json as `prerender-sim --seed 3`
    # wrote them at commit 2a2417c, whose walk drew each step with rng.integers
    WALK_DIGESTS = {
        "default": ("df04bf5b3e75a9b216a2c996134d34d910a48cb1e2b5462a9ea6569dc1d49921",
                    "5b239bc7c56292cdc980c0120235abec04f49e1f5da49e5bf9a7d46f7e97f908"),
        "diagonal-23x17": ("fa73b5163cb0a0523283ecf3d0d93bdaf644ed68d6a896c73d88cc1f792e5566",
                           "e6bf02c6b0756e096f1b8815e2d0407684fc080fdb4f9b08304b7109d23ea076"),
    }

    @pytest.mark.parametrize("config", sorted(WALK_DIGESTS))
    def test_walk_unchanged(self, tmp_path, config):
        out = tmp_path / "out"
        argv = ["prerender-sim", "--seed", "3", "--out-dir", str(out)]
        if config == "diagonal-23x17":
            floor = {"width": 23, "height": 17, "diagonal": True, "region_side": 7,
                     "steps": 3000}
            argv += ["--config", _write_config(tmp_path, {"prerender": floor})]
        assert main(argv) == EXIT_OK
        got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("walk_steps.csv", "walk_summary.json"))
        assert got == self.WALK_DIGESTS[config]

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

    # sha256 of what `diffusion-infer --seed 3 --users 40` wrote on a checkpoint of
    # `diffusion-train --seed 3`, both under FAST_DIFFUSION, while the command and
    # the proposed policy each wrote the scoring pipeline out in full
    INFER_DIGESTS = {
        "probabilities.csv": "9a15fd6d5458aa37cc9ebcef5197e07dd3c3702e64060e274b82d5f213a256f3",
        "infer_summary.json": "823331ae08ee825eb48943836231219d6e435acfccc1425a39513473f96cd84f",
    }

    def test_infer_artifacts_unchanged(self, tmp_path):
        cfg = _write_config(tmp_path, FAST_DIFFUSION)
        train_out, out = tmp_path / "train", tmp_path / "infer"
        proc = _run_cli("diffusion-train", "--config", cfg, "--seed", "3",
                        "--out-dir", str(train_out))
        assert proc.returncode == EXIT_OK, proc.stderr
        proc = _run_cli("diffusion-infer", "--config", cfg, "--seed", "3", "--users", "40",
                        "--checkpoint", str(train_out / "checkpoint.npz"), "--out-dir", str(out))
        assert proc.returncode == EXIT_OK, proc.stderr
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in self.INFER_DIGESTS}
        assert got == self.INFER_DIGESTS

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

    # each was read whole: /dev/zero died with a MemoryError traceback, and the
    # whitespace line and the padded config walked and solved with exit 0
    UNBOUNDED = [
        ("prerender-sim", "--trace", "/dev/zero",
         "'/dev/zero':1: expected 'step_index x y' integers, got '\\x00"),
        ("game-solve", "--config", "/dev/zero",
         "--config: '/dev/zero' is larger than 1048576 bytes"),
        ("prerender-sim", "--trace", "0 1 1\n" + " " * 20_000 + "\n1 2 1\n",
         "long.input':2: expected 'step_index x y' integers, got '' in a line longer than "
         "16384 characters"),
        ("game-solve", "--config", "{}" + " " * (1 << 20),
         "--config: '{tmp}/long.input' is larger than 1048576 bytes"),
    ]

    @pytest.mark.parametrize("command, option, source, problem", UNBOUNDED,
                             ids=["trace-zero", "config-zero", "trace-line", "config-size"])
    def test_unbounded_input_exits_config_with_one_line(self, tmp_path, command, option,
                                                        source, problem):
        if not source.startswith("/dev/"):
            (tmp_path / "long.input").write_text(source)
            source = str(tmp_path / "long.input")
        elif not Path(source).exists():
            pytest.skip(f"no {source} on this system")
        proc = _run_cli(command, option, source, "--out-dir", str(tmp_path / "out"),
                        timeout=30, memory_cap=2 << 30)
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith(f"{command}: ")
        assert problem.format(tmp=tmp_path) in proc.stderr

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

    # both left the artifacts written before the failing one
    @pytest.mark.parametrize("command, payload, flags, name", NON_FINITE,
                             ids=[c for c, *_ in NON_FINITE])
    def test_failed_run_removes_the_files_it_wrote(self, tmp_path, capsys, command, payload,
                                                   flags, name):
        argv = [command, "--config", _write_config(tmp_path, payload), *flags]
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        assert main([*argv, "--out-dir", str(out)]) == EXIT_NUMERICAL
        assert [p.name for p in out.iterdir()] == ["notes.txt"]
        assert (out / "notes.txt").read_text() == "kept\n"
        assert main([*argv, "--out-dir", str(tmp_path / "new" / "sub")]) == EXIT_NUMERICAL
        assert not (tmp_path / "new").exists()
        assert capsys.readouterr().err.count("\n") == 2

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
              ("0 0 0\n1 1 0\n1 2 0\n", "path.trace':3: step index 1 does not follow 1")]

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

    # int() reads both as integers, so such a trace used to walk and exit 0
    @hyp_settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_non_ascii_or_underscored_trace_field_exits_config(self, data):
        path = [(10, 10), (11, 10), (11, 11), (10, 11), (10, 10)]
        fields = [[str(10 + 7 * i), str(x), str(y)] for i, (x, y) in enumerate(path)]
        line = data.draw(st.integers(0, len(fields) - 1), label="line")
        col = data.draw(st.integers(0, 2), label="field")
        text = fields[line][col]
        if data.draw(st.booleans(), label="underscore"):
            at = data.draw(st.integers(1, len(text) - 1), label="at")
            fields[line][col] = text[:at] + "_" + text[at:]
        else:           # one digit written in another script, same value
            at = data.draw(st.integers(0, len(text) - 1), label="at")
            digit = data.draw(st.characters(categories=("Nd",)).filter(lambda c: not c.isascii()),
                              label="digit")
            same = chr(ord(digit) - unicodedata.decimal(digit) + int(text[at]))
            fields[line][col] = text[:at] + same + text[at + 1:]
        assert int(fields[line][col]) == int(text)
        with tempfile.TemporaryDirectory() as tmp, redirect_stderr(io.StringIO()) as err:
            trace = Path(tmp) / "path.trace"
            trace.write_text("".join(" ".join(f) + "\n" for f in fields), encoding="utf-8")
            code = main(["prerender-sim", "--trace", str(trace), "--out-dir", f"{tmp}/out"])
            assert code == EXIT_CONFIG
            assert err.getvalue().count("\n") == 1
            assert err.getvalue().startswith(f"prerender-sim: error: {str(trace)!r}:{line + 1}: "
                                             f"expected 'step_index x y' integers, got ")

    def test_trace_past_the_walk_cap_exits_config_with_one_line(self, tmp_path, capsys):
        trace = tmp_path / "long.trace"
        with open(trace, "w") as fh:
            for i in range(MAX_WALK_STEPS + 2):
                fh.write(f"{i} {i % 2} 0\n")
        code = main(["prerender-sim", "--trace", str(trace), "--out-dir", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"prerender-sim: config error: --trace: {str(trace)!r}:{MAX_WALK_STEPS + 2}: more "
            f"than {MAX_WALK_STEPS + 1} points; a walk takes at most {MAX_WALK_STEPS} steps\n")
        assert not (tmp_path / "x").exists()

    # both echoed every digit: lines of ~4 000 characters
    LONG_COORDINATES = [("0 " + "9" * 4000 + " 0\n1 0 0\n", "start point (" + "9" * 59 + "..."),
                        ("0 0 0\n1 " + "9" * 4000 + " 0\n",
                         "trace step 1: hop (0, 0) -> (" + "9" * 59 + "... is not")]

    @pytest.mark.parametrize("text, problem", LONG_COORDINATES, ids=["start", "hop"])
    def test_long_trace_coordinate_echo_is_capped(self, tmp_path, capsys, text, problem):
        trace = tmp_path / "path.trace"
        trace.write_text(text)
        code = main(["prerender-sim", "--trace", str(trace), "--out-dir", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and len(err) < 200
        assert err.startswith("prerender-sim: error: ") and problem in err

    # both exited 2 with `step N outside [1, S]`, naming no key
    NOISE_STEPS = [("bench-run", {"bench": {"t_noise": 1400}}, None,
                    "bench.t_noise: must be in [1, 700] (steps of the schedule in use), "
                    "got 1400"),
                   ("diffusion-infer", {}, 100,
                    "diffusion.infer_noise_step: must be in [1, 100] (steps of the schedule "
                    "in use), got 140")]

    @pytest.mark.parametrize("command, payload, checkpoint_steps, problem", NOISE_STEPS,
                             ids=[c for c, *_ in NOISE_STEPS])
    def test_noise_step_past_the_schedule_names_the_key(self, tmp_path, capsys, command,
                                                        payload, checkpoint_steps, problem):
        argv = [command, "--config", _write_config(tmp_path, payload),
                "--out-dir", str(tmp_path / "x")]
        if checkpoint_steps is not None:
            ckpt = tmp_path / "checkpoint.npz"
            save_checkpoint(ckpt, AttentionGatedDenoiser(DenoiserConfig(d_model=8, heads=2)),
                            NoiseSchedule(steps=checkpoint_steps),
                            Standardizer(mean=np.zeros(6), std=np.ones(6)))
            argv += ["--checkpoint", str(ckpt)]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"{command}: config error: {problem}\n"

    def test_failed_run_leaves_an_earlier_runs_artifacts(self, tmp_path, capsys):
        out = tmp_path / "o2"
        assert main(["prerender-sim", "--seed", "5", "--out-dir", str(out)]) == EXIT_OK

        def digests():
            return {p.name: hashlib.md5(p.read_bytes()).hexdigest() for p in out.iterdir()}

        before = digests()
        command, payload, flags, _ = self.NON_FINITE[0]
        argv = [command, "--config", _write_config(tmp_path, payload), *flags]
        assert main([*argv, "--out-dir", str(out)]) == EXIT_NUMERICAL
        assert len(before) == 3 and digests() == before

    # exited 2 and left the manifest it had moved before the blocked artifact
    def test_blocked_publish_moves_no_file(self, tmp_path, capsys):
        out = tmp_path / "o3"
        blocker = out / "walk_summary.json"
        blocker.mkdir(parents=True)
        assert main(["prerender-sim", "--out-dir", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"prerender-sim: config error: --out-dir: cannot write into {str(out)!r}: "
            f"{str(blocker)!r} is a directory\n")
        assert [p.name for p in out.iterdir()] == ["walk_summary.json"]
        assert not any(blocker.iterdir())

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
             ("game-solve", "--config", "no\npe", "config file 'no\\npe' not found"),
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


# the fuzz runs: every command sized to about a second in a child interpreter
FUZZ_CONFIG = {"diffusion": {"dataset_users": 16, "epochs": 1, "d_model": 8, "heads": 2},
               "bench": {"scenes": 2, "train": {"users": 16, "epochs": 1}},
               "prerender": {"steps": 50}}


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """The fuzz config and a checkpoint trained with it."""
    base = tmp_path_factory.mktemp("fuzz-inputs")
    config = _write_config(base, FUZZ_CONFIG)
    assert main(["diffusion-train", "--config", config, "--out-dir", str(base / "ckpt")]) == 0
    return config, str(base / "ckpt" / "checkpoint.npz")


def _tree(path: Path):
    """Everything under `path`: None if missing, bytes for a file, else a dict."""
    if path.is_dir():
        return {p.name: _tree(p) for p in path.iterdir()}
    return path.read_bytes() if path.exists() else None


_TRACE_POINT = st.tuples(st.integers(-2, 12), st.integers(-2, 22), st.integers(-2, 22))


@st.composite
def trace_bytes(draw):
    """A walk on the default floor, a list of arbitrary small points, or raw bytes."""
    kind = draw(st.sampled_from(["walk", "points", "raw"]))
    if kind == "raw":
        return draw(st.binary(max_size=80))
    if kind == "points":
        points = draw(st.lists(_TRACE_POINT, max_size=6))
    else:
        x, y = draw(st.integers(0, 19)), draw(st.integers(0, 19))
        points = [(0, x, y)]
        for step in draw(st.lists(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]),
                                  max_size=30)):
            x, y = min(19, max(0, x + step[0])), min(19, max(0, y + step[1]))
            points.append((len(points), x, y))
    lines = [f"{i} {x} {y}\n" for i, x, y in points]
    junk = draw(st.sampled_from(["", "# note\n", "\n", "1 2\n", "\r\n", "0 0 0\n"]))
    lines.insert(draw(st.integers(0, len(lines))), junk)
    return "".join(lines).encode()


_FLAG_TEXT = st.text(st.characters(codec="utf-8", exclude_characters="\x00"), max_size=8)


def _number(lo, hi):
    return st.integers(lo, hi).map(str)

_OUT_NAMES = ["out", "a/b/out", "an empty dir", "a file", "blocked", "ö ü", "new\nline"]


@st.composite
def cli_cases(draw):
    """(argv without --config/--out-dir, out-dir name, (trace file name, its
    bytes or None))."""
    command = draw(st.sampled_from(["game-solve", "prerender-sim", "diffusion-train",
                                    "diffusion-infer", "bench-run"]))
    argv = [command]
    if draw(st.booleans()):
        argv += ["--seed", draw(_number(-3, 2**70) | _number(0, 99) | _FLAG_TEXT)]
    trace = None
    if command == "prerender-sim" and draw(st.booleans()):
        trace = draw(trace_bytes())
    trace_name = draw(st.sampled_from(["walk.trace", "new\nline.trace"]))
    if command in ("diffusion-infer", "bench-run") and draw(st.booleans()):
        argv += ["--checkpoint", "<checkpoint>"]
    if command == "diffusion-infer" and draw(st.booleans()):
        argv += ["--users", draw(_number(-2, 12) | _number(1, 5) | _FLAG_TEXT)]
    if command == "bench-run":
        if draw(st.booleans()):
            names = st.sampled_from(["proposed", "mdp", "random_opt", "none", " mdp", "",
                                     "greedy"])
            argv += ["--policies", draw(st.one_of(st.lists(names, max_size=4).map(",".join),
                                                  _FLAG_TEXT))]
        if draw(st.booleans()):
            argv.append("--plot-data")
    return argv, draw(st.sampled_from(_OUT_NAMES)), (trace_name, trace)


@hyp_settings(max_examples=40, deadline=None)
@given(case=cli_cases())
def test_any_flags_and_trace_exit_cleanly(fuzz_inputs, tmp_path_factory, case):
    """Exit 0, 2 or 3 with at most one stderr line, in bounded time; a failed
    run leaves everything as it was, a run that succeeds publishes a manifest
    that lists every file in its out dir."""
    config, checkpoint = fuzz_inputs
    argv, out_name, (trace_name, trace) = case
    base = tmp_path_factory.mktemp("fuzz")
    (base / "an empty dir").mkdir()
    (base / "a file").write_text("x\n")
    (base / "blocked").mkdir()
    for artifact in ("equilibrium.json", "walk_steps.csv", "checkpoint.npz",
                     "probabilities.csv", "metrics.csv"):
        (base / "blocked" / artifact).mkdir()
    argv = [checkpoint if a == "<checkpoint>" else a for a in argv]
    if trace is not None:
        trace_path = base / trace_name
        trace_path.write_bytes(trace)
        argv += ["--trace", str(trace_path)]
    out = base / out_name
    before = _tree(base)
    proc = _run_cli(*argv, "--config", config, "--out-dir", str(out), timeout=60,
                    memory_cap=2 << 30)
    assert proc.returncode in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL), proc.stderr
    assert proc.stderr.count("\n") <= 1, proc.stderr
    if proc.returncode != EXIT_OK:
        assert proc.stderr
        assert _tree(base) == before
        return
    files = sorted(p.name for p in out.iterdir())
    assert files == sorted(_manifest(out)["outputs"] + ["manifest.json"])



_NPY_ENTRIES = ["meta.npy", "params.npy", "standardizer.mean.npy", "standardizer.std.npy"]
_DESCRS = ["<f8", ">f8", "<f4", "<f2", "<c16", "|u1", "<i8", "|b1", "|O", "<U2", "|V8", "<M8[s]"]


@st.composite
def checkpoint_edits(draw):
    """How to damage a checkpoint: (entry, edit). With no entry the edit is made
    to the archive's bytes. An edited entry is stored again under a matching
    CRC, so the damage reaches the .npy reader: cut at an offset, a span
    overwritten, the bytes replaced, or the .npy header's shape or dtype set."""
    entry = draw(st.sampled_from([None, *_NPY_ENTRIES]))
    kinds = ["cut", "overwrite", "replace"] + (["shape", "descr"] if entry else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "shape":
        return entry, (kind, tuple(draw(st.lists(st.integers(0, 2**62), max_size=3))))
    if kind == "descr":
        return entry, (kind, draw(st.sampled_from(_DESCRS)))
    # an entry's first 128 bytes are its .npy header; an archive's central
    # directory is its last few hundred, which a negative offset counts back into
    offset = draw(st.integers(0, 127) | st.integers(0, 1 << 12) | st.integers(-512, -1))
    return entry, (kind, offset, draw(st.binary(min_size=1, max_size=16)))


def _edit_bytes(raw: bytes, edit) -> bytes:
    kind, *rest = edit
    if kind == "shape" or kind == "descr":
        fh = io.BytesIO(raw)
        np.lib.format.read_magic(fh)            # np.savez wrote format 1.0
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
        header = {"shape": shape, "fortran_order": fortran_order,
                  "descr": np.lib.format.dtype_to_descr(dtype), kind: rest[0]}
        out = io.BytesIO()
        np.lib.format.write_array_header_1_0(out, header)
        return out.getvalue() + raw[fh.tell():]
    offset, data = rest
    offset = max(0, len(raw) + offset) if offset < 0 else min(offset, len(raw))
    if kind == "cut":
        return raw[:offset]
    if kind == "overwrite":
        return raw[:offset] + data + raw[offset + len(data):]
    return data


def _damaged_checkpoint(path: Path, entry, edit) -> bytes:
    if entry is None:
        return _edit_bytes(path.read_bytes(), edit)
    out = io.BytesIO()
    with zipfile.ZipFile(path) as src, zipfile.ZipFile(out, "w") as dst:
        for name in src.namelist():
            raw = src.read(name)
            dst.writestr(name, _edit_bytes(raw, edit) if name == entry else raw)
    return out.getvalue()


# each ended in a traceback: a member that is no .npy file (numpy returns its
# bytes), a header declaring 8 TiB, a header its tokenizer cannot read, and
# an unsupported compression method in the central directory
@example(damage=("meta.npy", ("cut", 0, b"\x00")))
@example(damage=("params.npy", ("shape", (2**40,))))
@example(damage=("standardizer.mean.npy", ("overwrite", 121, b";}\xae")))
@example(damage=(None, ("overwrite", -144, b"\x1c|S\x88\t")))
@hyp_settings(max_examples=40, deadline=None)
@given(damage=checkpoint_edits())
def test_any_damaged_checkpoint_exits_cleanly(fuzz_inputs, tmp_path_factory, damage):
    """diffusion-infer on a damaged checkpoint: exit 0 (with a warning line at
    most) or exit 2 or 3 with one stderr line; no traceback, in bounded time and
    memory."""
    config, checkpoint = fuzz_inputs
    base = tmp_path_factory.mktemp("checkpoint-fuzz")
    (base / "damaged.npz").write_bytes(_damaged_checkpoint(Path(checkpoint), *damage))
    proc = _run_cli("diffusion-infer", "--config", config, "--checkpoint",
                    str(base / "damaged.npz"), "--out-dir", str(base / "out"), timeout=60,
                    memory_cap=2 << 30)
    assert proc.returncode in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL), proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    if proc.returncode == EXIT_OK:
        assert proc.stderr.count("\n") <= 1, proc.stderr     # an overflow warning at most
    else:
        assert proc.stderr.count("\n") == 1, proc.stderr


def _key_paths(tree, path=()):
    """Every key path of `tree`, into objects and list entries alike, with its value."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, path + (key,))


_CONFIG_PATHS = [path for path, _ in _key_paths(DEFAULTS)]
_OBJECT_PATHS = [()] + [path for path, value in _key_paths(DEFAULTS) if isinstance(value, dict)]
# wrong JSON types, and numbers out of most ranges: signs, extremes, non-finite
_ODD_VALUES = [None, True, "x", "", [], {}, [1], {"a": 1}, -1, 0, 0.5, 1e-300, -1e308, 1e308,
               2**63, 10**400, float("nan"), float("inf"), float("-inf")]


@st.composite
def config_bytes(draw):
    """DEFAULTS with one key deleted, one unknown key added or one value
    replaced, as JSON bytes; or bytes that are no JSON object or no UTF-8."""
    tree = json.loads(json.dumps(DEFAULTS))
    kind = draw(st.sampled_from(["delete", "unknown", "replace", "cut", "latin-1", "raw"]))
    if kind in ("delete", "replace"):
        *parents, key = draw(st.sampled_from(_CONFIG_PATHS))
        node = tree
        for parent in parents:
            node = node[parent]
        if kind == "delete":
            del node[key]
        else:
            node[key] = draw(st.sampled_from(_ODD_VALUES))
    elif kind == "unknown":
        node = tree
        for parent in draw(st.sampled_from(_OBJECT_PATHS)):
            node = node[parent]
        name = draw(st.text(max_size=6).filter(lambda k: k not in node))
        node[name] = draw(st.sampled_from(_ODD_VALUES))
    if kind == "raw":
        return draw(st.binary(max_size=40))
    text = json.dumps(tree)
    if kind == "cut":
        return text[:draw(st.integers(0, len(text) - 1))].encode()
    if kind == "latin-1":            # an accented node id, saved in a one-byte encoding
        return text.replace("edge-0", "\u00e9dge-0").encode("latin-1")
    return text.encode()


def _odd_solver_config(key):
    tree = json.loads(json.dumps(DEFAULTS))
    tree["game"]["solver"][key] = 1e-300
    return json.dumps(tree).encode()


# each ran game-solve past a minute or ended in a ZeroDivisionError traceback
@example(payload=_odd_solver_config("br_tolerance"))
@example(payload=_odd_solver_config("fd_epsilon_frac"))
@hyp_settings(max_examples=40, deadline=None)
@given(payload=config_bytes())
def test_any_config_file_exits_cleanly(tmp_path_factory, payload):
    """game-solve, which validates every section, on an edited config file:
    exit 0, or exit 2 with one stderr line; no traceback, in bounded time."""
    base = tmp_path_factory.mktemp("config-fuzz")
    (base / "config.json").write_bytes(payload)
    proc = _run_cli("game-solve", "--config", str(base / "config.json"),
                    "--out-dir", str(base / "out"), timeout=30, memory_cap=2 << 30)
    assert "Traceback" not in proc.stderr, proc.stderr
    if proc.returncode == EXIT_OK:
        assert proc.stderr.count("\n") <= 1, proc.stderr     # a convergence warning at most
        assert (base / "out" / "equilibrium.json").is_file()
    else:
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert proc.stderr.startswith("game-solve: ") and proc.stderr.count("\n") == 1, \
            proc.stderr
