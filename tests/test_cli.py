"""Command-line surface: artifacts, manifests, exit codes, determinism."""

import ast
import errno
import hashlib
import io
import json
import math
import os
import re
import resource
import signal
import subprocess
import sys
import tempfile
import time
import unicodedata
import zipfile
from contextlib import redirect_stderr
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

from conftest import CRITERION_7
from oracles import save_trace
from renderopt import cli, errors
from renderopt.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from renderopt.config import DEFAULTS, MEMORY_BUDGET, param_shapes, parse_config
from renderopt.diffusion import (AttentionGatedDenoiser, DenoiserConfig, NoiseSchedule,
                                 Standardizer, load_checkpoint, save_checkpoint,
                                 skip_step_infer)
from renderopt.diffusion.checkpoint import MAX_ENTRY_BYTES
from renderopt.errors import ConfigError, shown
from renderopt.prerender import MAX_WALK_STEPS
from sparse import holes_kept, save_sparse_npz

FAST_DIFFUSION = {"diffusion": CRITERION_7["diffusion"]}
FAST_BENCH = {"bench": CRITERION_7["bench"], "diffusion": {"d_model": 16, "heads": 2}}


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _digests(out_dir, names):
    """sha256 of each named file in out_dir."""
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in names}


def _manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def _cli_child(*argv, memory_cap=None, file_cap=None, cwd=None, env=None):
    """The command and the `subprocess` keywords of `python -m renderopt.cli
    argv` in a fresh interpreter, in `cwd` if given, so warnings reach stderr
    as they would for a user; `memory_cap` bytes of address space, if given,
    make a blow-up fail the run instead of exhausting the host, `file_cap`
    bytes cap each file the child writes, and `env` is added to the child's
    environment."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", **(env or {})}

    def cap():
        if memory_cap:
            resource.setrlimit(resource.RLIMIT_AS, (memory_cap, memory_cap))
        if file_cap:
            resource.setrlimit(resource.RLIMIT_FSIZE, (file_cap, file_cap))

    return ([sys.executable, "-m", "renderopt.cli", *argv],
            dict(env=env, cwd=cwd, preexec_fn=cap if memory_cap or file_cap else None))


def _run_cli(*argv, timeout=60, **child):
    """`_cli_child(*argv, **child)` run to its end, its output captured as text."""
    command, keywords = _cli_child(*argv, **child)
    return subprocess.run(command, capture_output=True, text=True, timeout=timeout, **keywords)


# what a path option may name besides a regular file; each is refused unread
PATH_KINDS = ["fifo", "fifo link", "/dev/null", "/dev/zero", "directory"]


def _special_path(directory: Path, kind: str) -> str:
    """A path of a kind in PATH_KINDS, made in `directory` on first use: a FIFO
    with no writer, a symlink to that FIFO, or an empty directory."""
    if kind.startswith("/dev/"):
        return kind
    fifo = directory / "fifo"
    if not os.path.lexists(fifo):
        os.mkfifo(fifo)
    path = directory / kind
    if kind == "directory" and not path.exists():
        path.mkdir()
    elif kind == "fifo link" and not os.path.lexists(path):
        path.symlink_to(fifo)
    return str(path)


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

    def test_longest_replay_walks_in_bounded_memory(self, tmp_path):
        # the replay read its whole trace before the walk and peaked at ~100 MB
        trace, out = tmp_path / "long.trace", tmp_path / "out"
        with open(trace, "w") as fh:
            fh.writelines(f"{i} {i % 2} 0\n" for i in range(MAX_WALK_STEPS + 1))
        # the peak RSS of the command alone: of the only child of a wrapper
        wrapper = ("import resource, subprocess, sys; "
                   "code = subprocess.run(sys.argv[1:]).returncode; "
                   "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", wrapper, sys.executable, "-m",
                               "renderopt.cli", "prerender-sim", "--trace", str(trace),
                               "--out-dir", str(out)], capture_output=True, text=True,
                              timeout=180, env={**os.environ, "PYTHONPATH": src})
        code, peak_kib = map(int, proc.stdout.split())      # ru_maxrss is in KiB on Linux
        assert code == EXIT_OK, proc.stderr
        with open(out / "walk_steps.csv", newline="") as fh:
            assert sum(1 for _ in fh) == 1 + MAX_WALK_STEPS
        assert peak_kib < 60 * 1024

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

    @pytest.fixture(scope="class")
    def fast_training(self, tmp_path_factory):
        """(config path, out dir) of `diffusion-train --seed 3` under FAST_DIFFUSION."""
        tmp = tmp_path_factory.mktemp("fast-training")
        cfg = _write_config(tmp, FAST_DIFFUSION)
        proc = _run_cli("diffusion-train", "--config", cfg, "--seed", "3",
                        "--out-dir", str(tmp / "train"))
        assert proc.returncode == EXIT_OK, proc.stderr
        return cfg, tmp / "train"

    # sha256 of what `fast_training` wrote, while each of its CSV and JSON writers
    # wrote floats as their repr in code of its own
    TRAIN_DIGESTS = {
        "training_curve.csv": "d32f885806966ef4c007f18151d7d8677793c62918402383b3ff635e2fdfcbcd",
        "train_summary.json": "5f5b86c4b1689237806f01b6b60f01f4b5cb80b0e29d9cf64c353726668baa33",
    }

    def test_train_artifacts_unchanged(self, fast_training):
        _, out = fast_training
        assert _digests(out, self.TRAIN_DIGESTS) == self.TRAIN_DIGESTS

    # sha256 of what `diffusion-infer --seed 3 --users 40` wrote on the checkpoint
    # of `fast_training`, while the command and the proposed policy each wrote the
    # scoring pipeline out in full
    INFER_DIGESTS = {
        "probabilities.csv": "9a15fd6d5458aa37cc9ebcef5197e07dd3c3702e64060e274b82d5f213a256f3",
        "infer_summary.json": "823331ae08ee825eb48943836231219d6e435acfccc1425a39513473f96cd84f",
    }

    def test_infer_artifacts_unchanged(self, fast_training, tmp_path):
        cfg, train_out = fast_training
        out = tmp_path / "infer"
        proc = _run_cli("diffusion-infer", "--config", cfg, "--seed", "3", "--users", "40",
                        "--checkpoint", str(train_out / "checkpoint.npz"), "--out-dir", str(out))
        assert proc.returncode == EXIT_OK, proc.stderr
        assert _digests(out, self.INFER_DIGESTS) == self.INFER_DIGESTS

    # sha256 of what `bench-run --seed 3 --plot-data` wrote on the checkpoint of
    # `fast_training`, while each CSV writer wrote floats as their repr itself
    BENCH_DIGESTS = {
        "metrics.csv": "a0c4bb25b9ce63eab189b5035be7c6e81797e4e48bcbd7d50e6d43f5a043c310",
        "bench_summary.json": "de2cc6cde822a499fbe7a6b6f490ca35965fe23fc3c6484031542bcfa26a9f8c",
        "plot_metrics.csv": "0fd6441313790c5f8b7fe42a48888768c9e407102bdb76b6e68de0e4133f8973",
        "plot_time_proposed.csv":
            "19f8e9f2816ccd3567f8295ee16e9f42d8d84b07d810c0effb9bec2a6032f2a3",
        "plot_time_mdp.csv": "ebec12aca22d191472f700102ef4d85d3da2be58b44059e4162b5958e14f0553",
        "plot_time_random_opt.csv":
            "df20733fe50e459ecd9c9fdf85e0ee21b6f057df47fcd422232cfbd1f18abb7a",
        "plot_time_none.csv": "67ee37adb5544bf84a03ba5afdbf99b22d4422adc32713a19e831ef47b3326ca",
    }

    def test_bench_on_checkpoint_artifacts_unchanged(self, fast_training, tmp_path):
        cfg, train_out = fast_training
        out = tmp_path / "bench"
        proc = _run_cli("bench-run", "--config", cfg, "--seed", "3", "--plot-data",
                        "--checkpoint", str(train_out / "checkpoint.npz"), "--out-dir", str(out))
        assert proc.returncode == EXIT_OK, proc.stderr
        assert _digests(out, self.BENCH_DIGESTS) == self.BENCH_DIGESTS

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
        cfg = _write_config(tmp_path, CRITERION_7)
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

    def test_integer_past_the_digit_limit_is_a_config_parse_error(self, tmp_path, capsys):
        # json refuses it with a ValueError that exited 2 as `error: Exceeds the limit…`
        cfg = tmp_path / "config.json"
        cfg.write_text('{"seed": ' + "1" * 5_000 + "}")
        code = main(["game-solve", "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1
        assert err.startswith("game-solve: config error: config parse error: Exceeds the limit")

    # foreign text: a UTF-8 byte-order mark, and the literals json reads as inf and nan
    FOREIGN = {
        "utf-8-bom": (b'\xef\xbb\xbf{"seed": 1}', "config parse error: Unexpected UTF-8 BOM"),
        "1e400": (b'{"seed": 1e400}', "seed: must be an integer, got inf"),
        "nan": (b'{"seed": NaN}', "seed: must be an integer, got nan"),
    }

    @pytest.mark.parametrize("raw, problem", FOREIGN.values(), ids=FOREIGN)
    def test_foreign_config_text_exits_config_with_one_line(self, tmp_path, capsys, raw,
                                                            problem):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(raw)
        code = main(["game-solve", "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and len(err.rstrip("\n")) <= 140
        assert err.startswith(f"game-solve: config error: {problem}")

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

    # each was read whole: /dev/zero died with a MemoryError traceback (for a
    # checkpoint in zipfile's end-record scan, or was killed for memory), and
    # the whitespace line and the padded config walked and solved with exit 0.
    # Now no path option reads what is not a regular file: `TestInputDoor` runs
    # /dev/zero and a FIFO for --config, --trace and diffusion-infer's
    # --checkpoint under the same cap, and bench-run's --checkpoint runs here
    UNBOUNDED = [
        ("prerender-sim", "--trace", "0 1 1\n" + " " * 20_000 + "\n1 2 1\n",
         "{path}:2: expected 'step_index x y' integers, got '' in a line longer than "
         "16384 characters"),
        ("game-solve", "--config", "{}" + " " * (1 << 20),
         "--config: cannot read {path}: larger than 1048576 bytes"),
        ("bench-run", "--checkpoint", "/dev/zero",
         "--checkpoint: cannot read '/dev/zero': not a regular file"),
        # sizes each within its own bound, that exited 1 with an ArrayMemoryError
        # traceback of 34-40 lines before one rule counted them together
        ("diffusion-train", "--config", json.dumps({"diffusion": {"d_model": 1024,
                                                                  "seq_len": 128}}),
         "config error: diffusion.batch_size: must be at most 3 "),
        ("diffusion-train", "--config", json.dumps({"diffusion": {
            "d_model": 256, "seq_len": 128, "batch_size": 256}}),
         "config error: diffusion.batch_size: must be at most 132 "),
        ("diffusion-train", "--config", json.dumps({"diffusion": {
            "d_model": 64, "seq_len": 128, "dataset_users": 10_000, "batch_size": 10_000}}),
         "config error: diffusion.batch_size: must be at most 364 "),
    ]

    @pytest.mark.parametrize("command, option, source, problem", UNBOUNDED,
                             ids=["trace-line", "config-size", "bench-checkpoint-zero",
                                  "joint-width-length", "joint-batch", "joint-users-batch"])
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
        assert problem.format(path=shown(source)) in proc.stderr

    def test_sparse_checkpoint_exits_config_unread(self, tmp_path):
        # a 3 GB params entry, a hole on disk: read whole, it exited 1 with a
        # MemoryError traceback under the 2 GiB cap
        path = tmp_path / "sparse.npz"
        save_sparse_npz(path, 375_000_000)
        if not holes_kept(path):
            pytest.skip("this file system fills holes")
        proc = _run_cli("diffusion-infer", "--checkpoint", str(path),
                        "--out-dir", str(tmp_path / "out"), timeout=30, memory_cap=2 << 30)
        assert proc.returncode == EXIT_CONFIG, proc.stderr[-300:]
        assert proc.stderr == (f"diffusion-infer: config error: --checkpoint: {shown(str(path))}: "
                               f"not a readable .npz archive (entry 'params': larger than "
                               f"{MAX_ENTRY_BYTES} bytes)\n")

    @hyp_settings(max_examples=60, deadline=None)
    @given(section=st.sampled_from(["diffusion", "bench.train"]),
           heads=st.sampled_from([1, 2, 4]), data=st.data(),
           half_length=st.integers(1, 64), batch_size=st.integers(1, 20_000),
           users=st.integers(2, 10_000))
    def test_joint_sizes_exit_config_or_train(self, tmp_path_factory, section, heads, data,
                                              half_length, batch_size, users):
        # the rule's verdict, read in bytes: six weight copies, then min(batch_size,
        # users) workspace rows, must fit; a config that fits reaches training
        d_model = 2 * heads * data.draw(st.integers(1, 640 // heads), label="width")
        net = SimpleNamespace(d_model=d_model, heads=heads, mlp_ratio=2, feature_dim=6,
                              cond_dim=4, gate_dim=d_model // 2)
        weights = 6 * 8 * sum(map(math.prod, param_shapes(net).values()))
        rows = 8 * min(batch_size, users) * DenoiserConfig.row_floats(net, 2 * half_length)
        refused = ("diffusion.d_model" if weights > MEMORY_BUDGET else
                   f"{section}.batch_size" if weights + rows > MEMORY_BUDGET else None)
        tree = {"diffusion": {"d_model": d_model, "heads": heads, "seq_len": 2 * half_length}}
        if section == "diffusion":
            command = "diffusion-train"
            tree["diffusion"].update(batch_size=batch_size, dataset_users=users)
        else:
            command = "bench-run"
            tree["bench"] = {"train": {"batch_size": batch_size, "users": users}}
        base = tmp_path_factory.mktemp("joint")

        class Reached(Exception):
            """Raised where training would build its population."""

        def reached(*args, **kwargs):
            raise Reached

        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, redirect_stderr(err):
            mp.setattr(cli, "make_population", reached, raising=False)
            try:
                code = main([command, "--config", _write_config(base, tree),
                             "--out-dir", str(base / "out")])
            except Reached:
                code = None
        if refused is None:
            assert code is None, err.getvalue()
        else:
            assert code == EXIT_CONFIG
            assert err.getvalue().startswith(f"{command}: config error: {refused}: must be ")

    @pytest.mark.parametrize("seq_len, users", [(16, 4), (128, 2)])
    def test_widest_network_the_rule_admits_trains(self, tmp_path, seq_len, users):
        # the widest network with 4 heads whose six weight copies and `users`
        # rows fit, for one epoch under the 2 GiB cap; 4 wider is refused
        def fits(d_model):
            try:
                return DenoiserConfig(d_model=d_model).training_rows(seq_len) >= users
            except ConfigError:
                return False

        d_model = max(d for d in range(4, 2048, 4) if fits(d))
        tree = {"diffusion": {"d_model": d_model, "seq_len": seq_len, "dataset_users": users,
                              "epochs": 1}}
        proc = _run_cli("diffusion-train", "--config", _write_config(tmp_path, tree),
                        "--out-dir", str(tmp_path / "out"), timeout=120, memory_cap=2 << 30)
        assert proc.returncode == EXIT_OK, proc.stderr
        tree["diffusion"]["d_model"] += 4
        with redirect_stderr(io.StringIO()):
            assert main(["diffusion-train", "--config", _write_config(tmp_path, tree),
                         "--out-dir", str(tmp_path / "refused")]) == EXIT_CONFIG

    # each repeated the whole value, in a line of 4 000 to 500 000 characters;
    # ("member", name) is a trained checkpoint with one more member of that name
    LONG_ECHOES = {
        "policies": (["bench-run", "--policies", "x" * 100_000], None),
        "seed": (["game-solve", "--seed", "9" * 5_000], None),
        "command": (["x" * 100_000], None),
        "argument": (["game-solve", "y" * 100_000], None),
        "trace-index": (["prerender-sim", "--trace", "in.trace"],
                        "9" * 4_001 + " 0 0\n" + "9" * 4_001 + " 1 0\n"),
        "config-string": (["game-solve", "--config", "in.json"],
                          {"diffusion": {"learning_rate": "x" * 100_000}}),
        "config-key": (["game-solve", "--config", "in.json"], {"k" * 100_000: 1}),
        "config-list": (["game-solve", "--config", "in.json"], {"out_dir": [0] * 100_000}),
        "checkpoint-member": (["diffusion-infer", "--checkpoint", "in.npz"],
                              ("member", "m" * 10_000 + ".npy")),
    }

    @pytest.mark.parametrize("argv, content", LONG_ECHOES.values(), ids=LONG_ECHOES)
    def test_long_value_is_echoed_cut(self, tmp_path, argv, content):
        if isinstance(content, dict):
            _write_config(tmp_path, content, "in.json")
        elif isinstance(content, tuple):
            raw = io.BytesIO()
            save_checkpoint(raw, AttentionGatedDenoiser(DenoiserConfig(d_model=8, heads=2)),
                            NoiseSchedule(), Standardizer(mean=np.zeros(6), std=np.ones(6)))
            with zipfile.ZipFile(raw, "a") as archive:
                archive.writestr(content[1], archive.read("params.npy"))
            (tmp_path / "in.npz").write_bytes(raw.getvalue())
        elif content is not None:
            (tmp_path / "in.trace").write_text(content)
        proc = _run_cli(*argv, "--out-dir", "out", timeout=30, memory_cap=2 << 30,
                        cwd=tmp_path)
        assert proc.returncode == EXIT_CONFIG, proc.stderr[:300]
        assert proc.stderr.count("\n") == 1 and len(proc.stderr) <= 300, proc.stderr[:300]
        assert "..." in proc.stderr

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

    # Every fault a --trace file can hold. Malformed lines and bad hops named no
    # option; the long coordinates (start, hop) were echoed in full, in lines of
    # ~4 000 characters. An int is that many points, back and forth along row 0.
    TRACES = {
        "missing": (None, "cannot read 'path.trace': No such file or directory"),
        "directory": ("<dir>", "cannot read 'path.trace': Is a directory"),
        "non-utf-8": (b"0 0 0\n1 \xff 0\n",
                      "'path.trace':2: byte 0xff is not UTF-8, in b'1 \\xff 0'"),
        "non-utf-8-comment": (b"0 0 0\n# caf\xe9\n1 1 0\n",
                              "'path.trace':2: byte 0xe9 is not UTF-8, in b'# caf\\xe9'"),
        # a UTF-8 comment is read past: the fault is the index after it
        "utf-8-comment": ("# caf\u00e9\n0 0 0\n0 1 0\n", "'path.trace':3: step index 0 does "
                                                      "not follow 0; indices must strictly "
                                                      "increase"),
        "malformed": ("0 0 0\n1 1.5 0\n", "'path.trace':2: expected 'step_index x y' "
                                          "integers, got '1 1.5 0'"),
        "duplicate-index": ("0 0 0\n1 1 0\n1 2 0\n", "'path.trace':3: step index 1 does not "
                                                    "follow 1; indices must strictly increase"),
        "one-point": ("0 3 3\n", "trace has no steps; a walk takes from 1 to 1000000"),
        "start": ("0 " + "9" * 4000 + " 0\n1 0 0\n",
                  "start point (" + "9" * 59 + "... outside grid"),
        "teleport": ("0 0 0\n1 5 5\n",
                     "trace step 1: hop (0, 0) -> (5, 5) is not to a grid neighbour"),
        "hop": ("0 0 0\n1 " + "9" * 4000 + " 0\n",
                "trace step 1: hop (0, 0) -> (" + "9" * 59 + "... is not to a grid neighbour"),
        "past-the-cap": (MAX_WALK_STEPS + 2, f"trace has more than {MAX_WALK_STEPS} steps; "
                                             f"a walk takes from 1 to {MAX_WALK_STEPS}"),
    }

    @pytest.mark.parametrize("text, problem", TRACES.values(), ids=TRACES)
    def test_bad_trace_exits_config_with_one_line(self, tmp_path, monkeypatch, capsys, text,
                                                  problem):
        monkeypatch.chdir(tmp_path)
        trace = tmp_path / "path.trace"
        if text == "<dir>":
            trace.mkdir()
        elif isinstance(text, int):
            with open(trace, "w") as fh:
                fh.writelines(f"{i} {i % 2} 0\n" for i in range(text))
        elif text is not None:
            trace.write_bytes(text if isinstance(text, bytes) else text.encode())
        code = main(["prerender-sim", "--trace", "path.trace", "--out-dir", "x"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and len(err) < 200
        assert err.startswith("prerender-sim: config error: --trace: ") and problem in err
        assert not (tmp_path / "x").exists()

    # each --trace fault the README quotes, from a trace that makes it
    README_TRACES = [b"0 0 0\n1 1 0\n1 2 0\n",
                     "".join(f"{i} {i % 2} 0\n" for i in range(3000)).encode()
                     + b"3000 \xff 0\n",
                     b"0 1 0\n1 0 0\n2 1 0\n3 2 0\n4 5 5\n",
                     MAX_WALK_STEPS + 2]

    def test_readme_trace_examples(self, tmp_path, monkeypatch, capsys):
        readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
        quoted = re.findall(r"`(prerender-sim: config error: --trace: [^`]*)`", readme)
        monkeypatch.chdir(tmp_path)
        errors = []
        for text in self.README_TRACES:
            if isinstance(text, int):
                with open("walk.trace", "w") as fh:
                    fh.writelines(f"{i} {i % 2} 0\n" for i in range(text))
            else:
                (tmp_path / "walk.trace").write_bytes(text)
            assert main(["prerender-sim", "--trace", "walk.trace", "--out-dir", "x"]) == \
                EXIT_CONFIG
            errors.append(capsys.readouterr().err.removesuffix("\n"))
        assert errors == quoted

    # a trace was decoded with the locale's encoding: under the POSIX locale,
    # with UTF-8 mode off, the bad byte was reported by the 'ascii' codec and a
    # UTF-8 comment could not be read
    @pytest.mark.parametrize("text, problem", [TRACES["non-utf-8"],
                                               ("# caf\u00e9\n0 0 0\n1 1 0\n", None)],
                             ids=["non-utf-8", "utf-8-comment"])
    def test_trace_is_read_as_utf8_under_any_locale(self, tmp_path, text, problem):
        trace = tmp_path / "path.trace"
        trace.write_bytes(text if isinstance(text, bytes) else text.encode())
        proc = _run_cli("prerender-sim", "--trace", "path.trace", "--out-dir", "x",
                        cwd=tmp_path, env={"LC_ALL": "POSIX", "PYTHONUTF8": "0"})
        if problem is None:
            assert proc.returncode == EXIT_OK, proc.stderr
            return
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("prerender-sim: config error: --trace: ")
        assert problem in proc.stderr

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
            assert err.getvalue().startswith(f"prerender-sim: config error: --trace: "
                                             f"{shown(str(trace))}:{line + 1}: expected "
                                             f"'step_index x y' integers, got ")

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

    # both exited 2 against `diffusion.steps`, a schedule neither denoises with
    NOISE_STEPS_IN_USE = [
        ("diffusion-train", {"diffusion": {"steps": 100, "dataset_users": 16, "epochs": 1,
                                           "d_model": 8, "heads": 2}}, None),
        ("diffusion-infer", {"diffusion": {"infer_noise_step": 800, "stride": 200}}, 1000)]

    @pytest.mark.parametrize("command, payload, checkpoint_steps", NOISE_STEPS_IN_USE,
                             ids=[c for c, *_ in NOISE_STEPS_IN_USE])
    def test_noise_step_checked_only_against_the_schedule_in_use(self, tmp_path, command,
                                                                 payload, checkpoint_steps):
        out = tmp_path / "x"
        argv = [command, "--config", _write_config(tmp_path, payload), "--out-dir", str(out)]
        if checkpoint_steps is not None:
            ckpt = tmp_path / "checkpoint.npz"
            save_checkpoint(ckpt, AttentionGatedDenoiser(DenoiserConfig(d_model=8, heads=2)),
                            NoiseSchedule(steps=checkpoint_steps),
                            Standardizer(mean=np.zeros(6), std=np.ones(6)))
            argv += ["--checkpoint", str(ckpt), "--users", "1"]
        assert main(argv) == EXIT_OK
        if command == "diffusion-infer":
            summary = json.loads((out / "infer_summary.json").read_text())
            assert (summary["t_noise"], summary["denoiser_calls"]) == (800, 4)

    # step 140 against a 100-step schedule, given to each entry point that takes a
    # noise step: (name it is given as, how it is given); library faults were
    # worded `step N outside [1, S]` or `t_start N outside [1, S]`
    STEP_ENTRIES = {
        "diffusion-infer": ("diffusion.infer_noise_step",
                            ("diffusion-infer", {"diffusion": {"infer_noise_step": 140}})),
        "bench-run": ("bench.t_noise", ("bench-run", {"bench": {"t_noise": 140}})),
        "skip_step_infer": ("t_start", lambda schedule: skip_step_infer(
            AttentionGatedDenoiser(DenoiserConfig(d_model=8, heads=2)), np.zeros((16, 6)),
            np.zeros(4), schedule, stride=35, t_start=140)),
        "perturb": ("t", lambda schedule: schedule.perturb(
            np.zeros((2, 16, 6)), np.array([1, 140]), np.zeros((2, 16, 6)))),
        "signal_level": ("t", lambda schedule: schedule.signal_level(140)),
    }

    @pytest.mark.parametrize("name, entry", STEP_ENTRIES.values(), ids=STEP_ENTRIES)
    def test_every_step_fault_has_one_wording(self, tmp_path, capsys, name, entry):
        schedule = NoiseSchedule(steps=100)
        if callable(entry):
            with pytest.raises(ValueError) as info:
                entry(schedule)
            message = str(info.value)
        else:
            command, payload = entry
            ckpt = tmp_path / "checkpoint.npz"
            save_checkpoint(ckpt, AttentionGatedDenoiser(DenoiserConfig(d_model=8, heads=2)),
                            schedule, Standardizer(mean=np.zeros(6), std=np.ones(6)))
            assert main([command, "--config", _write_config(tmp_path, payload),
                         "--checkpoint", str(ckpt), "--out-dir", str(tmp_path / "x")]) \
                == EXIT_CONFIG
            message = capsys.readouterr().err.removeprefix(f"{command}: config error: ")
            message = message.removesuffix("\n")
        assert message == f"{name}: must be in [1, 100] (steps of the schedule in use), got 140"

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
            f"prerender-sim: config error: --out-dir: cannot write into {shown(str(out))}: "
            f"{shown(str(blocker))} is a directory\n")
        assert [p.name for p in out.iterdir()] == ["walk_summary.json"]
        assert not any(blocker.iterdir())

    # printed `error: [Errno 27] File too large`, naming no file; game-solve's
    # equilibrium.json fits in 300 bytes, its manifest does not
    @pytest.mark.parametrize("command, artifact", [("game-solve", "manifest.json"),
                                                   ("prerender-sim", "walk_steps.csv")])
    def test_write_past_the_file_size_limit_names_the_artifact(self, tmp_path, command,
                                                               artifact):
        out = tmp_path / "out"
        out.mkdir()
        (out / "walk_steps.csv").write_text("an earlier run's\n")
        proc = _run_cli(command, "--out-dir", str(out), file_cap=300)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr == (f"{command}: error: [Errno {errno.EFBIG}] "
                               f"{os.strerror(errno.EFBIG)}: {artifact!r}\n")
        assert [p.name for p in out.iterdir()] == ["walk_steps.csv"]
        assert (out / "walk_steps.csv").read_text() == "an earlier run's\n"

    # SIGINT printed a KeyboardInterrupt traceback and SIGTERM nothing; each
    # killed the run, leaving its staging directory and the directories it made
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["int", "term"])
    def test_interrupted_run_fails_in_one_line_and_leaves_the_out_dir(self, tmp_path, signum):
        out = tmp_path / "out"
        out.mkdir()
        (out / "training_curve.csv").write_text("an earlier run's\n")
        found = _tree(out)
        command, keywords = _cli_child("diffusion-train", "--out-dir", str(out / "new"),
                                       memory_cap=2 << 30)
        cap = keywords.pop("preexec_fn")

        def child():
            cap()
            # Python raises KeyboardInterrupt only if it starts with SIGINT not
            # ignored, and a shell may start the tests with it ignored
            signal.signal(signal.SIGINT, signal.SIG_DFL)

        with subprocess.Popen(command, stderr=subprocess.PIPE, text=True, preexec_fn=child,
                              **keywords) as proc:
            try:
                deadline = time.monotonic() + 60
                while not any((out / "new").glob(".staging-*")):
                    assert proc.poll() is None and time.monotonic() < deadline
                    time.sleep(0.01)
                proc.send_signal(signum)
                _, stderr = proc.communicate(timeout=60)
            finally:
                proc.kill()              # nothing, once the run has exited
        assert proc.returncode == 128 + signum
        assert stderr == "diffusion-train: interrupted\n"
        assert _tree(out) == found

    # interrupted just after mkdtemp made the staging directory, before main
    # held its name, the run left that directory in the out dir
    def test_interrupt_as_the_staging_directory_is_made_leaves_the_out_dir(
            self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "equilibrium.json").write_text("an earlier run's\n")
        found = _tree(tmp_path)
        real_mkdir = os.mkdir

        def mkdir_then_interrupt(path, *args, **kwargs):
            real_mkdir(path, *args, **kwargs)
            if os.path.basename(path).startswith(".staging-"):
                raise KeyboardInterrupt

        monkeypatch.setattr(os, "mkdir", mkdir_then_interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["game-solve", "--out-dir", str(out / "new")])
        assert capsys.readouterr().err == "game-solve: interrupted\n"
        assert _tree(tmp_path) == found

    # each repeated the command name, or named the option last and not the value
    USAGE = {
        "no-checkpoint": (["diffusion-infer"],
                          "--checkpoint: must name a trained model archive, got none"),
        "users": (["diffusion-infer", "--checkpoint", "model.npz", "--users", "0"],
                  "--users: must be in [1, 10000], got 0"),
        "unknown-policy": (["bench-run", "--policies", "none,wizard"],
                           "--policies: 'wizard' is not one of proposed, mdp, random_opt, none, "
                           "got 'none,wizard'"),
        "policy-twice": (["bench-run", "--policies", "mdp, none,mdp"],
                         "--policies: must name 'mdp' once, got 'mdp, none,mdp'"),
        "no-policy": (["bench-run", "--policies", " , "],
                      "--policies: must name a policy, got ' , '"),
        "nul-out-dir": (["game-solve", "--out-dir", "a\0b"],
                        "--out-dir: must be a path without a NUL character, got 'a\\x00b'"),
    }

    @pytest.mark.parametrize("argv, line", USAGE.values(), ids=USAGE)
    def test_usage_error_names_the_option_then_the_value(self, tmp_path, monkeypatch, capsys,
                                                          argv, line):
        monkeypatch.chdir(tmp_path)
        if "--out-dir" not in argv:
            argv = [*argv, "--out-dir", "x"]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"{argv[0]}: config error: {line}\n"
        assert list(tmp_path.iterdir()) == []

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
             ("game-solve", "--config", "no\npe", "cannot read 'no\\npe': No such file"),
             ("prerender-sim", "--trace", "adir", "cannot read 'adir': Is a directory"),
             ("prerender-sim", "--trace", "nope", "cannot read 'nope': No such file"),
             ("diffusion-infer", "--checkpoint", "adir", "cannot read 'adir': Is a directory"),
             ("bench-run", "--checkpoint", "nope", "cannot read 'nope': No such file"),
             ("game-solve", "--out-dir", "afile", "cannot create directory 'afile': File exists"),
             ("game-solve", "--out-dir", "afile/sub", "cannot create directory 'afile/sub'"),
             # an empty path is not the working directory
             ("game-solve", "--config", "", "cannot read '': No such file"),
             ("prerender-sim", "--trace", "", "cannot read '': No such file"),
             ("bench-run", "--checkpoint", "", "cannot read '': No such file"),
             ("game-solve", "--out-dir", "", "must be a non-empty string, got ''")]

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

    # the checkpoint used to be read only when the proposed policy ran, so both exited 0
    @pytest.mark.parametrize("name, content, problem", [
        ("missing.npz", None, "cannot read {path}: No such file or directory"),
        ("damaged.npz", b"PK\x03\x04 not a zip archive",
         "{path}: not a readable .npz archive (File is not a zip file)")],
        ids=["missing", "damaged"])
    def test_bench_run_reads_a_checkpoint_it_does_not_score_with(self, tmp_path, name,
                                                                 content, problem):
        path = tmp_path / name
        if content is not None:
            path.write_bytes(content)
        proc = _run_cli("bench-run", "--policies", "none", "--checkpoint", str(path),
                        "--out-dir", str(tmp_path / "out"))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert proc.stderr == (f"bench-run: config error: --checkpoint: "
                               f"{problem.format(path=shown(str(path)))}\n")
        assert not (tmp_path / "out").exists()

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

    # mkdir(parents=True) recursed once per level: a RecursionError traceback
    def test_deep_out_dir_is_made_one_level_at_a_time(self, tmp_path):
        deep = tmp_path.joinpath(*["d"] * 1100)
        assert main(["game-solve", "--out-dir", str(deep)]) == EXIT_OK
        assert sorted(p.name for p in deep.iterdir()) == ["equilibrium.json", "manifest.json"]
        for path in deep.iterdir():       # the clean-up of tmp_path recurses too
            path.unlink()
        while deep != tmp_path:
            deep.rmdir()
            deep = deep.parent

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


class TestInputDoor:
    """Every path option opens its file through `errors.open_regular`: what is
    not a regular file exits 2 in one line naming the option and the path,
    unread, and a FIFO is not waited on for a writer. Each child runs under
    a 2 GiB address-space cap, so a door that went back to reading its file
    whole would fail inside the child, not exhaust the host."""

    OPTIONS = [("game-solve", "--config"), ("prerender-sim", "--trace"),
               ("diffusion-infer", "--checkpoint")]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo on this system")
    @pytest.mark.parametrize("kind", PATH_KINDS)
    @pytest.mark.parametrize("command, option", OPTIONS, ids=[o for _, o in OPTIONS])
    def test_path_option_refuses_what_is_not_a_regular_file(self, tmp_path, command, option,
                                                            kind):
        path = _special_path(tmp_path, kind)
        if not os.path.exists(path) and kind.startswith("/dev/"):
            pytest.skip(f"no {path} on this system")
        proc = _run_cli(command, option, path, "--out-dir", str(tmp_path / "out"), timeout=10,
                        memory_cap=2 << 30)
        reason = os.strerror(errno.EISDIR) if kind == "directory" else "not a regular file"
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert proc.stderr == (f"{command}: config error: {option}: cannot read {shown(path)}: "
                               f"{reason}\n")
        assert not (tmp_path / "out").exists()

    def test_loaders_open_through_the_door(self, tmp_path, monkeypatch):
        from renderopt import config, prerender
        from renderopt.diffusion import checkpoint
        opened = []

        def door(path, *args, **kwargs):
            opened.append(str(path))
            return errors.open_regular(path, *args, **kwargs)

        for module in (config, prerender, checkpoint):
            monkeypatch.setattr(module, "open_regular", door)
        settings = _write_config(tmp_path, {})
        trace = tmp_path / "walk.trace"
        save_trace(trace, [(0, 0), (1, 0)])
        model = tmp_path / "model.npz"
        save_checkpoint(model, AttentionGatedDenoiser(DenoiserConfig(d_model=8, heads=2)),
                        NoiseSchedule(), Standardizer(mean=np.zeros(6), std=np.ones(6)))
        config.load_config(settings)
        assert list(prerender.load_trace(trace)) == [(0, 0), (1, 0)]
        checkpoint.load_checkpoint(model)
        assert opened == [settings, str(trace), str(model)]

    def test_src_reads_files_only_through_the_door(self):
        # outside `open_regular`, the builtin `open` only writes, nothing opens
        # through `os` or `io`, and no open file or stand-in takes a path's place
        bad = []
        for path in sorted(Path(errors.__file__).parent.rglob("*.py")):
            tree = ast.parse(path.read_text())
            door = {id(node) for fn in ast.walk(tree) if path.name == "errors.py"
                    and isinstance(fn, ast.FunctionDef) and fn.name == "open_regular"
                    for node in ast.walk(fn)}
            for node in ast.walk(tree):
                if id(node) in door:
                    continue
                name = (getattr(node, "id", None) or getattr(node, "attr", None)
                        or getattr(node, "name", None))
                if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and name in (
                        "nullcontext", "BinaryIO", "O_NONBLOCK", "read_text", "read_bytes"):
                    bad.append((path.name, node.lineno, name))
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr == "open" and \
                        isinstance(func.value, ast.Name) and func.value.id in ("os", "io"):
                    bad.append((path.name, node.lineno, f"{func.value.id}.open"))
                if isinstance(func, ast.Name) and func.id == "open":
                    mode = node.args[1] if len(node.args) > 1 else next(
                        (k.value for k in node.keywords if k.arg == "mode"), None)
                    if not (isinstance(mode, ast.Constant) and "w" in mode.value):
                        bad.append((path.name, node.lineno, "open to read"))
        assert bad == []


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
# a name longer than the OS takes for a path (4096 bytes): one long name, or many
# short ones; under a fuzz directory it makes a path of at most 100 000 characters,
# cut to 130 000 bytes in UTF-8 (65 000 'ö') to fit Linux's 128 KiB cap on one
# argument of a new process
_LONG_NAME = st.builds(lambda unit, n: (unit * n)[:n].encode()[:130_000].decode(),
                       st.sampled_from(["x", "ö", "d/"]), st.integers(4097, 99_800))


@st.composite
def cli_cases(draw):
    """(argv without --config/--out-dir, out-dir name, (trace file name, its
    bytes or None), a path option given last with a name too long for a
    path, or None, and the kind from PATH_KINDS of the file each path option
    given names, where it is not a regular file)."""
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
    options = ["--config", "--out-dir"]
    options += ["--trace"] if command == "prerender-sim" else []
    options += ["--checkpoint"] if command in ("diffusion-infer", "bench-run") else []
    long_path = None
    if draw(st.integers(0, 3)) == 0:
        long_path = draw(st.sampled_from(options)), draw(_LONG_NAME)
    named = ["--config"] + ["--trace"] * (trace is not None) + ["--checkpoint"] * (
        "<checkpoint>" in argv)
    kinds = {option: kind for option in named
             if (kind := draw(st.just("file") | st.sampled_from(PATH_KINDS))) != "file"}
    return argv, draw(st.sampled_from(_OUT_NAMES)), (trace_name, trace), long_path, kinds


@hyp_settings(max_examples=40, deadline=None)
@given(case=cli_cases())
@example(case=(["game-solve"], "out", ("walk.trace", None), ("--out-dir", "d/" * 49_900), {}))
@example(case=(["game-solve"], "out", ("walk.trace", None), ("--config", "ö" * 65_000), {}))
@example(case=(["prerender-sim"], "out", ("walk.trace", b"0 1 1\n"), None,
               {"--trace": "fifo link"}))
def test_any_flags_and_trace_exit_cleanly(fuzz_inputs, tmp_path_factory, case):
    """Exit 0, 2 or 3 with at most one stderr line, in bounded time; a failed
    run leaves everything as it was, a run that succeeds publishes a manifest
    that lists every file in its out dir. A path too long for the OS, given
    last, exits 2 with a line of at most 300 characters, and so does a path
    option naming what is not a regular file."""
    config, checkpoint = fuzz_inputs
    argv, out_name, (trace_name, trace), long_path, kinds = case
    # made apart from `base`, whose files `_tree` reads: a FIFO there would block it
    special = tmp_path_factory.mktemp("special")
    if "--config" in kinds:
        config = _special_path(special, kinds["--config"])
    if "--checkpoint" in kinds:
        checkpoint = _special_path(special, kinds["--checkpoint"])
    base = tmp_path_factory.mktemp("fuzz")
    (base / "an empty dir").mkdir()
    (base / "a file").write_text("x\n")
    (base / "blocked").mkdir()
    for artifact in ("equilibrium.json", "walk_steps.csv", "checkpoint.npz",
                     "probabilities.csv", "metrics.csv"):
        (base / "blocked" / artifact).mkdir()
    argv = [checkpoint if a == "<checkpoint>" else a for a in argv]
    if "--trace" in kinds:
        argv += ["--trace", _special_path(special, kinds["--trace"])]
    elif trace is not None:
        trace_path = base / trace_name
        trace_path.write_bytes(trace)
        argv += ["--trace", str(trace_path)]
    out = base / out_name
    before = _tree(base)
    # given last, a long path overrides the option's earlier value
    long_argv = [] if long_path is None else [long_path[0], str(base / long_path[1])]
    proc = _run_cli(*argv, "--config", config, "--out-dir", str(out), *long_argv, timeout=60,
                    memory_cap=2 << 30)
    assert proc.returncode in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL), proc.stderr[:300]
    assert proc.stderr.count("\n") <= 1, proc.stderr[:300]
    if long_path is not None or kinds:
        assert proc.returncode == EXIT_CONFIG and len(proc.stderr) <= 300, proc.stderr[:300]
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
    overwritten, the bytes replaced, the .npy header's shape or dtype set, the
    header grown past the 10 000 bytes numpy reads, or, in the meta entry, one
    key of the JSON header given twice."""
    entry = draw(st.sampled_from([None, *_NPY_ENTRIES]))
    kinds = ["cut", "overwrite", "replace"] + (["shape", "descr", "grow"] if entry else [])
    if entry == "meta.npy":
        kinds.append("twice")
    kind = draw(st.sampled_from(kinds))
    if kind == "twice":             # the key at this index of the header, given again
        return entry, (kind, draw(st.integers(0, 16)))
    if kind == "grow":              # to this many bytes, as format 1.0's 2-byte length allows
        return entry, (kind, draw(st.integers(10_001, 65_535)))
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
    if kind == "twice":             # the JSON header ends with one of its keys again
        meta = json.loads(np.load(io.BytesIO(raw)).tobytes())
        key = list(meta)[rest[0] % len(meta)]
        text = json.dumps(meta)[:-1] + f", {json.dumps(key)}: {json.dumps(meta[key])}}}"
        out = io.BytesIO()
        np.save(out, np.frombuffer(text.encode(), dtype=np.uint8))
        return out.getvalue()
    if kind == "grow":              # the header, after magic and length, padded with spaces
        length = int.from_bytes(raw[8:10], "little")
        header = raw[10:10 + length].rstrip(b"\n")
        header += b" " * (rest[0] - len(header) - 1) + b"\n"
        return raw[:8] + len(header).to_bytes(2, "little") + header + raw[10 + length:]
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
# bytes), a header declaring 8 TiB, a header its tokenizer cannot read, an
# unsupported compression method in the central directory, and a directory
# record flagging compressed patched data (zipfile's NotImplementedError); a
# header past numpy's size limit printed numpy's three-line refusal
@example(damage=("meta.npy", ("cut", 0, b"\x00")))
@example(damage=("params.npy", ("shape", (2**40,))))
@example(damage=("standardizer.mean.npy", ("overwrite", 121, b";}\xae")))
@example(damage=(None, ("overwrite", -144, b"\x1c|S\x88\t")))
@example(damage=(None, ("overwrite", -258, b"\x00 ")))
@example(damage=("params.npy", ("grow", 30_000)))
@example(damage=("meta.npy", ("twice", 0)))
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
    if damage[1][0] == "twice":
        assert proc.returncode == EXIT_CONFIG and "given twice" in proc.stderr, proc.stderr
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
_MEMBER_PATHS = [path for path in _CONFIG_PATHS if isinstance(path[-1], str)]
_OBJECT_PATHS = [()] + [path for path, value in _key_paths(DEFAULTS) if isinstance(value, dict)]
# wrong JSON types, long values a message must cut, and numbers out of most
# ranges: signs, extremes, non-finite
_ODD_VALUES = [None, True, "x", "", "x" * 10_000, [], {}, [1], [0] * 10_000, {"a": 1}, -1, 0,
               0.5, 1e-300, -1e308, 1e308, 2**63, 10**400, float("nan"), float("inf"),
               float("-inf")]


@st.composite
def config_bytes(draw):
    """DEFAULTS with one key deleted, one unknown key added, one value replaced
    or one key given twice, as JSON bytes; or bytes that are no JSON object or
    no UTF-8."""
    tree = json.loads(json.dumps(DEFAULTS))
    kind = draw(st.sampled_from(["delete", "unknown", "replace", "twice", "cut", "latin-1",
                                 "raw"]))
    if kind == "twice":             # the key with its value, then again with this one
        *parents, key = draw(st.sampled_from(_MEMBER_PATHS))
        node = tree
        for parent in parents:
            node = node[parent]
        first, again = node[key], draw(st.sampled_from([node[key], *_ODD_VALUES]))
        node[key] = "\0twice\0"           # a string that is no config value
        return json.dumps(tree).replace(
            json.dumps(node[key]),
            f"{json.dumps(first)}, {json.dumps(key)}: {json.dumps(again)}").encode()
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


# Values for each leaf of each section, by section and leaf name; a leaf not
# named takes _FLOAT_VALUES. Sizes are bounded here, so every example ends in
# seconds because of what it declares, and a larger size is drawn only past
# its config bound, where it is refused before any work:
# - prerender: a walk of up to 20 000 steps runs in about a second; floor sides
#   stay at most 10**6.
# - game: iteration caps are at most 10, so every solve ends in seconds however
#   the other values let it converge.
# - diffusion and bench: epochs <= 2, users <= 64, d_model <= 64, schedule
#   steps <= 2 000, scenes <= 8, regions_per_scene <= 200, and other counts
#   at most a few hundred; the other sections keep the fuzz config's sizes.
_WRONG_TYPES = st.sampled_from([None, "x", "", [], {}, [1], float("nan")])
_FLOAT_VALUES = st.one_of(st.floats(-300.0, 308.0).map(lambda e: 10.0 ** e),
                          st.floats(-300.0, 308.0).map(lambda e: -10.0 ** e), _WRONG_TYPES,
                          st.sampled_from([0, 0.0, 3, True, float("inf"), 1e309, 10**400]))


def _ints(lo, hi, *refused):
    """An integer in [lo, hi] half the time; else a wrong type, a float, or one of `refused`."""
    return st.integers(lo, hi) | st.sampled_from(
        [None, "x", "", [], {}, [1], float("nan"), 0.5, 1e308, *refused])


_SIDE_VALUES = st.one_of(st.integers(-2, 10**6), _WRONG_TYPES, st.sampled_from([True, 0.5, 4.0]))
_ITERS = st.one_of(st.integers(-2, 10), _WRONG_TYPES, st.sampled_from([0.5, 1e308, True]))
_EPOCHS = _ints(-2, 2)
_USERS = _ints(-2, 64, 10_001, 10**12)
_BATCH = _ints(-2, 100, 10**9)
_SECTION_VALUES = {
    "prerender": {
        "steps": st.one_of(st.integers(-2, 20_000), _WRONG_TYPES, st.sampled_from(
            [0.5, 1e308, MAX_WALK_STEPS + 1, 2**63, 10**400])),
        "width": _SIDE_VALUES, "height": _SIDE_VALUES, "region_side": _SIDE_VALUES,
        "diagonal": st.one_of(st.booleans(), _WRONG_TYPES, st.sampled_from([0, 1, "true"])),
    },
    "game": {"br_max_iters": _ITERS, "price_max_iters": _ITERS,
             "id": st.one_of(st.text(max_size=4), _WRONG_TYPES, st.sampled_from([0, 1e308]))},
    "diffusion": {
        "steps": _ints(-2, 2_000, 100_001, 2**63), "d_model": _ints(-2, 64, 1_026, 10**6),
        "heads": _ints(-2, 64), "batch_size": _BATCH, "epochs": _EPOCHS,
        "patience": _ints(-2, 10), "seq_len": _ints(-2, 130, 10**12),
        "dataset_users": _USERS, "stride": _ints(-2, 2_000),
        "infer_noise_step": _ints(-2, 2_000),
    },
    "bench": {
        "scenes": _ints(-2, 8, 10**12), "frames_per_scene": _ints(-2, 7_200),
        "fps": _ints(-2, 120), "regions_per_scene": _ints(-2, 200, 10**12),
        "ro_samples": _ints(-2, 50), "stride": _ints(-2, 700), "t_noise": _ints(-2, 700),
        "users": _USERS, "epochs": _EPOCHS, "batch_size": _BATCH, "patience": _ints(-2, 10),
        "focus_quantile": st.none() | _FLOAT_VALUES,
    },
}
# each section's fuzz starts from the fuzz config's tree, defaults filled in
_FUZZ_TREE = parse_config(json.dumps(FUZZ_CONFIG)).data
_SECTION_LEAVES = {name: [path[1:] for path, value in _key_paths(_FUZZ_TREE)
                          if path[0] == name and not isinstance(value, (dict, list))]
                   for name in _SECTION_VALUES}
# each command that reads the section; diffusion-infer scores with the fuzz checkpoint
_SECTION_COMMANDS = {"prerender": ["prerender-sim"], "game": ["game-solve"],
                     "diffusion": ["diffusion-train", "diffusion-infer", "bench-run"],
                     "bench": ["bench-run"]}


@st.composite
def section_edits(draw, name):
    """The fuzz config's section `name` with 1-3 of its leaves set to other values."""
    section = json.loads(json.dumps(_FUZZ_TREE[name]))
    for path in draw(st.lists(st.sampled_from(_SECTION_LEAVES[name]), min_size=1, max_size=3,
                              unique=True)):
        node = section
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(_SECTION_VALUES[name].get(path[-1], _FLOAT_VALUES))
    return section


def _check_section_runs(fuzz_inputs, base: Path, name: str, section: dict) -> None:
    """Each command that reads section `name`, on the fuzz config with that
    section replaced: exit 0 with strict JSON (and a warning line at most; none
    from a walk, whose steps are all in its CSV), or exit 2 or 3 with one
    stderr line; no traceback, in bounded time and memory."""
    _, checkpoint = fuzz_inputs
    config = base / "config.json"
    config.write_text(json.dumps({**_FUZZ_TREE, name: section}))

    def reject(constant):
        raise ValueError(f"{constant} in a JSON artifact")

    for command in _SECTION_COMMANDS[name]:
        out = base / command
        flags = ["--checkpoint", checkpoint] if command == "diffusion-infer" else []
        proc = _run_cli(command, "--config", str(config), *flags, "--out-dir", str(out),
                        timeout=60, memory_cap=2 << 30)
        assert proc.returncode in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL), proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        if proc.returncode != EXIT_OK:
            assert proc.stderr.startswith(f"{command}: ") and proc.stderr.count("\n") == 1, \
                proc.stderr
            continue
        warning_lines = 0 if command == "prerender-sim" else 1
        assert proc.stderr.count("\n") <= warning_lines, proc.stderr
        records = {p.name: json.loads(p.read_text(), parse_constant=reject)
                   for p in out.glob("*.json")}
        if command == "prerender-sim":
            assert records["walk_summary.json"]["steps"] == section["steps"]
            with open(out / "walk_steps.csv", newline="") as fh:
                assert sum(1 for _ in fh) == 1 + section["steps"]
        elif command == "game-solve":
            assert records["equilibrium.json"]["price"] > 0


@pytest.mark.parametrize("name", _SECTION_COMMANDS)
@hyp_settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_config_section_exits_cleanly(fuzz_inputs, tmp_path_factory, name, data):
    """Every command that reads a section, on a config whose section has 1-3
    leaves edited (see `_check_section_runs`)."""
    section = data.draw(section_edits(name), label=name)
    _check_section_runs(fuzz_inputs, tmp_path_factory.mktemp(f"{name}-fuzz"), name, section)


# fixed edits of the prerender section from the defaults: the longest walk
# drawn on the widest floor, a one-point floor, and sums that overflow
SECTION_EXAMPLES = {
    "prerender-long-walk": ("prerender", {"width": 10**6, "height": 1, "steps": 20_000}),
    "prerender-one-point": ("prerender", {"width": 1, "height": 1, "diagonal": True}),
    "prerender-huge-frame": ("prerender", {"encoding": {"base_i_size": 1e308}}),
    "prerender-huge-request": ("prerender", {"timing": {"t_request": 1e308}}),
}


@pytest.mark.parametrize("name, edit", SECTION_EXAMPLES.values(), ids=SECTION_EXAMPLES)
def test_config_section_example_exits_cleanly(fuzz_inputs, tmp_path, name, edit):
    section = {**DEFAULTS[name], **edit}
    _check_section_runs(fuzz_inputs, tmp_path, name, section)


def _gives_a_key_twice(payload: bytes) -> bool:
    """Whether `payload` is JSON text with an object that gives one name twice."""
    twice = []

    def members(pairs):
        twice.append(len(dict(pairs)) < len(pairs))
        return dict(pairs)

    try:
        json.loads(payload, object_pairs_hook=members)
    except (ValueError, RecursionError):
        return False
    return any(twice)


def _odd_solver_config(key):
    tree = json.loads(json.dumps(DEFAULTS))
    tree["game"]["solver"][key] = 1e-300
    return json.dumps(tree).encode()


# each ran game-solve past a minute or ended in a ZeroDivisionError traceback,
# a NUL in out_dir ended in a ValueError traceback from the clean-up, a long
# value was repeated whole, and a too-long out_dir name failed the check for
# what exists as `error: [Errno 36] File name too long`, naming no key
@example(payload=_odd_solver_config("br_tolerance"))
@example(payload=_odd_solver_config("fd_epsilon_frac"))
@example(payload=json.dumps({"out_dir": "a\0b"}).encode())
@example(payload=json.dumps({"diffusion": {"heads": "x" * 10_000}}).encode())
@example(payload=json.dumps({"out_dir": [0] * 10_000}).encode())
@example(payload=json.dumps({"out_dir": "x" * 10_000}).encode())
@example(payload=b'{"seed": 1, "seed": 2}')
@hyp_settings(max_examples=40, deadline=None)
@given(payload=config_bytes())
def test_any_config_file_exits_cleanly(tmp_path_factory, payload):
    """game-solve, which validates every section, on an edited config file,
    writing where its `out_dir` says: exit 0, or exit 2 with one stderr line
    of at most 300 characters and nothing made; no traceback, in bounded time."""
    base = tmp_path_factory.mktemp("config-fuzz")
    (base / "config.json").write_bytes(payload)
    proc = _run_cli("game-solve", "--config", "config.json", timeout=30, memory_cap=2 << 30,
                    cwd=base)
    assert "Traceback" not in proc.stderr, proc.stderr
    if _gives_a_key_twice(payload):
        assert proc.returncode == EXIT_CONFIG and "given twice" in proc.stderr, proc.stderr
    if proc.returncode == EXIT_OK:
        assert proc.stderr.count("\n") <= 1, proc.stderr     # a convergence warning at most
        assert len(list(base.rglob("equilibrium.json"))) == 1
    else:
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert proc.stderr.startswith("game-solve: ") and proc.stderr.count("\n") == 1, \
            proc.stderr
        assert len(proc.stderr) <= 300, proc.stderr[:300]
        assert [p.name for p in base.iterdir()] == ["config.json"]
