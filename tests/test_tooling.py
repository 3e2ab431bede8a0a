"""The experiment scripts run, and the benchmark's span tracer wraps package
names; keep them where it looks."""

import contextlib
import csv
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import CRITERION_7
from oracles import best_responses_per_price, counted_game_calls, solve_stackelberg_uncached
from renderopt import prerender
from renderopt.bench import POLICY_VARIANTS
from renderopt.cli import main
from renderopt.config import DEFAULTS, load_config

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(p.name for p in (ROOT / "scripts").glob("*.py"))


def _run_script(script, *args, cwd=None):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, timeout=120, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_help_exits_zero(script):
    assert _run_script(script, "--help").stdout.startswith("usage:")


def test_price_sweep_covers_the_band(tmp_path):
    _run_script("price_sweep.py", "--points", "50", "--out", "sweep.csv", cwd=tmp_path)
    rows = _rows(tmp_path / "sweep.csv")
    prices = [float(r["price"]) for r in rows]
    cloud = DEFAULTS["game"]["cloud"]
    assert len(rows) == 50
    assert prices[0] == cloud["price_min"] and prices[-1] == cloud["price_max"]
    assert prices == sorted(set(prices))
    assert all(float(r["cloud_utility"]) >= 0 for r in rows)


def test_compression_sweep_writes_every_setting(tmp_path):
    _run_script("compression_sweep.py", "--steps", "20", "--out", "sweep.csv", cwd=tmp_path)
    rows = _rows(tmp_path / "sweep.csv")
    assert [(r["region_side"], r["decay"]) for r in rows] == [
        (side, decay) for side in ("3", "5", "7") for decay in ("2.0", "4.0", "8.0")]
    assert all(0 < float(r["bytes_ratio"]) <= 1 and int(r["deadline_misses"]) >= 0
               for r in rows)


def test_bench_multiseed_scores_every_policy(tmp_path):
    proc = _run_script("bench_multiseed.py", "--seeds", "1", "--out", "multiseed.csv",
                       cwd=tmp_path)
    assert "proposed vs none" in proc.stdout
    rows = _rows(tmp_path / "multiseed.csv")
    assert [(r["seed"], r["policy"]) for r in rows] == [("0", p) for p in POLICY_VARIANTS]
    times = {r["policy"]: float(r["mean_render_time_s"]) for r in rows}
    assert all(0 <= float(r["f1"]) <= 1 for r in rows)
    assert max(times.values()) == times["none"]


def _cli_wall_rows(bytecode: str, commands: list[str]) -> None:
    lines = _run_script("cli_wall.py", "--commands", *commands, "--repeats", "1",
                        "--bytecode", bytecode).stdout
    header, *rows = lines.splitlines()
    assert header.split() == ["command", "bytecode", "runs", "wall_s", "cpu_s", "sys_s",
                              "minflt", "peak_rss_mb"]
    assert [row.split()[:3] for row in rows] == [[name, bytecode, "1"] for name in commands]
    for row in rows:
        _, _, _, wall, cpu, sys_s, minflt, rss = row.split()
        assert all(float(x) > 0 for x in (wall, cpu, rss)) and float(sys_s) >= 0
        assert int(minflt) > 0


def test_cli_wall_times_a_command():
    # game-solve-8 solves the 8-node market the script writes, diffusion-infer
    # reads the checkpoint of an untimed training run, and prerender-replay
    # replays the 100 000-step trace the script writes
    _cli_wall_rows("cold", ["game-solve", "game-solve-8", "diffusion-infer",
                            "prerender-replay"])


def test_cli_wall_warm_runs_after_filling_its_own_bytecode_cache():
    _cli_wall_rows("warm", ["game-solve"])


def test_cli_wall_compares_two_trees_in_pairs():
    src = str(ROOT / "src")
    lines = _run_script("cli_wall.py", "--commands", "game-solve", "--repeats", "3",
                        "--src", src, "--src", src).stdout
    header, *rows = lines.splitlines()
    assert header.split() == ["command", "tree", "bytecode", "runs", "wall_s", "cpu_s",
                              "sys_s", "minflt", "peak_rss_mb", "wall_ratio", "wins"]
    assert [row.split()[:4] for row in rows] == [["game-solve", tree, "cold", "3"]
                                                 for tree in ("1", "2")]
    assert rows[0].split()[-2:] == ["-", "-"]
    ratio, wins = rows[1].split()[-2:]
    assert float(ratio) > 0 and re.fullmatch(r"[0-3]/3", wins)


def test_cli_wall_market_has_eight_nodes(tmp_path):
    path = tmp_path / "market.json"
    _script_module("cli_wall").write_market(path, 8)
    config = load_config(path)
    assert len(config.nodes) == 8 and len({n.demand_max for n in config.nodes}) == 8


def _modules_after(argv):
    """Top two levels of every module name a fresh interpreter holds after
    importing renderopt.cli and, if `argv` is given, running `main(argv)`."""
    code = "\n".join([
        "import json, sys",
        "from renderopt import cli",
        f"assert {argv!r} is None or cli.main({argv!r}) == 0",
        "print(json.dumps(sorted({'.'.join(m.split('.')[:2]) for m in sys.modules})))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_commands_import_only_what_they_run(tmp_path):
    # numpy is the only runtime dependency, and importing the CLI loads none of
    # it, nor the walk's PCG64
    assert not {"numpy", "scipy", "renderopt.pcg64"} & _modules_after(None)
    # the pricing game and a trace replay run in pure Python, and a replay
    # seeds nothing
    assert "numpy" not in _modules_after(["game-solve", "--out-dir", str(tmp_path / "game")])
    trace = tmp_path / "walk.trace"
    trace.write_text("0 5 5\n1 5 6\n2 6 6\n")
    assert not {"numpy", "renderopt.pcg64"} & _modules_after(
        ["prerender-sim", "--trace", str(trace), "--out-dir", str(tmp_path / "replay")])
    # a seeded walk draws from renderopt's own PCG64, and loads no numpy and
    # none of the diffusion stack
    loaded = _modules_after(["prerender-sim", "--out-dir", str(tmp_path / "walk")])
    assert "renderopt.pcg64" in loaded
    assert not {"numpy", "renderopt.diffusion", "renderopt.bench",
                "renderopt.synthetic"} & loaded


def test_tracer_installs_and_records_spans(tmp_path):
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps({"diffusion": {"dataset_users": 16, "epochs": 1,
                                              "d_model": 8, "heads": 2}}))
    train_out, infer_out = tmp_path / "train", tmp_path / "infer"
    # a fresh interpreter, since install() rebinds module attributes for good
    code = "\n".join([
        "import json",
        "import sys",
        f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]",
        "from tracer import Tracer, install",
        "from renderopt import cli",
        "tracer = Tracer()",
        "install(tracer)",
        f"assert cli.main(['game-solve', '--out-dir', {str(tmp_path / 'game')!r}]) == 0",
        f"assert cli.main(['prerender-sim', '--out-dir', {str(tmp_path / 'walk')!r}]) == 0",
        f"assert cli.main(['bench-run', '--policies', 'mdp,random_opt,none', "
        f"'--out-dir', {str(tmp_path / 'bench')!r}]) == 0",
        f"assert cli.main(['diffusion-train', '--config', {str(tiny)!r}, "
        f"'--out-dir', {str(train_out)!r}]) == 0",
        # training's validation losses call predict too; count the inference calls apart
        "trained = tracer.table({-1: 'request'})['diffusion.predict']['calls']",
        f"assert cli.main(['diffusion-infer', '--config', {str(tiny)!r}, '--users', '2', "
        f"'--checkpoint', {str(train_out / 'checkpoint.npz')!r}, "
        f"'--out-dir', {str(infer_out)!r}]) == 0",
        "calls = {k: v['calls'] for k, v in tracer.table({-1: 'request'}).items()}",
        "calls['diffusion.predict'] -= trained",
        "print(json.dumps(calls))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout)
    assert {"cli.load_config", "game.solve_stackelberg", "game.nash_equilibrium",
            "cli._write_json", "cli._write_manifest", "prerender.simulate_walk",
            "prerender.segment_regions", "prerender.encode_frame",
            "bench.run_policy.mdp", "bench.run_policy.random_opt", "bench.run_policy.none",
            "bench.generate_workload", "diffusion.train", "diffusion.loss_and_grads",
            "diffusion.adam_update", "diffusion.save_checkpoint",
            "diffusion.load_checkpoint", "diffusion.predict"} <= calls.keys()
    assert calls["diffusion.save_checkpoint"] == calls["diffusion.load_checkpoint"] == 1
    # one gradient and one optimizer step per training step
    steps = json.loads((train_out / "train_summary.json").read_text())["train_steps"]
    assert calls["diffusion.train"] == 1
    assert calls["diffusion.loss_and_grads"] == calls["diffusion.adam_update"] == steps > 0
    summary = json.loads((infer_out / "infer_summary.json").read_text())
    assert calls["diffusion.predict"] == summary["denoiser_calls"] > 0
    # the scorer's two stages, wrapped where bench.preference_probabilities looks them
    # up: one call each per scored user (bench-run above ran no proposed policy)
    assert calls["diffusion.reconstruct_preferences"] == summary["users"] == 2
    assert calls["diffusion.interaction_probabilities"] == 2
    # the count perfbench/worker.py cross-checks, and one sweep set per price
    config = load_config(None)
    with counted_game_calls() as log:
        solve_stackelberg_uncached(config.cloud, list(config.nodes), config.solver)
    assert calls["game.nash_equilibrium"] == len(log["nash"]) == 328
    assert calls["game.edge_best_response"] == sum(best_responses_per_price(log["nash"]).values())


def _script_module(name):
    path = ROOT / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_summary(work, p50, correct=True):
    return {"correct": correct, "metrics": {"work_per_ref": {"value": work, "unit": "work/ref"},
                                            "request_p50_ref": {"value": p50, "unit": "ref"}}}


PAIR_METRICS = [{"name": "work_per_ref", "unit": "work/ref", "better": "higher", "bound": 0.25},
                {"name": "request_p50_ref", "unit": "ref", "better": "lower", "bound": 0.05}]


def test_bench_pairs_summary_claims_only_a_gain_outside_the_spread():
    # parent work 100, 110, 90, 105, 95: quartiles 92.5 and 107.5 around 100, spread 0.15
    parent = [(100, 1.0), (110, 1.1), (90, 0.9), (105, 1.0), (95, 1.0)]
    change = [(120, 0.8), (126.5, 1.0), (108, 0.85), (121, 0.9), (114, 0.95)]
    pairs = [{"seed": seed, "first": "parent", "parent": _run_summary(*p),
              "change": _run_summary(*c)} for seed, p, c in zip(range(5), parent, change)]
    summarize = _script_module("bench_pairs").summarize
    got = summarize(pairs, PAIR_METRICS)
    work = got["work_per_ref"]
    assert work["parent"] == {"values": [100, 110, 90, 105, 95], "median": 100,
                              "q1": 92.5, "q3": 107.5}
    assert work["change"]["median"] == 120
    assert work["ratios"] == [1.2, 1.15, 1.2, 121 / 105, 1.2]
    assert work["median_ratio"] == 1.2 and work["parent_spread"] == pytest.approx(0.15)
    assert work["claimable"] is True
    assert work["bound"] == 0.25 and work["bound_verdict"] == "within"
    # every pair is faster, but the median ratio 1 / 1.1 is not below 1 - spread
    p50 = got["request_p50_ref"]
    assert all(r < 1 for r in p50["ratios"]) and p50["median_ratio"] == 1.0 / 1.1
    assert p50["parent_spread"] == pytest.approx(0.1) and p50["claimable"] is False
    # the parent's spread 0.1 exceeds the bound 0.05, and change run 1.0 does not
    # beat parent run 0.9: the bound cannot tell; when every change run beats
    # every parent run, it can
    assert p50["bound_verdict"] == "unresolved"
    faster = [dict(p, change=_run_summary(p["change"]["metrics"]["work_per_ref"]["value"], 0.85))
              for p in pairs]
    assert summarize(faster, PAIR_METRICS)["request_p50_ref"]["bound_verdict"] == "within"
    # work 30% below the parent's median is worse than the bound 0.25; 20% is not
    for scale, verdict in ((0.7, "worse"), (0.8, "within")):
        slower = [dict(p, change=_run_summary(scale * p["parent"]["metrics"]["work_per_ref"]
                                              ["value"], 0.5)) for p in pairs]
        assert summarize(slower, PAIR_METRICS)["work_per_ref"]["bound_verdict"] == verdict
    # one pair no better, or one incorrect run, and nothing is claimable
    worse = [dict(pairs[0], change=_run_summary(100, 0.8)), *pairs[1:]]
    assert summarize(worse, PAIR_METRICS)["work_per_ref"]["claimable"] is False
    wrong = [dict(pairs[0], change=_run_summary(120, 0.8, correct=False)), *pairs[1:]]
    assert summarize(wrong, PAIR_METRICS)["work_per_ref"]["claimable"] is False
    # ten pairs, parent spread 0.025: 9 of 10 won is a gain; 8 won and a tie is none
    parent = [100, 102, 98, 101, 99, 100, 103, 97, 100, 100]
    change = [0.9 * parent[0], *(1.2 * w for w in parent[1:])]
    ten = [{"seed": seed, "first": "parent", "parent": _run_summary(p, 1.0),
            "change": _run_summary(c, 1.0)} for seed, (p, c) in enumerate(zip(parent, change))]
    work = summarize(ten, PAIR_METRICS)["work_per_ref"]
    assert work["parent_spread"] == pytest.approx(0.025)
    assert work["wins"] == 9 and work["median_ratio"] == pytest.approx(1.2)
    assert work["claimable"] is True
    tie = [ten[0], dict(ten[1], change=_run_summary(parent[1], 1.0)), *ten[2:]]
    work = summarize(tie, PAIR_METRICS)["work_per_ref"]
    assert work["wins"] == 8 and work["median_ratio"] == pytest.approx(1.2)
    assert work["claimable"] is False


def test_bench_pairs_names_a_record_per_workload():
    names = _script_module("bench_pairs").record_names
    assert names("35", ["market"]) == {"market": "BENCH_35.json"}
    assert names("35", ["market", "floor", "score"]) == {
        "market": "BENCH_35.json", "floor": "BENCH_35_floor.json",
        "score": "BENCH_35_score.json"}


def test_artifact_digests_prints_one_digest_per_run(tmp_path):
    script = _script_module("artifact_digests")
    rows = [line.split(maxsplit=3) for line in
            _run_script("artifact_digests.py").stdout.splitlines()]
    assert [row[:2] for row in rows] == [[config, run] for config in script.CONFIGS
                                         for run in script.RUNS] + [
                                            ["faults", name] for name in script.FAULTS]
    digests, faults = rows[:-len(script.FAULTS)], rows[-len(script.FAULTS):]
    assert all(len(row) == 3 and re.fullmatch("[0-9a-f]{64}", row[2]) for row in digests)
    # each fault exits 2 with one short line naming --trace; a line fault
    # names its trace by the relative path it was given
    for _, name, code, line in faults:
        assert code == "2" and line.startswith("prerender-sim: config error: --trace: ")
        assert len(line) < 200
        assert f"'{name}.trace':" in line or name in ("hop", "one-point")
    # the digest of the same run made here, by perfbench's own function
    out = tmp_path / "game"
    assert main(["game-solve", "--seed", "3", "--out-dir", str(out)]) == 0
    assert rows[0][2] == script.artifact_digest(out)


def test_artifact_digests_replays_a_trace_across_blocks(tmp_path):
    # the replay row's trace holds every spelling the grammar allows, and the
    # block reader reads it in several blocks, point lines across their ends
    path = tmp_path / "replay.trace"
    _script_module("artifact_digests").write_trace(path)
    raw, text = path.read_bytes(), path.read_text()
    assert b"\r\n" in raw and b"\n\n" in raw and b"\n# " in raw and b"\t+" in raw
    crossing, start, block = [], 0, prerender._TRACE_BLOCK_CHARS
    while start + block < len(text):      # a block ends at the end of the line it reads into
        end = text.index("\n", start + block - 1) + 1
        if end > start + block:
            crossing.append(text[text.rfind("\n", 0, start + block) + 1:end])
        start = end
    assert crossing and all(re.fullmatch(r"\d+ \d+ \d+\n", line) for line in crossing)
    points = list(prerender.load_trace(path))
    assert len(points) == 8001
    result = prerender.simulate_walk(prerender.GridWorld(), prerender.TimingModel(), 8000, 0,
                                     prerender.EncodingSpec(), 1.0, trace=points)
    assert {frame.grid_point for frame, _, _ in result.outcomes} == {
        (x, y) for x in range(20) for y in range(20)}


def test_artifact_digests_runs_the_criterion_7_config():
    assert _script_module("artifact_digests").CONFIGS["criterion-7"] == CRITERION_7


def _fingerprint_line():
    return re.compile(rf"kernels numpy={re.escape(np.__version__)} simd=[\w,]+ blas=\S+ \S+")


def test_kernel_fingerprint_reads_show_config_dicts(monkeypatch):
    fingerprint = _script_module("artifact_digests").kernel_fingerprint
    assert _fingerprint_line().fullmatch(fingerprint())
    config = {"SIMD Extensions": {"found": ["SSE42", "AVX2"]},
              "Build Dependencies": {"blas": {"name": "openblas", "version": "0.3.21"}}}
    monkeypatch.setattr(np, "show_config", lambda mode="stdout": config)
    assert fingerprint() == f"kernels numpy={np.__version__} simd=SSE42,AVX2 blas=openblas 0.3.21"


def test_kernel_fingerprint_without_dicts_reads_the_dispatch_table(monkeypatch):
    # numpy 1.24's show_config has no mode; numpy 2 warns that numpy.core, where
    # the fallback reads its CPU dispatch table, is deprecated
    def no_dicts(mode="stdout"):
        raise TypeError("show_config() got an unexpected keyword argument 'mode'")

    monkeypatch.setattr(np, "show_config", no_dicts)
    fingerprint = _script_module("artifact_digests").kernel_fingerprint
    numpy_2 = int(np.__version__.split(".")[0]) >= 2
    with pytest.warns(DeprecationWarning) if numpy_2 else contextlib.nullcontext():
        line = fingerprint()
    assert _fingerprint_line().fullmatch(line) and line.endswith(" blas=unknown unknown")
