"""The benchmark's span tracer wraps package names; keep them where it looks."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import best_responses_per_price, counted_game_calls, solve_stackelberg_uncached
from renderopt.config import load_config

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(p.name for p in (ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_help_exits_zero(script):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--help"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


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
    # the count perfbench/worker.py cross-checks, and one sweep set per price
    config = load_config(None)
    with counted_game_calls() as log:
        solve_stackelberg_uncached(config.cloud, list(config.nodes), config.solver)
    assert calls["game.nash_equilibrium"] == len(log["nash"]) == 328
    assert calls["game.edge_best_response"] == sum(best_responses_per_price(log["nash"]).values())
