"""Command-line surface tying the modules into reproducible experiments.

Subcommands: game-solve, prerender-sim, diffusion-train, diffusion-infer,
bench-run. Every run writes its artifacts plus a manifest.json listing them.
Exit codes: 0 success, 2 configuration/usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings
from contextlib import contextmanager, suppress
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bench import (POLICY_VARIANTS, generate_workload, run_policy, write_plot_data,
                    write_report_csv, write_summary_json)
from .config import MAX_USERS, ExperimentConfig, load_config
from .diffusion import (INTERACTION_COLUMNS, AttentionGatedDenoiser, TrainSettings,
                        interaction_probabilities, load_checkpoint, save_checkpoint,
                        train, write_curve_csv)
from .diffusion.sampling import reconstruct_preferences
from .errors import ConfigError, NumericalError
from .game import solve_stackelberg
from .prerender import MobilitySpec, load_trace, simulate_walk, write_walk_csv
from .synthetic import PlantedConfig, build_training_set, make_population

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


@contextmanager
def _path_from(option: str, path, action: str):
    """Report an OS or decoding error on a path the user gave as a one-line
    usage error naming the option that gave it."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"{option}: cannot {action} {str(path)!r}: {reason}") from None


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_manifest(out_dir: Path, config: ExperimentConfig, command: str,
                    seed: int, outputs: list[Path], started: str) -> Path:
    manifest = {
        "command": command,
        "code_version": __version__,
        "config_digest": config.digest(),
        "seed": seed,
        "started_at": started,
        "finished_at": datetime.now(timezone.utc).isoformat(),
        "outputs": sorted(p.name for p in outputs),
    }
    path = out_dir / "manifest.json"
    _write_json(path, manifest)
    return path


def cmd_game_solve(config: ExperimentConfig, seed: int, out_dir: Path,
                   args) -> list[Path]:
    result = solve_stackelberg(config.cloud, list(config.nodes), config.solver)
    path = out_dir / "equilibrium.json"
    _write_json(path, result.to_record())
    return [path]


def cmd_prerender_sim(config: ExperimentConfig, seed: int, out_dir: Path,
                      args) -> list[Path]:
    sec = config.section("prerender")
    if args.trace:
        with _path_from("--trace", args.trace, "read"):
            trace = load_trace(args.trace)
        mobility = MobilitySpec(kind="trace", trace=trace)
        horizon = len(trace) - 1
    else:
        mobility = MobilitySpec()
        horizon = sec["steps"]
    result = simulate_walk(config.world, config.timing, mobility, horizon, seed,
                           encoding=config.encoding, panorama_work=sec["panorama_work"])
    steps_path = out_dir / "walk_steps.csv"
    write_walk_csv(result, steps_path)
    summary_path = out_dir / "walk_summary.json"
    _write_json(summary_path, result.summary())
    return [steps_path, summary_path]


def _train_denoiser(config: ExperimentConfig, settings: TrainSettings, users: int,
                    population_seed: int, seed: int):
    """Train config's denoiser on `users` planted users; returns (result, standardizer)."""
    planted = PlantedConfig(n_users=users, seq_len=config.section("diffusion")["seq_len"])
    dataset, standardizer = build_training_set(
        make_population(planted, seed=population_seed), planted)
    model = AttentionGatedDenoiser(config.denoiser, seed=seed)
    return train(dataset, config.schedule, replace(settings, seed=seed), model=model), standardizer


def cmd_diffusion_train(config: ExperimentConfig, seed: int, out_dir: Path,
                        args) -> list[Path]:
    result, standardizer = _train_denoiser(
        config, config.train, config.section("diffusion")["dataset_users"], seed, seed)
    ckpt_path = out_dir / "checkpoint.npz"
    save_checkpoint(ckpt_path, result.model, config.schedule, standardizer)
    curve_path = out_dir / "training_curve.csv"
    write_curve_csv(result.history, curve_path)
    summary_path = out_dir / "train_summary.json"
    _write_json(summary_path, {
        "epochs_run": len(result.history) - 1,
        "stopped_early": result.stopped_early,
        "initial_train_loss": result.history[0].train_loss,
        "final_train_loss": result.history[-1].train_loss,
        "final_val_loss": result.history[-1].val_loss,
        "train_steps": result.model.step_count,
    })
    return [ckpt_path, curve_path, summary_path]


def cmd_diffusion_infer(config: ExperimentConfig, seed: int, out_dir: Path,
                        args) -> list[Path]:
    if not args.checkpoint:
        raise ConfigError("diffusion-infer requires --checkpoint")
    if not 1 <= args.users <= MAX_USERS:
        raise ConfigError(f"diffusion-infer: --users must be in [1, {MAX_USERS}]")
    with _path_from("--checkpoint", args.checkpoint, "read"):
        model, schedule, standardizer = load_checkpoint(args.checkpoint)
    sec = config.section("diffusion")
    planted = PlantedConfig(n_users=args.users, seq_len=sec["seq_len"])
    eval_users = make_population(planted, seed=seed + 1_000_003)
    rng = np.random.default_rng(seed)
    t_noise, stride = sec["infer_noise_step"], sec["stride"]

    rows = []
    ranked_ok = 0
    for uid, user in enumerate(eval_users):
        feats = standardizer.transform(user.sequence_raw)
        noise = rng.standard_normal(feats.shape)
        m_hat = standardizer.inverse(
            reconstruct_preferences(model, schedule, feats, user.condition,
                                    t_noise, stride, noise))
        idx, probs = interaction_probabilities(m_hat, user.item_features,
                                               INTERACTION_COLUMNS)
        flags = user.interest_flags[idx]
        if flags.any() and (~flags).any() and probs[flags].mean() > probs[~flags].mean():
            ranked_ok += 1
        for item, p, flag in zip(idx, probs, flags):
            rows.append((uid, int(item), float(p), int(flag)))

    probs_path = out_dir / "probabilities.csv"
    with open(probs_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user", "item", "probability", "interest_flag"])
        for row in rows:
            writer.writerow([row[0], row[1], repr(row[2]), row[3]])
    summary_path = out_dir / "infer_summary.json"
    _write_json(summary_path, {
        "users": len(eval_users),
        "users_ranked_correctly": ranked_ok,
        "t_noise": t_noise,
        "stride": stride,
        "denoiser_calls": model.call_count,
    })
    return [probs_path, summary_path]


def cmd_bench_run(config: ExperimentConfig, seed: int, out_dir: Path,
                  args) -> list[Path]:
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    for p in policies:
        if p not in POLICY_VARIANTS:
            raise ConfigError(f"bench-run: unknown policy {p!r}")
    if not policies:
        raise ConfigError("bench-run: --policies selected nothing")

    model = schedule = standardizer = None
    if "proposed" in policies:
        if args.checkpoint:
            with _path_from("--checkpoint", args.checkpoint, "read"):
                model, schedule, standardizer = load_checkpoint(args.checkpoint)
        else:
            result, standardizer = _train_denoiser(
                config, config.bench_train, config.section("bench")["train"]["users"],
                seed + 7_777, seed)
            model, schedule = result.model, config.schedule

    workload = generate_workload(config.workload, seed=seed)
    reports = [run_policy(workload, replace(config.policy, variant=name), config.cost,
                          model=model, schedule=schedule, standardizer=standardizer)
               for name in policies]

    metrics_path = out_dir / "metrics.csv"
    write_report_csv(reports, metrics_path)
    summary_path = out_dir / "bench_summary.json"
    write_summary_json(reports, summary_path)
    outputs = [metrics_path, summary_path]
    if args.plot_data:
        outputs.extend(write_plot_data(reports, out_dir))
    return outputs


_COMMANDS = {
    "game-solve": cmd_game_solve,
    "prerender-sim": cmd_prerender_sim,
    "diffusion-train": cmd_diffusion_train,
    "diffusion-infer": cmd_diffusion_infer,
    "bench-run": cmd_bench_run,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="renderopt",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file (defaults apply)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out-dir", default=None, help="override config output directory")
        if name == "prerender-sim":
            p.add_argument("--trace", default=None, help="replay a `step x y` trace file")
        if name in ("diffusion-infer", "bench-run"):
            p.add_argument("--checkpoint", default=None, help="trained model archive")
        if name == "diffusion-infer":
            p.add_argument("--users", type=int, default=5, help="planted users to score")
        if name == "bench-run":
            p.add_argument("--policies", default="proposed,mdp,random_opt,none")
            p.add_argument("--plot-data", action="store_true",
                           help="emit per-policy plot series files")
    return parser


def _warning_lines(caught: list[warnings.WarningMessage]) -> list[str]:
    """One line per warning category, in order of first appearance: how many
    warnings of that category the run raised, and the first one's message."""
    by_category: dict[type, list[str]] = {}
    for w in caught:
        by_category.setdefault(w.category, []).append(str(w.message))
    return [f"{category.__name__} x{len(messages)}: {messages[0]}"
            for category, messages in by_category.items()]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    created: list[Path] = []          # output directories this run made, deepest first
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if args.seed is not None and args.seed < 0:
                raise ConfigError(f"--seed: must be an integer >= 0, got {args.seed}")
            with _path_from("--config", args.config, "read"):
                config = load_config(args.config)
            seed = args.seed if args.seed is not None else config.seed
            if args.out_dir is not None:
                option, out_dir = "--out-dir", Path(args.out_dir)
            else:
                option, out_dir = "out_dir", Path(config.out_dir)
            created = [p for p in (out_dir, *out_dir.parents) if not p.exists()]
            with _path_from(option, out_dir, "create directory"):
                out_dir.mkdir(parents=True, exist_ok=True)
            started = datetime.now(timezone.utc).isoformat()
            outputs = _COMMANDS[args.command](config, seed, out_dir, args)
            _write_manifest(out_dir, config, args.command, seed, outputs, started)
    except ConfigError as exc:
        code, message = EXIT_CONFIG, f"config error: {exc}"
    except NumericalError as exc:
        code, message = EXIT_NUMERICAL, f"numerical failure: {exc}"
    except (ValueError, OSError) as exc:
        code, message = EXIT_CONFIG, f"error: {exc}"
    else:
        for line in _warning_lines(caught):
            print(f"{args.command}: warning: {line}", file=sys.stderr)
        return EXIT_OK
    # a failed run leaves no empty directory of its own making behind
    for path in created:
        with suppress(OSError):         # not empty, or never made
            os.rmdir(path)
    print(f"{args.command}: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
