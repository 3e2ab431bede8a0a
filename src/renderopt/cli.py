"""Command-line surface tying the modules into reproducible experiments.

Subcommands: game-solve, prerender-sim, diffusion-train, diffusion-infer,
bench-run. Every run writes its artifacts plus a manifest.json listing them.
Exit codes: 0 success, 2 configuration/usage error, 3 numerical failure, each
failure in one stderr line worded as `errors` words it: `<option>: must be
<rule>, got <value>`, a value or path cut to 60 characters (argparse's too).
The console entry point, `console_main`, adds 130 for SIGINT and 143 for
SIGTERM, each printed as `<command>: interrupted`; `main` itself re-raises the
interrupt, so a caller running it in process still stops.

A command imports only what it runs. The names in `_LAZY` come from the
numpy-backed modules (bench, diffusion, synthetic): the module `__getattr__`
(PEP 562) imports each on first use and keeps it as a global. Commands call
them as `_cli.<name>`: a bare global lookup never reaches `__getattr__`, and
through the module a rebinding of the attribute, such as a tracer's wrapper,
takes effect.
"""

from __future__ import annotations

import argparse
import importlib
import os
import re
import secrets
import shutil
import sys
import warnings
from contextlib import contextmanager, suppress
from dataclasses import replace
from datetime import datetime, timezone
from itertools import chain, takewhile
from pathlib import Path

from . import __version__
from .config import (MAX_USERS, MEMORY_BUDGET, POLICY_VARIANTS, ExperimentConfig,
                     PlantedConfig, TrainSettings, load_config)
from .errors import ConfigError, NumericalError, check, located, shown, write_csv
from .errors import write_json as _write_json     # the name the benchmark's tracer wraps
from .game import solve_stackelberg
from .prerender import MAX_WALK_STEPS, load_trace, simulate_walk, write_walk_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# name -> the module of this package it is imported from on first use
_LAZY = {name: module for module, names in (
    ("bench", ("generate_workload", "preference_probabilities", "run_policy", "write_plot_data",
               "write_report_csv", "write_summary_json")),
    ("diffusion", ("AttentionGatedDenoiser", "load_checkpoint", "save_checkpoint", "train",
                   "write_curve_csv")),
    # no command calls these two from here (bench.preference_probabilities does), but
    # the benchmark's tracer wraps them on this module as well as on bench
    ("diffusion.sampling", ("interaction_probabilities", "reconstruct_preferences")),
    ("synthetic", ("build_training_set", "make_population")),
) for name in names}
_cli = sys.modules[__name__]           # this module, as commands look up lazy names


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __package__), name)
    globals()[name] = value
    return value


@contextmanager
def _path_from(option: str, path, action: str):
    """Report an OS or decoding error on a path the user gave as a one-line
    usage error naming the option that gave it."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"{option}: cannot {action} {shown(str(path))}: {reason}") from None


@contextmanager
def _reading(option: str, path):
    """Report a file the user gave as a one-line usage error naming the option
    that gave it: one that cannot be read as `_path_from` does, and one whose
    content is not valid with the reason."""
    with _path_from(option, path, "read"), located(f"{option}: "):
        yield


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
    if args.trace is None:
        result = simulate_walk(config.world, config.timing, config.walk.steps, seed,
                               config.encoding, config.walk.panorama_work)
    else:
        with _reading("--trace", args.trace):
            result = simulate_walk(config.world, config.timing, MAX_WALK_STEPS, seed,
                                   config.encoding, config.walk.panorama_work,
                                   trace=load_trace(args.trace))
    steps_path = out_dir / "walk_steps.csv"
    write_walk_csv(result, steps_path)
    summary_path = out_dir / "walk_summary.json"
    _write_json(summary_path, result.summary())
    return [steps_path, summary_path]


def _train_denoiser(config: ExperimentConfig, settings: TrainSettings, key: str, users: int,
                    population_seed: int, seed: int):
    """Train config's denoiser on `users` planted users; returns (result, standardizer)."""
    rows = config.denoiser.training_rows(config.diffusion.seq_len)
    check(min(settings.batch_size, users) <= rows, key, f"at most {rows} (training rows that "
          f"fit in {MEMORY_BUDGET >> 20} MiB with six weight copies)", settings.batch_size)
    planted = PlantedConfig(n_users=users, seq_len=config.diffusion.seq_len)
    dataset, standardizer = _cli.build_training_set(
        _cli.make_population(planted, seed=population_seed), planted)
    model = _cli.AttentionGatedDenoiser(config.denoiser, seed=seed)
    result = _cli.train(dataset, config.schedule, replace(settings, seed=seed), model=model)
    return result, standardizer


def cmd_diffusion_train(config: ExperimentConfig, seed: int, out_dir: Path,
                        args) -> list[Path]:
    result, standardizer = _train_denoiser(
        config, config.train, "diffusion.batch_size", config.diffusion.dataset_users, seed, seed)
    ckpt_path = out_dir / "checkpoint.npz"
    _cli.save_checkpoint(ckpt_path, result.model, config.schedule, standardizer)
    curve_path = out_dir / "training_curve.csv"
    _cli.write_curve_csv(result.history, curve_path)
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
    import numpy as np
    if args.checkpoint is None:
        raise ConfigError("--checkpoint: must name a trained model archive, got none")
    check(1 <= args.users <= MAX_USERS, "--users", f"in [1, {MAX_USERS}]", args.users)
    with _reading("--checkpoint", args.checkpoint):
        model, schedule, standardizer = _cli.load_checkpoint(args.checkpoint)
    t_noise, stride = config.diffusion.infer_noise_step, config.diffusion.stride
    schedule.check_step("diffusion.infer_noise_step", t_noise)
    planted = PlantedConfig(n_users=args.users, seq_len=config.diffusion.seq_len)
    eval_users = _cli.make_population(planted, seed=seed + 1_000_003)
    rng = np.random.default_rng(seed)

    ranked_ok = 0

    def rows():
        """Each user's rows, scored as the file is written."""
        nonlocal ranked_ok
        for uid, user in enumerate(eval_users):
            probs, = _cli.preference_probabilities(model, schedule, standardizer, [user],
                                                   t_noise, stride, [rng])
            flags = user.interest_flags
            if flags.any() and (~flags).any() and probs[flags].mean() > probs[~flags].mean():
                ranked_ok += 1
            yield from ((uid, item, p, int(flag))
                        for item, (p, flag) in enumerate(zip(probs, flags)))

    probs_path = out_dir / "probabilities.csv"
    write_csv(probs_path, ("user", "item", "probability", "interest_flag"), rows())
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
    given = shown(args.policies)
    for i, p in enumerate(policies):
        if p not in POLICY_VARIANTS:
            raise ConfigError(f"--policies: {shown(p)} is not one of "
                              f"{', '.join(POLICY_VARIANTS)}, got {given}")
        if p in policies[:i]:
            raise ConfigError(f"--policies: must name {shown(p)} once, got {given}")
    if not policies:
        raise ConfigError(f"--policies: must name a policy, got {given}")

    # a checkpoint given is read whichever policies run, so a bad one is reported
    model = schedule = standardizer = None
    if args.checkpoint is not None:
        with _reading("--checkpoint", args.checkpoint):
            model, schedule, standardizer = _cli.load_checkpoint(args.checkpoint)
    if "proposed" in policies:
        if schedule is None:
            schedule = config.schedule
        schedule.check_step("bench.t_noise", config.policy.t_noise)
        if model is None:
            result, standardizer = _train_denoiser(
                config, config.bench_train, "bench.train.batch_size", config.bench_train.users,
                seed + 7_777, seed)
            model = result.model

    workload = _cli.generate_workload(config.workload, seed=seed)
    reports = [_cli.run_policy(workload, replace(config.policy, variant=name), config.cost,
                               model=model, schedule=schedule, standardizer=standardizer)
               for name in policies]

    metrics_path = out_dir / "metrics.csv"
    _cli.write_report_csv(reports, metrics_path)
    summary_path = out_dir / "bench_summary.json"
    _cli.write_summary_json(reports, summary_path)
    outputs = [metrics_path, summary_path]
    if args.plot_data:
        outputs.extend(_cli.write_plot_data(reports, out_dir))
    return outputs


_COMMANDS = {
    "game-solve": cmd_game_solve,
    "prerender-sim": cmd_prerender_sim,
    "diffusion-train": cmd_diffusion_train,
    "diffusion-infer": cmd_diffusion_infer,
    "bench-run": cmd_bench_run,
}


# what argparse repeats of a command line: a quoted value, or a bare one
# (compiled by `re` on the first error, so a run without one does not)
_ARGPARSE_ECHO = (r"""'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*"|"""
                  r"(?<=^unrecognized arguments: ).+|(?<=^ambiguous option: ).+(?= could match)")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line, without the usage text, its echoes cut."""

    def error(self, message: str):
        message = re.sub(_ARGPARSE_ECHO, lambda m: shown(m.group(), str), message)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="renderopt", description=__doc__.splitlines()[0])
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
            p.add_argument("--policies", default=",".join(POLICY_VARIANTS))
            p.add_argument("--plot-data", action="store_true",
                           help="emit per-policy plot series files")
    return parser


_PARSER = build_parser()               # built once: every main() call parses with it


def _warning_lines(caught: list[warnings.WarningMessage]) -> list[str]:
    """One line per warning category, in order of first appearance: how many
    warnings of that category the run raised, and the first one's message."""
    by_category: dict[type, list[str]] = {}
    for w in caught:
        by_category.setdefault(w.category, []).append(str(w.message))
    return [f"{category.__name__} x{len(messages)}: {messages[0]}"
            for category, messages in by_category.items()]


def _discard(staging: Path | None, created: list[Path]) -> None:
    """Leave the out dir as a failed run found it, and no directory of its making."""
    if staging is not None:
        shutil.rmtree(staging, ignore_errors=True)
    for path in created:
        with suppress(OSError):         # not empty, or never made
            os.rmdir(path)


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    created: list[Path] = []          # output directories this run made, deepest first
    staging: Path | None = None       # where the command writes, inside the out dir
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            check(args.seed is None or args.seed >= 0, "--seed", "an integer >= 0", args.seed)
            with _path_from("--config", args.config, "read"):
                config = load_config(args.config)
            seed = args.seed if args.seed is not None else config.run.seed
            if args.out_dir is not None:      # Path("") would be the working directory
                check(args.out_dir != "", "--out-dir", "a non-empty string", args.out_dir)
                check("\0" not in args.out_dir, "--out-dir", "a path without a NUL character",
                      args.out_dir)
                option, out_dir = "--out-dir", Path(args.out_dir)
            else:
                option, out_dir = "out_dir", Path(config.run.out_dir)
            with _path_from(option, out_dir, "create directory"):
                # walked up to the first that exists, and made top down one at a
                # time: listing every parent of a deep path takes memory quadratic
                # in its depth, and `mkdir(parents=True)` recurses once per level
                created = list(takewhile(lambda p: not p.exists(),
                                         chain((out_dir,), out_dir.parents)))
                for path in reversed(created):
                    path.mkdir()
                out_dir.mkdir(exist_ok=True)     # a file there fails as `File exists`
                # named before it exists: an interrupt once it does still removes it
                staging = out_dir / f".staging-{secrets.token_hex(16)}"
                staging.mkdir(mode=0o700)
            started = datetime.now(timezone.utc).isoformat()
            outputs = _COMMANDS[args.command](config, seed, staging, args)
            _write_manifest(staging, config, args.command, seed, outputs, started)
            # only a run that succeeds publishes, and only where no directory blocks a file
            names = os.listdir(staging)
            for name in names:
                if (out_dir / name).is_dir():
                    raise ConfigError(f"{option}: cannot write into {shown(str(out_dir))}: "
                                      f"{shown(str(out_dir / name))} is a directory")
            with _path_from(option, out_dir, "write into"):
                for name in names:
                    os.replace(staging / name, out_dir / name)
                os.rmdir(staging)
    except ConfigError as exc:
        code, message = EXIT_CONFIG, f"config error: {exc}"
    except NumericalError as exc:
        code, message = EXIT_NUMERICAL, f"numerical failure: {exc}"
    except (ValueError, OSError) as exc:
        code, message = EXIT_CONFIG, f"error: {exc}"
    except KeyboardInterrupt:
        _discard(staging, created)
        print(f"{args.command}: interrupted", file=sys.stderr)
        raise
    else:
        for line in _warning_lines(caught):
            print(f"{args.command}: warning: {line}", file=sys.stderr)
        return EXIT_OK
    _discard(staging, created)
    print(f"{args.command}: {message}", file=sys.stderr)
    return code


class _Terminated(KeyboardInterrupt):
    """SIGTERM, raised wherever the run is, as Python raises SIGINT."""


def _terminate(signum, frame):
    raise _Terminated


def console_main() -> int:
    """`main` on the command line's arguments. SIGINT or SIGTERM makes a
    failed run that exits 128 + the signal's number, as a shell reports a run
    the signal killed, and prints no traceback."""
    import signal      # ~1 ms of start-up (enums) that in-process callers of main skip
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        return main()
    except _Terminated:
        return 128 + signal.SIGTERM
    except KeyboardInterrupt:
        return 128 + signal.SIGINT
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(console_main())
