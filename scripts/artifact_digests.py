#!/usr/bin/env python3
"""Print the artifact digest of six subcommand runs at --seed 3, and seven trace faults.

    python3 scripts/artifact_digests.py
    python3 scripts/artifact_digests.py --src ../parent/src

Each of the five subcommands runs as `python -m renderopt.cli <command>
--seed 3` in a fresh interpreter with OPENBLAS_NUM_THREADS=1, first under the
default config, then under the config of acceptance criterion 7
(`CRITERION_7` in tests/conftest.py, which tests/test_tooling.py checks this
copy against). diffusion-infer reads the checkpoint diffusion-train wrote
under the same config; bench-run trains its own model and writes its plot
data too; the run named prerender-replay is `prerender-sim --trace` on the
trace `write_trace` writes. Each line is `<config> <run> <sha256>`, the
digest made by perfbench/worker.py's `artifact_digest` (manifest timestamps
and zip headers left out), so two source trees whose runs write the same
artifacts print the same lines.

Then each trace in `FAULTS` is replayed from the work directory with relative
paths, as `prerender-sim --trace <name>.trace`, and printed as `faults <name>
<exit code> <stderr line>`; so the rows are the same on every machine, and
two trees that word every trace fault alike print the same rows.

Before the rows, one line goes to stderr: the kernels the digests were made
with (numpy's version, the SIMD extensions it found on this CPU, and its
BLAS), since the diffusion rows move with them. stdout holds the rows alone.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from worker import artifact_digest  # noqa: E402

# run name -> the subcommand it runs
RUNS = {"game-solve": "game-solve", "prerender-sim": "prerender-sim",
        "prerender-replay": "prerender-sim", "diffusion-train": "diffusion-train",
        "diffusion-infer": "diffusion-infer", "bench-run": "bench-run"}
SEED = 3
# config name -> the config file's contents; None runs without --config
CONFIGS = {
    "default": None,
    "criterion-7": {
        "diffusion": {"dataset_users": 48, "epochs": 3, "learning_rate": 0.003,
                      "d_model": 16, "heads": 2},
        "bench": {"scenes": 4,
                  "train": {"users": 48, "epochs": 3, "learning_rate": 0.003,
                            "batch_size": 32, "patience": 5}},
    },
}


# fault name -> a trace holding that fault
FAULTS = {
    "malformed-field": b"0 0 0\n1 1.5 0\n",
    "index-order": b"0 0 0\n1 1 0\n1 2 0\n",
    "line-past-cap": b"0 0 0\n1 1 0" + b" " * 16_384 + b"\n",
    "byte-in-field": b"0 0 0\n1 \xff 0\n",
    "byte-in-comment": b"0 0 0\n# caf\xe9\n1 1 0\n",
    "hop": b"0 0 0\n1 5 5\n",
    "one-point": b"0 3 3\n",
}


def write_trace(path: Path) -> None:
    """An 8000-step replay on the default 20 x 20 floor, back and forth along
    a serpentine through every point, in the spellings the trace grammar
    allows: a comment line every 100 points and a blank line every 250,
    signed fields and tabs on every seventh point line, and CRLF ends on
    every third line. Read, it is 83 322 characters: more than one of the
    blocks prerender reads a trace in, with point lines across block ends
    (tests/test_tooling.py checks both)."""
    serpentine = [(x if y % 2 == 0 else 19 - x, y) for y in range(20) for x in range(20)]
    lap = serpentine + serpentine[-2:0:-1]
    lines = []
    for k in range(8001):
        x, y = lap[k % len(lap)]
        if k % 100 == 0:
            lines.append(f"# step {k}")
        if k % 250 == 0:
            lines.append("")
        lines.append(f"+{k}\t+{x}\t+{y}" if k % 7 == 0 else f"{k} {x} {y}")
    with open(path, "w", newline="") as fh:
        fh.writelines(f"{line}\r\n" if i % 3 == 0 else f"{line}\n"
                      for i, line in enumerate(lines))


def kernel_fingerprint() -> str:
    """`kernels numpy=<version> simd=<found,...> blas=<name> <version>` for this
    interpreter's numpy, which the runs import. Where `show_config` has no
    dicts mode (older numpy), the SIMD list is read from numpy's CPU dispatch
    table and the BLAS reads `unknown`."""
    import numpy as np
    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        config = {"SIMD Extensions": {"found": [name for name in __cpu_dispatch__
                                                if __cpu_features__.get(name)]}}
    simd = config.get("SIMD Extensions", {}).get("found") or ["unknown"]
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return (f"kernels numpy={np.__version__} simd={','.join(simd)} "
            f"blas={blas.get('name', 'unknown')} {blas.get('version', 'unknown')}")


def run(argv: list[str], env: dict, cwd: Path | None = None) -> subprocess.CompletedProcess:
    """One CLI command in a fresh interpreter, in `cwd` if given."""
    return subprocess.run([sys.executable, "-m", "renderopt.cli", *argv], env=env, cwd=cwd,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="renderopt source root to run (default: this checkout's)")
    args = parser.parse_args()

    env = {**os.environ, "PYTHONPATH": str(Path(args.src).resolve()),
           "OPENBLAS_NUM_THREADS": "1"}
    print(kernel_fingerprint(), file=sys.stderr, flush=True)
    with tempfile.TemporaryDirectory(prefix="artifact-digests-") as tmp:
        work = Path(tmp)
        write_trace(work / "replay.trace")
        for name, payload in CONFIGS.items():
            config = []
            if payload is not None:
                path = work / f"{name}.json"
                path.write_text(json.dumps(payload))
                config = ["--config", str(path)]
            extra = {"prerender-replay": ["--trace", str(work / "replay.trace")],
                     "diffusion-infer": ["--checkpoint",
                                         str(work / name / "diffusion-train" / "checkpoint.npz")],
                     "bench-run": ["--plot-data"]}
            for label, command in RUNS.items():
                out = work / name / label
                argv = [command, *config, "--seed", str(SEED), "--out-dir", str(out),
                        *extra.get(label, [])]
                proc = run(argv, env)
                if proc.returncode != 0:
                    raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}: "
                                     f"{proc.stderr.strip()}")
                print(f"{name:12s} {label:16s} {artifact_digest(out)}", flush=True)
        for name, trace in FAULTS.items():
            (work / f"{name}.trace").write_bytes(trace)
            proc = run(["prerender-sim", "--trace", f"{name}.trace", "--out-dir", name], env,
                       cwd=work)
            print(f"{'faults':12s} {name:16s} {proc.returncode} {proc.stderr.rstrip()}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
