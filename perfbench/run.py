#!/usr/bin/env python3
"""renderopt benchmark: one workload run, measured end to end or layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload market --seed 1 --seconds 15 --trace 0

With --trace 0 it starts three fresh processes one after another, each with
OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1: one that only sets up, one
that sets up and then runs the workload's requests for --seconds, and one
more that only sets up; setup_s is the median CPU time of the three set-ups.
With --trace 1 it starts an untraced and a traced
process; the traced one reports the per-layer metrics and the difference in
throughput between the two is the tracing overhead. Every metric is printed
by name with its unit; the last line is one JSON object holding the metrics
that BENCHMARK.json names.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("market", "floor", "score")
# set-up-only processes before and after the measuring one; setup_s is the
# median of all set-ups, taken apart in time so that one slow stretch of
# the machine does not set it
SETUPS_AROUND = 1
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_TIMEOUT_S = 60
LOOP_GRACE_S = 90                      # on top of --seconds, for the first pass and checks
MIN_BEYOND_P90 = 10                    # p90 is reported only when this many requests lie beyond it


def run_worker(root: Path, work: Path, args, tag: str, trace: bool, setup_only: bool) -> dict:
    """Start one worker process, wait for it, and return its result."""
    run_dir = work / f"{args.workload}-{tag}"
    shutil.rmtree(run_dir, ignore_errors=True)
    result = work / f"{args.workload}-{tag}.json"
    result.unlink(missing_ok=True)
    env = {**os.environ, **BLAS_PIN}
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(int(trace)), "--t0", repr(t0), "--src", str(root / "src"),
           "--work-dir", str(run_dir), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = SETUP_TIMEOUT_S if setup_only else SETUP_TIMEOUT_S + args.seconds + LOOP_GRACE_S
    with subprocess.Popen(cmd, env=env, cwd=root, stdout=sys.stderr) as proc:
        try:
            rc = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit(f"{tag} worker exceeded {timeout} s")
    shutil.rmtree(run_dir, ignore_errors=True)
    if rc != 0 or not result.is_file():
        raise SystemExit(f"{tag} worker failed with exit code {rc}")
    data = json.loads(result.read_text())
    result.unlink()
    return data


def end_to_end(res: dict) -> dict:
    """Throughput and cost percentiles over the timed requests of a run.

    A request's cost is its CPU time over the reference kernel's, timed
    beside it (`cost_ref`). The run holds whole timed passes over the pool,
    so every pool request counts equally. Throughput takes each pool
    request's median cost over its passes, so it is the work of a typical
    pass over the cost of that pass; checks are not counted."""
    recs = [r for r in res["records"] if not r["warm_up"]]
    cost = sorted(r["cost_ref"] for r in recs)
    p90 = statistics.quantiles(cost, n=10)[8]
    by_item: dict[int, list[dict]] = defaultdict(list)
    for r in recs:
        by_item[r["item"]].append(r)
    typical = sum(statistics.median(r["cost_ref"] for r in rs) for rs in by_item.values())
    out = {
        "work_per_ref": sum(rs[0]["work"] for rs in by_item.values()) / typical,
        "request_p50_ref": statistics.median(cost),
        "request_p90_ref": p90,
        "work_per_s": sum(r["work"] for r in recs) / sum(r["latency_s"] for r in recs),
        "peak_rss_mb": res["peak_rss_mb"],
        "beyond_p90": sum(1 for v in cost if v > p90),
        "timed": len(recs),
        "passes": len(recs) // len(by_item),
    }
    # the same run in plain milliseconds, for reading; these carry the
    # machine's speed of the moment and are not gated
    for key in ("latency_s", "cpu_s", "ref_s"):
        ms = [1e3 * r[key] for r in recs]
        out[f"{key[:-2]}_p50_ms"] = statistics.median(ms)
        if key != "ref_s":
            out[f"{key[:-2]}_p90_ms"] = statistics.quantiles(ms, n=10)[8]
    return out


def checked(res: dict) -> int:
    """Requests, cross-checks and set-up trainings whose results were checked."""
    return len(res["records"]) + len(res.get("cross_checks", ())) + int(res["setup_checked"])


def failures(res: dict) -> int:
    return sum(1 for r in res["records"] if not r["ok"]) + \
        sum(1 for c in res.get("cross_checks", ()) if not c["ok"]) + \
        (1 if res["setup_problems"] else 0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "renderopt" / "cli.py").is_file():
        print(f"no renderopt sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    work = root / ".bench_work"
    work.mkdir(exist_ok=True)

    unit_name = {"market": "market.solves", "floor": "floor.steps",
                 "score": "score.decisions"}[args.workload]
    lines: list[tuple[str, float, str]] = []
    if args.trace:
        plain = run_worker(root, work, args, "untraced", trace=False, setup_only=False)
        traced = run_worker(root, work, args, "traced", trace=True, setup_only=False)
        runs = [plain, traced]
        base, with_trace = end_to_end(plain)["work_per_ref"], end_to_end(traced)["work_per_ref"]
        layers = {**traced["per_layer"],
                  "trace.delta_work_per_ref": (with_trace - base, "work/ref"),
                  "trace.overhead_pct": (100.0 * (base - with_trace) / base, "%")}
        metrics = {name: value for name, (value, _) in layers.items()}
        lines += [(f"{unit_name}_per_ref.untraced", base, "work/ref"),
                  (f"{unit_name}_per_ref.traced", with_trace, "work/ref")]
        lines += [(name, value, unit) for name, (value, unit) in sorted(layers.items())]
        for check in traced.get("cross_checks", ()):
            print(f"cross-check {check['name']}: traced {check['traced']}, "
                  f"expected {check['expected']}: {'ok' if check['ok'] else 'FAILED'}")
        failed = failures(plain) + failures(traced)
        if plain["digest"] != traced["digest"]:
            print("artifact digests differ between the untraced and the traced run",
                  file=sys.stderr)
            failed += 1
        wanted = spec["per_layer"]
        print("note: one client in a closed loop, so no request ever waits in a queue")
    else:
        def setups(first: int) -> list[dict]:
            return [run_worker(root, work, args, f"setup{k}", trace=False, setup_only=True)
                    for k in range(first, first + SETUPS_AROUND)]

        before = setups(0)
        measured = run_worker(root, work, args, "measured", trace=False, setup_only=False)
        after = setups(SETUPS_AROUND)
        runs = [measured]
        metrics = end_to_end(measured)
        if metrics["beyond_p90"] < MIN_BEYOND_P90:
            raise SystemExit(f"only {metrics['beyond_p90']} requests lie beyond p90")
        setups = before + [measured] + after
        metrics["setup_s"] = statistics.median(r["setup_cpu_s"] for r in setups)
        lines += [(f"{unit_name}_per_ref", metrics["work_per_ref"], "work/ref"),
                  (f"{unit_name}_per_s.raw", metrics["work_per_s"], "work/s"),
                  ("setup_wall_s", statistics.median(r["setup_s"] for r in setups), "s")]
        lines += [(f"{key}.raw", metrics[key], "ms") for key in
                  ("latency_p50_ms", "latency_p90_ms", "cpu_p50_ms", "cpu_p90_ms", "ref_p50_ms")]
        lines += [(f"sim:{k}", v, "") for k, v in sorted(measured["sim"].items())]
        print(f"timed requests: {metrics['timed']} in {metrics['passes']} passes after "
              f"{len(measured['records']) - metrics['timed']} warm-up requests; "
              f"beyond p90: {metrics['beyond_p90']}")
        failed = failures(measured)
        wanted = spec["end_to_end"]

    res = runs[-1]
    attempted = sum(checked(r) for r in runs)
    lines.append(("failed_share", failed / attempted, "share"))
    print(f"workload {args.workload}, seed {args.seed}, digest {res['digest']}")
    print("environment " + json.dumps(res["environment"], sort_keys=True))
    for name, value, unit in lines:
        print(f"{name} {value!r} {unit}".rstrip())
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    printed = {name for name, _, _ in lines}
    for name, entry in out.items():
        if name not in printed:
            print(f"{name} {entry['value']!r} {entry['unit']}")
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}
    (work / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"summary": summary, "lines": lines, "runs": runs}, sort_keys=True))
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
