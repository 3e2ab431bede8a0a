"""One benchmark process: set up a workload, then run its requests.

Started by run.py with the BLAS thread pin already in its environment. It
imports `renderopt.cli`, generates the workload's inputs and, unless told to
stop after set-up, issues the seeded request pool as a closed loop with one
client: each `renderopt.cli.main([...])` call starts after the previous one
returned. The loop runs the whole pool once, then keeps cycling through it
until `--seconds` have passed. Every request's artifacts are checked and
digested; a request repeated in a later pass must reproduce the digest of
its first run. Results go to a JSON file for run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS

# numpy and the tracer are imported after renderopt, so that setup.import_s
# counts everything `import renderopt.cli` pulls in
REQUEST = "cli.main"
SETUP = "setup"
SETUP_ID, CHECK_ID = -1, -2            # span request ids of set-up and cross-checks
MIN_PASSES = 3                         # timed passes: every request is timed this often
MIN_REQUESTS = 100                     # timed, so that at least 10 lie beyond p90


def artifact_digest(out_dir: Path) -> str:
    """SHA-256 over every artifact, manifest timestamps and zip headers excluded."""
    import numpy as np
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0")
        if path.name == "manifest.json":
            doc = json.loads(path.read_text())
            doc.pop("started_at", None)
            doc.pop("finished_at", None)
            h.update(json.dumps(doc, sort_keys=True).encode())
        elif path.suffix == ".npz":
            # the archive's zip headers carry write times; hash the arrays
            with np.load(path) as archive:
                for key in sorted(archive.files):
                    arr = archive[key]
                    h.update(key.encode() + str(arr.dtype).encode() + str(arr.shape).encode())
                    h.update(np.ascontiguousarray(arr).tobytes())
        else:
            h.update(path.read_bytes())
    return h.hexdigest()


def cpu_seconds() -> float:
    """User plus system CPU time of this process so far, interpreter start
    included. A guest kernel with paravirtual steal accounting leaves out
    the time the hypervisor gave to other guests, which wall time counts."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_request(cli, argv: list[str]) -> tuple[int | None, float, float]:
    """Run one request; return its exit code, wall seconds and CPU seconds."""
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        rc = cli.main(argv)
    except Exception:                  # a traceback is a failed request, not a crash
        traceback.print_exc()
        rc = None
    return rc, time.perf_counter() - start, time.process_time() - cpu_start


def reference_kernel(scratch: Path) -> float:
    """A fixed piece of work that measures the machine's speed at this moment.

    It mixes, in about equal shares of time, the kinds of work the program
    does: interpreted loops over floats and dicts, many numpy operations on
    small arrays (a batch-1 forward's shape), writing and reading small CSV
    files, and 64 x 64 matrix products. Returns its CPU seconds."""
    import numpy as np
    start = time.process_time()
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(10000):
        k = i % 997
        table[k] = table.get(k, 0.0) + math.sqrt(i) * 0.5
        acc += table[k] / (1.0 + k)
    x = np.linspace(0.0, 1.0, 16 * 64).reshape(16, 64)
    w = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64) * 0.05
    for _ in range(200):
        h = np.tanh(x @ w)
        e = np.exp(h - h.max(axis=1, keepdims=True))
        x = e / e.sum(axis=1, keepdims=True) * 16.0 + 0.5 * x
    for i in range(20):
        path = scratch / f"reference-{i}.csv"
        with open(path, "w") as fh:
            fh.writelines(f"{j},{j * 0.5:.6f},{i}\n" for j in range(200))
        acc += len(path.read_text())
        path.unlink()
    a = np.linspace(0.0, 1.0, 4096).reshape(64, 64)
    for _ in range(20):
        a = np.tanh(a @ a.T * 0.01 + 0.1)
    if not math.isfinite(acc + float(x.sum()) + float(a.sum())):
        raise RuntimeError("reference kernel produced a non-finite result")
    return time.process_time() - start


def cross_checks(cli, tracer, name: str, workload, work_dir: Path) -> list[dict]:
    """Call counts the wrappers must see on two known requests."""

    def traced_calls(span_name: str) -> int:
        a = tracer.arrays()
        return int(((a["request"] == CHECK_ID) & (a["name"] == tracer.name_id(span_name))).sum())

    tracer.request_id = CHECK_ID
    checks = []
    if name == "market":
        rc, _, _ = run_request(cli, ["game-solve", "--out-dir", str(work_dir / "check-game")])
        calls = traced_calls("game.nash_equilibrium")
        checks.append({"name": "game.nash_equilibrium.calls_per_solve on the default config",
                       "traced": calls, "expected": 328, "ok": rc == 0 and calls == 328})
    if name == "score":
        out = work_dir / "check-infer"
        rc, _, _ = run_request(cli, ["diffusion-infer", "--checkpoint", workload.checkpoint,
                                  "--users", "200", "--out-dir", str(out)])
        calls = traced_calls("diffusion.predict")
        reported = json.loads((out / "infer_summary.json").read_text())["denoiser_calls"] \
            if rc == 0 else None
        checks.append({"name": "diffusion.predict calls on diffusion-infer --users 200",
                       "traced": calls, "expected": reported,
                       "ok": rc == 0 and calls == reported == 800})
    return checks


def closed_loop(cli, workload, seconds: float, work_dir: Path, tracer=None):
    """Warm up on the first request of each kind, then run timed passes over
    the pool: at least MIN_PASSES of them and MIN_REQUESTS timed requests,
    and until `seconds` have passed since the warm-up. The warm-up loads what
    a kind of request imports or builds on first use. Its requests are
    checked and digested like the others but flagged, so no metric counts
    them."""
    pool = workload.requests
    first_of_kind: dict[str, int] = {}
    for item, req in enumerate(pool):
        first_of_kind.setdefault(req.kind, item)
    first_digest: dict[int, str] = {}
    records = []
    sims = []
    request_nid = tracer.name_id(REQUEST) if tracer else None
    ref_before = reference_kernel(work_dir)

    def issue(item: int, n_pass: int) -> None:
        """Run one request of pass `n_pass` (-1 for the warm-up) and record it."""
        nonlocal ref_before
        req = pool[item]
        i = len(records)
        out = work_dir / f"request-{i}"
        if tracer:
            tracer.request_id = i
            span = tracer.open(request_nid)
        rc, latency, cpu = run_request(cli, req.argv + ["--out-dir", str(out)])
        if tracer:
            tracer.close(span)
        problems = [] if rc == 0 else [f"exit code {rc}"]
        work = users = 0
        if rc == 0:
            try:
                outcome = workload.examine(req, out)
            except (OSError, KeyError, ValueError) as exc:
                problems.append(f"unreadable artifacts: {exc!r}")
            else:
                problems += outcome.problems
                work, users = outcome.work, outcome.users
                if n_pass == 0:
                    sims.append(outcome.sim)
            digest = artifact_digest(out)
            if item not in first_digest:
                first_digest[item] = digest
            elif digest != first_digest[item]:
                problems.append("artifacts differ from the first run of this request")
        for problem in problems:
            print(f"request {i} ({req.argv[0]}): {problem}", file=sys.stderr)
        # the request's CPU time in units of the reference kernel, timed
        # just before and just after it: the machine's speed cancels
        ref_after = reference_kernel(work_dir)
        ref_s = 0.5 * (ref_before + ref_after)
        ref_before = ref_after
        records.append({"item": item, "kind": req.kind, "latency_s": latency,
                        "cpu_s": cpu, "ref_s": ref_s, "cost_ref": cpu / ref_s,
                        "warm_up": n_pass < 0,
                        "work": work, "users": users, "ok": not problems})
        shutil.rmtree(out, ignore_errors=True)

    for item in first_of_kind.values():
        issue(item, -1)
    t_end = time.monotonic() + seconds
    n_pass = 0
    while (n_pass < MIN_PASSES or n_pass * len(pool) < MIN_REQUESTS
           or time.monotonic() < t_end):
        for item in range(len(pool)):
            issue(item, n_pass)
        n_pass += 1
    run_digest = hashlib.sha256(
        "".join(first_digest.get(k, "missing") for k in range(len(pool))).encode()).hexdigest()
    sim = workload.summarize(sims) if len(sims) == len(pool) else {}
    return records, sim, run_digest


def layer_metrics(table: dict, setup_table: dict, records: list[dict], import_s: float):
    """Per-layer figures, name -> (value, unit). Training runs only in
    set-up, so its figures come from the set-up spans, everything else from
    the request spans. A layer the workload never calls reads 0."""
    from tracer import ARTIFACT_SPANS
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0, "by_kind": {}}

    def row(name):
        return table.get(name, empty)

    def srow(name):
        return setup_table.get(name, empty)

    def div(a, b):
        return a / b if b else 0.0

    req = row(REQUEST)
    req_ns, n_req = req["total_ns"], req["calls"]
    solves = row("game.solve_stackelberg")["calls"]
    walks = row("prerender.simulate_walk")["calls"]
    steps = sum(r["work"] for r in records) if walks else 0
    users = sum(r["users"] for r in records)

    def per_call(name, unit_ns, get=row):
        return div(get(name)["total_ns"], get(name)["calls"] * unit_ns)

    def kind_ms(name, kind):
        part = row(name)["by_kind"].get(kind, {"calls": 0, "total_ns": 0})
        return div(part["total_ns"], part["calls"] * 1e6)

    def per(name, key, by, get=row):
        return div(get(name).get(key, 0), by)

    nash, lg = row("game.nash_equilibrium"), srow("diffusion.loss_and_grads")
    metrics = {
        "setup.import_s": (import_s, "s"),
        "cli.load_config.ms": (per_call("cli.load_config", 1e6), "ms"),
        "cli.request_self_ms": (div(req["self_ns"], n_req * 1e6), "ms"),
        "cli.write_artifacts.ms": (div(sum(row(n)["self_ns"] for n in ARTIFACT_SPANS),
                                       n_req * 1e6), "ms"),
        "game.solve_stackelberg.ms": (per_call("game.solve_stackelberg", 1e6), "ms"),
        "game.nash_equilibrium.calls_per_solve": (div(nash["calls"], solves), "count"),
        "game.nash_equilibrium.sweeps_per_call": (per("game.nash_equilibrium", "sweeps",
                                                      nash["calls"]), "count"),
        "game.nash_equilibrium.self_share": (div(nash["self_ns"], req_ns), "share"),
        "game.edge_best_response.calls_per_solve": (div(row("game.edge_best_response")["calls"],
                                                        solves), "count"),
        "game.edge_best_response.us": (per_call("game.edge_best_response", 1e3), "us"),
        "prerender.segment_regions.large.ms": (kind_ms("prerender.segment_regions", "large"), "ms"),
        "prerender.segment_regions.small.ms": (kind_ms("prerender.segment_regions", "small"), "ms"),
        "prerender.encode_frame.calls_per_walk": (div(row("prerender.encode_frame")["calls"],
                                                      walks), "count"),
        "prerender.encode_frame.us": (per_call("prerender.encode_frame", 1e3), "us"),
        "prerender.simulate_walk.self_us_per_step": (div(row("prerender.simulate_walk")["self_ns"],
                                                         steps * 1e3), "us"),
        "prerender.load_trace.ms": (per_call("prerender.load_trace", 1e6), "ms"),
        "prerender.write_walk_csv.ms": (per_call("prerender.write_walk_csv", 1e6), "ms"),
        "diffusion.train.s": (per_call("diffusion.train", 1e9, srow), "s"),
        "diffusion.loss_and_grads.ms": (per_call("diffusion.loss_and_grads", 1e6, srow), "ms"),
        "diffusion.loss_and_grads.calls": (div(lg["calls"], srow("diffusion.train")["calls"]),
                                           "count"),
        "diffusion.loss_and_grads.gflop_per_s": (div(lg.get("flops", 0), lg["total_ns"]),
                                                 "GFLOP/s"),
        "diffusion.adam_update.ms": (per_call("diffusion.adam_update", 1e6, srow), "ms"),
        "diffusion.save_checkpoint.ms": (per_call("diffusion.save_checkpoint", 1e6, srow), "ms"),
        "diffusion.forward.setup.ms": (per_call("diffusion.forward", 1e6, srow), "ms"),
        "diffusion.forward.setup.rows_per_call": (per("diffusion.forward", "rows",
                                                      srow("diffusion.forward")["calls"], srow),
                                                  "count"),
        "diffusion.forward.ms": (per_call("diffusion.forward", 1e6), "ms"),
        "diffusion.forward.rows_per_call": (per("diffusion.forward", "rows",
                                                row("diffusion.forward")["calls"]), "count"),
        "diffusion.predict.calls_per_user": (div(row("diffusion.predict")["calls"], users), "count"),
        "diffusion.predict.us": (per_call("diffusion.predict", 1e3), "us"),
        "diffusion.reconstruct_preferences.ms": (per_call("diffusion.reconstruct_preferences", 1e6),
                                                 "ms"),
        "diffusion.interaction_probabilities.us": (per_call("diffusion.interaction_probabilities",
                                                            1e3), "us"),
        "diffusion.load_checkpoint.ms": (per_call("diffusion.load_checkpoint", 1e6), "ms"),
        "bench.value_iteration.ms": (per_call("bench.value_iteration", 1e6), "ms"),
        "bench.value_iteration.calls": (div(row("bench.value_iteration")["calls"],
                                            row("bench.run_policy.mdp")["calls"]), "count"),
        "bench.generate_workload.ms": (per_call("bench.generate_workload", 1e6), "ms"),
        "synthetic.make_population.ms": (per_call("synthetic.make_population", 1e6), "ms"),
    }
    for policy in ("proposed", "mdp", "random_opt", "none"):
        metrics[f"bench.run_policy.{policy}.ms"] = (per_call(f"bench.run_policy.{policy}", 1e6), "ms")
    return metrics


def environment() -> dict:
    import os
    import platform

    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when run.py started this process")
    parser.add_argument("--src", required=True, help="renderopt source root to import")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    t_import = time.monotonic()
    import renderopt
    import renderopt.cli as cli
    import_s = time.monotonic() - t_import
    if src not in Path(renderopt.__file__).resolve().parents:
        print(f"renderopt imported from {renderopt.__file__}, not from {src}", file=sys.stderr)
        return 2

    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
        tracer.request_id = SETUP_ID
        span = tracer.open(tracer.name_id(SETUP))
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    if tracer:
        tracer.close(span)
    setup_cpu_s = cpu_seconds()
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "setup_cpu_s": setup_cpu_s, "import_s": import_s,
              "environment": environment()}

    if not args.setup_only:
        if tracer:
            result["cross_checks"] = cross_checks(cli, tracer, args.workload, workload, work_dir)
        records, sim, digest = closed_loop(cli, workload, args.seconds, work_dir, tracer)
        if workload.setup_out is not None:
            digest = hashlib.sha256((artifact_digest(workload.setup_out) + digest).encode()).hexdigest()
        result.update(records=records, sim={**workload.setup_sim, **sim}, digest=digest,
                      setup_checked=workload.setup_out is not None,
                      setup_problems=workload.setup_problems)
        for problem in workload.setup_problems:
            print(f"set-up: {problem}", file=sys.stderr)
        if tracer:
            import numpy as np
            table = tracer.table({i: r["kind"] for i, r in enumerate(records)})
            setup_table = tracer.table({SETUP_ID: SETUP})
            result["per_layer"] = layer_metrics(table, setup_table, records, import_s)
            np.savez(work_dir.parent / f"spans-{args.workload}.npz",
                     names=np.array(tracer.names), **tracer.arrays())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
