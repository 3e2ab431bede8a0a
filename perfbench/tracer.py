"""Span tracing of renderopt's layers from outside the program.

`install` replaces each traced function on the attribute its callers look it
up on (for example `renderopt.game.nash_equilibrium`, `renderopt.cli.train`,
`AttentionGatedDenoiser.predict`) with a wrapper that records one span per
call. Spans are kept in memory as parallel integer arrays (name, start, end,
parent, request id) and saved when the run ends. A span's self time is its
duration minus the durations of its direct children; spans nest strictly
because the benchmark runs one request at a time on one thread.
"""

from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

# spans that write artifacts; their summed self time is cli.write_artifacts
ARTIFACT_SPANS = ("cli._write_json", "cli._write_manifest", "prerender.write_walk_csv",
                  "diffusion.write_curve_csv", "diffusion.save_checkpoint",
                  "bench.write_report_csv", "bench.write_summary_json")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("q")
        self.parent = array("q")
        self.request = array("q")
        self.extra: dict[tuple[str, str, int], float] = defaultdict(float)
        self._stack = [-1]
        self.request_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.request.append(self.request_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Trace `owner.attr`. `name` is a span name or a function of the
        call's positional arguments; `count(args, kwargs, result)` returns
        extra per-span quantities to add up."""
        fn = getattr(owner, attr)
        fixed = None if callable(name) else self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else tracer.name_id(name(args))
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                label = tracer.names[nid]
                for key, value in count(args, kwargs, result).items():
                    tracer.extra[(label, key, tracer.request_id)] += value
            return result

        setattr(owner, attr, traced)

    def arrays(self) -> dict[str, np.ndarray]:
        return {k: np.frombuffer(getattr(self, k), dtype=np.int64).copy()
                for k in ("name", "start", "end", "parent", "request")}

    def table(self, request_kinds: dict[int, str]) -> dict[str, dict]:
        """Per span name, over the spans of the requests in `request_kinds`:
        calls, total and self time in ns, the same split by request kind,
        and any extra counts."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur), dtype=np.int64)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], dur[nested])
        own = dur - child
        keep = np.isin(a["request"], list(request_kinds))
        kinds = np.array([request_kinds.get(int(r)) for r in a["request"]], dtype=object)
        out: dict[str, dict] = {}
        for nid, label in enumerate(self.names):
            mask = (a["name"] == nid) & keep
            if not mask.any():
                continue
            row = {"calls": int(mask.sum()), "total_ns": int(dur[mask].sum()),
                   "self_ns": int(own[mask].sum()), "by_kind": {}}
            for kind in set(kinds[mask]):
                km = mask & (kinds == kind)
                row["by_kind"][kind] = {"calls": int(km.sum()), "total_ns": int(dur[km].sum())}
            out[label] = row
        for (label, key, request), value in self.extra.items():
            if label in out and request in request_kinds:
                out[label][key] = out[label].get(key, 0) + value
        return out


def denoiser_forward_flops(config, batch: int, length: int) -> int:
    """Multiply-add FLOPs (x2) of one forward pass, from the tensor shapes.

    Counts the matrix products only: token-wise linears at their sequence
    length (the bottleneck block runs at half length), the per-sequence time
    and condition embeddings, and the two L x L attention products per block.
    """
    d, f, c = config.d_model, config.feature_dim, config.cond_dim
    mf, a = config.d_model * config.mlp_ratio, config.gate_dim

    def block(n: int) -> int:
        return n * (4 * 2 * d * d + 2 * 2 * d * mf) + 2 * 2 * n * n * d

    per_seq = (length * 2 * f * d + 2 * d * d + 2 * c * d
               + block(length) + block(length // 2)
               + length * (2 * 2 * d * a + 2 * a)          # attention gate
               + length * 2 * 2 * d * d                    # merge
               + length * 2 * 2 * d * mf                   # decoder MLP
               + length * 2 * d * f)                       # output head
    return batch * per_seq


def _loss_flops(args, kwargs, result) -> dict:
    config, m_t = args[1], args[2]
    # backward of a matrix product costs two products of the forward's size
    return {"flops": 3 * denoiser_forward_flops(config, m_t.shape[0], m_t.shape[1])}


def _forward_rows(args, kwargs, result) -> dict:
    return {"rows": args[2].shape[0]}


def _nash_sweeps(args, kwargs, result) -> dict:
    return {"sweeps": result.iterations}


def install(tracer: Tracer) -> None:
    """Wrap every traced function where renderopt's callers look it up."""
    from renderopt import bench, cli, game, prerender
    from renderopt.diffusion import denoiser, training

    w = tracer.wrap
    w(cli, "load_config", "cli.load_config")
    w(cli, "_write_json", "cli._write_json")
    w(cli, "_write_manifest", "cli._write_manifest")

    w(cli, "solve_stackelberg", "game.solve_stackelberg")
    w(game, "nash_equilibrium", "game.nash_equilibrium", _nash_sweeps)
    w(game, "edge_best_response", "game.edge_best_response")

    w(cli, "simulate_walk", "prerender.simulate_walk")
    w(prerender, "segment_regions", "prerender.segment_regions")
    w(prerender, "encode_frame", "prerender.encode_frame")
    w(cli, "load_trace", "prerender.load_trace")
    w(cli, "write_walk_csv", "prerender.write_walk_csv")

    w(cli, "train", "diffusion.train")
    w(training, "loss_and_grads", "diffusion.loss_and_grads", _loss_flops)
    w(training.Adam, "update", "diffusion.adam_update")
    w(denoiser, "forward", "diffusion.forward", _forward_rows)
    w(denoiser.AttentionGatedDenoiser, "predict", "diffusion.predict")
    for owner in (cli, bench):
        w(owner, "reconstruct_preferences", "diffusion.reconstruct_preferences")
        w(owner, "interaction_probabilities", "diffusion.interaction_probabilities")
    w(cli, "load_checkpoint", "diffusion.load_checkpoint")
    w(cli, "save_checkpoint", "diffusion.save_checkpoint")
    w(cli, "write_curve_csv", "diffusion.write_curve_csv")

    w(cli, "run_policy", lambda args: f"bench.run_policy.{args[1].variant}")
    w(bench, "value_iteration", "bench.value_iteration")
    w(cli, "generate_workload", "bench.generate_workload")
    w(cli, "write_report_csv", "bench.write_report_csv")
    w(cli, "write_summary_json", "bench.write_summary_json")

    w(cli, "make_population", "synthetic.make_population")
