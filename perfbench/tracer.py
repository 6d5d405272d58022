"""Span tracer that wraps graphamp's public functions from outside.

Nothing in the library is edited.  `install` replaces module attributes
(every binding of a wrapped function across the graphamp modules, so
`from .engine import run` in cli.py is caught too) and the `apply`
method of every `Nonlinearity` subclass with wrappers that record one
span per call: name, layer, thread, start, end, parent and an optional
computed count (draws, flops, bytes).  Spans stay in memory until the
caller writes them out.

`layer_metrics` turns a span list into the per-layer metrics named in
the benchmark's README, and `attribute` splits the traced wall time
over layers for the share check.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import os
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

LAYERS = ("cli", "models", "ensembles", "engine", "nonlinearity",
          "state_evolution", "gamp_se", "embedding", "reporting")


class Tracer:
    """Collects spans from every thread; parents come from a per-thread
    stack.  A span opened on a thread with an empty stack (a worker of
    the CLI's seed pool) takes as parent the innermost span open on the
    thread that installed the tracer, i.e. the fan-out that spawned it."""

    def __init__(self):
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, layer: str,
             count: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main and stack is not main else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = {"id": sid, "name": name, "layer": layer,
                    "thread": threading.get_ident(), "start": start,
                    "end": end, "parent": parent}
            if count is not None:
                span["count"] = count(args, kwargs, result)
            self.spans.append(span)
            return result
        return traced


# ---------------------------------------------------------------------------
# computed counts, from argument shapes (no program counters exist yet)

def _draws(args, kwargs, result):
    return int(result.size)


def _step_flops(args, kwargs, result):
    # x_e = A_e m_e - m_{e<-}^{t-1} b_e^T for every edge; traj already
    # advanced, so the step just taken is t = T - 1
    instance, traj = args[0], args[1]
    g = instance.graph
    t = traj.T - 1
    flops = 0
    for e in g.edges:
        rows, cols, q = g.node_dim[e.end], g.node_dim[e.start], g.q(e)
        flops += 2 * rows * cols * q
        if t >= 1:
            flops += 2 * rows * g.q(e.reversed()) * q
    return flops


def _embed_N(args, kwargs, result):
    return int(result.layout.N)


def _bytes_written(args, kwargs, result):
    return os.path.getsize(args[0])


# (module, attribute, layer, count)
TARGETS = (
    ("graphamp.cli", "_fan_out", "cli", None),
    # covers a pool worker's whole task, so its time is never unowned
    ("graphamp.cli", "_run_one_seed", "cli", None),
    ("graphamp.cli", "se_rows_for", "cli", None),
    ("graphamp.models.glm", "build_gamp_instance", "models", None),
    ("graphamp.models.multilayer", "build_multilayer_instance", "models", None),
    ("graphamp.models.spiked", "build_spiked_instance", "models", None),
    ("graphamp.models.committee", "build_committee_instance", "models", None),
    ("graphamp.models.gmm", "build_gmm_spatial_instance", "models", None),
    ("graphamp.ensembles", "normals", "ensembles", _draws),
    ("graphamp.engine", "run", "engine", None),
    ("graphamp.engine", "step", "engine", _step_flops),
    ("graphamp.engine", "onsager", "engine", None),
    ("graphamp.nonlinearity", "fd_jacobian_trace", "nonlinearity", None),
    ("graphamp.state_evolution", "se_run", "state_evolution", None),
    ("graphamp.state_evolution", "se_step", "state_evolution", None),
    ("graphamp.state_evolution", "sample_gaussian_family", "state_evolution",
     _draws),
    ("graphamp.state_evolution", "mc_observable_stats", "state_evolution", None),
    ("graphamp.gamp_se", "gamp_overlap_se", "gamp_se", None),
    ("graphamp.gamp_se", "gaussian_piecewise_nodes", "gamp_se", None),
    ("graphamp.gamp_se", "gh_points", "gamp_se", None),
    ("graphamp.embedding", "embed", "embedding", _embed_N),
    ("graphamp.embedding", "run_symmetric", "embedding", None),
    ("graphamp.embedding", "verify_equivalence", "embedding", None),
    ("graphamp.reporting", "write_csv", "reporting", _bytes_written),
)


def _graphamp_modules():
    import graphamp
    for info in pkgutil.walk_packages(graphamp.__path__, "graphamp."):
        importlib.import_module(info.name)
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "graphamp" or name.startswith("graphamp."))]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(tracer: Tracer) -> None:
    """Wrap every target binding and every Nonlinearity.apply override."""
    modules = _graphamp_modules()
    wrapped = {}
    for modname, attr, layer, count in TARGETS:
        fn = getattr(sys.modules[modname], attr)
        name = f"{modname[len('graphamp.'):]}.{attr}"
        wrapped[id(fn)] = (fn, tracer.wrap(fn, name, layer, count))
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])

    from graphamp.nonlinearity import Nonlinearity
    for cls in set(_subclasses(Nonlinearity)):
        if "apply" in vars(cls):
            setattr(cls, "apply", tracer.wrap(vars(cls)["apply"], "apply",
                                              "nonlinearity"))


# ---------------------------------------------------------------------------
# analysis

def _union(intervals) -> float:
    total, cur_a, cur_b = 0.0, None, None
    for a, b in sorted(intervals):
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def _children(spans):
    kids = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            kids[s["parent"]].append(s)
    return kids


def self_times(spans) -> Dict[int, float]:
    """Duration minus the part of the span its direct children cover."""
    kids = _children(spans)
    out = {}
    for s in spans:
        cover = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                 for c in kids[s["id"]]]
        out[s["id"]] = (s["end"] - s["start"]) - _union(
            [(a, b) for a, b in cover if b > a])
    return out


def attribute(spans) -> Dict[str, float]:
    """Split the covered wall time over layers, seconds per layer.

    Within a thread the innermost open span owns each instant.  When
    threads run at once, a span waiting on a descendant in another
    thread (the fan-out) owns nothing, and the remaining owners share
    the instant equally, so the result sums to the time any span was
    open rather than to busy time summed over threads.
    """
    by_id = {s["id"]: s for s in spans}
    kids = _children(spans)
    segments = []
    for s in spans:
        own = sorted((c["start"], c["end"]) for c in kids[s["id"]]
                     if c["thread"] == s["thread"])
        cursor = s["start"]
        for a, b in own:
            if a > cursor:
                segments.append((cursor, a, s["id"]))
            cursor = max(cursor, b)
        if s["end"] > cursor:
            segments.append((cursor, s["end"], s["id"]))

    ancestors: Dict[int, set] = {}

    def ancestors_of(sid):
        if sid not in ancestors:
            chain, p = set(), by_id[sid]["parent"]
            while p is not None:
                chain.add(p)
                p = by_id[p]["parent"]
            ancestors[sid] = chain
        return ancestors[sid]

    events = sorted([(a, 1, sid) for a, b, sid in segments]
                    + [(b, 0, sid) for a, b, sid in segments])
    layer_time: Dict[str, float] = defaultdict(float)
    active: Dict[int, int] = defaultdict(int)
    last = None
    for when, opening, sid in events:
        if last is not None and when > last and active:
            owners = list(active)
            if len(owners) > 1:
                waiting = set().union(*(ancestors_of(o) for o in owners))
                owners = [o for o in owners if o not in waiting] or owners
            share = (when - last) / len(owners)
            for o in owners:
                layer_time[by_id[o]["layer"]] += share
        last = when
        if opening:
            active[sid] += 1
        else:
            active[sid] -= 1
            if not active[sid]:
                del active[sid]
    return dict(layer_time)


# metric name -> unit
LAYER_METRICS = {
    "state_evolution.se_run_s": "s",
    "state_evolution.sample_s": "s",
    "state_evolution.sample_draws": "count",
    "state_evolution.eval_s": "s",
    "state_evolution.eval_calls": "count",
    "state_evolution.accumulate_s": "s",
    "state_evolution.obs_stats_s": "s",
    "engine.steps": "count",
    "engine.step_s": "s",
    "engine.apply_s": "s",
    "engine.apply_calls": "count",
    "engine.jacobian_s": "s",
    "engine.jacobian_calls": "count",
    "engine.matmul_s": "s",
    "engine.matmul_flops": "flop",
    "nonlinearity.fd_calls": "count",
    "gamp_se.overlap_se_s": "s",
    "gamp_se.quad_nodes_s": "s",
    "gamp_se.quad_node_calls": "count",
    "models.build_s": "s",
    "ensembles.normals_s": "s",
    "ensembles.normal_draws": "count",
    "embedding.graph_run_s": "s",
    "embedding.embed_s": "s",
    "embedding.run_symmetric_s": "s",
    "embedding.compare_s": "s",
    "embedding.N": "count",
    "cli.fan_out_s": "s",
    "cli.se_rows_s": "s",
    "reporting.write_s": "s",
    "reporting.bytes_written": "byte",
}

# counts taken from argument shapes or file sizes, not program counters
COMPUTED = {"state_evolution.sample_draws", "engine.matmul_flops",
            "ensembles.normal_draws", "embedding.N", "reporting.bytes_written"}


def layer_metrics(spans) -> Dict[str, float]:
    """Per-layer metrics of one traced invocation (sums over spans)."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    m = {k: 0 if LAYER_METRICS[k] != "s" else 0.0 for k in LAYER_METRICS}

    def parent_name(s):
        p = by_id.get(s["parent"])
        return p["name"] if p else None

    for s in spans:
        name, dur, parent = s["name"], s["end"] - s["start"], parent_name(s)
        if name == "state_evolution.se_run":
            m["state_evolution.se_run_s"] += dur
        elif name == "state_evolution.se_step":
            m["state_evolution.accumulate_s"] += selfs[s["id"]]
        elif name == "state_evolution.sample_gaussian_family" and parent == "state_evolution.se_step":
            m["state_evolution.sample_s"] += dur
            m["state_evolution.sample_draws"] += s["count"]
        elif name == "state_evolution.mc_observable_stats":
            m["state_evolution.obs_stats_s"] += dur
        elif name == "apply" and parent == "state_evolution.se_step":
            m["state_evolution.eval_s"] += dur
            m["state_evolution.eval_calls"] += 1
        elif name == "apply" and parent == "engine.step":
            m["engine.apply_s"] += dur
            m["engine.apply_calls"] += 1
        elif name == "engine.step":
            m["engine.steps"] += 1
            m["engine.step_s"] += dur
            m["engine.matmul_s"] += selfs[s["id"]]
            m["engine.matmul_flops"] += s["count"]
        elif name == "engine.onsager":
            m["engine.jacobian_s"] += dur
            m["engine.jacobian_calls"] += 1
        elif name == "engine.run" and parent == "embedding.verify_equivalence":
            m["embedding.graph_run_s"] += dur
        elif name == "nonlinearity.fd_jacobian_trace":
            m["nonlinearity.fd_calls"] += 1
        elif name == "gamp_se.gamp_overlap_se":
            m["gamp_se.overlap_se_s"] += dur
        elif name in ("gamp_se.gaussian_piecewise_nodes", "gamp_se.gh_points"):
            m["gamp_se.quad_nodes_s"] += dur
            m["gamp_se.quad_node_calls"] += 1
        elif s["layer"] == "models":
            m["models.build_s"] += dur
        elif name == "ensembles.normals":
            m["ensembles.normals_s"] += dur
            m["ensembles.normal_draws"] += s["count"]
        elif name == "embedding.embed":
            m["embedding.embed_s"] += dur
            m["embedding.N"] = max(m["embedding.N"], s["count"])
        elif name == "embedding.run_symmetric":
            m["embedding.run_symmetric_s"] += dur
        elif name == "embedding.verify_equivalence":
            m["embedding.compare_s"] += selfs[s["id"]]
        elif name == "cli._fan_out":
            m["cli.fan_out_s"] += dur
        elif name == "cli.se_rows_for":
            m["cli.se_rows_s"] += dur
        elif name == "reporting.write_csv":
            m["reporting.write_s"] += dur
            m["reporting.bytes_written"] += s["count"]
    return m


def busy_time(spans) -> float:
    """Self time summed over all spans and threads (exceeds wall time
    when the seed pool runs threads at once)."""
    return math.fsum(self_times(spans).values())
