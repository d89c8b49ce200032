"""Span recorder that times the toolkit's layers from outside.

`Tracer.install()` replaces each public function listed in `BOUNDARIES`
with a wrapper that records one span per call: name, layer, start, end,
parent span, work counts taken from the arguments and the return value,
and the exception type when the call raised. Nothing inside `src/` is
changed. A function is patched in every `presistance` module that holds
it, because `pipeline` and `cli` import `distance_matrix`, `k_medoids`,
`build_graph` and friends by name; patching only the defining module would
miss those calls. `Tracer.uninstall()` puts the originals back.
"""

import os
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np


def _graph_arg(args, kwargs):
    return kwargs["g"] if "g" in kwargs else args[0]


def _p_arg(args, kwargs):
    return float(kwargs["p"] if "p" in kwargs else args[1])


def _count_graph(args, kwargs, result):
    return {"edges": result.m}


def _count_distance_matrix(args, kwargs, result):
    g = _graph_arg(args, kwargs)
    pairs = g.n * (g.n - 1) // 2
    return {"pairs": pairs, "edge_pairs": g.m * pairs}


def _count_ssl(args, kwargs, result):
    return {
        "iterations": result.iterations,
        "unconverged": int(not result.converged),
        "p": _p_arg(args, kwargs),
    }


def _count_iterations(args, kwargs, result):
    return {"iterations": result.iterations}


def _count_saved_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(kwargs["path"] if "path" in kwargs else args[1])}


def _count_loaded_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(kwargs["path"] if "path" in kwargs else args[0])}


# (module, function, layer, span name, counter over (args, kwargs, result))
BOUNDARIES = (
    ("pipeline", "load_features", "pipeline", "load_features", None),
    ("pipeline", "knn_gaussian_graph", "pipeline", "knn_gaussian_graph", _count_graph),
    ("pipeline", "bench_grid", "pipeline", "bench_grid", None),
    ("pipeline", "ratio_sweep", "pipeline", "ratio_sweep", None),
    ("graph", "build_graph", "graph", "build_graph", None),
    ("graph", "generate", "graph", "generate", None),
    ("graph", "read_edge_list", "graph", "read_edge_list", None),
    ("numerics", "laplacian_pinv", "numerics", "laplacian_pinv", None),
    ("numerics", "approximation_bound", "numerics", "approximation_bound",
     _count_iterations),
    ("resistance", "distance_matrix", "resistance", "distance_matrix",
     _count_distance_matrix),
    ("resistance", "approx_metric", "resistance", "approx_metric", None),
    ("resistance", "ssl_solve", "resistance", "ssl_solve", _count_ssl),
    ("resistance", "save_distance_matrix", "resistance", "save_distance_matrix",
     _count_saved_bytes),
    ("resistance", "load_distance_matrix", "resistance", "load_distance_matrix",
     _count_loaded_bytes),
    ("clustering", "k_medoids", "clustering", "k_medoids", _count_iterations),
    ("clustering", "farthest_first", "clustering", "farthest_first", None),
    ("clustering", "error_rate", "clustering", "error_rate", None),
    ("cli", "main", "cli", "main", None),
    ("cli", "cmd_build_graph", "cli", "build-graph", None),
    ("cli", "cmd_distances", "cli", "distances", None),
    ("cli", "cmd_cluster", "cli", "cluster", None),
)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)
    failed: str = ""

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans in memory while installed; single-threaded use only."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def _wrap(self, fn, layer, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            span = Span(
                name=name, layer=layer, start=0.0,
                parent=tracer._stack[-1] if tracer._stack else -1,
            )
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.end = time.perf_counter()
                span.failed = type(exc).__name__
                raise
            else:
                span.end = time.perf_counter()
                if counter is not None:
                    span.counts = counter(args, kwargs, result)
                return result
            finally:
                tracer._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "presistance" or key.startswith("presistance.")
        ]
        for mod_name, fn_name, layer, span_name, counter in BOUNDARIES:
            original = getattr(sys.modules[f"presistance.{mod_name}"], fn_name)
            wrapper = self._wrap(original, layer, span_name, counter)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
                    self._patched.append((mod, fn_name, original))

    def uninstall(self):
        for mod, fn_name, original in reversed(self._patched):
            setattr(mod, fn_name, original)
        self._patched.clear()

    def root_time(self, first):
        """Summed duration of the outermost spans recorded from index `first`."""
        return sum(s.duration for s in self.spans[first:] if s.parent == -1)


def tail(values):
    """(value, percentile) of the highest of the 50th, 75th, 90th, 99th and
    99.9th percentiles that has at least ten samples above it; the maximum
    (reported as the 100th) when there are fewer than twenty samples."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    for pct in (99.9, 99.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10:
            return float(np.percentile(values, pct)), pct
    return max(values), 100.0


def layer_metrics(spans, passes):
    """Per-layer figures averaged over `passes` traced passes.

    `.s` is busy time, `.self_s` busy time minus the time of child spans;
    counts come from the wrappers' counters.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    by_name = {}
    for index, s in enumerate(spans):
        by_name.setdefault((s.layer, s.name), []).append((s, child_time[index]))

    def agg(layer, name):
        entries = by_name.get((layer, name), [])
        durations = [s.duration for s, _ in entries]
        counts = {}
        for s, _ in entries:
            for key, value in s.counts.items():
                if key != "p":
                    counts[key] = counts.get(key, 0) + value
        return {
            "s": sum(durations),
            "self_s": sum(s.duration - c for s, c in entries),
            "calls": len(entries),
            "failed": sum(1 for s, _ in entries if s.failed),
            "durations": durations,
            "counts": counts,
            "entries": entries,
        }

    out = {}

    def put(key, total, unit):
        out[key] = {"value": total / passes, "unit": unit}

    def per_call(prefix, a):
        p50 = statistics.median(a["durations"]) if a["durations"] else 0.0
        out[f"{prefix}.call_p50_s"] = {"value": p50, "unit": "s"}
        out[f"{prefix}.call_tail_s"] = {"value": tail(a["durations"])[0], "unit": "s"}

    a = agg("pipeline", "load_features")
    put("pipeline.load_features.s", a["s"], "s")
    put("pipeline.load_features.calls", a["calls"], "count")
    a = agg("pipeline", "knn_gaussian_graph")
    put("pipeline.knn_gaussian_graph.s", a["s"], "s")
    put("pipeline.knn_gaussian_graph.calls", a["calls"], "count")
    put("pipeline.knn_gaussian_graph.failed", a["failed"], "count")
    put("pipeline.knn_gaussian_graph.edges", a["counts"].get("edges", 0), "count")
    put("pipeline.bench_grid.self_s", agg("pipeline", "bench_grid")["self_s"], "s")
    put("pipeline.ratio_sweep.self_s", agg("pipeline", "ratio_sweep")["self_s"], "s")

    a = agg("graph", "build_graph")
    put("graph.build_graph.s", a["s"], "s")
    put("graph.build_graph.calls", a["calls"], "count")
    put("graph.build_graph.failed", a["failed"], "count")
    put("graph.generate.s", agg("graph", "generate")["s"], "s")
    put("graph.read_edge_list.s", agg("graph", "read_edge_list")["s"], "s")

    a = agg("numerics", "laplacian_pinv")
    put("numerics.laplacian_pinv.s", a["s"], "s")
    put("numerics.laplacian_pinv.calls", a["calls"], "count")
    put("numerics.laplacian_pinv.failed", a["failed"], "count")
    a = agg("numerics", "approximation_bound")
    put("numerics.approximation_bound.s", a["s"], "s")
    put("numerics.approximation_bound.calls", a["calls"], "count")
    put("numerics.approximation_bound.iterations", a["counts"].get("iterations", 0),
        "count")

    a = agg("resistance", "distance_matrix")
    put("resistance.distance_matrix.s", a["s"], "s")
    put("resistance.distance_matrix.calls", a["calls"], "count")
    put("resistance.distance_matrix.pairs", a["counts"].get("pairs", 0), "count")
    edge_pairs = a["counts"].get("edge_pairs", 0)
    put("resistance.distance_matrix.edge_pairs", edge_pairs, "count")
    out["resistance.distance_matrix.edge_pairs_per_s"] = {
        "value": edge_pairs / a["s"] if a["s"] > 0 else 0.0, "unit": "1/s"}
    per_call("resistance.distance_matrix", a)
    a = agg("resistance", "approx_metric")
    put("resistance.approx_metric.s", a["s"], "s")
    put("resistance.approx_metric.calls", a["calls"], "count")
    a = agg("resistance", "ssl_solve")
    put("resistance.ssl_solve.s", a["s"], "s")
    put("resistance.ssl_solve.calls", a["calls"], "count")
    put("resistance.ssl_solve.iterations", a["counts"].get("iterations", 0), "count")
    put("resistance.ssl_solve.unconverged", a["counts"].get("unconverged", 0), "count")
    per_call("resistance.ssl_solve", a)
    for p, label in ((1.1, "p1_1"), (2.9, "p2_9"), (10.0, "p10")):
        at_p = [s for s, _ in a["entries"] if s.counts.get("p") == p]
        put(f"resistance.ssl_solve.{label}.s", sum(s.duration for s in at_p), "s")
        put(f"resistance.ssl_solve.{label}.iterations",
            sum(s.counts["iterations"] for s in at_p), "count")
    for name in ("save_distance_matrix", "load_distance_matrix"):
        a = agg("resistance", name)
        put(f"resistance.{name}.s", a["s"], "s")
        put(f"resistance.{name}.bytes", a["counts"].get("bytes", 0), "B")

    a = agg("clustering", "k_medoids")
    put("clustering.k_medoids.s", a["s"], "s")
    put("clustering.k_medoids.calls", a["calls"], "count")
    put("clustering.k_medoids.iterations", a["counts"].get("iterations", 0), "count")
    per_call("clustering.k_medoids", a)
    for name in ("farthest_first", "error_rate"):
        a = agg("clustering", name)
        put(f"clustering.{name}.s", a["s"], "s")
        put(f"clustering.{name}.calls", a["calls"], "count")

    for name in ("build-graph", "distances", "cluster"):
        put(f"cli.{name}.s", agg("cli", name)["s"], "s")
    cli_self = sum(agg("cli", name)["self_s"]
                   for name in ("main", "build-graph", "distances", "cluster"))
    put("cli.self_s", cli_self, "s")
    return out
