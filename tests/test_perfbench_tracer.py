"""The benchmark's tracer (`perfbench/spans.py`) patches fixed toolkit
function names and reads counters off their results; these checks keep
the toolkit and the tracer in step, which only traced benchmark runs would
otherwise notice."""

import importlib.util
import os

import presistance.cli  # noqa: F401  -- install() looks up every boundary module
from presistance import generate, pipeline

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_bound_and_solver_of_a_ratio_sweep():
    tracer = load_spans().Tracer()
    g = generate("gnp_connected", n=12, edge_prob=0.3, seed=1)
    tracer.install()
    try:
        rows = pipeline.ratio_sweep(g, (1.5, 3.0), sample_pairs=3, seed=0)
    finally:
        tracer.uninstall()
    assert len(rows) == 6
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    assert len(by_name["ratio_sweep"]) == 1
    bounds = by_name["approximation_bound"]
    assert len(bounds) == 2
    assert all(s.counts["iterations"] > 0 for s in bounds)
    solves = by_name["ssl_solve"]
    assert len(solves) == 6
    assert all(s.counts["iterations"] > 0 and s.counts["unconverged"] in (0, 1)
               for s in solves)
    # uninstall puts the originals back
    assert not hasattr(pipeline.ratio_sweep, "__wrapped__")
