"""Command-line entry point.

Subcommands mirror the staged pipeline so intermediate artifacts (graph,
distance matrix) persist and can be reused:

    build-graph   features CSV -> k-NN Gaussian edge list
    distances     edge list -> distance matrix (binary and/or CSV)
    cluster       distance matrix -> cluster result JSON (+ error rate)
    bench         full (mu, sigma, p) grid sweep on a labeled dataset
    bound         approximation bound factor report over a p grid
    ratio         approximated/exact metric ratio table
    verify        run the invariant suites; exit 0 iff all pass

Exit codes: 0 success, 1 property/convergence failure, 2 usage/validation
error. Every artifact embeds the resolved run configuration and the toolkit
version; re-running a command with identical inputs reproduces the artifact
byte for byte, whatever the input and output paths or worker count, which
are not recorded (timing lines go to stdout or separate files, never into
deterministic artifacts).
"""

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import __version__, errors
from .clustering import error_rate, farthest_first, k_medoids
from .graph import format_edge_list, generate, read_edge_list
from .numerics import approximation_bound, edge_projector, laplacian_pinv, matrix_op_pnorm
from .pipeline import (
    GraphBuildParams,
    bench_grid,
    knn_gaussian_graph,
    load_features,
    ratio_rows_csv,
    ratio_sweep,
    standardize,
)
from .resistance import (
    SolverConfig,
    available_cores,
    distance_matrix,
    export_distance_csv,
    load_distance_matrix,
    save_distance_matrix,
)
from .verify import FAULTS, clear_faults, inject_fault, run_suites


def _resolve_workers(workers):
    if workers is not None:
        return workers
    env = os.environ.get("PRESISTANCE_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise errors.InvalidParams(
                f"PRESISTANCE_WORKERS must be an integer, got {env!r}"
            ) from None
    return available_cores()


def _run_config(args):
    # the worker count, the input paths and the output destinations change
    # no computed value, so they stay out of artifacts: the bytes must
    # depend neither on the machine's core count nor on where the data is
    # read from or written to (`dist.bin` identifies its graph by
    # fingerprint). `--labels` names a file only for `cluster`; elsewhere it
    # picks the label column, which does change what is computed
    skip = {"func", "config", "workers", "out", "csv", "out_dir", "report",
            "graph", "features", "distances"}
    if args.subcommand == "cluster":
        skip.add("labels")
    doc = {
        k: v for k, v in sorted(vars(args).items()) if k not in skip
    }
    doc["version"] = __version__
    return json.dumps(doc, sort_keys=True)


def _load_graph(args):
    if getattr(args, "generate", None):
        spec = args.generate
        family, _, rest = spec.partition(":")
        params = {}
        if rest:
            for part in rest.split(","):
                key, sep, val = part.partition("=")
                try:
                    if not (key and sep):
                        raise ValueError
                    params[key] = float(val) if "." in val or "e" in val.lower() else int(val)
                except ValueError:
                    raise errors.InvalidParams(
                        f"--generate parameter {part!r} is not key=number"
                    ) from None
        if "seed" in params:
            raise errors.InvalidParams(
                "--generate takes no seed parameter; --seed sets it"
            )
        return generate(family, seed=getattr(args, "seed", 0), **params)
    if getattr(args, "graph", None):
        return read_edge_list(args.graph)
    raise errors.InvalidParams("provide --graph FILE or --generate FAMILY:k=v,...")


def _parse_grid(text):
    grid = []
    for tok in filter(None, map(str.strip, text.split(","))):
        try:
            grid.append(float(tok))
        except ValueError:
            raise errors.InvalidParams(f"grid value {tok!r} is not a number") from None
    return tuple(grid)


def cmd_build_graph(args):
    ds = load_features(
        args.features,
        has_labels=args.labels in ("first", "last"),
        label_column=args.labels if args.labels in ("first", "last") else "last",
    )
    if args.standardize:
        ds = standardize(ds)
    params = GraphBuildParams(
        mu=args.mu,
        sigma=args.sigma,
        symmetrization=args.symmetrization,
        on_disconnect=args.on_disconnect,
    )
    g = knn_gaussian_graph(ds, params)
    with open(args.out, "w") as f:
        f.write(f"# presistance {__version__}\n")
        f.write(f"# config: {_run_config(args)}\n")
        f.write(format_edge_list(g))
    print(
        f"graph: n={g.n} m={g.m} k={int(np.floor(args.mu * ds.n))} connected=yes "
        f"min_w={g.w.min():.6g} max_w={g.w.max():.6g} -> {args.out}"
    )
    return 0


def cmd_distances(args):
    workers = _resolve_workers(args.workers)
    g = _load_graph(args)
    cfg = SolverConfig(grad_tol=args.grad_tol)
    t0 = time.perf_counter()
    pinv = laplacian_pinv(g)
    t_pinv = time.perf_counter() - t0
    t0 = time.perf_counter()
    dm = distance_matrix(
        g, args.p, mode=args.mode, form=args.form, cfg=cfg, pinv=pinv,
        workers=workers,
    )
    t_pairs = time.perf_counter() - t0
    dm = dataclasses.replace(dm, meta=_run_config(args))
    save_distance_matrix(dm, args.out)
    if args.csv:
        export_distance_csv(dm, args.csv)
    print(
        f"distances: n={dm.n} p={args.p} mode={args.mode} form={args.form} "
        f"pinv_time={t_pinv:.3f}s pair_time={t_pairs:.3f}s -> {args.out}"
    )
    if dm.warnings:
        for i, j, iters, gn in dm.warnings[:10]:
            print(f"warning: pair ({i},{j}) not converged "
                  f"(iters={iters}, grad={gn:.2e})", file=sys.stderr)
        print(f"warning: {len(dm.warnings)} pair(s) not converged", file=sys.stderr)
        return 1
    return 0


def cmd_cluster(args):
    dm = load_distance_matrix(args.distances)
    if args.method == "kmedoids":
        res = k_medoids(dm.matrix, args.k, seed=args.seed, restarts=args.restarts)
    elif args.method == "farthest-first":
        res = farthest_first(dm.matrix, args.k, start=args.start)
    else:
        raise errors.InvalidParams(f"unknown method {args.method!r}")
    extra = {"config": json.loads(_run_config(args)), "method": args.method}
    if args.labels:
        with open(args.labels) as f:
            truth = [line.strip() for line in f if line.strip()]
        if dm.kept is not None and len(truth) != dm.n and len(truth) > max(dm.kept):
            # a label file of the input rows, for a matrix of the graph
            # restricted to its largest component: take the kept rows
            truth = [truth[v] for v in dm.kept]
        if len(truth) != dm.n:
            raise errors.LengthMismatch(
                f"label file has {len(truth)} rows, matrix has {dm.n}"
            )
        ev = error_rate(res.assignments, np.array(truth))
        extra["error_rate"] = ev.error_rate
        print(f"error_rate: {ev.error_rate:.4f}")
    with open(args.out, "w") as f:
        f.write(res.to_json(extra=extra) + "\n")
    print(f"cluster: k={args.k} objective={res.objective:.6g} -> {args.out}")
    return 0


def cmd_bench(args):
    ds = load_features(args.features, has_labels=True, label_column=args.labels)
    if args.standardize:
        ds = standardize(ds)
    result = bench_grid(
        ds,
        mu_grid=_parse_grid(args.mu_grid),
        sigma_grid=_parse_grid(args.sigma_grid),
        p_grid=_parse_grid(args.p_grid),
        methods=tuple(args.methods.split(",")),
        repetitions=args.repetitions,
        seed=args.seed,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    results_path = os.path.join(args.out_dir, "results.csv")
    with open(results_path, "w") as f:
        f.write(f"# config: {_run_config(args)}\n")
        f.write(result.results_csv())
    with open(os.path.join(args.out_dir, "timing.csv"), "w") as f:
        f.write(result.timing_csv())
    summary = {
        "config": json.loads(_run_config(args)),
        "best": result.best,
    }
    with open(os.path.join(args.out_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    for m, r in sorted(result.best.items()):
        print(f"best[{m}]: error={r['error_mean']:.4f}+-{r['error_sd']:.4f} "
              f"(mu={r['mu']} sigma={r['sigma']} p={r['p']})")
    print(f"bench: {len(result.records)} records -> {args.out_dir}")
    return 0


def cmd_bound(args):
    ps = _parse_grid(args.p_grid)
    if not ps:
        raise errors.InvalidParams("bound needs a p, got an empty p grid")
    g = _load_graph(args)
    pinv = laplacian_pinv(g)
    one_norm = matrix_op_pnorm(edge_projector(g, pinv), 1).value
    lines = ["p,alpha_estimate,worst_case,one_norm_ceiling,projector_one_norm"]
    for p in ps:
        b = approximation_bound(g, p, seed=args.seed, pinv=pinv)
        lines.append(
            f"{p!r},{b.value!r},{b.worst_case!r},{b.one_norm_ceiling!r},{one_norm!r}"
        )
    with open(args.out, "w") as f:
        f.write(f"# config: {_run_config(args)}\n")
        f.write("\n".join(lines) + "\n")
    print(f"bound: projector_one_norm={one_norm:.6f} over {len(lines) - 1} p values "
          f"-> {args.out}")
    return 0


def cmd_ratio(args):
    g = _load_graph(args)
    rows = ratio_sweep(g, _parse_grid(args.p_grid), sample_pairs=args.pairs,
                       seed=args.seed)
    with open(args.out, "w") as f:
        f.write(f"# config: {_run_config(args)}\n")
        f.write(ratio_rows_csv(rows))
    worst = max(r["ratio"] for r in rows)
    print(f"ratio: {len(rows)} rows, worst ratio {worst:.4f} -> {args.out}")
    return 0


def cmd_verify(args):
    if args.inject_fault:
        inject_fault(args.inject_fault)
    try:
        report = run_suites(names=args.suite or None, seed=args.seed,
                            verbose=not args.quiet)
    finally:
        clear_faults()
    report["config"] = json.loads(_run_config(args))
    if args.report:
        with open(args.report, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
    return 0 if report["passed"] else 1


def _config_defaults(path):
    """The `--config` file: a JSON object of option dest names to defaults."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise errors.InvalidParams(f"cannot read config {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise errors.InvalidParams(f"config {path} is not a JSON object")
    return doc


def _install_config(sp, name, doc):
    """Make the `--config` values the defaults of subcommand `name`, each
    checked as if its flag had been given: its text converted by the flag's
    type and found among its choices, a boolean for a switch, and a list of
    such values for a repeatable flag."""
    actions = {a.dest: a for a in sp._actions if a.dest != "help"}
    for key in sorted(doc):
        if key not in actions:
            raise errors.InvalidParams(f"config key {key!r} is not an option of {name}")
        action, value = actions[key], doc[key]
        bad = errors.InvalidParams(
            f"config {key}={value!r} is not a value of {action.option_strings[0]}"
        )
        repeated = isinstance(action, argparse._AppendAction)
        if action.nargs == 0 and not isinstance(value, bool):
            raise bad
        if action.nargs == 0:
            continue
        if repeated != isinstance(value, list):
            raise bad
        items = []
        for item in value if repeated else [value]:
            try:
                item = action.type(str(item)) if action.type else str(item)
            except (TypeError, ValueError):
                raise bad from None
            if action.choices is not None and item not in action.choices:
                raise bad
            items.append(item)
        doc[key] = items if repeated else items[0]
        action.required = False
    sp.set_defaults(**doc)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="presistance",
        description="effective p-resistance toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--config",
        help="JSON object of defaults for the subcommand's flags (dest names as keys)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    pb = sub.add_parser("build-graph", help="k-NN Gaussian graph from a feature CSV")
    pb.add_argument("--features", required=True)
    pb.add_argument("--mu", type=float, required=True)
    pb.add_argument("--sigma", type=float, required=True)
    pb.add_argument("--symmetrization", choices=("union", "mutual"), default="union")
    pb.add_argument("--on-disconnect", choices=("fail", "largest_component"),
                    default="fail")
    pb.add_argument("--labels", choices=("first", "last", "none"), default="none",
                    help="label column to skip when reading features")
    pb.add_argument("--standardize", action="store_true",
                    help="z-score feature columns before building the graph")
    pb.add_argument("--out", required=True)
    pb.set_defaults(func=cmd_build_graph)

    pd = sub.add_parser("distances", help="all-pairs distance matrix")
    pd.add_argument("--graph")
    pd.add_argument("--generate", help="FAMILY:k=v,... instead of --graph")
    pd.add_argument("--p", type=float, required=True)
    pd.add_argument("--mode", choices=("approx", "exact"), default="approx")
    pd.add_argument("--form", choices=("metric", "resistance"), default="metric")
    pd.add_argument("--out", required=True)
    pd.add_argument("--csv", help="also export a plain CSV")
    pd.add_argument("--grad-tol", type=float, default=1e-8)
    pd.add_argument("--seed", type=int, default=0)
    pd.add_argument("--workers", type=int, default=None,
                    help="cores to use: approx-mode threads, exact-mode "
                    "processes (default: PRESISTANCE_WORKERS, else the cores "
                    "available)")
    pd.set_defaults(func=cmd_distances)

    pc = sub.add_parser("cluster", help="cluster a persisted distance matrix")
    pc.add_argument("--distances", required=True)
    pc.add_argument("--k", type=int, required=True)
    pc.add_argument("--method", choices=("kmedoids", "farthest-first"),
                    default="kmedoids")
    pc.add_argument("--start", type=int, default=0, help="farthest-first seed point")
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--restarts", type=int, default=3)
    pc.add_argument("--labels", help="optional truth labels, one per line")
    pc.add_argument("--out", required=True)
    pc.set_defaults(func=cmd_cluster)

    pg = sub.add_parser("bench", help="grid sweep on a labeled dataset")
    pg.add_argument("--features", required=True)
    pg.add_argument("--labels", choices=("first", "last"), default="last")
    pg.add_argument("--mu-grid", default="0.04,0.06,0.08,0.1,1.0")
    pg.add_argument("--sigma-grid", default="0.001,0.01,0.1,1.0,10.0,100.0")
    pg.add_argument("--p-grid",
                    default="1.1,1.4,1.7,2.0,2.3,2.6,2.9,5.0,10.0,100.0,1000.0")
    pg.add_argument("--standardize", action="store_true",
                    help="z-score feature columns before building graphs")
    pg.add_argument("--methods", default="kmed_approx,kmed_p2")
    pg.add_argument("--repetitions", type=int, default=10)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--out-dir", required=True)
    pg.set_defaults(func=cmd_bench)

    po = sub.add_parser("bound", help="approximation bound factor over a p grid")
    po.add_argument("--graph")
    po.add_argument("--generate")
    po.add_argument("--p-grid", default="1.5,2.0,3.0,5.0,10.0")
    po.add_argument("--seed", type=int, default=0)
    po.add_argument("--out", required=True)
    po.set_defaults(func=cmd_bound)

    pr = sub.add_parser("ratio", help="approximated/exact metric ratio table")
    pr.add_argument("--graph")
    pr.add_argument("--generate")
    pr.add_argument("--p-grid", default="1.5,2.0,3.0,5.0")
    pr.add_argument("--pairs", type=int, default=10)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=cmd_ratio)

    pv = sub.add_parser("verify", help="run the invariant suites")
    pv.add_argument("--suite", action="append",
                    help="suite name (repeatable); default all")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--report", help="write a JSON report here")
    pv.add_argument("--quiet", action="store_true")
    pv.add_argument("--inject-fault", choices=FAULTS,
                    help="negative control: enable a documented bug hook")
    pv.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # first pass only to locate --config and the subcommand; the config
    # values become that subcommand's defaults
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    probe.add_argument("subcommand", nargs="?")
    known, _ = probe.parse_known_args(argv)
    subparsers = parser._subparsers._group_actions[0].choices
    try:
        if known.config and known.subcommand in subparsers:
            _install_config(subparsers[known.subcommand], known.subcommand,
                            _config_defaults(known.config))
        args = parser.parse_args(argv)
        return args.func(args)
    except errors.PresistanceError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
