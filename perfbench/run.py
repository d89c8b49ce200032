"""Benchmark of the presistance toolkit, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload iris_grid --seed 0 --seconds 30 --trace 0

Workloads (`BENCHMARK.json` records why each was chosen):

    iris_grid     slices of the paper's iris grid through `bench_grid`
    ratio_gnp40   exact per-pair solves through `ratio_sweep` on G(40, 0.2)
    blobs_staged  the staged command line on generated Gaussian blobs

One run sets the toolkit up in fresh processes several times (`setup_s`),
then repeats timed passes of the workload until `--seconds` is used up, then
checks the outputs outside the timed region. With `--trace 0` the last line
of standard output carries the end-to-end metrics. `wall_s` is the mean pass
time: on a host whose speed flips between two states every second or so, the
median of a few passes jumps between the states while the mean averages them
(the report line also gives the median and the tail). With `--trace 1` the
public functions at each layer boundary are wrapped from outside (see
`spans.py`) and the last line carries per-layer metrics, averaged per traced
pass. The line before it is a JSON report: environment, pass times, failure
counts by reason, quality figures, the layer-to-metric predictions and every
check that failed. The exit code is 0 when every check passed, 1 when a check
failed and 2 when the toolkit could not be found.

`--inject-fault approx-sign` enables the toolkit's documented negative-control
hook for the timed passes (clearing it afterwards); the checks must then fail.
"""

import os
import sys

# one process, one BLAS/OpenMP thread: fixed before numpy is imported here or
# in any probe process, which inherit this environment
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5
MAX_PASSES = 10_000


def _toolkit_root():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "presistance", "__init__.py")):
        return None
    return root


def measure_setup(root, workload):
    """Median time from starting a fresh interpreter to the point where it
    could make its first timed call: imports plus the workload's warm-up."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py"), workload],
            cwd=root, stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return statistics.median(times), times


def environment():
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (KeyError, TypeError, AttributeError):
        pass
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "processes": 1,
    }


def timed_passes(wl, seconds, tracer):
    """Run whole cycles of passes until the next cycle would overrun
    `seconds`; the workload's minimum pass count always runs. Returns
    per-pass figures and outputs."""
    walls, uncovered, outputs, errors = [], [], {}, []
    deadline = time.perf_counter() + seconds
    k = 0
    while k < MAX_PASSES:
        if k >= wl.min_passes and k % wl.cycle == 0 and (
            time.perf_counter() + wl.cycle * statistics.fmean(walls) > deadline
        ):
            break
        first = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        try:
            out = wl.run_pass(k)
        except Exception:  # a failed pass is counted and reported, not fatal
            walls.append(time.perf_counter() - t0)
            errors.append(f"pass {k}: {traceback.format_exc(limit=4)}")
        else:
            walls.append(time.perf_counter() - t0)
            if tracer:
                uncovered.append(walls[-1] - tracer.root_time(first))
            outputs[k] = out
            wl.after_pass(k, out)
        k += 1
    return walls, uncovered, outputs, errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", choices=("approx-sign",))
    parser.add_argument("--write-iris-reference", action="store_true",
                        help="record the iris slices' seed-0 results and exit")
    args = parser.parse_args(argv)

    root = _toolkit_root()
    if root is None:
        print("perfbench: run from a checkout holding src/presistance", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import presistance
    from presistance import verify
    from spans import Tracer, layer_metrics, tail
    from workloads import PREDICTIONS, WORKLOADS, write_iris_reference

    if not presistance.__file__.startswith(os.path.join(root, "src")):
        print(f"perfbench: imported {presistance.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    if args.write_iris_reference:
        write_iris_reference(root)
        return 0
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    setup_s, setup_samples = measure_setup(root, args.workload)
    workdir = os.path.join(root, ".perfbench", f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        wl = WORKLOADS[args.workload](root, args.seed, workdir)
        wl.prepare()
        wl.warm_up()
        if args.inject_fault:
            verify.inject_fault(args.inject_fault)
        tracer = Tracer() if args.trace else None
        try:
            if tracer:
                tracer.install()
            try:
                walls, uncovered, outputs, errors = timed_passes(wl, args.seconds, tracer)
            finally:
                if tracer:
                    tracer.uninstall()
            if tracer:
                # the first pass again, untraced, to price the tracing
                t0 = time.perf_counter()
                wl.run_pass(0)
                untraced_first = time.perf_counter() - t0
        finally:
            verify.clear_faults()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        summary = wl.summary(outputs) if outputs else {}
        problems = errors + (wl.check(outputs) if outputs else ["no pass completed"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(os.path.dirname(workdir)) and not os.listdir(os.path.dirname(workdir)):
            os.rmdir(os.path.dirname(workdir))

    attempted = summary.get("attempted_ops", 0)
    ok_share = (attempted - summary.get("failed_ops", 0)) / attempted if attempted else 0.0
    wall_tail, wall_tail_pct = tail(walls)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        why = {w["name"]: w["why"] for w in json.load(f)["workloads"]}
    report = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "passes": len(walls),
        "pass_wall_s": walls,
        "wall_s": {"mean": statistics.fmean(walls), "median": statistics.median(walls),
                   "tail": wall_tail, "tail_percentile": wall_tail_pct,
                   "samples": len(walls)},
        "setup_s_samples": setup_samples,
        "failed_share": 1.0 - ok_share,
        "failures_by_reason": summary.get("failures", {}),
        "error_rate": summary.get("error_rate"),
        "unconverged_share": summary.get("unconverged_share"),
        "best": summary.get("best"),
        "predictions": PREDICTIONS,
        "problems": problems,
    }
    if args.trace:
        traced = len(walls)
        metrics = layer_metrics(tracer.spans, traced)
        metrics["trace.overhead_s"] = {"value": walls[0] - untraced_first, "unit": "s"}
        metrics["trace.spans"] = {"value": len(tracer.spans) / traced, "unit": "count"}
        metrics["trace.uncovered_s"] = {
            "value": statistics.fmean(uncovered) if uncovered else 0.0, "unit": "s"}
        failures = dict(report["failures_by_reason"])
        for reason in ("Disconnected", "SingularShift"):
            metrics[f"failures.{reason}"] = {
                "value": failures.pop(reason, 0) / traced, "unit": "count"}
        metrics["failures.other"] = {"value": sum(failures.values()) / traced,
                                     "unit": "count"}
        for name in ("failed_share", "error_rate", "unconverged_share"):
            metrics[f"quality.{name}"] = {"value": report[name] or 0.0, "unit": "share"}
    else:
        metrics = {
            "wall_s": {"value": statistics.fmean(walls), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ok_share": {"value": ok_share, "unit": "share"},
        }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(walls),
        "failed": len(errors),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
