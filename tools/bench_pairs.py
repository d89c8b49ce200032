"""Alternating pairs of benchmark runs on two revisions, summarised into a
`BENCH_<label>.json` at the repository root.

Run from the repository root:

    python3 tools/bench_pairs.py --parent 8eef2ff --change HEAD \\
        --label my_change --workloads iris_grid,blobs_staged --pairs 10 \\
        --seed-base 9000

Each revision is exported with `git archive` into a temporary directory, and
every run is

    python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0

in one export, one run at a time, with PYTHONDONTWRITEBYTECODE=1, for the
`run_seconds` of `BENCHMARK.json` (30). To measure uncommitted work, give
`--change` the commit that `git commit-tree $(git write-tree) -p HEAD -m
wip` prints after `git add -A`: it moves no branch. Pair i
(from 0) runs seed base + i on both sides: on odd i the parent runs first,
on even i the change. The file holds every run and, per workload, metric
and side, the median and quartiles, with the pairs in which the change was
better and worse, the parent's IQR and the metric's bound from
`BENCHMARK.json`. Top-level keys of an existing file that this tool does
not write are kept, so measurements recorded beside the runs survive a
rerun. The tool reads `BENCHMARK.json` and runs `perfbench/` in the
exports; it writes neither.
"""

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev, dest):
    """The tree of the git revision `rev` in `dest`."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                         check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as f:
        f.extractall(dest, filter="data")


def run_once(tree, workload, seed, seconds):
    """One benchmark run in `tree`: its exit code and the metrics line."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    line = json.loads(lines[-1]) if lines else {}
    return {
        "exit": proc.returncode,
        "correct": bool(line.get("correct")),
        "attempted": line.get("attempted"),
        "failed": line.get("failed"),
        "metrics": {k: v["value"] for k, v in line.get("metrics", {}).items()},
    }


def _stats(values):
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _verdict(rel, iqr_rel, bound, better_pairs, pairs):
    if rel > bound:
        return "worse beyond its bound"
    if rel > iqr_rel:
        return "worse by more than the parent's IQR, within its bound"
    if rel > 0:
        return "worse by less than the parent's IQR: noise"
    if -rel > iqr_rel and 10 * better_pairs >= 9 * pairs:
        return "better by more than the parent's IQR, in at least 9 of 10 pairs"
    return "not worse"


def summarise(runs, end_to_end):
    """Per workload and end-to-end metric, each side's median and quartiles
    and the pairwise comparison. `runs` are dicts with workload, pair, side
    ("parent" or "change"), exit, correct and metrics; `end_to_end` is the
    list of that name in `BENCHMARK.json`. A relative change is signed so
    that positive is worse: (change - parent) / parent for a metric whose
    lower values are better, the opposite for the others."""
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        by_pair = {}
        for r in mine:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r
        both = [p for p in sorted(by_pair) if len(by_pair[p]) == 2]
        doc = {"pairs": len(both),
               "all_runs_correct_exit_0": all(r["exit"] == 0 and r["correct"] for r in mine)}
        for metric in end_to_end:
            name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
            vals = {side: [by_pair[p][side]["metrics"].get(name) for p in both]
                    for side in ("parent", "change")}
            if not both or any(v is None for vs in vals.values() for v in vs):
                continue
            parent, change = _stats(vals["parent"]), _stats(vals["change"])
            diffs = [sign * (c - p) for p, c in zip(vals["parent"], vals["change"])]
            base = abs(parent["median"]) or 1.0
            rel = sign * (change["median"] - parent["median"]) / base
            iqr_rel = (parent["q3"] - parent["q1"]) / base
            better = sum(d < 0 for d in diffs)
            doc[name] = {
                "parent": parent,
                "change": change,
                "change_better_pairs": f"{better} of {len(both)}",
                "change_worse_pairs": f"{sum(d > 0 for d in diffs)} of {len(both)}",
                "median_change_rel": round(rel, 5),
                "parent_iqr_rel": round(iqr_rel, 5),
                "bound_rel": metric["bound"],
                "verdict": _verdict(rel, iqr_rel, metric["bound"], better, len(both)),
            }
        out[workload] = doc
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision of the baseline")
    parser.add_argument("--change", required=True, help="revision of the change")
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--workloads", required=True, help="comma-separated perfbench workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--tmp-dir", help="where the exports go (default: the system's)")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        parser.error("--label takes letters, digits, '_', '.' and '-'")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    end_to_end, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    workloads = args.workloads.split(",")
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    exports = tempfile.mkdtemp(prefix="bench_pairs_", dir=args.tmp_dir)
    try:
        trees = {side: os.path.join(exports, side) for side in ("parent", "change")}
        export(args.parent, trees["parent"])
        export(args.change, trees["change"])
        runs = []
        for workload in workloads:
            for i in range(args.pairs):
                seed = args.seed_base + i
                order = ("parent", "change") if i % 2 else ("change", "parent")
                for side in order:
                    run = {"workload": workload, "pair": i, "seed": seed, "side": side,
                           **run_once(trees[side], workload, seed, seconds)}
                    runs.append(run)
                    print(json.dumps(run), flush=True)
    finally:
        shutil.rmtree(exports, ignore_errors=True)
    doc = {}
    if os.path.exists(path):
        with open(path) as f:
            doc = json.load(f)
    doc.update({
        "label": args.label,
        "revisions": {"parent": args.parent, "change": args.change},
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "protocol": (f"tools/bench_pairs.py: each revision from its own export; one run at "
                     f"a time; pair i runs seed {args.seed_base} + i, the parent first on "
                     f"odd i and the change first on even i; {args.pairs} pairs per "
                     f"workload; PYTHONDONTWRITEBYTECODE=1"),
        "machine": f"{os.cpu_count()} CPUs, {platform.machine()}, "
                   f"Python {platform.python_version()}",
        "summary": summarise(runs, end_to_end),
        "runs": runs,
    })
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(json.dumps(doc["summary"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
