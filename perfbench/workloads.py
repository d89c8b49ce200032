"""The benchmark's workloads: input generation, one timed pass, output checks.

Every workload calls the toolkit through module attributes
(`pipeline.bench_grid`, `cli.main`, ...) so that the tracer's patches see
each call. Inputs are made from the workload seed only; the program
receives nothing but the generated inputs. Checks run outside the timed
region and compare the program's outputs with references the benchmark
computes itself (`numpy.linalg.pinv` of the Laplacian, its own nearest
medoid assignment and class matching).
"""

import contextlib
import hashlib
import io
import json
import os
from collections import Counter

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from presistance import cli, clustering, graph, numerics, pipeline, resistance

HERE = os.path.dirname(os.path.abspath(__file__))
IRIS_REFERENCE = os.path.join(HERE, "iris_reference.json")
REL_TOL = 1e-6  # distance entries against the numpy.linalg.pinv reference
SAMPLED_ENTRIES = 40

# Which end-to-end figure each layer metric should move, on which workload.
PREDICTIONS = {
    "resistance.distance_matrix": {
        "moves": {"iris_grid": ["wall_s", "peak_rss_mb"],
                  "blobs_staged": ["wall_s", "peak_rss_mb"]},
        "unchanged": ["ratio_gnp40"],
        "note": "sharing work across p values is exercised only on iris_grid; "
                "on blobs_staged (one p, sparse graph) a multi-p kernel is "
                "predicted to give no gain and must not lose",
    },
    "clustering.k_medoids": {
        "moves": {"blobs_staged": ["wall_s"], "iris_grid": ["wall_s"]},
        "unchanged": ["ratio_gnp40"],
        "note": "error rates must hold",
    },
    "resistance.ssl_solve": {
        "moves": {"ratio_gnp40": ["wall_s", "unconverged_share"]},
        "unchanged": ["iris_grid", "blobs_staged"],
    },
    "numerics.laplacian_pinv, pipeline.knn_gaussian_graph, graph.*, "
    "resistance.save/load_distance_matrix, cli.*": {
        "moves": {},
        "note": "each under 1-2% of wall_s at these sizes; measured so that a "
                "regression in them shows",
    },
}


def _laplacian(n, edges):
    L = np.zeros((n, n))
    for i, j, w in edges:
        L[i, j] -= w
        L[j, i] -= w
        L[i, i] += w
        L[j, j] += w
    return L


def reference_metrics(n, edges, p, pairs):
    """Approximate p-resistance metric of each pair from numpy.linalg.pinv:
    sum over edges of w |y_a - y_b|^q with y = L+ (e_i - e_j)."""
    Lp = np.linalg.pinv(_laplacian(n, edges))
    ei = np.array([e[0] for e in edges])
    ej = np.array([e[1] for e in edges])
    w = np.array([e[2] for e in edges])
    q = p / (p - 1.0)
    values = []
    for i, j in pairs:
        y = Lp[:, i] - Lp[:, j]
        values.append(float(w @ np.abs(y[ei] - y[ej]) ** q))
    return values


def _sample_pairs(n, count, seed):
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        pairs.append((i, j))
    return pairs


def _check_entries(label, pairs, got, want):
    return [
        f"{label} entry ({i},{j}) = {float(g)!r}, reference {w!r}"
        for (i, j), g, w in zip(pairs, got, want)
        if not abs(g - w) <= REL_TOL * abs(w)
    ]


class IrisGrid:
    """Slices of the paper's iris grid through `pipeline.bench_grid`.

    One pass runs every mu of the paper grid against one sigma of the paper
    grid plus sigma=100 (the degenerate kernel column), at one p value, with
    methods kmed_approx,kmed_p2 and 10 repetitions, so two p values (p and
    the p=2 of kmed_p2) share each L+. The five slices below cover every
    sigma that gives a connected graph, p from 1.1 to 100, and the paper's
    best cell (mu=1, sigma=0.01, p=10). Runs are made of whole cycles of the
    five slices, so every run times the same work.
    """

    name = "iris_grid"
    SLICES = (
        (1e-3, 1.1),
        (1e-2, 10.0),
        (1e-1, 1.7),
        (1.0, 2.9),
        (10.0, 100.0),
    )
    DEGENERATE_SIGMA = 100.0
    METHODS = ("kmed_approx", "kmed_p2")
    REPETITIONS = 10
    EXPECTED_FAILURES = {"Disconnected": 8, "SingularShift": 1}
    min_passes = cycle = len(SLICES)

    def __init__(self, root, seed, workdir):
        self.path = os.path.join(root, "tests", "data", "iris.csv")
        self.seed = seed

    def prepare(self):
        pass

    def warm_up(self):
        ds = pipeline.load_features(self.path, has_labels=True)
        small = pipeline.FeatureDataset(X=ds.X[::10], labels=ds.labels[::10])
        pipeline.bench_grid(small, mu_grid=(1.0,), sigma_grid=(0.1,),
                            p_grid=(3.0,), methods=self.METHODS, repetitions=1)

    def run_pass(self, k):
        sigma, p = self.SLICES[k % len(self.SLICES)]
        ds = pipeline.load_features(self.path, has_labels=True,
                                    label_column="last", name="iris")
        return pipeline.bench_grid(
            ds,
            mu_grid=pipeline.PAPER_MU_GRID,
            sigma_grid=(sigma, self.DEGENERATE_SIGMA),
            p_grid=(p,),
            methods=self.METHODS,
            repetitions=self.REPETITIONS,
            seed=self.seed,
        )

    def after_pass(self, k, out):
        pass

    @staticmethod
    def _failures(result):
        """(failed cells of one pass counted by reason, cells attempted)."""
        cells = {(r.mu, r.sigma): r.failed for r in result.records}
        return Counter(reason for reason in cells.values() if reason), len(cells)

    def _merged(self, outputs):
        means = {}
        for out in outputs.values():
            for key, (mean, _, _) in out.config_means().items():
                means[key] = mean
        best = {}
        for (method, mu, sigma, p), mean in sorted(means.items()):
            if method not in best or mean < best[method]["error_mean"] - 1e-15:
                best[method] = {"mu": mu, "sigma": sigma, "p": p, "error_mean": mean}
        return means, best

    def summary(self, outputs):
        failures, attempted = Counter(), 0
        for out in outputs.values():
            counts, cells = self._failures(out)
            failures += counts
            attempted += cells
        _, best = self._merged(outputs)
        return {
            "attempted_ops": attempted,
            "failed_ops": sum(failures.values()),
            "failures": dict(failures),
            "error_rate": best.get("kmed_approx", {}).get("error_mean"),
            "best": best,
        }

    def check(self, outputs):
        problems = []
        for k, out in sorted(outputs.items()):
            failures = dict(self._failures(out)[0])
            if failures != self.EXPECTED_FAILURES:
                problems.append(f"pass {k}: failed cells {failures}, "
                                f"expected {self.EXPECTED_FAILURES}")
        covered = {k % len(self.SLICES) for k in outputs}
        means, best = self._merged(outputs)
        with open(IRIS_REFERENCE) as f:
            ref = json.load(f)
        if self.seed == ref["seed"]:
            ref_means = {tuple(json.loads(key)): v for key, v in ref["means"].items()}
            for key, mean in means.items():
                want = ref_means.get(tuple(key))
                if want is None or abs(mean - want) > 1e-12:
                    problems.append(f"cell {key}: error mean {mean!r}, seed value {want!r}")
            if len(covered) == len(self.SLICES) and best != ref["best"]:
                problems.append(f"best configs {best} differ from the seed's {ref['best']}")
        if len(covered) == len(self.SLICES):
            approx = best.get("kmed_approx", {}).get("error_mean", 1.0)
            p2 = best.get("kmed_p2", {}).get("error_mean", 0.0)
            # acceptance criterion 10
            if not (approx <= 0.12 and approx < p2):
                problems.append(f"criterion 10: best approx error {approx} vs p=2 {p2}")
        else:
            problems.append(f"only slices {sorted(covered)} ran")
        problems += self._check_distances()
        return problems

    def _check_distances(self):
        ds = pipeline.load_features(self.path, has_labels=True)
        g = pipeline.knn_gaussian_graph(ds, pipeline.GraphBuildParams(mu=1.0, sigma=0.01))
        p = 10.0
        dm = resistance.distance_matrix(g, p, pinv=numerics.laplacian_pinv(g))
        pairs = _sample_pairs(g.n, SAMPLED_ENTRIES, self.seed)
        want = reference_metrics(g.n, g.edges, p, pairs)
        return _check_entries("iris distance", pairs,
                              [dm.matrix[i, j] for i, j in pairs], want)


def write_iris_reference(root):
    """Record the per-cell error means and best configs of all five slices
    at seed 0; run once on the commit whose values the checks pin."""
    wl = IrisGrid(root, 0, None)
    outputs = {k: wl.run_pass(k) for k in range(len(wl.SLICES))}
    means, best = wl._merged(outputs)
    doc = {
        "seed": 0,
        "means": {json.dumps(list(key)): v for key, v in sorted(means.items())},
        "best": best,
    }
    with open(IRIS_REFERENCE, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


class RatioGnp40:
    """Exact per-pair solves through `pipeline.ratio_sweep`.

    One pass generates a fresh connected G(40, 0.2) graph from the workload
    seed and the pass index and sweeps p in (1.1, 2.9, 10) over one sampled
    pair, so the mean pass of a run is taken over many graphs and pairs.
    """

    name = "ratio_gnp40"
    P_GRID = (1.1, 2.9, 10.0)
    PAIRS = 1
    min_passes = 2
    cycle = 1

    def __init__(self, root, seed, workdir):
        self.seed = seed

    def prepare(self):
        pass

    def warm_up(self):
        g = graph.generate("gnp_connected", n=8, edge_prob=0.5, seed=0)
        pipeline.ratio_sweep(g, (3.0,), sample_pairs=1, seed=0)

    def run_pass(self, k):
        s = self.seed * 100_003 + k
        g = graph.generate("gnp_connected", n=40, edge_prob=0.2, seed=s)
        return g, pipeline.ratio_sweep(g, self.P_GRID, sample_pairs=self.PAIRS, seed=s)

    def after_pass(self, k, out):
        pass

    @staticmethod
    def _in_bound(row):
        return 1.0 - 1e-6 <= row["ratio"] <= row["bound_pow_q"] + 1e-9

    def summary(self, outputs):
        rows = [r for _, rs in outputs.values() for r in rs]
        out_of_bound = sum(1 for r in rows if not self._in_bound(r))
        return {
            "attempted_ops": len(rows),
            "failed_ops": out_of_bound,
            "failures": {"OutOfBound": out_of_bound} if out_of_bound else {},
            "unconverged_share": sum(1 for r in rows if not r["converged"]) / len(rows),
        }

    def check(self, outputs):
        problems = []
        for k, (g, rows) in sorted(outputs.items()):
            for r in rows:
                if not self._in_bound(r):
                    problems.append(
                        f"pass {k}: p={r['p']} pair ({r['i']},{r['j']}) ratio "
                        f"{r['ratio']!r} outside [1-1e-6, {r['bound_pow_q']!r}+1e-9]"
                    )
                if not (np.isfinite(r["exact_metric"]) and r["exact_metric"] > 0):
                    problems.append(f"pass {k}: exact metric {r['exact_metric']!r}")
            for p in self.P_GRID:
                at_p = [r for r in rows if r["p"] == p]
                pairs = [(r["i"], r["j"]) for r in at_p]
                want = reference_metrics(g.n, g.edges, p, pairs)
                problems += _check_entries(f"pass {k} p={p} approx", pairs,
                                           [r["approx_metric"] for r in at_p], want)
        return problems


class BlobsStaged:
    """The staged command line on generated Gaussian blobs, driven through
    `cli.main` in-process: build-graph, distances, k-medoids for five k,
    and farthest-first. Artifacts go to disk and are read back."""

    name = "blobs_staged"
    N = 300
    DIM = 4
    CLUSTERS = 8
    MU = 0.04  # k = 12 neighbours
    SIGMA = 0.5
    P = 10.0
    KS = (4, 6, 8, 10, 12)
    RESTARTS = 3
    FF_K = 8
    min_passes = 2  # the second invocation checks byte-identical artifacts
    cycle = 1

    def __init__(self, root, seed, workdir):
        self.seed = seed
        self.dir = workdir
        self.hashes = None
        self.mismatches = []

    def _p(self, name):
        return os.path.join(self.dir, name)

    def _connected(self, X):
        k = int(np.floor(self.MU * len(X)))
        sq = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(sq, np.inf)
        nearest = np.argsort(sq, axis=1, kind="stable")[:, :k]
        rows = np.repeat(np.arange(len(X)), k)
        adj = coo_matrix((np.ones(rows.size), (rows, nearest.ravel())),
                         shape=(len(X), len(X)))
        return connected_components(adj, directed=False)[0] == 1

    def prepare(self):
        """Eight Gaussian clusters, centres from N(0, 3^2), unit noise;
        redrawn from the same generator until the k-NN graph is connected."""
        rng = np.random.default_rng(self.seed)
        while True:
            centres = rng.normal(0.0, 3.0, size=(self.CLUSTERS, self.DIM))
            labels = rng.integers(0, self.CLUSTERS, size=self.N)
            X = centres[labels] + rng.normal(size=(self.N, self.DIM))
            if len(set(labels.tolist())) == self.CLUSTERS and self._connected(X):
                break
        self.labels = labels
        with open(self._p("features.csv"), "w") as f:
            for row in X:
                f.write(",".join(repr(float(v)) for v in row) + "\n")
        with open(self._p("labels.txt"), "w") as f:
            f.write("".join(f"{int(v)}\n" for v in labels))
        self.steps = [
            ["build-graph", "--features", self._p("features.csv"), "--mu", str(self.MU),
             "--sigma", str(self.SIGMA), "--out", self._p("graph.edges")],
            ["distances", "--graph", self._p("graph.edges"), "--p", str(self.P),
             "--workers", "1", "--out", self._p("dist.bin")],
        ] + [
            ["cluster", "--distances", self._p("dist.bin"), "--k", str(k),
             "--restarts", str(self.RESTARTS), "--labels", self._p("labels.txt"),
             "--out", self._p(f"kmed_{k}.json")]
            for k in self.KS
        ] + [
            ["cluster", "--distances", self._p("dist.bin"), "--method", "farthest-first",
             "--k", str(self.FF_K), "--labels", self._p("labels.txt"),
             "--out", self._p(f"ff_{self.FF_K}.json")],
        ]
        self.artifacts = ["graph.edges", "dist.bin"] + [
            f"kmed_{k}.json" for k in self.KS] + [f"ff_{self.FF_K}.json"]

    def warm_up(self):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.build_parser().parse_args(["cluster", "--distances", "x", "--k", "2",
                                           "--out", "y"])
        g = graph.generate("complete", n=6)
        dm = resistance.distance_matrix(g, 3.0)
        clustering.k_medoids(dm.matrix, 2, restarts=2)
        clustering.farthest_first(dm.matrix, 2)
        clustering.error_rate([0, 0, 0, 1, 1, 1], [0, 0, 1, 1, 1, 1])

    def run_pass(self, k):
        codes = []
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            for argv in self.steps:
                codes.append(cli.main(argv))
        return codes, log.getvalue()

    def after_pass(self, k, out):
        """Hash the artifacts; every invocation must write the same bytes."""
        hashes = {}
        for name in self.artifacts:
            path = self._p(name)
            if os.path.exists(path):
                with open(path, "rb") as f:
                    hashes[name] = hashlib.sha256(f.read()).hexdigest()
        if self.hashes is None:
            self.hashes = hashes
        elif hashes != self.hashes:
            changed = sorted(n for n in self.artifacts if hashes.get(n) != self.hashes.get(n))
            self.mismatches.append(f"pass {k}: artifacts differ from pass 0: {changed}")

    def _read_matrix(self):
        with open(self._p("dist.bin"), "rb") as f:
            blob = f.read()
        hlen = int.from_bytes(blob[4:12], "little")
        data = np.frombuffer(blob[12 + hlen:], dtype="<f8")
        return data.reshape(self.N, self.N)

    def _read_edges(self):
        edges = []
        with open(self._p("graph.edges")) as f:
            for line in f:
                if line.startswith("#"):
                    continue
                i, j, w = line.split()
                edges.append((int(i), int(j), float(w)))
        return edges

    def _error(self, pred):
        size = max(int(np.max(pred)) + 1, self.CLUSTERS)
        confusion = np.zeros((size, size), dtype=int)
        np.add.at(confusion, (np.asarray(pred), self.labels), 1)
        rows, cols = linear_sum_assignment(-confusion)
        return 1.0 - confusion[rows, cols].sum() / self.N

    def summary(self, outputs):
        codes = [c for cs, _ in outputs.values() for c in cs]
        failed = sum(1 for c in codes if c != 0)
        error = None
        path = self._p("kmed_8.json")  # the quality figure: k-medoids at k=8
        if os.path.exists(path):
            with open(path) as f:
                error = json.load(f).get("error_rate")
        return {
            "attempted_ops": len(codes),
            "failed_ops": failed,
            "failures": {f"exit{c}": codes.count(c) for c in sorted(set(codes)) if c},
            "error_rate": error,
        }

    def check(self, outputs):
        problems = list(self.mismatches)
        for k, (codes, log) in sorted(outputs.items()):
            for argv, code in zip(self.steps, codes):
                if code != 0:
                    problems.append(f"pass {k}: `{argv[0]}` exited {code}: {log[-300:]}")
        if problems:
            return problems
        D = self._read_matrix()
        pairs = _sample_pairs(self.N, SAMPLED_ENTRIES, self.seed)
        want = reference_metrics(self.N, self._read_edges(), self.P, pairs)
        problems += _check_entries("blobs distance", pairs, [D[i, j] for i, j in pairs], want)
        for name in self.artifacts[2:]:
            with open(self._p(name)) as f:
                doc = json.load(f)
            centers = doc["centers"]
            assign = np.asarray(doc["assignments"])
            nearest = D[:, centers]
            if not np.array_equal(assign, np.argmin(nearest, axis=1)):
                problems.append(f"{name}: a point is not assigned to its nearest centre")
            within = nearest[np.arange(self.N), assign]
            objective = within.max() if doc["method"] == "farthest-first" else within.sum()
            if not abs(doc["objective"] - objective) <= 1e-9 * abs(objective):
                problems.append(f"{name}: objective {doc['objective']!r}, recomputed {objective!r}")
            if abs(doc["error_rate"] - self._error(assign)) > 1e-12:
                problems.append(f"{name}: error rate {doc['error_rate']!r}, "
                                f"recomputed {self._error(assign)!r}")
        return problems


WORKLOADS = {wl.name: wl for wl in (IrisGrid, RatioGnp40, BlobsStaged)}
