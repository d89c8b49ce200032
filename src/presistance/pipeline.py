"""Dataset ingestion, k-NN Gaussian graph construction, and benchmarking.

The graph recipe: connect each point to its k = floor(mu * n) nearest
neighbors (Euclidean), symmetrize by union or mutual intersection, and weigh
edges with the Gaussian kernel exp(-sigma * ||x_i - x_j||^2). Benchmarks
sweep (mu, sigma, p) grids, cluster, and score by error rate.
"""

import csv
import io
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .clustering import (
    error_rate,
    farthest_first,
    k_medoids,
    pam_build_run,
    sc2_baseline,
)
from .errors import (
    DegenerateKernel,
    Disconnected,
    InvalidParams,
    NonNumericFeature,
    ParseError,
    PresistanceError,
    RaggedRows,
)
from .graph import build_graph
from .numerics import (
    approximation_bound,
    check_p,
    conjugate_exponent,
    laplacian_pinv,
)
from .resistance import (
    SolverConfig,
    approx_metrics,
    distance_matrices,
    ssl_solve,
)


@dataclass(frozen=True)
class FeatureDataset:
    """Numeric feature matrix with optional dense class labels.

    `X` is held as a read-only float copy of the array given, so the
    neighbor ranking cached on first use stays that of `X`.
    """

    X: np.ndarray
    labels: np.ndarray
    name: str = ""

    def __post_init__(self):
        X = np.array(self.X, dtype=float)
        X.flags.writeable = False
        object.__setattr__(self, "X", X)

    @cached_property
    def _ranking(self):
        # squared distances of all point pairs, and each row's other points
        # by distance, ties to the lower index: every k-NN graph of the
        # dataset reads them, whatever its mu and sigma
        n = self.n
        sq = ((self.X[:, None, :] - self.X[None, :, :]) ** 2).sum(axis=2)
        order = np.argsort(sq, axis=1, kind="stable")
        # drop self by value: a duplicated point can rank ahead of it
        others = order[order != np.arange(n)[:, None]].reshape(n, n - 1)
        sq.flags.writeable = others.flags.writeable = False
        return sq, others

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def d(self):
        return self.X.shape[1]

    @property
    def n_classes(self):
        return 0 if self.labels is None else int(self.labels.max()) + 1


def standardize(ds):
    """Column-wise z-scoring; constant columns are left centered only.

    Off by default everywhere: features are used as-is unless explicitly
    requested, and run configs record whether it was applied.
    """
    mean = ds.X.mean(axis=0)
    std = ds.X.std(axis=0)
    std[std == 0] = 1.0
    return FeatureDataset(X=(ds.X - mean) / std, labels=ds.labels, name=ds.name)


def load_features(path, has_labels=False, label_column="last", name=None):
    """Parse a rectangular numeric CSV into a FeatureDataset.

    Labels (when present) may be arbitrary strings; they are mapped to dense
    ids 0..k-1 in order of first appearance.
    """
    rows = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        for rownum, row in enumerate(reader, 1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            rows.append((rownum, [cell.strip() for cell in row]))
    if not rows:
        raise ParseError(f"{path}: no data rows")
    width = len(rows[0][1])
    if width < (2 if has_labels else 1):
        raise ParseError(f"{path}: rows too short (width {width})")
    for rownum, row in rows:
        if len(row) != width:
            raise RaggedRows(
                f"{path}: row {rownum} has {len(row)} columns, expected {width}"
            )
    if has_labels:
        lab_idx = 0 if label_column == "first" else width - 1
    else:
        lab_idx = None
    feats = []
    raw_labels = []
    for rownum, row in rows:
        vals = []
        for colnum, cell in enumerate(row):
            if colnum == lab_idx:
                raw_labels.append(cell)
                continue
            try:
                vals.append(float(cell))
            except ValueError:
                raise NonNumericFeature(
                    f"{path}: row {rownum}, column {colnum + 1}: {cell!r}"
                ) from None
        feats.append(vals)
    X = np.array(feats, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ParseError(f"{path}: non-finite feature values")
    labels = None
    if has_labels:
        mapping = {}
        dense = []
        for lab in raw_labels:
            if lab not in mapping:
                mapping[lab] = len(mapping)
            dense.append(mapping[lab])
        labels = np.array(dense, dtype=int)
    return FeatureDataset(X=X, labels=labels, name=name or str(path))


@dataclass(frozen=True)
class GraphBuildParams:
    """k-NN Gaussian graph settings; k = floor(mu * n)."""

    mu: float
    sigma: float
    symmetrization: str = "union"
    on_disconnect: str = "fail"

    def __post_init__(self):
        if not (0 < self.mu <= 1):
            raise InvalidParams(f"mu must be in (0, 1], got {self.mu}")
        if not (0 < self.sigma < np.inf):
            raise InvalidParams(f"sigma must be positive and finite, got {self.sigma}")
        if self.symmetrization not in ("union", "mutual"):
            raise InvalidParams(f"unknown symmetrization {self.symmetrization!r}")
        if self.on_disconnect not in ("fail", "largest_component"):
            raise InvalidParams(f"unknown on_disconnect {self.on_disconnect!r}")


def knn_gaussian_graph(ds, params):
    """Build the k-NN graph with Gaussian kernel weights.

    Neighbor ranking ties break toward the lower index. Union keeps an edge
    when either endpoint selected the other; mutual requires both.
    """
    n = ds.n
    if n < 2:
        raise InvalidParams("need at least two points")
    k = int(np.floor(params.mu * n))
    if k < 1:
        raise InvalidParams(f"mu={params.mu} gives k=0 neighbors for n={n}")
    sq, others = ds._ranking
    rows = np.arange(n)[:, None]
    neighbors = others[:, :k]
    selected = np.zeros((n, n), dtype=bool)
    selected[rows, neighbors] = True
    if params.symmetrization == "union":
        kept = selected | selected.T
    else:
        kept = selected & selected.T
    a, b = np.nonzero(np.tril(kept, -1))  # row-major: sorted by (a, b), a > b
    if not a.size:
        raise Disconnected([[v] for v in range(n)])
    w = np.exp(-params.sigma * sq[a, b])
    if np.all(w < 1e-300):
        raise DegenerateKernel(
            f"all kernel weights vanished (sigma={params.sigma}); rescale features"
        )
    return build_graph(
        n, np.column_stack((a, b, np.maximum(w, 1e-300))),
        largest_component=params.on_disconnect == "largest_component",
    )


@dataclass(frozen=True)
class BenchRecord:
    """One clustering run: a grid cell, a method, and one repetition seed."""

    mu: float
    sigma: float
    p: float  # 0 marks methods without a p parameter
    method: str
    seed: int
    error: float
    wall_time: float
    failed: str = ""


@dataclass(frozen=True)
class BenchResult:
    """Per-seed grid records, and each method's best configuration from them.

    Byte-for-byte reproducibility is promised for the results view only;
    wall-clock timings are reported separately because they can never be
    deterministic.
    """

    records: tuple

    def config_means(self):
        """Aggregate records to {(method, mu, sigma, p): (mean, sd, n)}."""
        groups = {}
        for r in self.records:
            if r.failed:
                continue
            groups.setdefault((r.method, r.mu, r.sigma, r.p), []).append(r.error)
        return {
            key: (float(np.mean(errs)), float(np.std(errs)), len(errs))
            for key, errs in groups.items()
        }

    @cached_property
    def best(self):
        """{method: its configuration of lowest mean error, the first of ties}."""
        best = {}
        for (method, mu, sigma, p), (mean, sd, count) in self.config_means().items():
            cur = best.get(method)
            if cur is None or mean < cur["error_mean"] - 1e-15:
                best[method] = {
                    "mu": mu, "sigma": sigma, "p": p,
                    "error_mean": mean, "error_sd": sd, "repetitions": count,
                }
        return best

    def results_csv(self):
        out = io.StringIO()
        out.write("method,mu,sigma,p,seed,error,failed\n")
        for r in self.records:
            err = "" if np.isnan(r.error) else repr(r.error)
            out.write(
                f"{r.method},{r.mu!r},{r.sigma!r},{r.p!r},{r.seed},{err},{r.failed}\n"
            )
        return out.getvalue()

    def timing_csv(self):
        out = io.StringIO()
        out.write("method,mu,sigma,p,seed,wall_time\n")
        for r in self.records:
            out.write(
                f"{r.method},{r.mu!r},{r.sigma!r},{r.p!r},{r.seed},{r.wall_time!r}\n"
            )
        return out.getvalue()


PAPER_MU_GRID = (0.04, 0.06, 0.08, 0.1, 1.0)
PAPER_SIGMA_GRID = (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)
PAPER_P_GRID = (1.1, 1.4, 1.7, 2.0, 2.3, 2.6, 2.9, 5.0, 10.0, 100.0, 1000.0)


def _run_cell(method, g, matrices, at, k, truth, rep_seed, builds):
    """Cluster one repetition of one cell on the matrix at p = `at`:
    (error rate, wall seconds). The first k-medoids repetition on a matrix
    computes its BUILD run into `builds`, keyed by `at`, and its wall time
    includes it; every later one on that matrix reuses it."""
    t0 = time.perf_counter()
    D = matrices.get(at)
    if method == "sc2":
        res = sc2_baseline(g, k, seed=rep_seed)
    elif method.startswith("kmed"):
        if at not in builds:
            builds[at] = pam_build_run(D, k)
        res = k_medoids(D, k, seed=rep_seed, restarts=3, build=builds[at])
    else:
        rng = np.random.default_rng(rep_seed)
        res = farthest_first(D, k, start=int(rng.integers(0, D.shape[0])))
    err = error_rate(res.assignments, truth).error_rate
    return err, time.perf_counter() - t0


def bench_grid(
    ds,
    mu_grid=PAPER_MU_GRID,
    sigma_grid=PAPER_SIGMA_GRID,
    p_grid=PAPER_P_GRID,
    methods=("kmed_approx", "kmed_p2"),
    repetitions=10,
    seed=0,
):
    """Sweep the parameter grids, cluster at k = number of true classes,
    and record the error of every seeded repetition.

    Records come in the order mu, sigma, method, p, repetition. kmed_approx
    and ff_approx run at each p of `p_grid`; kmed_p2 (k-medoids on the p = 2
    matrix) and sc2 (spectral clustering) are recorded with p = 0. A cell
    whose graph or pseudoinverse fails with a toolkit error (disconnected
    graph, degenerate kernel, singular shift) is recorded with the failure
    reason and the sweep continues; any other error propagates. The best
    configuration per method is chosen by mean error over the repetitions.
    A sweep with no records (an empty grid, no cell, no repetition) raises
    `InvalidParams`.

    The k-medoids methods compute the seed-independent BUILD run of each
    matrix once (`pam_build_run`) and pass it to every repetition's
    `k_medoids` call. A record's `wall_time` (`timing.csv`) books that run
    to the first k-medoids repetition on the matrix, and the repetitions
    after it do not include it.
    """
    if ds.labels is None:
        raise InvalidParams("bench_grid needs a labeled dataset")
    # checked up front: a bad mu, sigma or p is an error, not a failed cell
    # (the graph may not build), nor is a p <= 1 a run on the p = 2 matrix
    p_grid = tuple(map(check_p, p_grid))
    graphs = [GraphBuildParams(mu=mu, sigma=sigma)
              for mu in mu_grid for sigma in sigma_grid]
    # the p each method runs at; 0 marks the p = 2 baselines
    method_ps = {"kmed_approx": p_grid, "kmed_p2": (0.0,),
                 "ff_approx": p_grid, "sc2": (0.0,)}
    for method in methods:
        if method not in method_ps:
            raise InvalidParams(f"unknown method {method!r}")
    # (method, recorded p, p of the matrix it clusters; sc2 clusters the graph)
    cells = [(method, p, p or 2.0) for method in methods for p in method_ps[method]]
    if not graphs or not cells or repetitions < 1:
        raise InvalidParams(f"bench_grid needs a graph, a cell and a repetition, got "
                            f"{len(graphs)} (mu, sigma) graphs, {len(cells)} "
                            f"(method, p) cells and {repetitions} repetitions")
    # each distinct p once, all from one kernel pass per graph
    ps = sorted({at for method, _, at in cells if method != "sc2"})
    k = ds.n_classes
    records = []
    for params in graphs:
        t0 = time.perf_counter()
        try:
            g = knn_gaussian_graph(ds, params)
            pinv = laplacian_pinv(g)
        except PresistanceError as exc:
            failed, build_time = type(exc).__name__, time.perf_counter() - t0
        else:
            failed = ""
            matrices = {p: dm.matrix
                        for p, dm in zip(ps, distance_matrices(g, ps, pinv))}
            builds = {}
        for method, p, at in cells:
            for rep in range(repetitions):
                if failed:
                    err, wall = np.nan, build_time
                else:
                    err, wall = _run_cell(method, g, matrices, at, k,
                                          ds.labels, seed + rep, builds)
                records.append(
                    BenchRecord(
                        mu=params.mu, sigma=params.sigma, p=p, method=method,
                        seed=seed + rep, error=err, wall_time=wall,
                        failed=failed,
                    )
                )
    return BenchResult(records=tuple(records))


_RATIO_SOLVER = SolverConfig(grad_tol=1e-10)


def ratio_sweep(g, p_grid, sample_pairs=10, seed=0):
    """Measure approximated/exact metric ratios for sampled pairs.

    Emits one row per (p, pair): the two metric values, their ratio, and the
    theoretical ceiling (bound factor to the q). Nothing is asserted; the
    data is meant for plotting and for the verification suites.
    """
    p_grid = tuple(p_grid)
    limit = g.n * (g.n - 1) // 2
    if min(sample_pairs, limit) < 1 or not p_grid:
        raise InvalidParams(f"ratio_sweep needs a pair and a p, got "
                            f"{sample_pairs} pairs and p grid {p_grid}")
    rng = np.random.default_rng(seed)
    pairs = set()
    while len(pairs) < min(sample_pairs, limit):
        i, j = rng.integers(0, g.n, size=2)
        if i != j:
            pairs.add((max(int(i), int(j)), min(int(i), int(j))))
    pairs = sorted(pairs)
    # one L+ serves the bound, the approximate metrics and the exact
    # solves; the metrics of every (p, pair) come from one pass over the
    # pairs' drops
    pinv = laplacian_pinv(g)
    metrics = approx_metrics(g, p_grid, pairs, pinv)
    rows = []
    for p, metrics_at_p in zip(p_grid, metrics):
        q = conjugate_exponent(p)
        bound = approximation_bound(g, p, seed=seed, pinv=pinv)
        # the estimator is a lower estimate of the true factor; the emitted
        # hard ceiling is the rigorous one
        est_ceiling = max(bound.value, 1.0) ** q
        hard_ceiling = bound.ceiling ** q
        for (i, j), approx in zip(pairs, metrics_at_p.tolist()):
            report = ssl_solve(g, p, i, j, _RATIO_SOLVER, pinv=pinv)
            exact = (1.0 / report.energy) ** (1.0 / (p - 1.0))
            rows.append(
                {
                    "p": p,
                    "i": i,
                    "j": j,
                    "approx_metric": approx,
                    "exact_metric": exact,
                    "ratio": approx / exact,
                    "bound_est_pow_q": est_ceiling,
                    "bound_pow_q": hard_ceiling,
                    "converged": report.converged,
                }
            )
    return rows


def ratio_rows_csv(rows):
    out = io.StringIO()
    out.write(
        "p,i,j,approx_metric,exact_metric,ratio,bound_est_pow_q,bound_pow_q,converged\n"
    )
    for r in rows:
        out.write(
            f"{r['p']!r},{r['i']},{r['j']},{r['approx_metric']!r},"
            f"{r['exact_metric']!r},{r['ratio']!r},{r['bound_est_pow_q']!r},"
            f"{r['bound_pow_q']!r},{int(r['converged'])}\n"
        )
    return out.getvalue()
