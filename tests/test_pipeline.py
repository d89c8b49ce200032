import hashlib
from dataclasses import replace

import numpy as np
import pytest

from presistance import (
    FeatureDataset,
    GraphBuildParams,
    approx_metric,
    approximation_bound,
    bench_grid,
    conjugate_exponent,
    distance_matrices,
    distance_matrix,
    error_rate,
    generate,
    knn_gaussian_graph,
    laplacian_pinv,
    load_features,
    matrix_op_pnorm,
    ratio_sweep,
    ssl_solve,
    weighted_p_norm,
)
from presistance.errors import (
    Disconnected,
    InvalidP,
    InvalidParams,
    NonNumericFeature,
    ParseError,
    RaggedRows,
)
from presistance import clustering, pipeline, resistance
from presistance.pipeline import ratio_rows_csv

from conftest import reference_components, reference_knn_edges, traced_peak

PAPER_MU = (0.04, 0.06, 0.08, 0.1, 1.0)
PAPER_SIGMA = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)


def write_csv(path, text):
    path.write_text(text)
    return str(path)


def test_load_features_with_labels(tmp_path):
    path = write_csv(tmp_path / "t.csv", "1,2,A\n1,3,A\n9,9,B\n")
    ds = load_features(path, has_labels=True, label_column="last")
    assert ds.n == 3 and ds.d == 2
    assert ds.labels.tolist() == [0, 0, 1]
    assert ds.n_classes == 2


def test_load_features_label_first(tmp_path):
    path = write_csv(tmp_path / "t.csv", "A,1,2\nB,3,4\n")
    ds = load_features(path, has_labels=True, label_column="first")
    assert ds.X.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_load_features_errors(tmp_path):
    with pytest.raises(ParseError):
        load_features(write_csv(tmp_path / "e.csv", ""))
    with pytest.raises(RaggedRows):
        load_features(write_csv(tmp_path / "r.csv", "1,2\n1,2,3\n"))
    with pytest.raises(NonNumericFeature) as exc:
        load_features(write_csv(tmp_path / "n.csv", "1,2\n1,zzz\n"))
    assert "row 2" in str(exc.value)


def test_load_iris_fixture(iris_csv):
    ds = load_features(iris_csv, has_labels=True, label_column="last", name="iris")
    assert ds.n == 150 and ds.d == 4 and ds.n_classes == 3


def test_knn_complete_at_mu_one():
    rng = np.random.default_rng(0)
    ds = FeatureDataset(X=rng.standard_normal((12, 3)), labels=None)
    g = knn_gaussian_graph(ds, GraphBuildParams(mu=1.0, sigma=0.5))
    assert g.m == 12 * 11 // 2


def test_knn_identical_points_unit_weight():
    ds = FeatureDataset(X=np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]), labels=None)
    g = knn_gaussian_graph(ds, GraphBuildParams(mu=1.0, sigma=2.0))
    weights = {(i, j): w for i, j, w in g.edges}
    assert weights[(1, 0)] == 1.0


def test_knn_long_rectangle_cycle():
    X = np.array([[0.0, 0], [0, 1], [10, 0], [10, 1]])
    ds = FeatureDataset(X=X, labels=None)
    g = knn_gaussian_graph(ds, GraphBuildParams(mu=0.5, sigma=0.1))
    pairs = {(i, j) for i, j, _ in g.edges}
    assert pairs == {(1, 0), (2, 0), (3, 1), (3, 2)}
    weights = {(i, j): w for i, j, w in g.edges}
    assert weights[(1, 0)] == pytest.approx(np.exp(-0.1))
    assert weights[(2, 0)] == pytest.approx(np.exp(-10.0))


def test_knn_union_vs_mutual():
    # three tight points and one outlier: the outlier picks a neighbor but
    # is nobody's nearest, so mutual symmetrization drops it
    X = np.array([[0.0], [0.1], [0.2], [5.0]])
    ds = FeatureDataset(X=X, labels=None)
    union = knn_gaussian_graph(ds, GraphBuildParams(mu=0.5, sigma=0.1))
    assert any(3 in (i, j) for i, j, _ in union.edges)
    with pytest.raises(Disconnected):
        knn_gaussian_graph(
            ds, GraphBuildParams(mu=0.5, sigma=0.1, symmetrization="mutual")
        )
    g = knn_gaussian_graph(
        ds,
        GraphBuildParams(
            mu=0.5, sigma=0.1, symmetrization="mutual",
            on_disconnect="largest_component",
        ),
    )
    assert g.n == 3 and g.kept == (0, 1, 2)


def test_knn_union_min_degree():
    rng = np.random.default_rng(5)
    ds = FeatureDataset(X=rng.standard_normal((30, 2)), labels=None)
    g = knn_gaussian_graph(ds, GraphBuildParams(mu=0.1, sigma=1.0))
    degrees = np.zeros(30)
    for i, j, _ in g.edges:
        degrees[i] += 1
        degrees[j] += 1
    assert degrees.min() >= 1


def assert_knn_matches_reference(ds, mu, sigma, symmetrization):
    """The array build gives the set-based reference's (ei, ej, w) bytes,
    and the same components when the graph is disconnected."""
    edges = reference_knn_edges(ds.X, mu, sigma, symmetrization)
    comps = reference_components(ds.n, edges)
    params = GraphBuildParams(mu=mu, sigma=sigma, symmetrization=symmetrization)
    keep = range(ds.n)
    if len(comps) > 1:
        with pytest.raises(Disconnected) as exc:
            knn_gaussian_graph(ds, params)
        assert exc.value.components == comps
        keep = max(comps, key=len)  # the first largest holds the smallest vertex
        relabel = {v: k for k, v in enumerate(keep)}
        edges = [(relabel[i], relabel[j], w) for i, j, w in edges if i in relabel]
        params = replace(params, on_disconnect="largest_component")
    g = knn_gaussian_graph(ds, params)
    assert g.n == len(keep)
    assert g.kept == (None if len(comps) == 1 else tuple(keep))
    ei, ej, w = zip(*edges)
    assert g.ei.tobytes() == np.array(ei, dtype=np.int64).tobytes()
    assert g.ej.tobytes() == np.array(ej, dtype=np.int64).tobytes()
    assert g.w.tobytes() == np.array(w, dtype=float).tobytes()


@pytest.mark.parametrize("symmetrization", ["union", "mutual"])
def test_knn_matches_set_based_reference_on_iris_grid(iris_csv, symmetrization):
    ds = load_features(iris_csv, has_labels=True)
    for mu in PAPER_MU:
        for sigma in PAPER_SIGMA:
            assert_knn_matches_reference(ds, mu, sigma, symmetrization)


def test_knn_matches_set_based_reference_with_duplicate_rows():
    # duplicated points tie at distance 0 with self, so self is not always
    # the first entry of its sorted row
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 3))
    X[10:20] = X[:10]
    X[35] = X[39] = X[2]
    ds = FeatureDataset(X=X, labels=None)
    for mu in (0.05, 0.1, 0.25, 1.0):
        for sigma in (0.1, 1.0):
            for symmetrization in ("union", "mutual"):
                assert_knn_matches_reference(ds, mu, sigma, symmetrization)


def _knn_outcome(ds, params):
    try:
        g = knn_gaussian_graph(ds, params)
    except Disconnected as exc:
        return type(exc).__name__, str(exc)
    return g.n, g.kept, g.ei.tobytes(), g.ej.tobytes(), g.w.tobytes()


@pytest.mark.parametrize("symmetrization", ["union", "mutual"])
def test_knn_reads_the_cached_ranking_like_a_fresh_one(iris_csv, symmetrization):
    # one dataset ranks its neighbors once for every cell: each paper cell
    # gets the edges, weights and failure of a dataset ranked for it alone
    ds = load_features(iris_csv, has_labels=True)
    for mu in PAPER_MU:
        for sigma in PAPER_SIGMA:
            params = GraphBuildParams(mu=mu, sigma=sigma,
                                      symmetrization=symmetrization)
            fresh = FeatureDataset(X=ds.X, labels=ds.labels)
            assert _knn_outcome(ds, params) == _knn_outcome(fresh, params)


def test_feature_dataset_holds_a_read_only_copy():
    # the cached ranking stays that of X: the caller's array can change,
    # the dataset's cannot
    X = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    ds = FeatureDataset(X=X, labels=None)
    before = _knn_outcome(ds, GraphBuildParams(mu=0.5, sigma=1.0))
    X[1] = 10.0
    assert _knn_outcome(ds, GraphBuildParams(mu=0.5, sigma=1.0)) == before
    with pytest.raises(ValueError):
        ds.X[0, 0] = 1.0


def test_knn_param_validation():
    ds = FeatureDataset(X=np.zeros((10, 2)), labels=None)
    with pytest.raises(InvalidParams):
        GraphBuildParams(mu=0.0, sigma=1.0)
    with pytest.raises(InvalidParams):
        GraphBuildParams(mu=0.5, sigma=-1.0)
    with pytest.raises(InvalidParams):
        knn_gaussian_graph(ds, GraphBuildParams(mu=0.05, sigma=1.0))  # k = 0


def labeled_blobs(n_per=10, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([
        rng.normal(0.0, 0.2, size=(n_per, 2)),
        rng.normal(3.0, 0.2, size=(n_per, 2)),
    ])
    labels = np.array([0] * n_per + [1] * n_per)
    return FeatureDataset(X=X, labels=labels, name="blobs")


def test_bench_grid_degenerate_single_cell():
    ds = labeled_blobs()
    result = bench_grid(
        ds, mu_grid=(1.0,), sigma_grid=(1.0,), p_grid=(3.0,),
        methods=("kmed_approx",), repetitions=4, seed=0,
    )
    assert len(result.records) == 4  # one record per repetition seed
    assert all(r.method == "kmed_approx" for r in result.records)
    assert result.best["kmed_approx"]["error_mean"] == 0.0


def test_bench_grid_records_failures_and_continues():
    ds = labeled_blobs()
    # mu small enough that k = floor(mu * 20) = 0 fails per cell
    result = bench_grid(
        ds, mu_grid=(0.01, 1.0), sigma_grid=(1.0,), p_grid=(2.0,),
        methods=("kmed_approx",), repetitions=2, seed=0,
    )
    failed = [r for r in result.records if r.failed]
    good = [r for r in result.records if not r.failed]
    assert failed and good
    assert all(np.isnan(r.error) for r in failed)


def test_bench_grid_builds_each_p_once(monkeypatch):
    # every approximate matrix passes the fault hook once; kmed_p2 and
    # kmed_approx at p = 2 share one matrix, as do the kmed and ff methods
    # at each p, so a graph builds each distinct p once
    built = []
    hook = resistance._approx_form

    def counting_hook(metric, p, form):
        built.append(p)
        return hook(metric, p, form)

    monkeypatch.setattr(resistance, "_approx_form", counting_hook)
    result = bench_grid(
        labeled_blobs(), mu_grid=(1.0,), sigma_grid=(0.1, 1.0),
        p_grid=(2.0, 3.0), methods=("kmed_approx", "kmed_p2", "ff_approx"),
        repetitions=2, seed=0,
    )
    assert sorted(built) == [2.0, 2.0, 3.0, 3.0]
    errors = {(r.method, r.sigma, r.p, r.seed): r.error for r in result.records}
    for sigma in (0.1, 1.0):
        for seed in (0, 1):
            assert (errors[("kmed_p2", sigma, 0.0, seed)]
                    == errors[("kmed_approx", sigma, 2.0, seed)])


def test_bench_grid_runs_build_once_per_matrix(monkeypatch):
    # the BUILD run does not depend on the seed: each (graph, matrix) runs
    # it once for all its k-medoids repetitions (kmed_p2 and kmed_approx at
    # p = 2 share a matrix), and every record is that of a k_medoids call
    # that runs its own
    builds = []
    pam_build = clustering._pam_build

    def counting_build(D, k):
        builds.append(k)
        return pam_build(D, k)

    monkeypatch.setattr(clustering, "_pam_build", counting_build)
    ds = labeled_blobs()
    result = bench_grid(
        ds, mu_grid=(1.0,), sigma_grid=(0.1, 1.0), p_grid=(2.0, 3.0),
        methods=("kmed_approx", "kmed_p2"), repetitions=4, seed=5,
    )
    assert builds == [2] * 4
    assert len(result.records) == 2 * 3 * 4
    for r in result.records:
        g = knn_gaussian_graph(ds, GraphBuildParams(mu=r.mu, sigma=r.sigma))
        D = distance_matrix(g, r.p or 2.0).matrix
        res = clustering.k_medoids(D, 2, seed=r.seed, restarts=3)
        assert r.error == error_rate(res.assignments, ds.labels).error_rate


def test_bench_grid_reproducible_bytes():
    ds = labeled_blobs()
    kwargs = dict(
        mu_grid=(0.5, 1.0), sigma_grid=(0.1, 1.0), p_grid=(1.5, 3.0),
        methods=("kmed_approx", "kmed_p2", "ff_approx", "sc2"),
        repetitions=3, seed=7,
    )
    a = bench_grid(ds, **kwargs)
    b = bench_grid(ds, **kwargs)
    assert a.results_csv() == b.results_csv()
    assert a.best == b.best


def test_bench_grid_output_pinned():
    # all four methods, two p, and a mu (k = 0) whose cells all fail: the
    # record order, the p = 0 rows of kmed_p2 and sc2, the failure records
    # and the best configurations stay as they are
    result = bench_grid(
        labeled_blobs(), mu_grid=(0.01, 0.5), sigma_grid=(0.001, 0.01),
        p_grid=(1.5, 3.0), methods=("kmed_approx", "kmed_p2", "ff_approx", "sc2"),
        repetitions=2, seed=0,
    )
    assert len(result.records) == 48
    assert hashlib.sha256(result.results_csv().encode()).hexdigest() == (
        "0bd58ebfcdae068326514e8f607cf521ef29a0d8d5277ec24bce30e4ef9e8fbb"
    )
    cell = {"error_sd": 0.0, "repetitions": 2}
    assert result.best == {
        "kmed_approx": {"mu": 0.5, "sigma": 0.001, "p": 3.0,
                        "error_mean": 0.050000000000000044, **cell},
        "kmed_p2": {"mu": 0.5, "sigma": 0.01, "p": 0.0, "error_mean": 0.0, **cell},
        "ff_approx": {"mu": 0.5, "sigma": 0.001, "p": 1.5, "error_mean": 0.0, **cell},
        "sc2": {"mu": 0.5, "sigma": 0.001, "p": 0.0, "error_mean": 0.0, **cell},
    }


def test_bench_grid_records_only_toolkit_errors(monkeypatch):
    # a programming error is no failed cell: it propagates
    def broken(ds, params):
        raise TypeError("broken graph builder")

    monkeypatch.setattr(pipeline, "knn_gaussian_graph", broken)
    with pytest.raises(TypeError, match="broken graph builder"):
        bench_grid(labeled_blobs(), mu_grid=(1.0,), sigma_grid=(1.0,),
                   p_grid=(2.0,), methods=("kmed_approx",), repetitions=1)


def test_bench_grid_rejects_bad_p():
    # a p <= 1 is an error: neither a failed cell nor a run on the p = 2
    # matrix, also at p = 0 (the baselines' marker) and on a cell whose
    # graph does not build (mu = 0.05 disconnects the blobs)
    for mu, p in ((1.0, -1.0), (1.0, 1.0), (1.0, 0.0), (0.05, -1.0)):
        with pytest.raises(InvalidP):
            bench_grid(labeled_blobs(), mu_grid=(mu,), sigma_grid=(1.0,),
                       p_grid=(p,), methods=("kmed_approx",), repetitions=1)


def test_bench_grid_checks_every_cell_before_the_first(monkeypatch):
    # a bad mu or sigma anywhere in the grids is an error, raised before
    # any graph is built, not a cell recorded as failed
    built = []
    monkeypatch.setattr(pipeline, "knn_gaussian_graph",
                        lambda ds, params: built.append(params))
    for mu_grid, sigma_grid in (((1.0, 2.0), (1.0,)), ((1.0,), (1.0, -1.0)),
                                ((1.0,), (1.0, float("nan"))),
                                ((1.0,), (1.0, float("inf")))):
        with pytest.raises(InvalidParams):
            bench_grid(labeled_blobs(), mu_grid=mu_grid, sigma_grid=sigma_grid,
                       p_grid=(3.0,), methods=("kmed_approx",), repetitions=1)
    assert built == []


NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda g: conjugate_exponent(NAN),
    lambda g: approximation_bound(g, NAN),
    lambda g: approx_metric(g, NAN, 0, 1),
    lambda g: ssl_solve(g, NAN, 0, 3),
    lambda g: distance_matrices(g, (3.0, NAN)),
    lambda g: distance_matrix(g, NAN, mode="approx"),
    lambda g: distance_matrix(g, NAN, mode="exact", workers=1),
    lambda g: bench_grid(labeled_blobs(), mu_grid=(1.0,), sigma_grid=(1.0,),
                         p_grid=(NAN,), methods=("kmed_approx",), repetitions=1),
    lambda g: ratio_sweep(g, (NAN,), sample_pairs=2),
    lambda g: matrix_op_pnorm(np.eye(3), NAN),
    lambda g: weighted_p_norm(np.ones(3), np.ones(3), NAN),
], ids=["conjugate_exponent", "approximation_bound", "approx_metric", "ssl_solve",
        "distance_matrices", "distance_matrix_approx", "distance_matrix_exact",
        "bench_grid", "ratio_sweep", "matrix_op_pnorm", "weighted_p_norm"])
def test_nan_p_is_rejected(call):
    with pytest.raises(InvalidP):
        call(generate("cycle", n=6))


def test_ratio_sweep_needs_a_pair_and_a_p():
    g = generate("cycle", n=6)
    for p_grid, pairs in (((3.0,), 0), ((), 2)):
        with pytest.raises(InvalidParams):
            ratio_sweep(g, p_grid, sample_pairs=pairs)


def test_standardize():
    from presistance.pipeline import standardize

    X = np.array([[1.0, 5.0, 7.0], [3.0, 5.0, 9.0]])
    ds = standardize(FeatureDataset(X=X, labels=None, name="t"))
    assert np.allclose(ds.X.mean(axis=0), 0.0)
    # constant column is centered, not divided by zero
    assert np.allclose(ds.X[:, 1], 0.0)
    assert np.allclose(ds.X.std(axis=0), [1.0, 0.0, 1.0])


def test_ratio_sweep_tree_ratios_one():
    g = generate("random_tree", n=12, seed=3, weight_range=(0.5, 2.0))
    rows = ratio_sweep(g, (1.5, 3.0, 10.0), sample_pairs=6, seed=0)
    for r in rows:
        assert abs(r["ratio"] - 1.0) <= 1e-4


def test_ratio_sweep_p2_exact_and_bounds():
    g = generate("gnp_connected", n=10, edge_prob=0.4, seed=9)
    rows = ratio_sweep(g, (1.5, 2.0, 3.0), sample_pairs=8, seed=1)
    for r in rows:
        assert r["ratio"] >= 1 - 1e-6
        assert r["ratio"] <= r["bound_pow_q"] + 1e-9
        if r["p"] == 2.0:
            assert abs(r["ratio"] - 1.0) <= 1e-9
    csv_text = ratio_rows_csv(rows)
    assert csv_text.splitlines()[0].startswith("p,i,j,")
    assert len(csv_text.splitlines()) == len(rows) + 1


def test_ratio_sweep_computes_one_pinv_per_graph(pinv_builds):
    # the bound at every p, the approximate metrics and the exact solves
    # all read the one L+ the sweep computes
    g = generate("gnp_connected", n=12, edge_prob=0.4, seed=2)
    ratio_sweep(g, (1.5, 2.0, 2.9, 10.0), sample_pairs=3, seed=0)
    assert pinv_builds == [g]


def test_ratio_sweep_approximate_values_are_approx_metric():
    g = generate("gnp_connected", n=15, edge_prob=0.3, seed=4)
    pinv = laplacian_pinv(g)
    rows = ratio_sweep(g, (1.1, 2.0, 2.9, 10.0), sample_pairs=6, seed=3)
    for r in rows:
        want = approx_metric(g, r["p"], r["i"], r["j"], pinv)
        assert type(r["approx_metric"]) is float
        assert r["approx_metric"] == pytest.approx(want, rel=1e-12, abs=0)
    # one sampled pair takes the single-pair path: the same bytes
    for r in ratio_sweep(g, (1.5, 10.0), sample_pairs=1, seed=5):
        assert r["approx_metric"] == approx_metric(g, r["p"], r["i"], r["j"], pinv)


def _parent_ranking(X):
    # the ranking as it was first written: all n^2 d differences at once
    n = len(X)
    sq = ((X[:, None] - X[None]) ** 2).sum(axis=2)
    order = np.argsort(sq, axis=1, kind="stable")
    return sq, order[order != np.arange(n)[:, None]].reshape(n, n - 1)


def test_ranking_bytes_match_the_all_pairs_tensor(iris_csv, wine_csv):
    # row blocks sum each pair's features in numpy's own pairwise order,
    # which a running sum over the columns leaves from d = 8 on: wine has
    # d = 13. A duplicated point ranks by value, ties to the lower index
    X = np.random.default_rng(3).normal(size=(60, 9))
    X[[17, 40]] = X[5]
    sets = [load_features(iris_csv, has_labels=True), load_features(wine_csv, has_labels=True),
            FeatureDataset(X=X, labels=None)]
    assert [ds.d for ds in sets] == [4, 13, 9]
    for ds in sets:
        sq, others = ds._ranking
        want_sq, want_others = _parent_ranking(ds.X)
        assert sq.tobytes() == want_sq.tobytes()
        assert others.dtype == want_others.dtype
        assert others.tobytes() == want_others.tobytes()


def test_ranking_never_holds_the_distance_tensor():
    # all n^2 d differences at once would take 16 n^2 floats here, and
    # their squares as many again. The ranking holds the n x n squared
    # distances, the n x (n - 1) ranks and one block's differences of
    # about n^2 floats
    n, d = 400, 16
    ds = FeatureDataset(X=np.random.default_rng(0).uniform(size=(n, d)), labels=None)
    (sq, others), peak = traced_peak(lambda: ds._ranking)
    assert peak < 3.5 * n * n < d * n * n, peak / (n * n)
    assert sq.tobytes() == _parent_ranking(ds.X)[0].tobytes()
