from dataclasses import replace

import numpy as np
import pytest

from presistance import (
    FeatureDataset,
    GraphBuildParams,
    bench_grid,
    generate,
    knn_gaussian_graph,
    load_features,
    ratio_sweep,
)
from presistance.errors import (
    Disconnected,
    InvalidParams,
    NonNumericFeature,
    ParseError,
    RaggedRows,
)
from presistance import resistance
from presistance.pipeline import ratio_rows_csv

from conftest import reference_components, reference_knn_edges

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
