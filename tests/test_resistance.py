import inspect
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from presistance import (
    FeatureDataset,
    Graph,
    GraphBuildParams,
    LaplacianPinv,
    SolverConfig,
    approx_metric,
    approx_metrics,
    approx_presistance,
    build_graph,
    distance_matrices,
    distance_matrix,
    exact_presistance,
    export_distance_csv,
    generate,
    knn_gaussian_graph,
    laplacian,
    laplacian_pinv,
    load_distance_matrix,
    load_features,
    mincut,
    p_energy,
    p_energy_gradient,
    save_distance_matrix,
    shortest_path,
    ssl_solve,
)
from presistance import resistance, verify
from presistance.errors import (
    DimensionMismatch,
    FingerprintMismatch,
    InvalidParams,
    InvalidP,
    SingularShift,
)
from presistance.numerics import conjugate_exponent
from presistance.resistance import (
    _edge_kernel,
    _hessian,
    _hessian_layout,
)
from presistance.verify import clear_faults, inject_fault

from conftest import (
    brute_force_mincut,
    hop_distance_bfs,
    random_connected,
    traced_peak,
    tree_series_presistance,
)

TIGHT = SolverConfig(grad_tol=1e-10)


@pytest.mark.parametrize(
    "query", [approx_metric, approx_presistance, exact_presistance, ssl_solve],
    ids=lambda f: f.__name__,
)
def test_pair_queries_take_one_signature_and_check_it(query):
    assert list(inspect.signature(query).parameters)[:4] == ["g", "p", "i", "j"]
    g = generate("cycle", n=6)
    for i, j in ((2, 2), (0, 9)):
        with pytest.raises(DimensionMismatch):
            query(g, 3.0, i, j)
    for p in (1.0, float("nan")):
        with pytest.raises(InvalidP):
            query(g, p, 0, 1)


@pytest.mark.parametrize("i, j", [(-1, 2), (0, 9)])
def test_approx_metric_rejects_pairs_outside_the_graph(i, j):
    # (-1, 2) must not wrap around to pair (5, 2), nor (0, 9) raise a bare
    # IndexError: both get the exact solver's pair check
    g = generate("cycle", n=6)
    pinv = laplacian_pinv(g)
    with pytest.raises(DimensionMismatch):
        approx_metric(g, 3.0, i, j, pinv)
    with pytest.raises(DimensionMismatch):
        ssl_solve(g, 3.0, i, j, pinv=pinv)


def test_approx_metrics_of_pairs_and_ps_are_approx_metric():
    g = generate("gnp_connected", n=20, edge_prob=0.3, seed=6)
    pinv = laplacian_pinv(g)
    ps = (1.1, 2.0, 3.0, 100.0, np.inf)
    pairs = [(3, 0), (19, 7), (5, 4), (12, 11)]
    got = approx_metrics(g, ps, pairs, pinv)
    assert got.shape == (len(ps), len(pairs))
    for k, p in enumerate(ps):
        for r, (i, j) in enumerate(pairs):
            want = approx_metric(g, p, i, j, pinv)
            assert got[k, r] == pytest.approx(want, rel=1e-12, abs=0)
            # one pair alone takes the single-pair path of approx_metric
            assert approx_metrics(g, (p,), [(i, j)], pinv)[0, 0] == want
    with pytest.raises(DimensionMismatch):
        approx_metrics(g, ps, [(3, 0), (4, 4)], pinv)


def test_infinite_p_is_for_the_approximate_route_only():
    g = generate("cycle", n=6)
    with pytest.raises(InvalidP):
        ssl_solve(g, np.inf, 0, 3)
    pinv = laplacian_pinv(g)
    metric = approx_metric(g, np.inf, 0, 3, pinv)
    assert np.isfinite(metric) and metric > 0.0
    dm = distance_matrices(g, (np.inf,), pinv)[0]
    assert dm.matrix[0, 3] == pytest.approx(metric, rel=1e-12)


def test_stages_pinned():
    # one (exponent, eps) list per p: the smoothing ladder below p = 2,
    # whose fifth stage (~1e-10) stays in only by rounding, and the
    # exponent ladder above p = 8; the floats are those of the repeated
    # multiplications
    assert resistance._stages(1.5) == [
        (1.5, 0.01), (1.5, 0.0001), (1.5, 1.0000000000000002e-06),
        (1.5, 1.0000000000000002e-08), (1.5, 1.0000000000000002e-10),
        (1.5, 1e-12),
    ]
    assert resistance._stages(2.9) == [(2.9, 1e-12)]
    assert resistance._stages(10.0) == [(8.0, 1e-12), (10.0, 1e-12)]
    assert resistance._stages(100.0) == [
        (8.0, 1e-12), (20.0, 1e-12), (50.0, 1e-12), (100.0, 1e-12),
    ]


def test_solver_config_validation():
    # NaN fails as in `check_p`: `nan <= 0` is False, `nan > 0` too
    for bad in (0.0, -1e-8, float("nan"), float("inf")):
        with pytest.raises(InvalidP):
            SolverConfig(grad_tol=bad)


def test_exact_single_edge_inverse_weight():
    for w in (0.5, 1.0, 2.0):
        g = build_graph(2, [(1, 0, w)])
        for p in (1.5, 2.0, 3.0):
            r = exact_presistance(g, p, 0, 1, TIGHT)
            assert r == pytest.approx(1.0 / w)
            assert ssl_solve(g, p, 0, 1, TIGHT).energy == pytest.approx(w)


def test_exact_path_two_edges_closed_form():
    g = generate("path", n=3)
    for p in (1.5, 2.0, 3.0, 5.0):
        r = exact_presistance(g, p, 0, 2, TIGHT)
        assert r == pytest.approx(2 ** (p - 1), rel=1e-8)
    r = exact_presistance(g, 3.0, 0, 2, TIGHT)
    assert r == pytest.approx(4.0, rel=1e-9)


def test_exact_triangle_p2():
    g = generate("complete", n=3)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        r = exact_presistance(g, 2.0, i, j, TIGHT)
        assert r == pytest.approx(2 / 3, rel=1e-9)


def test_exact_matches_series_law_on_weighted_trees():
    rng = np.random.default_rng(1)
    for seed in range(6):
        n = int(rng.integers(5, 25))
        g = generate("random_tree", n=n, seed=seed, weight_range=(0.3, 3.0))
        for _ in range(3):
            i, j = map(int, rng.choice(n, size=2, replace=False))
            p = float(rng.choice([1.5, 2.0, 3.0, 10.0]))
            r = exact_presistance(g, p, i, j, TIGHT)
            assert r == pytest.approx(tree_series_presistance(g, i, j, p), rel=1e-6)


def test_newton_exact_on_trees_with_pendant_subtrees():
    # off the i-j path every drop is tied at the optimum, so for p > 2 the
    # curvature Laplacian is singular there without the floor
    rng = np.random.default_rng(21)
    checked = 0
    for seed in range(8):
        n = int(rng.integers(6, 20))
        g = generate("random_tree", n=n, seed=40 + seed, weight_range=(0.3, 3.0))
        hops = 0
        while hops < 2 or hops > n - 3:  # a path leaving two vertices out
            i, j = map(int, rng.choice(n, size=2, replace=False))
            hops = shortest_path(g, i, j, weighted=False)
        for p in (1.05, 1.5, 3.0, 10.0, 50.0):
            r = exact_presistance(g, p, i, j, TIGHT)
            assert r == pytest.approx(tree_series_presistance(g, i, j, p),
                                      rel=1e-9)
            checked += 1
    assert checked == 40


def test_newton_energy_not_above_independent_optimizer():
    # L-BFGS-B from scipy on the free coordinates of the plain p-energy
    from scipy.optimize import minimize

    for seed in range(3):
        g = random_connected(12, 1000 + seed)
        i, j = 0, 11
        free = np.arange(1, 11)
        for p in (1.3, 3.0, 7.0):
            def energy_and_grad(z):
                x = np.zeros(12)
                x[i] = 1.0
                x[free] = z
                return p_energy(g, x, p), p_energy_gradient(g, x, p)[free]

            res = minimize(energy_and_grad, np.full(10, 0.5), jac=True,
                           method="L-BFGS-B",
                           options={"ftol": 1e-15, "gtol": 1e-12,
                                    "maxiter": 10000})
            rep = ssl_solve(g, p, i, j, TIGHT)
            assert rep.energy <= res.fun * (1 + 1e-9)


def test_hessian_vector_product_matches_gradient_differences():
    # the curvature-weighted Laplacian the Newton step solves, assembled
    # as the solver does with two vertices pinned, against central
    # differences of the smoothed gradient along a direction that leaves
    # the pinned vertices alone, ties included; components far below the
    # largest are held to a tolerance relative to the largest
    rng = np.random.default_rng(23)
    h = 1e-6
    for seed in range(6):
        g = random_connected(8, 470 + seed)
        ei, ej, w = g.ei, g.ej, g.w
        free = np.arange(1, 7)
        layout = _hessian_layout(ei, ej, free, g.n)
        x = rng.permutation(8) / 7.0
        x[[1, 4, 6]] = x[0]
        v = np.zeros(8)
        v[free] = rng.standard_normal(free.size)
        for p in (1.1, 1.5, 3.0, 10.0):
            for eps in (1e-1, 1e-2):
                eps2 = eps * eps
                _, curv = _edge_kernel(ei, ej, w, x, p, eps2, gradient=True,
                                       curvature=True)
                hv = _hessian(curv, layout) @ v[free]
                fd = (_edge_kernel(ei, ej, w, x + h * v, p, eps2, gradient=True)
                      - _edge_kernel(ei, ej, w, x - h * v, p, eps2,
                                     gradient=True))[free] / (2 * h)
                floor = max(1e-8, 1e-4 * np.abs(hv).max())
                denom = np.maximum(np.maximum(np.abs(fd), np.abs(hv)), floor)
                assert np.all(np.abs(hv - fd) / denom <= 1e-5)


def test_symmetric_free_vertices_take_no_newton_step():
    # on K8 every free vertex sits at 1/2 from the p = 2 start on, which is
    # also the optimum at p = 10 and at the ladder's p = 8: the stopping
    # rule must accept the start without a step
    g = generate("complete", n=8)
    rep = ssl_solve(g, 10.0, 0, 1)
    assert rep.iterations == 0
    assert rep.converged
    assert np.allclose(rep.potentials[2:], 0.5, rtol=0, atol=1e-12)


def test_solver_energy_nonincreasing_and_report_shape():
    g = random_connected(10, 3)
    rep = ssl_solve(g, 3.0, 0, 9, TIGHT)
    assert rep.energy > 0
    assert rep.potentials[0] == 1.0 and rep.potentials[9] == 0.0
    if rep.converged:
        assert rep.final_grad_norm <= TIGHT.grad_tol
    # energy of the reported potentials equals the reported energy
    assert p_energy(g, rep.potentials, 3.0) == pytest.approx(rep.energy)


def test_ssl_solve_pins_and_symmetry():
    g = build_graph(2, [(1, 0, 2.5)])
    rep = ssl_solve(g, 3.0, 0, 1)
    assert rep.potentials.tolist() == [1.0, 0.0]
    assert rep.energy == pytest.approx(2.5)

    g = generate("path", n=3)
    for p in (1.5, 2.0, 4.0):
        rep = ssl_solve(g, p, 0, 2, TIGHT)
        assert rep.potentials[1] == pytest.approx(0.5, abs=1e-6)

    k3 = generate("complete", n=3)
    rep = ssl_solve(k3, 2.0, 0, 1, TIGHT)
    assert rep.potentials[2] == pytest.approx(0.5, abs=1e-8)


def test_approx_equals_exact_on_trees():
    rng = np.random.default_rng(2)
    for seed in range(5):
        n = int(rng.integers(5, 30))
        g = generate("random_tree", n=n, seed=100 + seed, weight_range=(0.5, 2.0))
        pinv = laplacian_pinv(g)
        for _ in range(3):
            i, j = map(int, rng.choice(n, size=2, replace=False))
            p = float(rng.choice([1.5, 2.0, 3.0, 10.0]))
            exact = exact_presistance(g, p, i, j, TIGHT)
            assert approx_presistance(g, p, i, j, pinv) == pytest.approx(exact, rel=1e-6)


def test_approx_p2_reduces_to_pinv_formula():
    for seed in range(6):
        g = random_connected(9, 30 + seed)
        pinv = laplacian_pinv(g)
        Lp = pinv.matrix
        for i in range(g.n):
            for j in range(i + 1, g.n):
                expected = Lp[i, i] + Lp[j, j] - 2 * Lp[i, j]
                got = approx_presistance(g, 2.0, i, j, pinv)
                assert got == pytest.approx(expected, abs=1e-10, rel=1e-10)


def test_approx_triangle_p2():
    g = generate("complete", n=3)
    pinv = laplacian_pinv(g)
    assert approx_presistance(g, 2.0, 0, 1, pinv) == pytest.approx(2 / 3)


def test_approx_metric_forms():
    g = generate("path", n=3)
    pinv = laplacian_pinv(g)
    assert approx_metric(g, 2.0, 0, 2, pinv) == pytest.approx(
        approx_presistance(g, 2.0, 0, 2, pinv)
    )
    # tree path of length 2 at p=3: resistance 4, metric 4^(1/2) = 2
    assert approx_metric(g, 3.0, 0, 2, pinv) == pytest.approx(2.0)
    # identical endpoints give a zero metric at the kernel level
    assert resistance._pair_sums(pinv.matrix, 1.0, g, (1.5,), ([1], [1], [2], [0]),
                                 np.zeros((1, 1)), peak=True)[0, 0] == 0.0


def test_approx_rejects_mismatched_pinv():
    g = generate("path", n=4)
    other = generate("cycle", n=4)
    pinv = laplacian_pinv(other)
    with pytest.raises(FingerprintMismatch):
        approx_presistance(g, 2.0, 0, 1, pinv)


def test_approx_metric_robust_at_huge_p():
    g = random_connected(12, 77)
    pinv = laplacian_pinv(g)
    for p in (100.0, 1000.0):
        v = approx_metric(g, p, 0, 11, pinv)
        assert np.isfinite(v) and v > 0


def test_distance_matrix_path_closed_form():
    g = generate("path", n=3)
    dm = distance_matrix(g, 3.0, mode="approx", form="metric")
    assert np.allclose(dm.matrix, [[0, 1, 2], [1, 0, 1], [2, 1, 0]], atol=1e-9)


def test_distance_matrix_p2_matches_classic():
    # the p = 2 closed form against the energy of the unit-current
    # potentials, sum over edges of w (y_a - y_b)^2, with y from numpy's pinv
    g = random_connected(10, 12)
    ei, ej, w = g.ei, g.ej, g.w
    L = np.zeros((g.n, g.n))
    np.add.at(L, (ei, ej), -w)
    np.add.at(L, (ej, ei), -w)
    L -= np.diag(L.sum(axis=1))
    Lp = np.linalg.pinv(L)
    classic = np.zeros((g.n, g.n))
    for i in range(g.n):
        for j in range(g.n):
            if i != j:
                y = Lp[:, i] - Lp[:, j]
                classic[i, j] = w @ (y[ei] - y[ej]) ** 2
    for form in ("resistance", "metric"):
        dm = distance_matrix(g, 2.0, mode="approx", form=form)
        assert np.abs(dm.matrix - classic).max() <= 1e-10


def test_distance_matrix_exact_broom_endpoint_near_mincut():
    g = generate("broom_a", delta=3, zeta=3)
    dm = distance_matrix(g, 1.05, mode="exact", form="resistance", cfg=TIGHT)
    endpoint = dm.matrix[0, g.n - 1]
    assert abs(endpoint - 1 / 3) / (1 / 3) <= 0.10


def test_distance_matrix_shape_and_modes():
    g = random_connected(8, 9)
    for mode, form in (("approx", "metric"), ("exact", "resistance")):
        dm = distance_matrix(g, 2.5, mode=mode, form=form, cfg=TIGHT)
        M = dm.matrix
        assert np.abs(M - M.T).max() <= 1e-10
        assert np.abs(np.diag(M)).max() == 0.0
        assert np.isfinite(M).all() and M.min() >= 0
    with pytest.raises(InvalidP):
        distance_matrix(g, 1.0)
    with pytest.raises(InvalidP):
        distance_matrix(g, 2.0, mode="magic")


def test_distance_matrix_worker_count_independent():
    g = random_connected(7, 44)
    a = distance_matrix(g, 3.0, mode="exact", cfg=TIGHT, workers=1)
    b = distance_matrix(g, 3.0, mode="exact", cfg=TIGHT, workers=2)
    assert np.array_equal(a.matrix, b.matrix)


def test_distance_matrix_exact_and_approx_agree_at_p2():
    g = random_connected(8, 15)
    a = distance_matrix(g, 2.0, mode="approx", form="resistance")
    e = distance_matrix(g, 2.0, mode="exact", form="resistance", cfg=TIGHT)
    assert np.abs(a.matrix - e.matrix).max() <= 1e-7


def test_distance_matrix_persistence(tmp_path):
    g = random_connected(6, 8)
    dm = distance_matrix(g, 2.5, mode="approx", form="metric")
    path = tmp_path / "d.bin"
    save_distance_matrix(dm, path)
    loaded = load_distance_matrix(path)
    assert np.array_equal(loaded.matrix, dm.matrix)
    assert loaded.p == 2.5 and loaded.mode == "approx" and loaded.form == "metric"
    assert loaded.graph_fingerprint == g.fingerprint()
    csv_path = tmp_path / "d.csv"
    export_distance_csv(dm, csv_path)
    rows = [r for r in csv_path.read_text().splitlines() if not r.startswith("#")]
    assert len(rows) == g.n
    assert float(rows[0].split(",")[0]) == 0.0


def test_distance_matrix_persists_kept_rows(tmp_path):
    # a restricted graph's kept ids ride in one more header field; a
    # connected graph's header keeps its seven fields
    g = build_graph(7, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 0.5), (4, 5, 1.0),
                        (5, 6, 1.0), (6, 3, 1.0)], largest_component=True)
    assert g.kept == (3, 4, 5, 6)
    dm = distance_matrix(g, 3.0)
    assert dm.kept == (3, 4, 5, 6)
    path = tmp_path / "d.bin"
    save_distance_matrix(dm, path)
    loaded = load_distance_matrix(path)
    assert loaded.kept == (3, 4, 5, 6)
    assert np.array_equal(loaded.matrix, dm.matrix)
    connected = distance_matrix(random_connected(5, 8), 3.0)
    assert connected.kept is None
    save_distance_matrix(connected, path)
    blob = path.read_bytes()
    hlen = int.from_bytes(blob[4:12], "little")
    assert blob[12 : 12 + hlen].count(b"\x1f") == 6
    assert load_distance_matrix(path).kept is None


def test_load_distance_matrix_rejects_malformed_files(tmp_path):
    dm = distance_matrix(random_connected(5, 8), 2.5)
    path = tmp_path / "d.bin"
    save_distance_matrix(dm, path)
    good = path.read_bytes()
    hlen = int.from_bytes(good[4:12], "little")

    def header(*fields):
        text = "\x1f".join(fields).encode()
        return b"PDMX" + len(text).to_bytes(8, "little") + text

    cases = {
        "length prefix cut": good[:10],
        "header cut": good[: 12 + hlen // 2],
        "payload cut": good[:-8],
        "payload not whole floats": good[:-3],
        "three-byte header": header("abc"),
        "too few fields": header("0", "2.5", "approx"),
        "size not an integer": header("x", "2.5", "approx", "metric", "g", "c"),
        "p not a number": header("0", "two", "approx", "metric", "g", "c"),
        "negative size": header("-1", "2.5", "approx", "metric", "g", "c")
        + bytes(8),
        "header not text": b"PDMX" + (2).to_bytes(8, "little") + b"\xff\xfe",
        "garbled header length": b"PDMX" + (2**62).to_bytes(8, "little") + good[12:],
        "kept id not an integer": header("1", "2.5", "approx", "metric", "g",
                                         "c", "", "x") + bytes(8),
        "kept count not n": header("1", "2.5", "approx", "metric", "g", "c",
                                   "", "3 4") + bytes(8),
    }
    for blob in cases.values():
        path.write_bytes(blob)
        with pytest.raises(FingerprintMismatch):
            load_distance_matrix(path)
    path.write_bytes(header("0", "2.5", "approx", "metric", "g", "c"))
    assert load_distance_matrix(path).n == 0


def test_matrix_file_round_trip_keeps_bytes_with_one_array(tmp_path):
    # the payload is written from the matrix's buffer and read straight
    # into the loaded matrix: the file's bytes are the ones the header,
    # then `tobytes` of the matrix, gave, and a load holds one n x n array
    # where reading the whole file and copying its payload held two
    g = generate("gnp_connected", n=200, edge_prob=0.1, seed=2)
    dm = distance_matrix(g, 3.0, workers=1)
    path, again = tmp_path / "d.bin", tmp_path / "again.bin"
    _, saved = traced_peak(save_distance_matrix, dm, path)
    header = "\x1f".join([str(dm.n), repr(dm.p), dm.mode, dm.form, dm.graph_fingerprint,
                          dm.config_fingerprint, dm.meta]).encode()
    want = b"PDMX" + len(header).to_bytes(8, "little") + header + dm.matrix.tobytes()
    assert path.read_bytes() == want
    loaded, peak = traced_peak(load_distance_matrix, path)
    assert saved < 0.2 * g.n**2 and peak < 1.2 * g.n**2, (saved / g.n**2, peak / g.n**2)
    assert loaded.matrix.dtype == np.float64 and loaded.matrix.flags.writeable
    assert loaded.matrix.tobytes() == dm.matrix.tobytes()
    save_distance_matrix(loaded, again)
    assert again.read_bytes() == want


@pytest.mark.parametrize("block", [None, 1000])
def test_p2_closed_form_bytes_match_the_out_of_place_formula(iris_csv, block, monkeypatch):
    # the closed form is made in place a few rows at a time: at a small
    # `_BLOCK_DROPS` full iris takes 25 blocks of rows
    if block:
        monkeypatch.setattr(resistance, "_BLOCK_DROPS", block)
    ds = load_features(iris_csv, has_labels=True)
    graphs = [knn_gaussian_graph(ds, GraphBuildParams(mu=1.0, sigma=s)) for s in (1e-2, 10.0)]
    graphs += [generate("gnp_connected", n=40, edge_prob=0.2, seed=s) for s in range(3)]
    for g in graphs:
        Lp = laplacian_pinv(g).matrix
        d = np.diag(Lp)
        want = np.maximum(d[:, None] + d[None, :] - (Lp + Lp.T), 0.0)
        np.fill_diagonal(want, 0.0)
        got = distance_matrix(g, 2.0, pinv=LaplacianPinv(Lp, g.fingerprint()))
        assert got.matrix.tobytes() == want.tobytes()


def test_single_pair_query_gathers_its_slab_in_a_few_pieces(iris_csv, monkeypatch):
    # a pair query walks the two L+ columns of its pair, twice (peaks,
    # then sums), and `_slab` sizes its pieces in floats: each walk
    # gathers full iris's 11175 edges in three pieces of two gathers each.
    # Pieces of 64 edges made a query take 5.2 ms instead of 0.4
    # (criterion 09 times this path)
    ds = load_features(iris_csv, has_labels=True)
    g = knn_gaussian_graph(ds, GraphBuildParams(mu=1.0, sigma=0.01))
    pinv = laplacian_pinv(g)
    want = approx_metric(g, 10.0, 3, 77, pinv)
    take, gathers = np.take, []

    def counting(a, indices, *args, **kwargs):
        if sys._getframe(1).f_code.co_name == "_slab":
            gathers.append(len(indices))
        return take(a, indices, *args, **kwargs)

    monkeypatch.setattr(np, "take", counting)
    assert approx_metric(g, 10.0, 3, 77, pinv) == want
    walks = 2
    assert sum(gathers) == walks * 2 * g.m
    assert len(gathers) <= walks * 2 * 4, len(gathers)


def test_mincut_values():
    g = build_graph(2, [(1, 0, 2.5)])
    assert mincut(g, 0, 1) == pytest.approx(2.5)
    g = generate("broom_a", delta=4, zeta=3)
    assert mincut(g, 0, g.n - 1) == pytest.approx(4.0)
    assert mincut(generate("complete", n=3), 0, 2) == pytest.approx(2.0)


def test_mincut_against_brute_force():
    rng = np.random.default_rng(4)
    for seed in range(8):
        g = random_connected(int(rng.integers(4, 9)), 200 + seed, edge_prob=0.5)
        s, t = map(int, rng.choice(g.n, size=2, replace=False))
        assert mincut(g, s, t) == pytest.approx(brute_force_mincut(g, s, t))


def test_shortest_path_values():
    assert shortest_path(generate("path", n=5), 0, 4, weighted=False) == 4.0
    g2 = generate("example_g2")
    for i in range(4):
        assert shortest_path(g2, i, 7, weighted=False) == 4.0
    assert shortest_path(generate("complete", n=3), 0, 1, weighted=False) == 1.0


def test_shortest_path_weighted_vs_hops():
    g = build_graph(3, [(1, 0, 10.0), (2, 1, 10.0), (2, 0, 1.0)])
    assert shortest_path(g, 0, 2, weighted=True) == pytest.approx(1.0)
    assert shortest_path(g, 0, 2, weighted=False) == 1.0
    rng = np.random.default_rng(6)
    for seed in range(5):
        g = random_connected(10, 300 + seed)
        s, t = map(int, rng.choice(10, size=2, replace=False))
        assert shortest_path(g, s, t, weighted=False) == hop_distance_bfs(g, s, t)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    for seed in range(6):
        g = random_connected(8, 400 + seed)
        x = rng.permutation(8) * 0.41 + 0.05
        for p in (1.5, 2.0, 3.0):
            grad = p_energy_gradient(g, x, p)
            h = 1e-6
            for v in range(g.n):
                xp, xm = x.copy(), x.copy()
                xp[v] += h
                xm[v] -= h
                fd = (p_energy(g, xp, p) - p_energy(g, xm, p)) / (2 * h)
                assert grad[v] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_edge_kernel_smoothed_gradient_matches_its_energy():
    # the gradient the solver descends along, checked against central
    # differences of the smoothed energy it minimizes, ties included, at
    # potentials in [0, 1] like the solver's. Components far below the
    # largest one sit under the rounding of a central difference of the
    # whole energy and are held to a tolerance relative to the largest
    rng = np.random.default_rng(9)
    h = 1e-6
    for seed in range(6):
        g = random_connected(8, 450 + seed)
        ei, ej, w = g.ei, g.ej, g.w
        x = rng.permutation(8) / 7.0
        x[[1, 4, 6]] = x[0]
        for p in (1.1, 1.5, 3.0, 10.0):
            for eps in (1e-1, 1e-2):
                eps2 = eps * eps
                grad = _edge_kernel(ei, ej, w, x, p, eps2, gradient=True)
                floor = max(1e-8, 1e-4 * np.abs(grad).max())
                for v in range(g.n):
                    xp, xm = x.copy(), x.copy()
                    xp[v] += h
                    xm[v] -= h
                    fd = (_edge_kernel(ei, ej, w, xp, p, eps2)
                          - _edge_kernel(ei, ej, w, xm, p, eps2)) / (2 * h)
                    denom = max(abs(fd), abs(grad[v]), floor)
                    assert abs(grad[v] - fd) / denom <= 1e-5


def test_edge_kernel_tie_contributes_exact_zero():
    import warnings

    g = generate("path", n=3)
    x = np.array([0.5, 0.5, 0.2])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for p in (1.1, 1.5, 2.0, 3.0):
            grad = p_energy_gradient(g, x, p)
            # only edge (2, 1) has a drop; the tied edge (1, 0) adds nothing
            s = p * 0.3 ** (p - 1.0)
            assert grad[0] == 0.0
            assert grad[1] == pytest.approx(s, rel=1e-14)
            assert grad[2] == pytest.approx(-s, rel=1e-14)
            assert p_energy(g, x, p) == pytest.approx(0.3**p, rel=1e-14)
            assert np.all(p_energy_gradient(g, np.full(3, 0.7), p) == 0.0)


def _assert_approx_paths_agree(g, pairs, ps, negated=False):
    # A single pair differences its two L+ columns before the edges and
    # sums with a dot product, a matrix row the other way round and with a
    # matrix-vector product; at p = 2 the matrix takes the closed form. So
    # the metric forms agree to rounding, checked at 1e-13. The resistance
    # form raises the metric to the p - 1, which carries that agreement to
    # (1 + 1e-13)^(p - 1) - 1; where it overflows to inf, both paths must.
    pinv = laplacian_pinv(g)
    sign = -1.0 if negated else 1.0
    for p in ps:
        for form, one_pair in (("metric", approx_metric),
                               ("resistance", approx_presistance)):
            M = distance_matrix(g, p, mode="approx", form=form, pinv=pinv).matrix
            tol = 1e-13 if form == "metric" else (1 + 1e-13) ** (p - 1.0) - 1
            for i, j in pairs:
                for a, b in ((i, j), (j, i)):
                    got = one_pair(g, p, a, b, pinv)
                    want = M[a, b]
                    assert sign * want > 0
                    if np.isinf(want):
                        assert got == want
                    else:
                        assert abs(got - want) <= tol * abs(want)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_approx_pair_matches_distance_matrix_random_graphs():
    for seed in range(4):
        g = random_connected(9, 900 + seed)
        pairs = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)]
        _assert_approx_paths_agree(g, pairs, (1.1, 2.0, 2.9, 10.0, 1000.0))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_approx_pair_matches_distance_matrix_iris(iris_csv):
    ds = load_features(iris_csv, has_labels=True, label_column="last")
    g = knn_gaussian_graph(ds, GraphBuildParams(mu=1.0, sigma=1.0))
    rng = np.random.default_rng(3)
    pairs = [tuple(map(int, rng.choice(g.n, size=2, replace=False)))
             for _ in range(8)]
    _assert_approx_paths_agree(g, pairs, (1.1, 2.0, 2.9, 10.0, 1000.0))


def test_approx_paths_negated_under_fault():
    g = random_connected(7, 950)
    pairs = [(0, 6), (2, 3)]
    inject_fault("approx-sign")
    try:
        _assert_approx_paths_agree(g, pairs, (1.1, 2.0, 2.9, 10.0),
                                   negated=True)
    finally:
        clear_faults()


KERNEL_PS = (1.1, 1.4, 2.0, 2.9, 10.0, 100.0, 1000.0)


def _assert_matrices_match_pinv_reference(g, pairs, ps=KERNEL_PS, tol=1e-13):
    # the metric of each pair straight from its definition on numpy's pinv,
    # sum over edges of w |y_a - y_b|^q with y = L+ (e_i - e_j): no scaling,
    # no log/exp, no blocks
    Lp = np.linalg.pinv(laplacian(g))
    a, b = np.array(pairs).T
    Y = Lp[:, a] - Lp[:, b]
    drops = np.abs(Y[g.ei] - Y[g.ej])
    for p, dm in zip(ps, distance_matrices(g, ps)):
        assert dm.p == p and dm.mode == "approx" and dm.form == "metric"
        want = g.w @ drops ** conjugate_exponent(p)
        got = dm.matrix[a, b]
        assert np.all(np.abs(got - want) <= tol * want), p
        assert np.array_equal(dm.matrix, dm.matrix.T)


def _every_pair(g):
    return [(i, j) for i in range(g.n) for j in range(i + 1, g.n)]


def _assert_every_pair_matches_pinv_reference(g):
    # edge pairs take the symmetric kernel, the others the plain mode
    _assert_matrices_match_pinv_reference(g, _every_pair(g), KERNEL_PS + (np.inf,))
    _assert_matrices_match_pinv_reference(g, _every_pair(g), (1.01,), tol=1e-12)


def test_distance_matrices_match_pinv_reference_random_graphs():
    for seed in range(4):
        g = random_connected(9, 900 + seed)
        assert 0 < g.m < g.n * (g.n - 1) // 2
        _assert_every_pair_matches_pinv_reference(g)


@pytest.mark.parametrize("block", [None, 200])
def test_distance_matrices_match_pinv_reference_complete_graphs(block, monkeypatch):
    # every pair is an edge. K_12 has 66 edges: the default block takes them
    # as one column block of four strips, each with its square; 200 drops
    # make blocks of 16 edges, each with a tile of the rows above it
    if block:
        monkeypatch.setattr(resistance, "_BLOCK_DROPS", block)
    g = generate("complete", n=12)
    _assert_every_pair_matches_pinv_reference(g)
    rng = np.random.default_rng(12)
    weighted = build_graph(g.n, [(a, b, float(rng.uniform(0.1, 1.0)))
                                 for a, b, _ in g.edges])
    _assert_every_pair_matches_pinv_reference(weighted)


def test_distance_matrices_match_pinv_reference_iris(iris_csv):
    ds = load_features(iris_csv, has_labels=True, label_column="last")
    g = knn_gaussian_graph(ds, GraphBuildParams(mu=1.0, sigma=1e-3))
    rng = np.random.default_rng(5)
    pairs = [tuple(map(int, rng.choice(g.n, size=2, replace=False)))
             for _ in range(200)]
    _assert_matrices_match_pinv_reference(g, pairs)


def _half_iris(iris_csv, mu, sigma):
    # every other iris row; a sparse graph keeps its largest component
    ds = load_features(iris_csv, has_labels=True, label_column="last")
    half = FeatureDataset(X=ds.X[::2], labels=ds.labels[::2])
    return knn_gaussian_graph(half, GraphBuildParams(
        mu=mu, sigma=sigma, on_disconnect="largest_component"))


def _assert_independent_of_block_size(g, monkeypatch, sizes):
    pinv = laplacian_pinv(g)
    base = [dm.matrix for dm in distance_matrices(g, KERNEL_PS, pinv)]
    for drops in sizes:
        monkeypatch.setattr(resistance, "_BLOCK_DROPS", drops)
        for want, dm in zip(base, distance_matrices(g, KERNEL_PS, pinv)):
            assert np.all(np.abs(dm.matrix - want) <= 1e-13 * want)


def test_distance_matrices_independent_of_block_size(iris_csv, monkeypatch):
    # every other iris row: 75 vertices, 2775 edges, so the default block
    # holds 23 pairs and most rows end in a partial block. One-pair blocks
    # sum in einsum, larger ones in BLAS, whose sum of a row also depends
    # on the row count of its block: each adds the 2775 edge terms in its
    # own order, so entries agree to rounding (up to 1.1e-14 relative seen
    # here, 3.1e-14 on all of iris), checked at the 1e-13 of the other
    # path-agreement tests. A pair put in the wrong block or row is off by
    # far more
    g = _half_iris(iris_csv, 1.0, 1e-3)
    assert g.m == g.n * (g.n - 1) // 2
    _assert_independent_of_block_size(g, monkeypatch, (1, g.n * g.m))


def test_distance_matrices_independent_of_block_size_sparse(iris_csv,
                                                             monkeypatch):
    # the k-NN graph of half of iris at mu = 0.1: 995 of its 1225 pairs are
    # not edges and take the plain mode, in column blocks of one edge with
    # tiles of n pairs, and in one column block with one tile of them all
    g = _half_iris(iris_csv, 0.1, 1.0)
    assert g.m < g.n * (g.n - 1) // 4
    _assert_independent_of_block_size(g, monkeypatch, (g.n, g.n * g.m))


def _row_peak_reference(g, pinv, q):
    # the metric of every pair with its drops scaled by their peak, as the
    # peak-scaled mode takes it
    Lp = pinv.matrix
    want = np.zeros((g.n, g.n))
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        for i in range(g.n):
            Y = Lp[:, [i]] - Lp
            d = np.abs(Y[g.ei] - Y[g.ej])
            peak = d.max(axis=0)
            peak[i] = 1.0
            want[i] = peak**q * (g.w @ (d / peak) ** q)
    return want


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("sigma", [1.0, 10.0])
def test_distance_matrices_extreme_q_falls_back_to_row_peak(iris_csv, sigma):
    # p = 1.001 is q = 1001: on half of iris at mu = 1 the fast passes'
    # scale c^q overflows, so every edge pair takes the peak-scaled mode.
    # The reference scales each pair's drops by their peak, as that mode
    # does; where it is finite and positive the kernel must agree
    ds = load_features(iris_csv, has_labels=True, label_column="last")
    half = FeatureDataset(X=ds.X[::2], labels=ds.labels[::2])
    g = knn_gaussian_graph(half, GraphBuildParams(mu=1.0, sigma=sigma))
    assert g.m == g.n * (g.n - 1) // 2
    p, q = 1.001, conjugate_exponent(1.001)
    pinv = laplacian_pinv(g)
    got = distance_matrices(g, (p,), pinv)[0].matrix
    assert not np.isnan(got).any()
    want = _row_peak_reference(g, pinv, q)
    good = np.isfinite(want) & (want > 0.0)
    assert good.sum() > 100
    assert np.all(np.abs(got[good] - want[good]) <= 1e-12 * want[good])


def _recording_pair_sums(monkeypatch):
    # the pairs (a, b) of each walk of `_pair_sums`, by whether it scales
    # them by their peak (the peak-scaled mode) or not (the plain mode)
    calls = {True: [], False: []}
    pair_sums = resistance._pair_sums

    def recording(L, c, g, qs, pieces, out, workers=1, peak=False):
        a, lo, hi = (np.asarray(x) for x in pieces[:3])
        b = np.concatenate([np.arange(*r) for r in zip(lo, hi)])
        calls[peak].append((np.repeat(a, hi - lo), b))
        return pair_sums(L, c, g, qs, pieces, out, workers, peak)

    monkeypatch.setattr(resistance, "_pair_sums", recording)
    return calls


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("sigma", [1.0, 10.0])
def test_peak_free_pass_falls_back_to_row_peak(iris_csv, sigma, monkeypatch):
    # the k-NN graph of half of iris at mu = 0.1. At p = 1.001, q = 1001,
    # a pair's drops scaled to at most 1 mostly leave its sum below the
    # floor (or c^q out of range): the pairs that are not edges go back to
    # the peak-scaled mode (all 995 here at both sigma), and where its
    # reference is finite and positive (246 and 38 entries) they agree with
    # it. At p = 1.1 and 2.9 no pair goes back, and the plain mode takes
    # every pair that is not an edge (and the edges between two of them in
    # a row, whose sums it does not read)
    g = _half_iris(iris_csv, 0.1, sigma)
    pinv = laplacian_pinv(g)
    edge = np.zeros((g.n, g.n), dtype=bool)
    edge[g.ej, g.ei] = True
    calls = _recording_pair_sums(monkeypatch)
    got = distance_matrices(g, (1.001,), pinv)[0].matrix
    back = sum(np.count_nonzero(~edge[a, b]) for a, b in calls[True])
    assert back > 0
    # the bound from the rows' largest drops keeps most of them out of the
    # plain mode (10 of 995 enter it at sigma = 1, none at sigma = 10)
    assert sum(a.size for a, _ in calls[False]) < back / 20
    assert not np.isnan(got).any()
    want = _row_peak_reference(g, pinv, conjugate_exponent(1.001))
    good = np.isfinite(want) & (want > 0.0) & ~edge & ~edge.T
    np.fill_diagonal(good, False)
    assert good.any()
    assert np.all(np.abs(got[good] - want[good]) <= 1e-12 * want[good])
    for p in (1.1, 2.9):
        calls[True].clear()
        calls[False].clear()
        distance_matrices(g, (p,), pinv)
        assert sum(a.size for a, _ in calls[True]) == 0, p
        assert sum(np.count_nonzero(~edge[a, b]) for a, b in calls[False]) \
            == np.count_nonzero(np.triu(~edge, 1)), p


def _unit_drops_graph(target):
    # a graph of two edges (4, 3) and (5, 3) and a symmetric L whose drops
    # array has the rows `target` for vertices 0 to 2 and zero rows for 3
    # to 5: the kernel reads the graph's arrays and L's entries, which
    # `distance_matrices` takes as the pseudoinverse of this disconnected
    # graph, made without `build_graph`'s checks
    g = Graph(6, np.array([4, 5]), np.array([3, 3]), np.array([1.0, 0.5]))
    L = np.zeros((6, 6))
    L[:3, 4:] = target
    L[4:, :3] = target.T
    return g, L


def _pair_mask(n, pairs):
    # the n x n mask of the pairs (a, b) of recorded walks
    mask = np.zeros((n, n), dtype=bool)
    for a, b in pairs:
        mask[a, b] = True
    return mask


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_peak_free_pass_rejects_sums_below_the_floor(monkeypatch):
    # three rows of drops over two edges; the largest is 0.3, so the scale
    # is c = 1. At p = 602/601, q = 602 to rounding, the skip rule lets in
    # the pairs (0, 1), (0, 2) and (1, 2), whose bounds from the rows'
    # largest drops (0.6^602 for (0, 1)) are above the floor, and rules out
    # every pair with a vertex from 3 to 5. Pair (0, 1) drops 0.3 on both
    # edges: its sum is a subnormal 2.53e-315 that has kept only 8 digits,
    # below the floor. Pair (0, 2) underflows to 0. The trust rule rejects
    # both, so every pair but (1, 2) takes the peak-scaled mode, and the
    # plain mode's entry of (1, 2) matches its sum from the definition. At
    # p = 1.5 alone every pair of a row from 0 to 2 is let in and kept. The
    # plain mode reads the drops from the column block's slab, whose rows
    # are the target's
    target = np.array([[0.3, 0.0], [0.0, -0.3], [0.1, 0.2]])
    g, L = _unit_drops_graph(target)
    before = L.copy()
    slab = resistance._slab(L, g, 0, g.m, 1.0)
    assert slab[:3].tobytes() == target.tobytes() and not slab[3:].any()
    upper = np.triu(np.ones((g.n, g.n), dtype=bool), 1)
    first = upper & (np.arange(g.n) < 3)[:, None]
    calls = _recording_pair_sums(monkeypatch)
    pinv = LaplacianPinv(matrix=L, fingerprint=g.fingerprint())
    for ps, plain, kept in (((602.0 / 601.0, 1.5), [(0, 1), (0, 2), (1, 2)], [(1, 2)]),
                            ((1.5,), list(zip(*np.nonzero(first))), None)):
        calls[True].clear()
        calls[False].clear()
        got = [dm.matrix for dm in distance_matrices(g, ps, pinv)]
        assert L.tobytes() == before.tobytes()
        walked = _pair_mask(g.n, calls[False])
        assert (walked == _pair_mask(g.n, [np.array(plain).T])).all(), ps
        ok = walked if kept is None else _pair_mask(g.n, [np.array(kept).T])
        assert (_pair_mask(g.n, calls[True]) == upper & ~ok).all(), ps
        for dm, p in zip(got, ps):
            want = np.abs(slab[:, None] - slab[None, :]) ** conjugate_exponent(p) @ g.w
            assert np.all(np.abs(dm[ok] - want[ok]) <= 1e-13 * want[ok]), p
    # times 2^20 the bounds relative to c keep their values, but c^602
    # overflows: no pair is let in, and every pair takes the peak-scaled mode
    calls[True].clear()
    calls[False].clear()
    pinv = LaplacianPinv(matrix=L * 2.0**20, fingerprint=g.fingerprint())
    distance_matrices(g, (602.0 / 601.0, 1.5), pinv)
    assert not calls[False] and (_pair_mask(g.n, calls[True]) == upper).all()


def test_peak_free_pass_not_taken_on_complete_graphs(iris_csv, monkeypatch):
    # every pair of a complete graph is an edge: the symmetric kernel takes
    # them all, and those it rejects the peak-scaled mode
    calls = _recording_pair_sums(monkeypatch)
    ds = load_features(iris_csv, has_labels=True, label_column="last")
    iris = knn_gaussian_graph(ds, GraphBuildParams(mu=1.0, sigma=1.0))
    for g in (generate("complete", n=12), iris):
        distance_matrices(g, (1.001, 2.9))
    assert not calls[False]


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("case", ["complete", "weighted", "knn", "half_iris"])
def test_distance_matrices_bytes_independent_of_workers(case, iris_csv,
                                                         monkeypatch):
    # small blocks give many column blocks and many tiles of pairs. The
    # symmetric tiles' row and column products are added in a fixed order
    # on the calling thread; the other pairs' tiles are fixed whatever the
    # thread count, and each run of them walks every column block and adds
    # only into its own sums, in block order. So every matrix has the same
    # bytes at any thread count
    if case in ("complete", "weighted"):
        monkeypatch.setattr(resistance, "_BLOCK_DROPS", 200)
        g = generate("complete", n=12)
        if case == "weighted":
            rng = np.random.default_rng(12)
            g = build_graph(g.n, [(a, b, float(rng.uniform(0.1, 1.0)))
                                  for a, b, _ in g.edges])
        ps = KERNEL_PS
    elif case == "knn":
        monkeypatch.setattr(resistance, "_BLOCK_DROPS", 2000)
        g = _half_iris(iris_csv, 0.1, 1.0)
        assert g.m < g.n * (g.n - 1) // 4
        ps = KERNEL_PS
    else:
        # at q = 1001 the fast passes' scale c^q overflows and every edge
        # pair takes the peak-scaled mode; at p = 1.1 and 2.9 alone they pass
        monkeypatch.setattr(resistance, "_BLOCK_DROPS", 20000)
        g = _half_iris(iris_csv, 1.0, 1.0)
        ps = (1.001, 1.1, 2.9)
    pinv = laplacian_pinv(g)
    calls = _recording_pair_sums(monkeypatch)
    # the threads that gather column blocks
    threads = []
    slab = resistance._slab

    def recording(*args):
        # the skip rule reads its bound off the slabs on the calling thread
        if sys._getframe(1).f_code.co_name != "_unit_scale":
            threads.append(threading.get_ident())
        return slab(*args)

    monkeypatch.setattr(resistance, "_slab", recording)
    base = [dm.matrix for dm in distance_matrices(g, ps, pinv, workers=1)]
    for workers in (2, 3):
        threads.clear()
        calls[False].clear()
        for want, dm in zip(base, distance_matrices(g, ps, pinv, workers=workers)):
            assert dm.matrix.tobytes() == want.tobytes(), (case, workers, dm.p)
        # every column block is gathered on the pool; only the k-NN graph
        # has pairs that are not edges, for the plain mode
        assert threads and threading.get_ident() not in threads
        assert bool(calls[False]) == (case == "knn")


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("case", ["peak_mode", "plain_walk"])
def test_distance_matrices_bytes_independent_of_p_order(case, iris_csv,
                                                        monkeypatch):
    # every tile takes its powers in one step, the last q in place over its
    # logs and the others in a spare buffer, and a pair rejected at some p
    # takes the peak-scaled mode at every p: which p comes last changes no
    # entry. Half of iris at mu = 1, sigma = 10 sends 207 edge pairs to the
    # peak-scaled mode at p = 1.01; the k-NN graph at mu = 0.1, sigma = 1
    # sends the pairs that are not edges to the plain mode
    if case == "peak_mode":
        g, ps = _half_iris(iris_csv, 1.0, 10.0), (1.01, 2.9)
    else:
        g, ps = _half_iris(iris_csv, 0.1, 1.0), (1.1, 2.9, 10.0)
    pinv = laplacian_pinv(g)
    calls = _recording_pair_sums(monkeypatch)
    base = [dm.matrix.tobytes() for dm in distance_matrices(g, ps, pinv, workers=1)]
    assert sum(a.size for a, _ in calls[True]) == (207 if case == "peak_mode" else 0)
    assert bool(calls[False]) == (case == "plain_walk")
    for workers in (1, 2, 3):
        got = distance_matrices(g, ps[::-1], pinv, workers=workers)
        assert [dm.matrix.tobytes() for dm in got[::-1]] == base, workers


def test_one_p_strips_match_the_grid_and_any_thread_count(iris_csv):
    # half of iris at mu = 1 is complete (m = 2775), so every pair takes
    # the symmetric pass. A one-p call takes its powers in place and walks
    # tiles of twice the drops of a grid call: its sums add in another
    # order, so its matrix agrees with the grid's to rounding, and it has
    # the same bytes at any thread count
    g = _half_iris(iris_csv, 1.0, 1.0)
    assert g.m == g.n * (g.n - 1) // 2
    pinv = laplacian_pinv(g)
    ps = (1.1, 2.9, 10.0)
    grid = distance_matrices(g, ps, pinv, workers=1)
    for p, want in zip(ps, grid):
        alone = [distance_matrices(g, (p,), pinv, workers=w)[0].matrix
                 for w in (1, 2, 3)]
        assert np.all(np.abs(alone[0] - want.matrix) <= 1e-13 * want.matrix), p
        assert all(m.tobytes() == alone[0].tobytes() for m in alone[1:]), p


def test_distance_matrices_run_strips_on_the_pool(monkeypatch):
    # with more than one worker every tile is logged on a pool thread: 200
    # drops make five column blocks of K_12's 66 edges
    monkeypatch.setattr(resistance, "_BLOCK_DROPS", 200)
    g = generate("complete", n=12)
    threads = []
    log = resistance._log

    def recording_log(x):
        threads.append(threading.get_ident())
        return log(x)

    monkeypatch.setattr(resistance, "_log", recording_log)
    distance_matrices(g, (3.0,), workers=2)
    assert threads and threading.get_ident() not in threads
    threads.clear()
    distance_matrices(g, (3.0,), workers=1)
    assert set(threads) == {threading.get_ident()}


def test_distance_matrices_threads_under_stress(monkeypatch):
    # more threads than cores, switching every microsecond: a lost or
    # misplaced row or column product would change the bytes
    monkeypatch.setattr(resistance, "_BLOCK_DROPS", 50)
    g = random_connected(24, 77)
    pinv = laplacian_pinv(g)
    base = [dm.matrix for dm in distance_matrices(g, KERNEL_PS, pinv, workers=1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [dm.matrix for dm in distance_matrices(g, KERNEL_PS, pinv, workers=8)]
    finally:
        sys.setswitchinterval(interval)
    assert [m.tobytes() for m in got] == [m.tobytes() for m in base]


def test_distance_matrices_threads_keep_the_callers_error_state(iris_csv):
    # at q = 1001 the peak-scaled mode's peak^q overflows on half of iris at
    # sigma = 10: under the caller's errstate that raises on every thread
    g = _half_iris(iris_csv, 1.0, 10.0)
    pinv = laplacian_pinv(g)
    for workers in (1, 2):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            distance_matrices(g, (1.001,), pinv, workers=workers)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("sigma", [0.01, 10.0])
def test_edge_pair_pass_skipped_where_no_edge_can_pass(iris_csv, sigma,
                                                       monkeypatch):
    # half of iris at mu = 1 and p = 1.001, q = 1001. The scale c is 1/16
    # at sigma = 0.01 and 1024 at sigma = 10, so c^q underflows to 0 or
    # overflows: the skip rule rules out every edge, neither the symmetric
    # pass nor the plain mode runs, and every edge takes the peak-scaled
    # mode, where the symmetric pass would have sent it. Run anyway, that
    # pass has every edge rejected at q = 1001 by the trust rule, which
    # keeps them all at p = 1.1 and 2.9. Skipped or not, the entries are
    # the same
    g = _half_iris(iris_csv, 1.0, sigma)
    pinv = laplacian_pinv(g)
    ps = (1.001, 1.1, 2.9)
    Lp = pinv.matrix
    before = Lp.copy()
    every = np.triu(np.ones((g.n, g.n), dtype=bool), 1)
    passes = []
    edge_pair_sums = resistance._edge_pair_sums

    def counting(Lp, c, g, qs, workers=1):
        passes.append(qs)
        return edge_pair_sums(Lp, c, g, qs, workers)

    monkeypatch.setattr(resistance, "_edge_pair_sums", counting)
    calls = _recording_pair_sums(monkeypatch)
    got = [dm.matrix for dm in distance_matrices(g, ps, pinv)]
    assert not passes and not calls[False]
    assert (_pair_mask(g.n, calls[True]) == every).all()
    # at p = 1.1 and 2.9 alone the pass scales the drops it gathers, keeps
    # every edge and leaves L+ with its bytes
    calls[True].clear()
    distance_matrices(g, ps[1:], pinv)
    assert len(passes) == 1 and not calls[True]
    assert Lp.tobytes() == before.tobytes()
    # without the skip rule the pass runs, and every edge is rejected at
    # q = 1001
    unit_scale = resistance._unit_scale

    def no_skip(*args):
        c, scale, live = unit_scale(*args)
        return c, scale, every

    monkeypatch.setattr(resistance, "_unit_scale", no_skip)
    passes.clear()
    calls[True].clear()
    for want, dm in zip(got, distance_matrices(g, ps, pinv)):
        assert dm.matrix.tobytes() == want.tobytes()
    assert len(passes) == 1 and not calls[False]
    assert (_pair_mask(g.n, calls[True]) == every).all()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_edge_pairs_fall_back_where_the_pinv_is_wrong(iris_csv, monkeypatch):
    # half of iris at mu = 1, sigma = 10: like that cell on all of iris
    # (ROADMAP item 1) its L+ has dropped lambda_2 = 1.4e-14 and has rank
    # n - 2. At p = 1.01 the sums of some edge pairs
    # fall below the floor (207 of 2775 here) and those edges take the
    # peak-scaled mode. At every p the entries agree with the
    # peak-scaled reference on the same L+ wherever it is finite and
    # positive
    g = _half_iris(iris_csv, 1.0, 10.0)
    pinv = laplacian_pinv(g)
    calls = _recording_pair_sums(monkeypatch)
    for p in (1.01, 1.1, 2.9, 100.0):
        calls[True].clear()
        got = distance_matrices(g, (p,), pinv)[0].matrix
        if p == 1.01:
            assert sum(a.size for a, _ in calls[True]) > 0
        want = _row_peak_reference(g, pinv, conjugate_exponent(p))
        good = np.isfinite(want) & (want > 0.0)
        np.fill_diagonal(good, False)
        assert good.sum() > g.m, p
        assert np.all(np.abs(got[good] - want[good]) <= 1e-12 * want[good]), p


def test_iris_grid_cells_send_no_pair_to_the_row_path(iris_csv, monkeypatch):
    # the five connected cells of the benchmark's iris slices (mu = 1) at
    # their slice p: every pair is an edge and the symmetric pass keeps
    # them all
    ds = load_features(iris_csv, has_labels=True, label_column="last")
    calls = _recording_pair_sums(monkeypatch)
    for sigma, p in ((1e-3, 1.1), (1e-2, 10.0), (1e-1, 1.7), (1.0, 2.9),
                     (10.0, 100.0)):
        g = knn_gaussian_graph(ds, GraphBuildParams(mu=1.0, sigma=sigma))
        distance_matrices(g, (p,))
        assert sum(a.size for a, _ in calls[True]) == 0, sigma
        assert not calls[False], sigma


def _edge_pass_tiles(n, m, block, n_q):
    # the (rows, columns, square) of each tile of the symmetric pass: column
    # blocks of block // n edges; above each block, tiles of the full block
    # width holding about max(budget, m) drops; in it, four strips with
    # their squares. A tile at one q takes its powers in place and holds
    # twice the drops of one at several q
    budget = block * (2 if n_q == 1 else 1)
    width = max(1, block // n)
    out = []
    for s in range(m - 1 - (m - 1) % width, -1, -width):
        t = min(m, s + width)
        k = t - s
        rows = max(1, max(budget, m) // k)
        strip = min(rows, -(-k // 4))
        out += [(min(s, r + rows) - r, k, 0) for r in range(0, s, rows)]
        out += [(min(t, r + strip) - r, t - r, min(t, r + strip) - r)
                for r in range(s, t, strip)]
    return out


def test_distance_matrices_log_each_edge_pair_drop_once(monkeypatch):
    # on a complete graph every pair is an edge: the kernel logs each
    # (edge, edge) drop of the strict upper triangle once however many p,
    # and each strip of k rows in a column block logs the k (k + 1) / 2
    # entries of its square on and below the diagonal as 1s; with several
    # strips that stays below the m^2 logs of taking each edge pair alone.
    # Each tile is one log
    g = generate("complete", n=40)
    n, m = g.n, g.m
    logged = []
    log = resistance._log

    def counting_log(x):
        logged.append(x.size)
        return log(x)

    monkeypatch.setattr(resistance, "_log", counting_log)
    for block in (resistance._BLOCK_DROPS, 2000, 1):
        monkeypatch.setattr(resistance, "_BLOCK_DROPS", block)
        for ps in ((3.0,), (1.5, 2.0, 3.0, 10.0)):
            tiles = _edge_pass_tiles(n, m, block, 1 if len(ps) == 1 else 3)
            squares = [k for _, _, k in tiles if k]
            assert sum(k * (k - 1) // 2 + k * (c - k) for _, c, k in tiles if k) \
                + sum(r * c for r, c, k in tiles if not k) == m * (m - 1) // 2
            want = m * (m - 1) // 2 + sum(k * (k + 1) // 2 for k in squares)
            assert len(squares) > 1 and want < m * m, block
            logged.clear()
            distance_matrices(g, ps, workers=1)
            assert logged == [r * c for r, c, _ in tiles], (block, ps)
            assert sum(logged) == want, (block, ps)


def test_edge_pair_sums_work_in_a_few_blocks(iris_csv, monkeypatch):
    # full iris is complete, m = 11175: at one worker the symmetric pass
    # holds its tile buffers, one column block's slab, the sums and one
    # block's products, not index arrays over every entry of the strips'
    # squares
    ds = load_features(iris_csv, has_labels=True, label_column="last")
    g = knn_gaussian_graph(ds, GraphBuildParams(mu=1.0, sigma=0.01))
    pinv = laplacian_pinv(g)
    peaks = []
    edge_pair_sums = resistance._edge_pair_sums

    def measured(*args):
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        sums = edge_pair_sums(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - entry)
        return sums

    monkeypatch.setattr(resistance, "_edge_pair_sums", measured)
    tracemalloc.start()
    try:
        distance_matrices(g, (2.9,), pinv, workers=1)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 1
    assert peaks[0] <= 6 * resistance._BLOCK_DROPS * 8, peaks


def test_complete_graph_never_holds_its_drops_array(iris_csv):
    # full iris at mu = 1 is complete: its drops array L+ C^T would take
    # n m = 1.68M floats (13.4 MB). The kernel reads L+ one column block at
    # a time, so the whole call at p = 10 stays a few MiB above its entry
    ds = load_features(iris_csv, has_labels=True, label_column="last")
    g = knn_gaussian_graph(ds, GraphBuildParams(mu=1.0, sigma=0.01))
    assert g.m == g.n * (g.n - 1) // 2
    pinv = laplacian_pinv(g)
    peak = _kernel_peak(g, (10.0,), pinv)
    assert peak < 4 * 2**20 < g.n * g.m * 8, peak


def _blob_knn_graph(n=300, seed=0):
    # n points in eight Gaussian blobs in 4-d (centres from N(0, 3^2), unit
    # noise) and their union k-NN graph at mu = 0.04 (k = 12), sigma = 0.5:
    # the sparse graph of the staged command line's benchmark
    rng = np.random.default_rng(seed)
    centres = rng.normal(0.0, 3.0, size=(8, 4))
    X = centres[rng.integers(0, 8, size=n)] + rng.normal(size=(n, 4))
    return knn_gaussian_graph(FeatureDataset(X=X, labels=None), GraphBuildParams(
        mu=0.04, sigma=0.5, on_disconnect="largest_component"))


def _kernel_peak(g, ps, pinv):
    # the tracemalloc peak of one call at one worker, above its entry, in
    # bytes
    return traced_peak(distance_matrices, g, ps, pinv, workers=1)[1] * 8


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("p", [10.0, 1.001])
def test_knn_graph_never_holds_its_drops_array(p):
    # the k-NN graph of 300 blob points (m = 2330): its drops array L+ C^T
    # would take n m floats (5.6 MB), and the kernel peaked at 9.7 MB while
    # it held the array. Walking column blocks, the kernel holds O(n^2)
    # floats for its pairs and O(`_BLOCK_DROPS`) per worker: 2.7 MB at
    # p = 10, where the plain mode takes every pair that is not an edge,
    # and 3.9 MB at p = 1.001, where every such pair takes the peak-scaled
    # mode
    g = _blob_knn_graph()
    assert g.n == 300 and g.m < g.n * (g.n - 1) // 10
    bound = (4 * g.n**2 + 3 * resistance._BLOCK_DROPS) * 8
    assert _kernel_peak(g, (p,), laplacian_pinv(g)) < bound < g.n * g.m * 8


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("ps", [(1.1, 2.9, 10.0), (1.001,)],
                         ids=["edge_pass", "peak_mode"])
def test_no_path_builds_the_drops_array(ps, iris_csv, monkeypatch):
    # half of iris at mu = 1 is complete (n = 75, m = 2775). At p = 1.1,
    # 2.9 and 10 the symmetric pass keeps every edge pair; at p = 1.001
    # every edge pair takes the peak-scaled mode. Either way the kernel
    # holds O(n^2) floats per p and O(`_BLOCK_DROPS`) per worker, well
    # below the n m floats of the drops array
    monkeypatch.setattr(resistance, "_BLOCK_DROPS", 8192)
    g = _half_iris(iris_csv, 1.0, 1.0)
    assert g.m == g.n * (g.n - 1) // 2
    pinv = laplacian_pinv(g)
    calls = _recording_pair_sums(monkeypatch)
    bound = (3 * len(ps) * g.n**2 + 6 * resistance._BLOCK_DROPS) * 8
    assert _kernel_peak(g, ps, pinv) < bound < g.n * g.m * 8 / 2
    assert not calls[False]
    assert bool(calls[True]) == (ps == (1.001,))


def test_many_column_blocks_match_the_reference_at_any_thread_count(
        iris_csv, monkeypatch):
    # full iris at mu = 1 in column blocks of 40 edges: 280 blocks, each
    # with its tiles above it and its four strips. At p = 10, the paper's
    # best iris cell, the matrix has the same bytes at 1, 2 and 3 workers
    # and matches the metric from its definition on numpy's pinv on sampled
    # pairs
    monkeypatch.setattr(resistance, "_BLOCK_DROPS", 6000)
    ds = load_features(iris_csv, has_labels=True, label_column="last")
    g = knn_gaussian_graph(ds, GraphBuildParams(mu=1.0, sigma=0.01))
    assert -(-g.m // (6000 // g.n)) == 280
    rng = np.random.default_rng(6)
    a, b = np.array([rng.choice(g.n, size=2, replace=False)
                     for _ in range(200)]).T
    Y = np.linalg.pinv(laplacian(g))
    Y = Y[:, a] - Y[:, b]
    drops = np.abs(Y[g.ei] - Y[g.ej])
    pinv = laplacian_pinv(g)
    got = [distance_matrices(g, (10.0,), pinv, workers=workers)[0].matrix
           for workers in (1, 2, 3)]
    assert all(m.tobytes() == got[0].tobytes() for m in got[1:])
    want = g.w @ drops ** conjugate_exponent(10.0)
    assert np.all(np.abs(got[0][a, b] - want) <= 1e-12 * want)


def test_knn_column_blocks_match_the_reference_at_any_thread_count(monkeypatch):
    # the k-NN graph of 300 blob points in column blocks of 20 edges: 117
    # blocks, each of which every tile of row pieces walks. At p = 1.5 and
    # 10 the matrices have the same bytes at 1, 2 and 3 workers; at p = 10
    # they match the metric from its definition on numpy's pinv on sampled
    # pairs (5e-13 relative here; at p = 1.5 the two pseudoinverses alone
    # put some entries 1.9e-12 apart)
    monkeypatch.setattr(resistance, "_BLOCK_DROPS", 6000)
    g = _blob_knn_graph()
    assert -(-g.m // (6000 // g.n)) == 117
    calls = _recording_pair_sums(monkeypatch)
    pinv = laplacian_pinv(g)
    ps = (1.5, 10.0)
    got = [distance_matrices(g, ps, pinv, workers=workers) for workers in (1, 2, 3)]
    assert calls[False] and not calls[True]
    for dms in got[1:]:
        assert [dm.matrix.tobytes() for dm in dms] == [dm.matrix.tobytes() for dm in got[0]]
    rng = np.random.default_rng(7)
    pairs = [tuple(map(int, rng.choice(g.n, size=2, replace=False))) for _ in range(200)]
    _assert_matrices_match_pinv_reference(g, pairs, (10.0,), tol=1e-12)


@pytest.mark.parametrize("order", ["runs", "scattered"])
def test_drop_rows_match_the_plain_difference(order, monkeypatch):
    # the rows of a tile, from a column block's slab: rows in long runs
    # (one a, consecutive b), as the pairs that are not edges come, take a
    # subtract per run; scattered rows, as a k-NN graph's edges come, are
    # gathered a chunk at a time. Both give the bytes of the plain row
    # difference
    monkeypatch.setattr(resistance, "_BLOCK_DROPS", 200)
    rng = np.random.default_rng(3)
    drops = rng.normal(size=(30, 17))
    if order == "runs":
        a, b = np.repeat([2, 9], 12), np.concatenate([np.arange(12)] * 2)
    else:
        a, b = rng.integers(0, 30, size=(2, 24))
    for start in (0, 5):
        out = np.empty((24, 17 - start))
        resistance._drop_rows(drops, a, b, start, out)
        assert out.tobytes() == (drops[a, start:] - drops[b, start:]).tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_approx_kernel_identical_endpoints_give_zero():
    # zero drops log to -inf and add exactly 0, also inside a tile of pairs,
    # in the plain mode (drops divided by c = 4) and the peak-scaled mode.
    # Vertex 3's slab row is 0, so pair (v, 3) drops row v of the target;
    # pair (1, 1) has identical endpoints
    target = np.array([[0.0, 0.0], [1.0, -2.0], [0.0, 0.0]])
    g, L = _unit_drops_graph(target)
    a, b = np.array([0, 1, 2, 1]), np.array([3, 3, 3, 1])
    qs = (1.001, 1.5, 11.0)
    for c, peak in ((4.0, False), (1.0, True)):
        sums = resistance._pair_sums(L, c, g, qs, resistance._pair_pieces(a, b),
                                     np.zeros((len(qs), a.size)), peak=peak)
        assert np.all(sums[:, [0, 2, 3]] == 0.0), peak
        for k, q in enumerate(qs):
            want = g.w @ (np.abs(target[1]) / c) ** q
            assert sums[k, 1] == pytest.approx(want, rel=1e-14), (peak, q)
    g = random_connected(8, 31)
    for form in ("metric", "resistance"):
        for dm in distance_matrices(g, KERNEL_PS, form=form):
            assert np.all(np.diag(dm.matrix) == 0.0)
            off = dm.matrix[~np.eye(g.n, dtype=bool)]
            assert np.all(off > 0.0)


def test_distance_matrices_validation():
    g = random_connected(5, 8)
    assert distance_matrices(g, ()) == []
    with pytest.raises(InvalidP):
        distance_matrices(g, (3.0, 1.0))
    with pytest.raises(InvalidP):
        distance_matrices(g, (3.0,), form="cube")
    with pytest.raises(FingerprintMismatch):
        distance_matrices(g, (3.0,), pinv=laplacian_pinv(random_connected(5, 9)))


@pytest.mark.parametrize("workers", [0, -4])
def test_worker_count_below_one_is_rejected(workers):
    # as the CLI's --workers is; None still means the cores available
    g = random_connected(5, 8)
    with pytest.raises(InvalidParams):
        distance_matrices(g, (3.0,), workers=workers)
    for mode in ("approx", "exact"):
        with pytest.raises(InvalidParams):
            distance_matrix(g, 3.0, mode=mode, workers=workers)
    assert distance_matrices(g, (3.0,), workers=None)[0].n == g.n


def test_shortest_path_unreachable_is_inf():
    # build_graph refuses disconnected input; the Graph type itself does not
    g = Graph(4, np.array([1, 3]), np.array([0, 2]), np.array([1.0, 2.0]))
    assert shortest_path(g, 0, 3) == np.inf
    assert shortest_path(g, 0, 3, weighted=False) == np.inf
    assert shortest_path(g, 2, 3) == 2.0


def test_rayleigh_monotonicity():
    rng = np.random.default_rng(10)
    for seed in range(5):
        g = random_connected(7, 600 + seed)
        present = {(i, j) for i, j, _ in g.edges}
        missing = [(i, j) for i in range(7) for j in range(i) if (i, j) not in present]
        if not missing:
            continue
        i, j = missing[0]
        g2 = build_graph(7, list(g.edges) + [(i, j, 1.0)])
        for p in (1.5, 3.0):
            a = exact_presistance(g, p, 0, 6, TIGHT)
            b = exact_presistance(g2, p, 0, 6, TIGHT)
            assert b <= a * (1 + 1e-6)


def test_approx_against_independent_stack():
    # cross-check the whole approx pipeline (incidence, pseudoinverse,
    # seminorm, exponents) against networkx + scipy primitives
    networkx = pytest.importorskip("networkx")
    import scipy.linalg

    rng = np.random.default_rng(31)
    for seed in range(4):
        g = random_connected(9, 700 + seed)
        nxg = networkx.Graph()
        nxg.add_nodes_from(range(g.n))
        for i, j, w in g.edges:
            nxg.add_edge(i, j, weight=w)
        L_nx = networkx.laplacian_matrix(nxg, weight="weight").toarray()
        Lp_nx = scipy.linalg.pinv(L_nx)
        pinv = laplacian_pinv(g)
        assert np.abs(pinv.matrix - Lp_nx).max() <= 1e-9
        for p in (1.5, 3.0):
            q = p / (p - 1.0)
            i, j = map(int, rng.choice(g.n, size=2, replace=False))
            y = Lp_nx[:, i] - Lp_nx[:, j]
            acc = sum(w * abs(y[a] - y[b]) ** q for a, b, w in g.edges)
            expected = acc ** (p / q)
            got = approx_presistance(g, p, i, j, pinv)
            assert got == pytest.approx(expected, rel=1e-9)


def _harmonic_extension(g, i, j):
    # independent p = 2 potentials: L+ (e_i - e_j) from a dense
    # pseudoinverse, shifted and scaled to pin i at 1 and j at 0
    Lp = np.linalg.pinv(laplacian(g))
    y = Lp[:, i] - Lp[:, j]
    return (y - y[j]) / (y[i] - y[j])


def _solver_start(monkeypatch, g, i, j):
    # with every Newton stage replaced by one that takes no step, the
    # report carries the potentials the solver starts from
    monkeypatch.setattr(resistance, "_newton", lambda x, *args: (x, 0.0, 0))
    return ssl_solve(g, 3.0, i, j, pinv=laplacian_pinv(g)).potentials


def test_p2_start_is_harmonic_extension_random_graphs(monkeypatch):
    rng = np.random.default_rng(23)
    for seed in range(6):
        g = random_connected(int(rng.integers(3, 30)), 1000 + seed,
                             edge_prob=float(rng.uniform(0.1, 0.6)))
        for _ in range(3):
            i, j = map(int, rng.choice(g.n, size=2, replace=False))
            x = _solver_start(monkeypatch, g, i, j)
            assert x[i] == 1.0 and x[j] == 0.0
            assert np.abs(x - _harmonic_extension(g, i, j)).max() <= 1e-12


def test_p2_start_is_harmonic_extension_iris(iris_csv, monkeypatch):
    ds = load_features(iris_csv, has_labels=True, label_column="last")
    g = knn_gaussian_graph(ds, GraphBuildParams(mu=1.0, sigma=1.0))
    rng = np.random.default_rng(5)
    for i, j in [(0, 149)] + [tuple(map(int, rng.choice(g.n, size=2, replace=False)))
                              for _ in range(4)]:
        x = _solver_start(monkeypatch, g, i, j)
        assert x[i] == 1.0 and x[j] == 0.0
        assert np.abs(x - _harmonic_extension(g, i, j)).max() <= 1e-12


def test_exact_route_rejects_mismatched_pinv():
    g = generate("path", n=4)
    other = laplacian_pinv(generate("cycle", n=4))
    with pytest.raises(FingerprintMismatch):
        ssl_solve(g, 3.0, 0, 3, pinv=other)
    with pytest.raises(FingerprintMismatch):
        distance_matrix(g, 3.0, mode="exact", pinv=other)


def test_exact_route_fails_a_singular_graph(iris_csv):
    # at sigma = 100 the iris weights span hundreds of orders of magnitude
    # and neither pseudoinverse route holds; the exact route fails as the
    # approximate one does instead of returning a value near 1e56
    ds = load_features(iris_csv, has_labels=True, label_column="last")
    g = knn_gaussian_graph(ds, GraphBuildParams(mu=1.0, sigma=100.0))
    with pytest.raises(SingularShift):
        ssl_solve(g, 3.0, 0, 149)


def test_exact_distance_matrix_computes_one_pinv(pinv_builds):
    g = random_connected(8, 31)
    pinv = laplacian_pinv(g)
    computed = distance_matrix(g, 3.0, mode="exact", cfg=TIGHT, workers=1)
    assert pinv_builds == [g]
    passed = distance_matrix(g, 3.0, mode="exact", cfg=TIGHT, pinv=pinv, workers=1)
    assert pinv_builds == [g]
    assert np.array_equal(computed.matrix, passed.matrix)


def test_exact_presistance_takes_the_graphs_pinv(pinv_builds):
    # the pinv passed in is used; left out, it is computed
    g = random_connected(8, 31)
    pinv = laplacian_pinv(g)
    passed = exact_presistance(g, 3.0, 0, 5, TIGHT, pinv)
    assert not pinv_builds
    assert exact_presistance(g, 3.0, 0, 5, TIGHT) == passed
    assert pinv_builds == [g]


@pytest.mark.parametrize("suite, graphs", [
    ("suite_tree_exactness", 12),
    ("suite_sandwich", 10),
    ("suite_limits", 10),
    # each case factors its graph and the graph with one more edge
    ("suite_rayleigh_monotonicity", 20),
])
def test_exact_verify_suites_factor_each_graph_once(pinv_builds, suite, graphs):
    assert getattr(verify, suite)(0) == []
    assert len(pinv_builds) == graphs
    assert len({id(g) for g in pinv_builds}) == graphs


def test_solver_never_beats_its_start_energy():
    # the descent is monotone: the final energy never exceeds the energy of
    # the p = 2 potentials it starts from
    rng = np.random.default_rng(17)
    for seed in range(5):
        g = random_connected(9, 800 + seed)
        i, j = map(int, rng.choice(9, size=2, replace=False))
        p = float(rng.choice([1.3, 2.5, 7.0]))
        start = p_energy(g, _harmonic_extension(g, i, j), p)
        assert ssl_solve(g, p, i, j).energy <= start * (1 + 1e-12)


def test_limits_on_structured_graphs():
    # p -> 1: resistance approaches 1/mincut; p -> inf: metric approaches
    # hop distance (checked in full in the acceptance suite)
    cases = [
        (generate("broom_a", delta=3, zeta=3), 0, 7),
        (generate("cycle", n=6), 0, 3),
        (generate("star", n=6), 1, 2),
    ]
    for g, i, j in cases:
        r = exact_presistance(g, 1.05, i, j, TIGHT)
        assert abs(r * mincut(g, i, j) - 1) <= 0.10
        r = exact_presistance(g, 50.0, i, j, TIGHT)
        hop = shortest_path(g, i, j, weighted=False)
        assert abs(r ** (1 / 49.0) / hop - 1) <= 0.10
