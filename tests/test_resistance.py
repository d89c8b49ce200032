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
from presistance import resistance
from presistance.errors import (
    DimensionMismatch,
    FingerprintMismatch,
    InvalidP,
    SingularShift,
)
from presistance.numerics import conjugate_exponent
from presistance.resistance import (
    _approx_sums,
    _edge_kernel,
    _hessian,
    _hessian_layout,
)
from presistance.verify import clear_faults, inject_fault

from conftest import (
    brute_force_mincut,
    hop_distance_bfs,
    random_connected,
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
    for bad in (0.0, -1e-8, float("nan")):
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
    ei, ej, w = g.ei, g.ej, g.w
    y = pinv.matrix[:, 1] - pinv.matrix[:, 1]
    assert _approx_sums((y[ei] - y[ej])[None, :], w, (1.5,))[0, 0] == 0.0


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
    # edge pairs take the symmetric kernel, the others the row path
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
    # as one strip, one square; 200 drops make strips of 3 to 12 rows, each
    # with its square and the block right of it
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


def _assert_independent_of_block_size(g, monkeypatch):
    pinv = laplacian_pinv(g)
    base = [dm.matrix for dm in distance_matrices(g, KERNEL_PS, pinv)]
    for drops in (1, g.n * g.m):
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
    _assert_independent_of_block_size(g, monkeypatch)


def test_distance_matrices_independent_of_block_size_sparse(iris_csv,
                                                             monkeypatch):
    # the k-NN graph of half of iris at mu = 0.1: 995 of its 1225 pairs are
    # not edges and take the peak-free row pass, in blocks of one pair and
    # in one block of all of them
    g = _half_iris(iris_csv, 0.1, 1.0)
    assert g.m < g.n * (g.n - 1) // 4
    _assert_independent_of_block_size(g, monkeypatch)


def _row_peak_reference(g, pinv, q):
    # the metric of every pair with its drops scaled by their peak, as the
    # peak-scaled row path takes it
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
    # scale c^q overflows, so every edge pair takes the row path. The
    # reference scales each pair's drops by their peak, as the row path
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
    # the pairs (a, b) of each `_pair_sums` call, by whether it scales them
    # by their peak (the row path) or not (the peak-free pass)
    calls = {True: [], False: []}
    pair_sums = resistance._pair_sums

    def recording(drops, w, qs, a, b, workers=1, peak=True):
        calls[peak].append((a.copy(), b.copy()))
        return pair_sums(drops, w, qs, a, b, workers, peak)

    monkeypatch.setattr(resistance, "_pair_sums", recording)
    return calls


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("sigma", [1.0, 10.0])
def test_peak_free_pass_falls_back_to_row_peak(iris_csv, sigma, monkeypatch):
    # the k-NN graph of half of iris at mu = 0.1. At p = 1.001, q = 1001,
    # a pair's drops scaled to at most 1 mostly leave its sum below the
    # floor (or c^q out of range): the pairs that are not edges go back to
    # the peak-scaled row path (all 995 here at both sigma), and where its
    # reference is finite and positive (246 and 38 entries) they agree with
    # it. At p = 1.1 and 2.9 no pair goes back
    g = _half_iris(iris_csv, 0.1, sigma)
    pinv = laplacian_pinv(g)
    edge = np.zeros((g.n, g.n), dtype=bool)
    edge[g.ej, g.ei] = True
    calls = _recording_pair_sums(monkeypatch)
    got = distance_matrices(g, (1.001,), pinv)[0].matrix
    back = sum(np.count_nonzero(~edge[a, b]) for a, b in calls[True])
    assert back > 0
    # the bound from the rows' largest drops keeps most of them out of the
    # pass (10 of 995 enter it at sigma = 1, none at sigma = 10)
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
        assert sum(a.size for a, _ in calls[False]) == np.count_nonzero(
            np.triu(~edge, 1)), p


def test_peak_free_pass_rejects_sums_below_the_floor():
    # three rows of drops over two edges; the largest is 0.3, so the scale
    # is c = 1. Pair (0, 1) drops 0.3 on both edges: at q = 602 its sum is
    # a subnormal 2.53e-315 that has kept only 8 digits, below the floor,
    # though its bound from the rows' largest drops (0.6^602) is above it,
    # so the skip rule lets every pair in. Pair (0, 2) underflows to 0.
    # Both are not ok at q = 602 under the trust rule, and every ok entry
    # matches its sum from the definition
    drops = np.array([[0.3, 0.0], [0.0, -0.3], [0.1, 0.2]])
    before = drops.copy()
    w = np.array([1.0, 0.5])
    a, b = np.array([0, 0, 1]), np.array([1, 2, 2])
    qs = (602.0, 3.0)
    floor = 2 * resistance._SUM_FLOOR
    c, scale, live = resistance._unit_scale(drops, w, qs, a, b, floor)
    assert c == 1.0 and live.all()
    assert drops.tobytes() == before.tobytes()
    # times 2^20 the bounds relative to c keep their values, but c^602
    # overflows: no pair is let in
    _, _, live = resistance._unit_scale(drops * 2.0**20, w, qs, a, b, floor)
    assert not live.any()
    sums = resistance._pair_sums(drops / c, w, qs, a, b, peak=False)
    metric, ok = resistance._trusted(sums, scale, floor)
    assert ok.tolist() == [[False, False, True], [True, True, True]]
    d = np.abs(before[a] - before[b])
    for k, q in enumerate(qs):
        want = d**q @ w
        assert np.all(np.abs(metric[k, ok[k]] - want[ok[k]]) <= 1e-13 * want[ok[k]])


def test_peak_free_pass_not_taken_on_complete_graphs(iris_csv, monkeypatch):
    # every pair of a complete graph is an edge: the symmetric kernel takes
    # them all, and those it rejects the peak-scaled row path
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
    # small blocks give many strips and many row blocks. The strips' row
    # and column products are added in strip order on the calling thread
    # and the row blocks write disjoint columns, so every matrix has the
    # same bytes at any thread count
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
        # pair takes the row path; at p = 1.1 and 2.9 alone they would pass
        monkeypatch.setattr(resistance, "_BLOCK_DROPS", 20000)
        g = _half_iris(iris_csv, 1.0, 1.0)
        ps = (1.001, 1.1, 2.9)
    pinv = laplacian_pinv(g)
    # the threads that take the peak-free pass's blocks
    threads = []
    approx_sums = resistance._approx_sums

    def recording(drops, w, qs, peak=True, power=None):
        if not peak:
            threads.append(threading.get_ident())
        return approx_sums(drops, w, qs, peak, power)

    monkeypatch.setattr(resistance, "_approx_sums", recording)
    base = [dm.matrix for dm in distance_matrices(g, ps, pinv, workers=1)]
    for workers in (2, 3):
        threads.clear()
        for want, dm in zip(base, distance_matrices(g, ps, pinv, workers=workers)):
            assert dm.matrix.tobytes() == want.tobytes(), (case, workers, dm.p)
        if case == "knn":
            # every block on the pool; a run holds at most an eighth of
            # them, so 2 blocks or more make more than one run
            assert threading.get_ident() not in threads
            assert len(threads) > 1
        else:
            assert not threads


def test_one_p_strips_match_the_grid_and_any_thread_count(iris_csv):
    # half of iris at mu = 1 is complete (m = 2775), so every pair takes
    # the symmetric pass. A one-p call takes its powers in place and walks
    # strips of twice the drops of a grid call: its sums add in another
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
    # with more than one worker every strip is logged on a pool thread
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
    # at q = 1001 the row path's peak^q overflows on half of iris at
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
    # overflows: the skip rule rules out every edge, the fast passes take
    # no log, and every edge takes the row path, where the symmetric pass
    # would have sent it. Run anyway, that pass rejects every edge at
    # q = 1001 under the trust rule and keeps them all at p = 1.1 and 2.9.
    # Skipped or not, the entries are the same
    g = _half_iris(iris_csv, 1.0, sigma)
    pinv = laplacian_pinv(g)
    ps = (1.001, 1.1, 2.9)
    qs = tuple(conjugate_exponent(p) for p in ps)
    drops = np.take(pinv.matrix.T, g.ei, axis=1) - np.take(pinv.matrix.T, g.ej, axis=1)
    before = drops.copy()
    got = [dm.matrix for dm in distance_matrices(g, ps, pinv)]
    logged = []
    log = resistance._log

    def counting_log(x):
        logged.append(x.size)
        return log(x)

    monkeypatch.setattr(resistance, "_log", counting_log)
    _, ok = resistance._fast_metrics(drops, g, qs, g.ej, g.ei)
    assert not logged and not ok.any()
    # at p = 1.1 and 2.9 alone the pass runs in place on the drops, keeps
    # every edge and gives the drops back with their bytes
    _, ok = resistance._fast_metrics(drops, g, qs[1:], g.ej, g.ei)
    assert logged and ok.all()
    assert drops.tobytes() == before.tobytes()
    # without the skip rule the pass runs, and rejects every edge at q = 1001
    floor = g.m * max(1.0, g.w.max()) * resistance._SUM_FLOOR
    c, scale, live = resistance._unit_scale(drops, g.w, qs, g.ej, g.ei, floor)
    assert not live.any()
    logged.clear()
    sums = resistance._edge_pair_sums(drops / c, g, qs)
    _, ok = resistance._trusted(sums, scale, floor)
    assert logged and not ok[0].any() and ok[1:].all()
    unit_scale = resistance._unit_scale

    def no_skip(*args):
        c, scale, live = unit_scale(*args)
        return c, scale, np.ones_like(live)

    monkeypatch.setattr(resistance, "_unit_scale", no_skip)
    monkeypatch.setattr(resistance, "_log", log)
    for want, dm in zip(got, distance_matrices(g, ps, pinv)):
        assert dm.matrix.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_edge_pairs_fall_back_where_the_pinv_is_wrong(iris_csv, monkeypatch):
    # half of iris at mu = 1, sigma = 10: like that cell on all of iris
    # (ROADMAP item 1) its L+ has dropped lambda_2 = 1.4e-14 and has rank
    # n - 2. At p = 1.01 the sums of some edge pairs
    # fall below the floor (207 of 2775 here) and those edges take the
    # peak-scaled row path. At every p the entries agree with the
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


def test_distance_matrices_log_each_edge_pair_drop_once(monkeypatch):
    # on a complete graph every pair is an edge: the kernel logs each
    # (edge, edge) drop of the strict upper triangle once however many p,
    # and each strip of k rows logs the k (k + 1) / 2 entries of its square
    # on and below the diagonal as 1s; with several strips that stays below
    # the row path's m^2 logs. A strip at one q, whose powers need no
    # second buffer, takes twice the drops of one at several q
    g = generate("complete", n=40)
    m = g.m
    logged = []
    log = resistance._log

    def counting_log(x):
        logged.append(x.size)
        return log(x)

    monkeypatch.setattr(resistance, "_log", counting_log)
    for block in (resistance._BLOCK_DROPS, 2000, 1):
        monkeypatch.setattr(resistance, "_BLOCK_DROPS", block)
        for ps in ((3.0,), (1.5, 2.0, 3.0, 10.0)):
            budget = block * (2 if len(ps) == 1 else 1)
            ks = []
            s = 0
            while s < m:
                ks.append(min(m - s, max(1, budget // (m - s))))
                s += ks[-1]
            want = m * (m - 1) // 2 + sum(k * (k + 1) // 2 for k in ks)
            assert len(ks) > 1 and want < m * m, block
            logged.clear()
            distance_matrices(g, ps)
            assert len(logged) == len(ks), (block, ps)
            assert sum(logged) == want, (block, ps)


def test_edge_pair_sums_work_in_a_few_blocks(iris_csv, monkeypatch):
    # full iris is complete, m = 11175: at one worker the symmetric pass
    # holds its strip buffers, the sums and a few strips' products, not
    # index arrays over every entry of the strips' squares
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


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_approx_kernel_identical_endpoints_give_zero():
    # zero drops log to -inf and add exactly 0, also inside a block of pairs
    w = np.array([1.0, 2.0, 0.5])
    drops = np.array([[0.0, 0.0, 0.0], [1.0, -2.0, 0.5], [0.0, 0.0, 0.0]])
    qs = (1.001, 1.5, 11.0)
    sums = _approx_sums(drops.copy(), w, qs)
    assert np.all(sums[:, [0, 2]] == 0.0)
    for k, q in enumerate(qs):
        assert sums[k, 1] == pytest.approx(w @ np.abs(drops[1]) ** q, rel=1e-14)
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
