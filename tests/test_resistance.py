import numpy as np
import pytest

from presistance import (
    PairQuery,
    SolverConfig,
    approx_metric,
    approx_presistance,
    build_graph,
    distance_matrix,
    exact_presistance,
    export_distance_csv,
    generate,
    laplacian_pinv,
    load_distance_matrix,
    mincut,
    p_energy,
    p_energy_gradient,
    save_distance_matrix,
    shortest_path,
    ssl_solve,
)
from presistance.errors import DimensionMismatch, FingerprintMismatch, InvalidP
from presistance.resistance import _pair_seminorm_pow_q

from conftest import (
    brute_force_mincut,
    hop_distance_bfs,
    random_connected,
    tree_series_presistance,
)

TIGHT = SolverConfig(grad_tol=1e-10)


def test_pair_query_validation():
    with pytest.raises(DimensionMismatch):
        PairQuery(2, 2, 3.0)
    with pytest.raises(InvalidP):
        PairQuery(0, 1, 1.0)


def test_solver_config_validation():
    with pytest.raises(InvalidP):
        SolverConfig(grad_tol=0.0)
    with pytest.raises(InvalidP):
        SolverConfig(max_iter=0)
    with pytest.raises(InvalidP):
        SolverConfig(init="magic")


def test_exact_single_edge_inverse_weight():
    for w in (0.5, 1.0, 2.0):
        g = build_graph(2, [(1, 0, w)])
        for p in (1.5, 2.0, 3.0):
            r, rep = exact_presistance(g, PairQuery(0, 1, p), TIGHT)
            assert r == pytest.approx(1.0 / w)
            assert rep.energy == pytest.approx(w)


def test_exact_path_two_edges_closed_form():
    g = generate("path", n=3)
    for p in (1.5, 2.0, 3.0, 5.0):
        r, _ = exact_presistance(g, PairQuery(0, 2, p), TIGHT)
        assert r == pytest.approx(2 ** (p - 1), rel=1e-8)
    r, _ = exact_presistance(g, PairQuery(0, 2, 3.0), TIGHT)
    assert r == pytest.approx(4.0, rel=1e-9)


def test_exact_triangle_p2():
    g = generate("complete", n=3)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        r, _ = exact_presistance(g, PairQuery(i, j, 2.0), TIGHT)
        assert r == pytest.approx(2 / 3, rel=1e-9)


def test_exact_matches_series_law_on_weighted_trees():
    rng = np.random.default_rng(1)
    for seed in range(6):
        n = int(rng.integers(5, 25))
        g = generate("random_tree", n=n, seed=seed, weight_range=(0.3, 3.0))
        for _ in range(3):
            i, j = map(int, rng.choice(n, size=2, replace=False))
            p = float(rng.choice([1.5, 2.0, 3.0, 10.0]))
            r, _ = exact_presistance(g, PairQuery(i, j, p), TIGHT)
            assert r == pytest.approx(tree_series_presistance(g, i, j, p), rel=1e-6)


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


def test_zeros_init_reaches_same_energy():
    g = random_connected(8, 5)
    a = ssl_solve(g, 3.0, 0, 7, SolverConfig(grad_tol=1e-10, init="p2_warmstart"))
    b = ssl_solve(g, 3.0, 0, 7, SolverConfig(grad_tol=1e-10, init="zeros"))
    assert a.energy == pytest.approx(b.energy, rel=1e-7)


def test_approx_equals_exact_on_trees():
    rng = np.random.default_rng(2)
    for seed in range(5):
        n = int(rng.integers(5, 30))
        g = generate("random_tree", n=n, seed=100 + seed, weight_range=(0.5, 2.0))
        pinv = laplacian_pinv(g)
        for _ in range(3):
            i, j = map(int, rng.choice(n, size=2, replace=False))
            p = float(rng.choice([1.5, 2.0, 3.0, 10.0]))
            q = PairQuery(i, j, p)
            exact, _ = exact_presistance(g, q, TIGHT)
            assert approx_presistance(pinv, g, q) == pytest.approx(exact, rel=1e-6)


def test_approx_p2_reduces_to_pinv_formula():
    for seed in range(6):
        g = random_connected(9, 30 + seed)
        pinv = laplacian_pinv(g)
        Lp = pinv.matrix
        for i in range(g.n):
            for j in range(i + 1, g.n):
                expected = Lp[i, i] + Lp[j, j] - 2 * Lp[i, j]
                got = approx_presistance(pinv, g, PairQuery(i, j, 2.0))
                assert got == pytest.approx(expected, abs=1e-10, rel=1e-10)


def test_approx_triangle_p2():
    g = generate("complete", n=3)
    pinv = laplacian_pinv(g)
    assert approx_presistance(pinv, g, PairQuery(0, 1, 2.0)) == pytest.approx(2 / 3)


def test_approx_metric_forms():
    g = generate("path", n=3)
    pinv = laplacian_pinv(g)
    q = PairQuery(0, 2, 2.0)
    assert approx_metric(pinv, g, q) == pytest.approx(
        approx_presistance(pinv, g, q)
    )
    # tree path of length 2 at p=3: resistance 4, metric 4^(1/2) = 2
    q3 = PairQuery(0, 2, 3.0)
    assert approx_metric(pinv, g, q3) == pytest.approx(2.0)
    # identical endpoints give a zero metric at the seminorm level
    assert _pair_seminorm_pow_q(pinv, g, 1, 1, 1.5) == 0.0


def test_approx_rejects_mismatched_pinv():
    g = generate("path", n=4)
    other = generate("cycle", n=4)
    pinv = laplacian_pinv(other)
    with pytest.raises(FingerprintMismatch):
        approx_presistance(pinv, g, PairQuery(0, 1, 2.0))


def test_approx_metric_robust_at_huge_p():
    g = random_connected(12, 77)
    pinv = laplacian_pinv(g)
    for p in (100.0, 1000.0):
        v = approx_metric(pinv, g, PairQuery(0, 11, p))
        assert np.isfinite(v) and v > 0


def test_distance_matrix_path_closed_form():
    g = generate("path", n=3)
    dm = distance_matrix(g, 3.0, mode="approx", form="metric")
    assert np.allclose(dm.matrix, [[0, 1, 2], [1, 0, 1], [2, 1, 0]], atol=1e-9)


def test_distance_matrix_p2_matches_classic():
    # the p = 2 closed form against the energy of the unit-current
    # potentials, sum over edges of w (y_a - y_b)^2, with y from numpy's pinv
    g = random_connected(10, 12)
    ei, ej, w = g.edge_index_arrays()
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
            a, _ = exact_presistance(g, PairQuery(0, 6, p), TIGHT)
            b, _ = exact_presistance(g2, PairQuery(0, 6, p), TIGHT)
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
            got = approx_presistance(pinv, g, PairQuery(i, j, p))
            assert got == pytest.approx(expected, rel=1e-9)


def test_solver_never_beats_its_start_energy():
    # the descent is monotone: final energy never exceeds either start
    rng = np.random.default_rng(17)
    for seed in range(5):
        g = random_connected(9, 800 + seed)
        i, j = map(int, rng.choice(9, size=2, replace=False))
        p = float(rng.choice([1.3, 2.5, 7.0]))
        from presistance.resistance import _warm_start

        warm = p_energy(g, _warm_start(g, i, j), p)
        zeros = np.zeros(9)
        zeros[i] = 1.0
        cold = p_energy(g, zeros, p)
        rep_w = ssl_solve(g, p, i, j, SolverConfig(init="p2_warmstart"))
        rep_z = ssl_solve(g, p, i, j, SolverConfig(init="zeros"))
        assert rep_w.energy <= warm * (1 + 1e-12)
        assert rep_z.energy <= cold * (1 + 1e-12)


def test_limits_on_structured_graphs():
    # p -> 1: resistance approaches 1/mincut; p -> inf: metric approaches
    # hop distance (checked in full in the acceptance suite)
    cases = [
        (generate("broom_a", delta=3, zeta=3), 0, 7),
        (generate("cycle", n=6), 0, 3),
        (generate("star", n=6), 1, 2),
    ]
    for g, i, j in cases:
        r, _ = exact_presistance(g, PairQuery(i, j, 1.05), TIGHT)
        assert abs(r * mincut(g, i, j) - 1) <= 0.10
        r, _ = exact_presistance(g, PairQuery(i, j, 50.0), TIGHT)
        hop = shortest_path(g, i, j, weighted=False)
        assert abs(r ** (1 / 49.0) / hop - 1) <= 0.10
