import numpy as np
import pytest

from presistance import (
    approximation_bound,
    build_graph,
    generate,
    graph_p_seminorm,
    laplacian,
    laplacian_pinv,
    matrix_op_pnorm,
    ratio_sweep,
    weighted_p_norm,
)
from presistance.errors import (
    DimensionMismatch,
    FingerprintMismatch,
    InvalidP,
    NonFinite,
)
from presistance.graph import incidence
from presistance.numerics import _POWER_ITERATIONS, conjugate_exponent, edge_projector

from presistance.pipeline import GraphBuildParams, knn_gaussian_graph, load_features

from conftest import cycle_parallel_presistance, random_connected, traced_peak


def test_weighted_p_norm_values():
    assert weighted_p_norm([1, -1], [1, 1], 2) == pytest.approx(np.sqrt(2))
    assert weighted_p_norm([3, 4], [1, 1], np.inf) == 4.0
    assert weighted_p_norm([1, 1], [2, 2], 3) == pytest.approx(4 ** (1 / 3))


def test_weighted_p_norm_validation():
    with pytest.raises(DimensionMismatch):
        weighted_p_norm([1, 2, 3], [1, 1], 2)
    with pytest.raises(InvalidP):
        weighted_p_norm([1, 2], [1, -1], 2)
    with pytest.raises(InvalidP):
        weighted_p_norm([1, 2], [1, 1], 0.5)


def test_weighted_p_norm_large_p_stable():
    # naive |x|^p would overflow; the peak-factored form must not
    assert weighted_p_norm([1e8, 1.0], [1.0, 1.0], 500.0) == pytest.approx(1e8)
    assert weighted_p_norm([0.0, 0.0], [1.0, 1.0], 3.0) == 0.0


def test_conjugate_exponent():
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(3.0) == 1.5
    assert conjugate_exponent(np.inf) == 1.0
    with pytest.raises(InvalidP):
        conjugate_exponent(1.0)


def test_graph_p_seminorm_values():
    g = generate("path", n=3)
    assert graph_p_seminorm(g, [5.0, 5.0, 5.0], 3.0) == 0.0
    single = build_graph(2, [(1, 0, 1.0)])
    assert graph_p_seminorm(single, [0.0, 1.0], 3.0) == 1.0
    assert graph_p_seminorm(g, [0.0, 1.0, 3.0], 2.0) == pytest.approx(np.sqrt(5))
    # infinity convention: weights vanish in the limit, plain max edge drop
    weighted = build_graph(3, [(1, 0, 9.0), (2, 1, 0.25)])
    assert graph_p_seminorm(weighted, [0.0, 1.0, 3.0], np.inf) == 2.0
    with pytest.raises(DimensionMismatch):
        graph_p_seminorm(g, [1.0, 2.0], 2.0)


def test_seminorm_squared_is_quadratic_form():
    rng = np.random.default_rng(3)
    for seed in range(8):
        g = random_connected(int(rng.integers(3, 15)), seed)
        L = laplacian(g)
        x = rng.standard_normal(g.n)
        assert graph_p_seminorm(g, x, 2.0) ** 2 == pytest.approx(
            float(x @ L @ x), abs=1e-10, rel=1e-10
        )


def test_hoelder_inequality():
    rng = np.random.default_rng(11)
    for seed in range(8):
        g = random_connected(10, 100 + seed)
        L = laplacian(g)
        x = rng.standard_normal(g.n)
        y = rng.standard_normal(g.n)
        for p in (1.5, 2.0, 3.0, 4.0):
            q = conjugate_exponent(p)
            assert float(x @ L @ y) <= (
                graph_p_seminorm(g, x, p) * graph_p_seminorm(g, y, q) + 1e-10
            )


def test_pinv_single_edge():
    g = build_graph(2, [(1, 0, 1.0)])
    expected = np.array([[0.25, -0.25], [-0.25, 0.25]])
    assert np.allclose(laplacian_pinv(g).matrix, expected, atol=1e-12)


def test_pinv_triangle_pairwise_resistance():
    # series-parallel: 1 ohm in parallel with 2 ohms = 2/3
    g = generate("complete", n=3)
    Lp = laplacian_pinv(g).matrix
    for i in range(3):
        for j in range(i + 1, 3):
            assert Lp[i, i] + Lp[j, j] - 2 * Lp[i, j] == pytest.approx(2 / 3)


def test_pinv_tree_path_resistance_is_length():
    for d in (1, 3, 6):
        g = generate("path", n=d + 1)
        Lp = laplacian_pinv(g).matrix
        assert Lp[0, 0] + Lp[d, d] - 2 * Lp[0, d] == pytest.approx(d)


def test_pinv_moore_penrose_identities():
    rng = np.random.default_rng(0)
    for seed in range(25):
        g = random_connected(int(rng.integers(2, 31)), 500 + seed)
        L = laplacian(g)
        Lp = laplacian_pinv(g).matrix
        scale = max(np.linalg.norm(L), 1.0)
        assert np.linalg.norm(L @ Lp @ L - L) / scale <= 1e-9
        assert np.linalg.norm(Lp @ L @ Lp - Lp) / max(np.linalg.norm(Lp), 1) <= 1e-9
        assert np.linalg.norm((L @ Lp).T - L @ Lp) / scale <= 1e-9
        assert np.abs(Lp @ np.ones(g.n)).max() <= 1e-9


def _parent_pinv(g, route=None):
    # L+ as it was first written: the n x n shift matrix J, out of place;
    # the eigh route where the shift fails its residual, or as asked
    L = laplacian(g)
    J = np.full((g.n, g.n), 1.0 / g.n)
    Lp = np.linalg.inv(L + J) - J
    residual = np.linalg.norm(L @ Lp @ L - L) / max(np.linalg.norm(L), 1.0)
    if route == "eigh" or residual > 1e-8:
        vals, vecs = np.linalg.eigh(L)
        nonzero = vals > 1e-12 * max(vals.max(), 1.0)
        Lp = (vecs[:, nonzero] / vals[nonzero]) @ vecs[:, nonzero].T
    return 0.5 * (Lp + Lp.T)


def test_pinv_bytes_match_the_shift_matrix_formula(iris_csv):
    # the scalar shift and the in-place steps keep every byte, on both
    # routes: iris at sigma = 10 takes the eigh route
    iris = load_features(iris_csv, has_labels=True)
    graphs = [knn_gaussian_graph(iris, GraphBuildParams(mu=1.0, sigma=s))
              for s in (1e-3, 1e-2, 1e-1, 1.0, 10.0)]
    graphs += [generate("gnp_connected", n=40, edge_prob=0.2, seed=s) for s in range(10)]
    for g in graphs:
        assert laplacian_pinv(g).matrix.tobytes() == _parent_pinv(g).tobytes()


@pytest.mark.parametrize("route", ["shift", "eigh"])
def test_pinv_holds_a_few_square_arrays(route, monkeypatch):
    # L, L+ and the residual's two products at most, besides LAPACK's own
    # buffers: no shift matrix J and no out-of-place difference. A solve
    # that fails sends the call down the eigh route
    g = generate("gnp_connected", n=200, edge_prob=0.1, seed=2)
    want = _parent_pinv(g, route)
    g.fingerprint()
    if route == "eigh":
        def singular(a):
            raise np.linalg.LinAlgError("singular")
        monkeypatch.setattr(np.linalg, "inv", singular)
    pinv, peak = traced_peak(laplacian_pinv, g)
    assert peak < 4.3 * g.n**2, peak / g.n**2
    assert pinv.matrix.tobytes() == want.tobytes()


def test_matrix_op_pnorm_exact_forms():
    assert matrix_op_pnorm(np.eye(5), 3.0).value == pytest.approx(1.0)
    est = matrix_op_pnorm(np.diag([2.0, 3.0]), 1)
    assert est.value == 3.0 and est.exact
    M = np.array([[1.0, -4.0], [2.0, 0.5]])
    assert matrix_op_pnorm(M, 1).value == np.abs(M).sum(axis=0).max()
    assert matrix_op_pnorm(M, np.inf).value == np.abs(M).sum(axis=1).max()


def test_matrix_op_pnorm_triangle_projector_one_norm():
    # closed form: the complete-graph projector is C C^T / n, row sums 2 - 2/n
    g = generate("complete", n=3)
    assert matrix_op_pnorm(edge_projector(g), 1).value == pytest.approx(4 / 3)


def test_matrix_op_pnorm_rejects_nonfinite():
    with pytest.raises(NonFinite):
        matrix_op_pnorm(np.array([[np.nan, 0.0], [0.0, 1.0]]), 2.0)


def _per_start_op_pnorm(M, p, restarts=5, seed=0, extra_starts=()):
    """Reference: the dual power iteration run one start after the other,
    each to the same stopping rules as a column of the block estimator."""
    q = conjugate_exponent(p)
    rng = np.random.default_rng(seed)
    starts = [np.ones(M.shape[1])]
    starts += [rng.standard_normal(M.shape[1]) for _ in range(restarts)]
    starts += [np.asarray(s, dtype=float) for s in extra_starts]
    best, iterations = 0.0, 0
    for x in starts:
        nx = np.linalg.norm(x, ord=p)
        if nx == 0 or not np.isfinite(nx):
            continue
        x = x / nx
        with np.errstate(over="ignore", under="ignore"):
            for _ in range(_POWER_ITERATIONS):
                iterations += 1
                y = M @ x
                ny = np.linalg.norm(y, ord=p)
                best = max(best, float(ny))
                if ny == 0:
                    break
                z = M.T @ (np.sign(y) * np.abs(y / ny) ** (p - 1.0))
                if np.linalg.norm(z, ord=q) <= z @ x * (1.0 + 1e-12) + 1e-15:
                    break
                xn = np.sign(z) * np.abs(z) ** (q - 1.0)
                nxn = np.linalg.norm(xn, ord=p)
                if nxn == 0 or not np.isfinite(nxn):
                    break
                x = xn / nxn
    return best, iterations


def _weighted_projector(g, p):
    """The matrix `approximation_bound` estimates and its image start."""
    scale = g.w ** (1.0 / p)
    E = scale[:, None] * edge_projector(g) / scale[None, :]
    x = np.zeros(g.n)
    x[0], x[-1] = 1.0, -1.0
    return E, scale * (x[g.ei] - x[g.ej])


@pytest.mark.parametrize("p", [1.5, 2.9, 10.0])
def test_block_estimate_matches_per_start_on_projectors(p):
    for seed in range(6):
        g = generate("gnp_connected", n=40, edge_prob=0.2, seed=seed)
        E, image_start = _weighted_projector(g, p)
        est = matrix_op_pnorm(E, p, restarts=5, seed=seed,
                              extra_starts=(image_start,))
        value, iterations = _per_start_op_pnorm(E, p, restarts=5, seed=seed,
                                                extra_starts=(image_start,))
        assert est.value == pytest.approx(value, rel=1e-12, abs=0)
        assert est.iterations == iterations
        assert approximation_bound(g, p, seed=seed).estimate == est.value


@pytest.mark.parametrize("p", [1.5, 2.9, 10.0])
def test_block_estimate_matches_per_start_on_symmetric_matrices(p):
    rng = np.random.default_rng(17)
    for size in (2, 5, 12, 30):
        M = rng.standard_normal((size, size))
        S = M + M.T
        est = matrix_op_pnorm(S, p, restarts=4, seed=size)
        value, iterations = _per_start_op_pnorm(S, p, restarts=4, seed=size)
        assert est.value == pytest.approx(value, rel=1e-12, abs=0)
        assert est.iterations == iterations


def test_block_estimate_skips_a_zero_start():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((7, 7))
    plain = matrix_op_pnorm(M, 3.0, restarts=2, seed=0)
    with_zero = matrix_op_pnorm(M, 3.0, restarts=2, seed=0,
                                extra_starts=(np.zeros(7),))
    assert with_zero == plain
    assert with_zero.iterations == _per_start_op_pnorm(M, 3.0, restarts=2)[1]


def test_block_estimate_retires_a_start_with_a_zero_image():
    # the last unit vector lies in the kernel of S: that start's image is
    # exactly zero at the first step, and it leaves the block there
    rng = np.random.default_rng(5)
    for size in (3, 6, 12):
        M = rng.standard_normal((size, size))
        S = M + M.T
        S[:, -1] = S[-1, :] = 0.0
        kernel = np.eye(size)[-1]
        for p in (1.5, 2.9, 10.0):
            est = matrix_op_pnorm(S, p, restarts=3, seed=size, extra_starts=(kernel,))
            value, iterations = _per_start_op_pnorm(S, p, restarts=3, seed=size,
                                                    extra_starts=(kernel,))
            assert est.value == pytest.approx(value, rel=1e-12, abs=0)
            assert est.iterations == iterations


def test_block_estimate_of_a_matrix_without_columns_is_zero():
    est = matrix_op_pnorm(np.zeros((4, 0)), 2.5)
    assert est.value == 0.0 and est.iterations == 0 and not est.exact


def test_matrix_op_pnorm_monotone_in_restarts_and_capped():
    rng = np.random.default_rng(5)
    for case in range(8):
        M = rng.standard_normal((6, 6))
        S = M + M.T
        cap = np.abs(S).sum(axis=0).max()
        prev = 0.0
        for restarts in (0, 1, 3, 6):
            val = matrix_op_pnorm(S, 2.5, restarts=restarts, seed=1).value
            assert val >= prev - 1e-12
            prev = val
        assert prev <= cap + 1e-9


def test_matrix_op_pnorm_lower_bound_property():
    # the estimate never exceeds a fine-grained empirical supremum
    rng = np.random.default_rng(9)
    M = rng.standard_normal((5, 5))
    for p in (1.7, 3.0):
        est = matrix_op_pnorm(M, p, restarts=3, seed=0).value
        sup = max(
            np.linalg.norm(M @ x, ord=p) / np.linalg.norm(x, ord=p)
            for x in rng.standard_normal((4000, 5))
        )
        assert est <= max(sup, est)  # est is attained by some vector
        assert est >= 0.9 * sup  # and the iteration is not wildly below


def test_approximation_bound_projector_at_p2():
    g = random_connected(9, 21)
    assert approximation_bound(g, 2.0).value == pytest.approx(1.0, abs=1e-9)


def test_approximation_bound_range():
    for seed in range(6):
        g = random_connected(10, 40 + seed)
        for p in (1.5, 3.0, 5.0):
            b = approximation_bound(g, p, seed=seed)
            assert 1 - 1e-9 <= b.estimate <= b.worst_case + 1e-9
            assert b.estimate <= b.one_norm_ceiling + 1e-9
            assert b.ceiling == min(b.one_norm_ceiling, b.worst_case)


def test_approximation_bound_complete_and_cycle_small():
    for fam in ("complete", "cycle"):
        for n in (5, 10, 20):
            g = generate(fam, n=n)
            for p in (1.5, 3.0, 10.0):
                assert approximation_bound(g, p).value <= 4.0 + 1e-9


def test_cycle_projector_one_norm_true_identity():
    # The cycle edge projector is I - zz^T/n for the circulation z with
    # entries +-1, so every absolute row sum equals exactly 2 - 2/n. (A
    # published claim of 2 - 1/n contradicts the projector structure and is
    # exercised as an expected failure in the acceptance suite.)
    for n in (5, 10, 20, 40):
        g = generate("cycle", n=n)
        val = matrix_op_pnorm(edge_projector(g), 1).value
        assert val == pytest.approx(2 - 2 / n, abs=1e-9)


def test_approximation_bound_requires_p_above_one():
    with pytest.raises(InvalidP):
        approximation_bound(generate("path", n=4), 1.0)


def _light_cycle(n, light=0.01):
    """The n-cycle with unit weights but one edge of weight `light`."""
    edges = [(v + 1, v, 1.0) for v in range(n - 1)] + [(n - 1, 0, 1.0)]
    edges[0] = (1, 0, light)
    return build_graph(n, edges)


def _uniform_weights(g, seed):
    """`g` with weights drawn from U(0.01, 1)."""
    rng = np.random.default_rng(seed)
    return build_graph(g.n, [(a, b, float(rng.uniform(0.01, 1.0)))
                             for a, b, _ in g.edges])


WEIGHTED = {
    "cycle6": _light_cycle(6),
    "cycle10": _light_cycle(10),
    "gnp15": _uniform_weights(generate("gnp_connected", n=15, edge_prob=0.3,
                                       seed=4), seed=3),
}
BOUND_PS = (1.1, 1.5, 2.0, 3.0, 10.0)


def test_edge_projector_is_the_weighted_flow_map():
    g = generate("gnp_connected", n=40, edge_prob=0.2, seed=0)
    C = incidence(g)
    assert np.allclose(edge_projector(g), C @ np.linalg.pinv(C), rtol=0,
                       atol=1e-14)
    # weighted: an oblique projector that fixes the drops of every potential
    g = WEIGHTED["gnp15"]
    C = incidence(g)
    P = edge_projector(g)
    assert np.allclose(P @ C, C, rtol=0, atol=1e-12)
    assert np.allclose(P @ P, P, rtol=0, atol=1e-12)
    assert not np.allclose(P, P.T)


@pytest.mark.parametrize("name", sorted(WEIGHTED))
def test_bound_estimate_below_rigorous_ceiling_on_weighted_graphs(name):
    # the estimate is a lower value of the factor the ceiling bounds from
    # above; 1e-12 leaves room for rounding at p = 2, where the ceiling is
    # exactly 1 and the estimate can read up to about 1 + 1.3e-15
    g = WEIGHTED[name]
    for p in BOUND_PS:
        b = approximation_bound(g, p)
        assert 1 - 1e-9 <= b.estimate <= b.ceiling * (1 + 1e-12), p


@pytest.mark.parametrize("p", BOUND_PS)
def test_weighted_cycle_ratio_sweep_against_parallel_oracle(p):
    g = WEIGHTED["cycle6"]
    rows = ratio_sweep(g, (p,), sample_pairs=15)
    assert len(rows) == 15
    for r in rows:
        want = cycle_parallel_presistance(g, r["i"], r["j"], p) ** (1.0 / (p - 1.0))
        assert r["exact_metric"] == pytest.approx(want, rel=1e-6)
        assert r["ratio"] <= r["bound_pow_q"] * (1 + 1e-12)
    # on this cycle the estimate is tight: the worst pair reaches it
    worst = max(r["ratio"] for r in rows)
    assert worst == pytest.approx(rows[0]["bound_est_pow_q"], rel=1e-9)


@pytest.mark.parametrize("g", [generate("cycle", n=20), generate("example_g3")],
                         ids=["cycle20", "example_g3"])
def test_bound_estimate_at_p2_never_exceeds_the_ceiling(g):
    # at p = 2 the map is an orthogonal projector and the ceiling is exactly
    # 1; rounding lifts the unclamped estimate to 1 + 4e-16 on the cycle
    b = approximation_bound(g, 2.0)
    assert b.ceiling == 1.0
    assert 1 - 1e-12 <= b.value <= b.ceiling
    assert b.estimate == pytest.approx(1.0, abs=1e-12)


def test_bound_estimates_near_one_stay_in_range():
    # near p = 1 the iteration is most sensitive to rounding; wherever it
    # ends, the value is at least the image start's 1 and at most the ceiling
    for seed in range(10):
        g = generate("gnp_connected", n=40, edge_prob=0.2, seed=seed)
        b = approximation_bound(g, 1.1, seed=seed)
        assert 1 - 1e-12 <= b.value <= b.ceiling, seed
        assert b.estimate <= b.ceiling * (1 + 1e-12), seed


@pytest.mark.parametrize("g", [
    generate("gnp_connected", n=40, edge_prob=0.2, seed=3), WEIGHTED["cycle10"],
], ids=["gnp40", "cycle10"])
def test_approximation_bound_takes_a_precomputed_pinv(g):
    pinv = laplacian_pinv(g)
    for p in (1.1, 1.5, 2.0, 2.9, 10.0):
        assert approximation_bound(g, p, seed=1, pinv=pinv) == \
            approximation_bound(g, p, seed=1)


def test_approximation_bound_rejects_a_pinv_of_another_graph():
    # the same shape but other weights: only the fingerprint tells them apart
    g = WEIGHTED["cycle6"]
    other = laplacian_pinv(generate("cycle", n=6))
    with pytest.raises(FingerprintMismatch):
        approximation_bound(g, 3.0, pinv=other)
    with pytest.raises(FingerprintMismatch):
        edge_projector(g, other)


def test_bound_is_one_on_weighted_trees():
    # on a tree every edge vector is a potential drop, so the flow map is
    # the identity, the approximation is exact and the ceiling is 1
    for seed in range(20):
        g = generate("random_tree", n=12 + seed, seed=seed, weight_range=(0.5, 2))
        pinv = laplacian_pinv(g)
        assert np.abs(edge_projector(g, pinv) - np.eye(g.m)).max() <= 1e-12, seed
        for p in (1.1, 1.5, 3.0, 10.0):
            b = approximation_bound(g, p, seed=seed, pinv=pinv)
            assert b.ceiling == pytest.approx(1.0, rel=0, abs=1e-12), (seed, p)
            assert b.estimate == pytest.approx(1.0, rel=0, abs=1e-12), (seed, p)
