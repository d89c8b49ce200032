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
    weighted_p_norm,
)
from presistance.errors import (
    DimensionMismatch,
    InvalidP,
    NonFinite,
)
from presistance.numerics import conjugate_exponent, edge_projector

from conftest import random_connected


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
            assert 1 - 1e-9 <= b.value <= b.worst_case + 1e-9
            assert b.value <= b.one_norm_ceiling + 1e-9


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
