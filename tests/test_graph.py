import numpy as np
import pytest

from presistance import build_graph, generate, incidence, is_tree, laplacian
from presistance.errors import (
    Disconnected,
    DuplicateEdge,
    InvalidParams,
    NonPositiveWeight,
    SelfLoop,
)
from presistance.graph import read_edge_list, write_edge_list

from conftest import random_connected


def test_build_single_edge():
    g = build_graph(2, [(1, 0, 1.0)])
    assert g.n == 2 and g.m == 1
    assert g.edges == ((1, 0, 1.0),)


def test_build_triangle():
    g = build_graph(3, [(1, 0, 1), (2, 1, 1), (2, 0, 1)])
    assert g.m == 3


def test_build_canonicalizes_orientation():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
    assert g.edges == ((1, 0, 1.0), (2, 1, 2.0))


def test_build_disconnected_lists_components():
    with pytest.raises(Disconnected) as exc:
        build_graph(4, [(1, 0, 1), (3, 2, 1)])
    assert exc.value.components == [[0, 1], [2, 3]]


def test_build_rejects_bad_edges():
    with pytest.raises(SelfLoop):
        build_graph(2, [(1, 1, 1.0), (1, 0, 1.0)])
    with pytest.raises(DuplicateEdge):
        build_graph(2, [(1, 0, 1.0), (0, 1, 2.0)])
    with pytest.raises(NonPositiveWeight):
        build_graph(2, [(1, 0, 0.0)])
    with pytest.raises(NonPositiveWeight):
        build_graph(2, [(1, 0, -3.0)])
    with pytest.raises(InvalidParams):
        build_graph(2, [(2, 0, 1.0)])


def test_largest_component_escape_hatch():
    g = build_graph(5, [(1, 0, 1), (2, 1, 1), (4, 3, 1)], largest_component=True)
    assert g.n == 3
    assert g.kept == (0, 1, 2)


def test_incidence_single_edge_sign_convention():
    g = build_graph(2, [(1, 0, 1.0)])
    assert incidence(g).tolist() == [[-1.0, 1.0]]


def test_incidence_rows_sum_to_zero():
    g = build_graph(3, [(1, 0, 1), (2, 1, 1), (2, 0, 1)])
    C = incidence(g)
    assert np.abs(C.sum(axis=1)).max() == 0.0
    assert all(sorted(row.tolist()) == [-1.0, 0.0, 1.0] for row in C)


def test_incidence_path_gram_diagonal():
    # hand-multiplied 2x3 incidence for the path 0-1-2
    g = generate("path", n=3)
    C = incidence(g)
    gram = C.T @ C
    assert np.allclose(np.diag(gram), [1.0, 2.0, 1.0])


def test_laplacian_single_edge_weight_two():
    g = build_graph(2, [(1, 0, 2.0)])
    assert laplacian(g).tolist() == [[2.0, -2.0], [-2.0, 2.0]]


def test_laplacian_triangle():
    g = generate("complete", n=3)
    L = laplacian(g)
    assert np.allclose(np.diag(L), 2.0)
    assert np.allclose(L - np.diag(np.diag(L)), -1 + np.eye(3))


def test_laplacian_star_center_degree():
    g = generate("star", n=4)
    assert laplacian(g)[0, 0] == 3.0


def test_laplacian_two_constructions_agree():
    for seed in range(10):
        g = random_connected(int(np.random.default_rng(seed).integers(3, 20)), seed)
        L = laplacian(g)
        C = incidence(g)
        W = np.diag(g.weights())
        assert np.abs(L - C.T @ W @ C).max() <= 1e-12
        assert np.abs(L @ np.ones(g.n)).max() <= 1e-12


def test_is_tree():
    assert is_tree(generate("path", n=5))
    assert not is_tree(generate("cycle", n=5))
    assert not is_tree(generate("complete", n=3))
    for seed in range(5):
        assert is_tree(generate("random_tree", n=2 + seed * 7, seed=seed))


def test_generate_broom_counts():
    g = generate("broom_a", delta=5, zeta=5)
    assert g.n == 22 and g.m == 25
    gb = generate("broom_b", delta=5, zeta=5)
    assert gb.n == 22 and gb.m == 26
    assert set(gb.edges) - set(g.edges) == {(21, 0, 1.0)}


def test_generate_cycle():
    assert generate("cycle", n=20).m == 20


def test_generate_example_g2_structure():
    g = generate("example_g2")
    assert g.n == 10 and g.m == 16
    # clique {0..4} plus 6-cycle through vertex 4
    adj = g.neighbors()
    for a in range(4):
        assert {b for b, _ in adj[a]} >= set(range(5)) - {a}
    assert sorted(b for b, _ in adj[7]) == [6, 8]


def test_generate_example_g3_weights():
    g = generate("example_g3", eps=0.25)
    assert g.n == 6 and g.m == 5
    assert [w for _, _, w in g.edges] == [1.0, 1.0, 1.0, 0.25, 1.0]
    with pytest.raises(InvalidParams):
        generate("example_g3", eps=1.5)


def test_generate_deterministic_given_seed():
    a = generate("gnp_connected", n=12, edge_prob=0.3, seed=9)
    b = generate("gnp_connected", n=12, edge_prob=0.3, seed=9)
    assert a.edges == b.edges
    t1 = generate("random_tree", n=15, seed=4, weight_range=(0.5, 2.0))
    t2 = generate("random_tree", n=15, seed=4, weight_range=(0.5, 2.0))
    assert t1.edges == t2.edges


def test_generate_validates_params():
    with pytest.raises(InvalidParams):
        generate("broom_a", delta=1, zeta=5)
    with pytest.raises(InvalidParams):
        generate("broom_a", delta=3, zeta=1)
    with pytest.raises(InvalidParams):
        generate("nonsense", n=4)
    with pytest.raises(InvalidParams):
        generate("path")


def test_generate_rejects_parameters_its_family_does_not_take():
    with pytest.raises(InvalidParams, match="edge_pro"):
        generate("gnp_connected", n=12, edge_pro=0.05)
    with pytest.raises(InvalidParams):
        generate("path", n=4, edge_prob=0.5)
    with pytest.raises(InvalidParams):
        generate("example_g1", n=11)
    # the seed is not a family parameter: every family accepts it
    assert generate("example_g1", seed=3).n == 11
    assert generate("random_tree", n=6, seed=1, weight_range=(1.0, 2.0)).n == 6


def test_edge_list_round_trip(tmp_path):
    g = generate("gnp_connected", n=9, edge_prob=0.5, seed=2)
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    g2 = read_edge_list(path)
    assert g2.edges == g.edges and g2.n == g.n


def test_edge_list_comments_and_errors(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# a comment\n1 0 2.5  # trailing\n2 1 1.0\n")
    g = read_edge_list(path)
    assert g.edges == ((1, 0, 2.5), (2, 1, 1.0))
    path.write_text("1 0\n")
    with pytest.raises(InvalidParams):
        read_edge_list(path)
    path.write_text("# only comments\n")
    with pytest.raises(InvalidParams):
        read_edge_list(path)
