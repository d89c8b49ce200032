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
from presistance.pipeline import GraphBuildParams, knn_gaussian_graph, load_features

from conftest import neighbors, random_connected, traced_peak


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


def test_build_names_the_first_bad_edge():
    with pytest.raises(DuplicateEdge, match=r"\(2,1\)"):
        build_graph(4, [(1, 0, 1.0), (2, 1, 1.0), (3, 0, 1.0), (1, 2, 3.0), (0, 1, 1.0)])
    for bad in (np.nan, np.inf):
        with pytest.raises(NonPositiveWeight, match=r"edge \(2,1\)"):
            build_graph(3, [(1, 0, 1.0), (2, 1, bad)])
    with pytest.raises(InvalidParams, match=r"\(0,7\)"):
        build_graph(3, [(1, 0, 1.0), (0, 7, 1.0)])
    with pytest.raises(InvalidParams):
        build_graph(3, [(1, 0), (2, 1)])
    with pytest.raises(Disconnected):
        build_graph(3, [])
    assert build_graph(1, []).m == 0


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
        W = np.diag(g.w)
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
    adj = neighbors(g)
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
    # a connected graph writes no `# kept:` line and reads back none
    assert "kept" not in path.read_text() and g2.kept is None


def test_edge_list_restores_kept_vertices(tmp_path):
    g = build_graph(6, [(1, 0, 1.0), (4, 3, 1.0), (5, 4, 2.0), (5, 3, 1.0)],
                    largest_component=True)
    assert g.kept == (3, 4, 5)
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    assert "# kept: 3 4 5\n" in path.read_text()
    g2 = read_edge_list(path)
    assert g2.kept == g.kept and g2.edges == g.edges
    assert g2.fingerprint() == g.fingerprint()
    path.write_text("# kept: 3 4\n1 0 1.0\n2 1 2.0\n")
    with pytest.raises(InvalidParams):
        read_edge_list(path)
    path.write_text("# kept: 3 x 5\n1 0 1.0\n2 1 2.0\n")
    with pytest.raises(InvalidParams):
        read_edge_list(path)


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


def test_fingerprints_are_pinned(iris_csv, tmp_path):
    # the hash input is the text of Python ints and floats; a numpy scalar's
    # repr (np.float64(...)) would change every fingerprint and dist.bin header
    tree = generate("random_tree", n=30, weight_range=(0.5, 2), seed=3)
    path = tmp_path / "tree.edges"
    write_edge_list(tree, path)
    iris = load_features(iris_csv, has_labels=True)
    graphs = {
        "path": generate("path", n=5),
        "gnp": generate("gnp_connected", n=40, edge_prob=0.2, seed=0),
        "tree": tree,
        "tree read back": read_edge_list(path),
        "example_g3": generate("example_g3"),
        "iris": knn_gaussian_graph(iris, GraphBuildParams(mu=1.0, sigma=0.01)),
    }
    tree_fp = "30:29:247ef5636365172559fc44887309b4626e8d28e4e4fee17e27026763d3b90d8c"
    assert {name: g.fingerprint() for name, g in graphs.items()} == {
        "path": "5:4:1baff40dcd3b9ed0b1c6974753a6a55355d464758a383bfd30be06e79e042194",
        "gnp": "40:156:9e55299ee5a3443bd35883af413281bf57e954816926464b45490e763fedb2a5",
        "tree": tree_fp,
        "tree read back": tree_fp,
        "example_g3": "6:5:d8c1d8c0278763b0c1f5c7bc9f812b24eeeb9549b00c3f79236af2bb304cb759",
        "iris": "150:11175:"
        "516dd8d47cc4f204e25f1d95d82ecc74234f58d936fe4362c68524d4606200be",
    }


def loop_laplacian(g):
    A = np.zeros((g.n, g.n))
    for i, j, w in g.edges:
        A[i, j] = w
        A[j, i] = w
    return np.diag(A.sum(axis=1)) - A


def loop_incidence(g):
    C = np.zeros((g.m, g.n))
    for row, (i, j, _) in enumerate(g.edges):
        C[row, i] = 1.0
        C[row, j] = -1.0
    return C


def test_laplacian_and_incidence_bytes_match_edge_loops(iris_csv):
    iris = load_features(iris_csv, has_labels=True)
    graphs = [knn_gaussian_graph(iris, GraphBuildParams(mu=1.0, sigma=s))
              for s in (0.01, 1.0)]
    graphs += [generate("gnp_connected", n=40, edge_prob=0.2, seed=s) for s in range(4)]
    for g in graphs:
        assert laplacian(g).tobytes() == loop_laplacian(g).tobytes()
        assert incidence(g).tobytes() == loop_incidence(g).tobytes()


def test_laplacian_builds_one_array():
    # the adjacency is negated in place into the Laplacian: no degree
    # matrix and no difference beside it
    g = generate("gnp_connected", n=200, edge_prob=0.1, seed=2)
    L, peak = traced_peak(laplacian, g)
    assert peak < 1.2 * g.n**2, peak / g.n**2
    assert L.tobytes() == loop_laplacian(g).tobytes()


def test_graph_arrays_are_read_only():
    g = generate("gnp_connected", n=12, edge_prob=0.3, seed=1)
    for arr in (g.ei, g.ej, g.w):
        with pytest.raises(ValueError):
            arr[0] = 0
    assert g.ei.dtype == g.ej.dtype == np.int64 and g.w.dtype == np.float64
    assert bool(np.all(g.ei > g.ej))
