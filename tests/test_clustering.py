import itertools

import numpy as np
import pytest

from presistance import (
    SolverConfig,
    build_graph,
    distance_matrix,
    error_rate,
    farthest_first,
    generate,
    k_medoids,
    sc2_baseline,
)
from presistance.clustering import _pam_build, _pam_pick, _pam_swap, pam_build_run
from presistance.errors import InvalidK, InvalidParams, LengthMismatch, NonFinite


def block_matrix(sizes, within=0.1, across=10.0):
    n = sum(sizes)
    D = np.full((n, n), across)
    start = 0
    for s in sizes:
        D[start : start + s, start : start + s] = within
        start += s
    np.fill_diagonal(D, 0.0)
    return D


def test_kmedoids_recovers_blocks():
    D = block_matrix([5, 5])
    res = k_medoids(D, 2, seed=0, restarts=3)
    assert len(set(res.assignments[:5])) == 1
    assert len(set(res.assignments[5:])) == 1
    assert res.assignments[0] != res.assignments[5]


def test_kmedoids_k_equals_n():
    D = block_matrix([3, 3])
    res = k_medoids(D, 6, seed=0)
    assert res.objective == 0.0
    assert sorted(res.centers) == list(range(6))


def test_kmedoids_validation():
    D = block_matrix([3, 3])
    with pytest.raises(InvalidK):
        k_medoids(D, 0)
    with pytest.raises(InvalidK):
        k_medoids(D, 7)
    with pytest.raises(InvalidK):
        k_medoids(D[:5], 2)
    with pytest.raises(InvalidK):
        k_medoids(D, 2, restarts=0)
    # numpy's generators take no negative seed: a toolkit error, not theirs
    with pytest.raises(InvalidParams):
        k_medoids(D, 2, seed=-1)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_distances_rejected():
    # resistance-form values overflow to inf at large p
    g = generate("gnp_connected", n=9, edge_prob=0.4, seed=0)
    D = distance_matrix(g, 1000.0, form="resistance").matrix
    assert np.isinf(D).any()
    nan = block_matrix([3, 3])
    nan[0, 4] = nan[4, 0] = np.nan
    for M in (D, nan):
        with pytest.raises(NonFinite):
            k_medoids(M, 2)
        with pytest.raises(NonFinite):
            farthest_first(M, 2)


def test_kmedoids_deterministic_and_valid():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((20, 2))
    D = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    a = k_medoids(D, 3, seed=5, restarts=4)
    b = k_medoids(D, 3, seed=5, restarts=4)
    assert np.array_equal(a.assignments, b.assignments) and a.centers == b.centers
    # every assignment is nearest-center, every cluster non-empty
    sub = D[:, a.centers]
    assert np.allclose(sub[np.arange(20), a.assignments], sub.min(axis=1), atol=1e-12)
    assert sorted(set(a.assignments.tolist())) == [0, 1, 2]


def test_kmedoids_restarts_never_worse():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((18, 2))
    D = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    single = k_medoids(D, 4, seed=2, restarts=1)
    multi = k_medoids(D, 4, seed=2, restarts=6)
    assert multi.objective <= single.objective + 1e-12


def test_kmedoids_takes_a_precomputed_build_run():
    # the first run does not depend on the seed: passed in, it gives the
    # same result as the run k_medoids computes itself, at every seed
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((25, 2))
    D = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    run = pam_build_run(D, 3)
    centers, obj, iterations = _pam_swap(D, _pam_build(D, 3))
    assert run == (tuple(centers), obj, iterations)
    for seed in range(5):
        a = k_medoids(D, 3, seed=seed, restarts=3)
        b = k_medoids(D, 3, seed=seed, restarts=3, build=run)
        assert np.array_equal(a.assignments, b.assignments)
        assert (a.centers, a.objective, a.iterations) == (
            b.centers, b.objective, b.iterations)
    # a run for another k is rejected
    for k in (2, 4):
        with pytest.raises(InvalidK, match="BUILD run"):
            k_medoids(D, k, build=run)


def _naive_swap(D, centers):
    # PAM SWAP by brute force: recompute the objective of every trial swap
    centers = list(centers)
    obj = D[:, centers].min(axis=1).sum()
    iterations = 0
    while True:
        best = (0.0, None, None)
        for mi in range(len(centers)):
            for h in range(D.shape[0]):
                if h in centers:
                    continue
                trial = centers.copy()
                trial[mi] = h
                delta = obj - D[:, trial].min(axis=1).sum()
                if delta > best[0] + 1e-12:
                    best = (delta, mi, h)
        if best[1] is None:
            return centers, obj, iterations
        centers[best[1]] = best[2]
        obj = D[:, centers].min(axis=1).sum()
        iterations += 1


def _naive_k_medoids(D, k, seed, restarts):
    n = D.shape[0]
    rng = np.random.default_rng(seed)
    best = None
    for run in range(restarts):
        if run == 0:
            init = _pam_build(D, k)
        else:
            init = sorted(int(v) for v in rng.choice(n, size=k, replace=False))
        centers, obj, iterations = _naive_swap(D, init)
        if best is None or obj < best[0] - 1e-12:
            best = (obj, centers, iterations)
    obj, centers, iterations = best
    order = sorted(centers)
    return tuple(order), iterations, float(D[:, order].min(axis=1).sum())


def _test_matrix(rng, kind, n):
    if kind == "points":
        pts = rng.standard_normal((n, 2))
        return np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    if kind == "integers":
        A = rng.integers(1, 4, size=(n, n)).astype(float)
    else:
        A = rng.random((n, n))
    D = np.triu(A, 1)
    return D + D.T


@pytest.mark.parametrize("kind", ["uniform", "integers", "points"])
def test_kmedoids_swap_matches_naive_pam(kind):
    # FastPAM1 gains must reproduce PAM's swap choices exactly; integer
    # matrices make many trial swaps tie, which exercises the scan order
    rng = np.random.default_rng(10)
    for n in (2, 5, 9, 16, 30):
        D = _test_matrix(rng, kind, n)
        for k in sorted({1, 2, 3, 7, n - 1, n} & set(range(1, n + 1))):
            for seed, restarts in ((0, 1), (3, 4)):
                res = k_medoids(D, k, seed=seed, restarts=restarts)
                centers, iterations, objective = _naive_k_medoids(D, k, seed, restarts)
                assert res.centers == centers
                assert res.iterations == iterations
                assert res.objective == objective
            # every run, not only the winning one: random starts swap more
            for _ in range(3):
                init = sorted(int(v) for v in rng.choice(n, size=k, replace=False))
                assert _pam_swap(D, init) == _naive_swap(D, init)


def test_pam_pick_follows_the_sequential_scan():
    # gains inside the 1e-12 window: the running best, not the maximum, wins
    def scan(gains):
        best, pick = 0.0, None
        for i, v in enumerate(gains):
            if v > best + 1e-12:
                best, pick = v, i
        return pick

    cases = [
        [1.0, 1.0 + 1.5e-12, 1.0 + 2.5e-12],
        [-np.inf, 5e-13, 2e-12, 2.5e-12, -1.0],
        [-np.inf, -np.inf],
        [0.0, 1e-12, 3.0, 3.0],
    ]
    rng = np.random.default_rng(13)
    cases += [1.0 + rng.integers(0, 6, size=40) * 7e-13 for _ in range(50)]
    for gains in cases:
        gains = np.asarray(gains, dtype=float)
        assert _pam_pick(gains) == scan(gains)
    assert _pam_pick(np.array([1.0, 1.0 + 1.5e-12, 1.0 + 2.5e-12])) == 1


def test_farthest_first_collinear():
    D = np.array([[0.0, 1, 2], [1, 0, 1], [2, 1, 0]])
    res = farthest_first(D, 2, start=0)
    assert res.centers == (0, 2)


def test_farthest_first_k1_radius():
    D = block_matrix([4, 4])
    res = farthest_first(D, 1, start=0)
    assert res.centers == (0,)
    assert res.objective == D[:, 0].max()


def test_farthest_first_blocks_one_center_each():
    D = block_matrix([5, 5])
    for start in range(10):
        res = farthest_first(D, 2, start=start)
        sides = {c < 5 for c in res.centers}
        assert sides == {True, False}


def test_farthest_first_two_approximation():
    # Gonzalez is a 2-approximation on metrics; brute-force the optimum on
    # exact p-resistance metric matrices
    cfg = SolverConfig(grad_tol=1e-10)
    for seed in range(3):
        g = generate("gnp_connected", n=8, edge_prob=0.5, seed=seed)
        dm = distance_matrix(g, 3.0, mode="exact", form="metric", cfg=cfg)
        D = dm.matrix
        for k in (2, 3):
            greedy = farthest_first(D, k, start=0).objective
            best = min(
                D[:, list(centers)].min(axis=1).max()
                for centers in itertools.combinations(range(8), k)
            )
            assert greedy <= 2 * best + 1e-9


def test_sc2_two_cliques():
    edges = []
    for a in range(5):
        for b in range(a):
            edges.append((a, b, 1.0))
            edges.append((a + 5, b + 5, 1.0))
    edges.append((5, 0, 1e-3))
    g = build_graph(10, edges)
    res = sc2_baseline(g, 2, seed=0)
    truth = [0] * 5 + [1] * 5
    assert error_rate(res.assignments, truth).error_rate == 0.0


def test_sc2_k1():
    g = generate("cycle", n=6)
    res = sc2_baseline(g, 1, seed=0)
    assert set(res.assignments.tolist()) == {0}


def test_sc2_two_blobs_construction():
    # two dense 20-vertex blobs joined by weak edges: intra weight 1,
    # inter weight 1e-3
    rng = np.random.default_rng(7)
    edges = []
    for a in range(20):
        for b in range(a):
            edges.append((a, b, 1.0))
            edges.append((a + 20, b + 20, 1.0))
    for _ in range(4):
        i, j = int(rng.integers(0, 20)), int(rng.integers(20, 40))
        edges.append((max(i, j), min(i, j), 1e-3))
    seen = set()
    dedup = []
    for i, j, w in edges:
        if (i, j) not in seen:
            seen.add((i, j))
            dedup.append((i, j, w))
    g = build_graph(40, dedup)
    truth = [0] * 20 + [1] * 20
    res = sc2_baseline(g, 2, seed=3)
    assert error_rate(res.assignments, truth).error_rate == 0.0


def test_error_rate_basics():
    assert error_rate([0, 1, 2], [0, 1, 2]).error_rate == 0.0
    assert error_rate([1, 0, 2, 2], [0, 1, 1, 1]).error_rate == pytest.approx(0.25)
    assert error_rate([0, 1, 0, 1], [0, 0, 1, 1]).error_rate == 0.5


def test_error_rate_label_invariance():
    rng = np.random.default_rng(2)
    truth = rng.integers(0, 4, size=40)
    pred = truth.copy()
    pred[rng.integers(0, 40, size=6)] = rng.integers(0, 4, size=6)
    base = error_rate(pred, truth).error_rate
    for _ in range(5):
        sigma = rng.permutation(4)
        tau = rng.permutation(4)
        assert error_rate(sigma[pred], tau[truth]).error_rate == pytest.approx(base)


def test_error_rate_string_labels_and_many_classes():
    assert error_rate(["a", "a", "b"], ["x", "x", "y"]).error_rate == 0.0
    # ten classes: the matching must still find the identity
    truth = np.arange(10).repeat(3)
    assert error_rate(truth, truth).error_rate == 0.0
    pred = truth.copy()
    pred[0] = 9
    assert error_rate(pred, truth).error_rate == pytest.approx(1 / 30)


def test_error_rate_length_mismatch():
    with pytest.raises(LengthMismatch):
        error_rate([0, 1], [0, 1, 2])


def test_kmedoids_example_g1_large_p_two_boxes():
    # at large p the metric is hop-like; the two 'boxes' of the first
    # illustrative graph should come out, with the pendant joining its clique
    g = generate("example_g1")
    dm = distance_matrix(g, 100.0, mode="approx", form="metric")
    res = k_medoids(dm.matrix, 2, seed=0, restarts=5)
    left = set(res.assignments[:6].tolist())
    right = set(res.assignments[6:].tolist())
    assert len(left) == 1 and len(right) == 1 and left != right
    # center pattern: the clique vertex adjacent to the pendant on one side,
    # a far-clique vertex on the other
    assert res.centers[0] == 1 and res.centers[1] >= 6
    # k-center view: farthest-first from the pendant keeps it with its clique
    ff = farthest_first(dm.matrix, 2, start=0)
    assert ff.assignments[0] == ff.assignments[1]


def test_optimal_two_center_example_g1_large_p():
    # brute-force 2-center: at large p the exact metric is hop-like, so the
    # optimum pairs the pendant's clique neighbor (the only vertex covering
    # the pendant at radius 1) with any far-clique vertex, radius ~1
    g = generate("example_g1")
    cfg = SolverConfig(grad_tol=1e-10)
    D = distance_matrix(g, 50.0, mode="exact", form="metric", cfg=cfg).matrix
    best_radius = np.inf
    best_centers = []
    for a in range(g.n):
        for b in range(a + 1, g.n):
            radius = D[:, [a, b]].min(axis=1).max()
            if radius < best_radius - 1e-6:
                best_radius = radius
                best_centers = [(a, b)]
            elif radius < best_radius + 1e-6:
                best_centers.append((a, b))
    assert best_radius == pytest.approx(1.0, abs=0.1)
    assert all(a == 1 and b >= 6 for a, b in best_centers)
    # the approximated metric keeps the same optimal center pattern
    Da = distance_matrix(g, 100.0, mode="approx", form="metric").matrix
    best_a = min(
        (Da[:, [a, b]].min(axis=1).max(), (a, b))
        for a in range(g.n)
        for b in range(a + 1, g.n)
    )
    assert best_a[1][0] == 1 and best_a[1][1] >= 6
