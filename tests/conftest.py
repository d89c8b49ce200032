import collections
import os
import tracemalloc

import numpy as np
import pytest

from presistance import cli, generate, numerics, pipeline, verify

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture(scope="session")
def iris_csv():
    return os.path.join(DATA_DIR, "iris.csv")


@pytest.fixture(scope="session")
def wine_csv():
    return os.path.join(DATA_DIR, "wine.csv")


def random_connected(n, seed, edge_prob=0.4):
    return generate("gnp_connected", n=n, edge_prob=edge_prob, seed=seed)


def neighbors(g):
    """Adjacency lists as {vertex: [(other, weight), ...]}."""
    adj = {u: [] for u in range(g.n)}
    for i, j, w in g.edges:
        adj[i].append((j, w))
        adj[j].append((i, w))
    return adj


def tree_series_presistance(g, i, j, p):
    """Independent oracle: on a tree the unit flow is forced along the unique
    path, so the resistance composes by the p-series law
    (sum over path edges of w^(-1/(p-1)))^(p-1)."""
    adj = neighbors(g)
    prev = {i: None}
    queue = collections.deque([i])
    while queue:
        u = queue.popleft()
        if u == j:
            break
        for v, w in adj[u]:
            if v not in prev:
                prev[v] = (u, w)
                queue.append(v)
    acc = 0.0
    u = j
    while u != i:
        pu, w = prev[u]
        acc += w ** (-1.0 / (p - 1.0))
        u = pu
    return acc ** (p - 1.0)


def cycle_parallel_presistance(g, i, j, p):
    """Independent oracle on a cycle: the unit flow splits over the two arcs
    between i and j, each a series of edges with the p-series sum
    A = sum of w^(-1/(p-1)), and the arcs combine in parallel as
    r = 1 / (A1^(1-p) + A2^(1-p)); at p = 2 this is the parallel law of
    resistors."""
    adj = neighbors(g)
    arcs = []
    for first in adj[i]:
        prev, (u, w) = i, first
        acc = w ** (-1.0 / (p - 1.0))
        while u != j:
            prev, (u, w) = u, next(e for e in adj[u] if e[0] != prev)
            acc += w ** (-1.0 / (p - 1.0))
        arcs.append(acc)
    return 1.0 / sum(a ** (1.0 - p) for a in arcs)


def brute_force_mincut(g, s, t):
    """Enumerate all 2^(n-2) vertex bipartitions; only for tiny graphs."""
    others = [v for v in range(g.n) if v not in (s, t)]
    best = np.inf
    for mask in range(1 << len(others)):
        side = {s}
        for bit, v in enumerate(others):
            if mask >> bit & 1:
                side.add(v)
        cut = sum(w for i, j, w in g.edges if (i in side) != (j in side))
        best = min(best, cut)
    return best


def hop_distance_bfs(g, s, t):
    adj = neighbors(g)
    dist = {s: 0}
    queue = collections.deque([s])
    while queue:
        u = queue.popleft()
        if u == t:
            return dist[u]
        for v, _ in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return np.inf


def reference_knn_edges(X, mu, sigma, symmetrization="union"):
    """k-NN Gaussian edges built from Python sets of pairs: (a, b, w) with
    a > b, sorted by (a, b); the set-based reference for the array build."""
    n = len(X)
    k = int(np.floor(mu * n))
    sq = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    order = np.argsort(sq, axis=1, kind="stable")
    selected = set()
    for i in range(n):
        for j in [v for v in order[i] if v != i][:k]:
            selected.add((i, int(j)))
    pairs = {
        (max(i, j), min(i, j))
        for i, j in selected
        if symmetrization == "union" or (j, i) in selected
    }
    return [
        (a, b, max(float(np.exp(-sigma * sq[a, b])), 1e-300)) for a, b in sorted(pairs)
    ]


def reference_components(n, edges):
    """Union-find components, each sorted, listed by smallest vertex."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j, _ in edges:
        parent[find(i)] = find(j)
    comps = {}
    for v in range(n):
        comps.setdefault(find(v), []).append(v)
    return list(comps.values())


@pytest.fixture
def pinv_builds(monkeypatch):
    """The graphs `laplacian_pinv` is called on, wherever it is called from:
    every pair query and the bound layer compute a missing `L+` through
    `numerics`, and the CLI, pipeline and verification suites by name."""
    calls = []
    original = numerics.laplacian_pinv

    def counting(g):
        calls.append(g)
        return original(g)

    for mod in (numerics, pipeline, cli, verify):
        monkeypatch.setattr(mod, "laplacian_pinv", counting)
    return calls


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the tracemalloc peak of the call in units of
    floats above its entry): a working set to bound as a multiple of n^2."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        return result, (tracemalloc.get_traced_memory()[1] - entry) / 8
    finally:
        tracemalloc.stop()
