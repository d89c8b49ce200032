"""Graph representation, incidence/Laplacian construction, and generators.

Vertices are 0-based. Edges are stored canonically as (i, j, w) with i > j,
in insertion order; that order fixes the rows of the incidence matrix.
All matrix representations are dense (the Laplacian pseudoinverse is dense
even for sparse graphs, so sparsity is not exploited anywhere).
"""

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    Disconnected,
    DuplicateEdge,
    InvalidParams,
    NonPositiveWeight,
    SelfLoop,
)


@dataclass(frozen=True)
class Graph:
    """Weighted undirected connected graph with a fixed edge ordering.

    Attributes
    ----------
    n : int
        Vertex count.
    edges : tuple of (i, j, w)
        Canonical edges, i > j, strictly positive weights, insertion order.
    kept : tuple of int, optional
        When the graph was restricted to its largest component, the original
        vertex ids of the surviving vertices (index k here was `kept[k]`).
    """

    n: int
    edges: tuple
    kept: tuple = field(default=None, compare=False)

    @property
    def m(self):
        return len(self.edges)

    @cached_property
    def _edge_arrays(self):
        ei = np.array([i for i, _, _ in self.edges], dtype=int)
        ej = np.array([j for _, j, _ in self.edges], dtype=int)
        w = np.array([w for _, _, w in self.edges], dtype=float)
        for arr in (ei, ej, w):
            arr.flags.writeable = False
        return ei, ej, w

    def weights(self):
        return self._edge_arrays[2]

    def edge_index_arrays(self):
        """Return read-only (heads, tails, weights) arrays; heads[k] > tails[k]."""
        return self._edge_arrays

    def neighbors(self):
        """Adjacency lists as {vertex: [(other, weight), ...]}."""
        adj = {u: [] for u in range(self.n)}
        for i, j, w in self.edges:
            adj[i].append((j, w))
            adj[j].append((i, w))
        return adj

    @cached_property
    def _fingerprint(self):
        h = hashlib.sha256()
        h.update(f"{self.n}:{self.m}".encode())
        for i, j, w in self.edges:
            h.update(f"{i},{j},{w!r};".encode())
        return f"{self.n}:{self.m}:{h.hexdigest()}"

    def fingerprint(self):
        """Stable identity of (n, m, edge content), used to match cached L+."""
        return self._fingerprint


def _components(n, edges):
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j, _ in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    comps = {}
    for v in range(n):
        comps.setdefault(find(v), []).append(v)
    return list(comps.values())


def build_graph(n, edge_list, largest_component=False):
    """Validate and canonicalize an edge list into a Graph.

    Parameters
    ----------
    n : int
        Vertex count; indices must lie in [0, n).
    edge_list : iterable of (i, j, w)
        Undirected weighted edges, w > 0.
    largest_component : bool
        Off by default: a disconnected input raises `Disconnected`. When on,
        the graph is restricted to its largest component (ties broken by the
        smallest contained vertex id) and vertices are relabeled 0..n'-1 with
        the original ids recorded in `Graph.kept`.
    """
    if n < 1:
        raise InvalidParams(f"vertex count must be positive, got {n}")
    canonical = []
    seen = set()
    for i, j, w in edge_list:
        i, j = int(i), int(j)
        w = float(w)
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidParams(f"edge ({i},{j}) out of range for n={n}")
        if i == j:
            raise SelfLoop(f"self-loop at vertex {i}")
        if w <= 0 or not np.isfinite(w):
            raise NonPositiveWeight(f"edge ({i},{j}) has weight {w}")
        if i < j:
            i, j = j, i
        if (i, j) in seen:
            raise DuplicateEdge(f"duplicate edge ({i},{j})")
        seen.add((i, j))
        canonical.append((i, j, w))

    comps = _components(n, canonical)
    if len(comps) > 1:
        if not largest_component:
            raise Disconnected(comps)
        comps.sort(key=lambda c: (-len(c), min(c)))
        keep = sorted(comps[0])
        relabel = {v: k for k, v in enumerate(keep)}
        sub = [
            (max(relabel[i], relabel[j]), min(relabel[i], relabel[j]), w)
            for i, j, w in canonical
            if i in relabel and j in relabel
        ]
        return Graph(n=len(keep), edges=tuple(sub), kept=tuple(keep))
    return Graph(n=n, edges=tuple(canonical))


def incidence(g):
    """Signed incidence matrix, one row per edge: +1 at column i, -1 at j (i > j)."""
    C = np.zeros((g.m, g.n))
    for row, (i, j, _) in enumerate(g.edges):
        C[row, i] = 1.0
        C[row, j] = -1.0
    return C


def adjacency(g):
    A = np.zeros((g.n, g.n))
    for i, j, w in g.edges:
        A[i, j] = w
        A[j, i] = w
    return A


def laplacian(g):
    """Dense graph Laplacian, degree matrix minus adjacency."""
    A = adjacency(g)
    return np.diag(A.sum(axis=1)) - A


def is_tree(g):
    """True iff the (connected) graph has exactly n - 1 edges."""
    return g.m == g.n - 1


def _path_edges(n):
    return [(v + 1, v, 1.0) for v in range(n - 1)]


def _prufer_tree(n, rng):
    # decode a random Prufer sequence into a labeled tree
    if n == 2:
        return [(1, 0, 1.0)]
    seq = [int(rng.integers(0, n)) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((max(leaf, v), min(leaf, v), 1.0))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((max(u, v), min(u, v), 1.0))
    return edges


def _gnp_connected(n, edge_prob, rng):
    edges = []
    for i in range(1, n):
        for j in range(i):
            if rng.random() < edge_prob:
                edges.append((i, j, 1.0))
    # stitch components together deterministically until connected
    comps = _components(n, edges)
    while len(comps) > 1:
        comps.sort(key=min)
        a = comps[0][int(rng.integers(0, len(comps[0])))]
        b = comps[1][int(rng.integers(0, len(comps[1])))]
        edges.append((max(a, b), min(a, b), 1.0))
        comps = _components(n, edges)
    return edges


def _broom(delta, zeta, extra_edge):
    # delta parallel paths of zeta edges between glue vertices 0 and n-1;
    # internal vertices of line L are 1 + L*(zeta-1) .. (L+1)*(zeta-1)
    if delta < 2 or zeta < 2:
        raise InvalidParams("broom requires delta >= 2 and zeta >= 2")
    n = delta * (zeta - 1) + 2
    s, t = 0, n - 1
    edges = []
    for line in range(delta):
        chain = [s] + [1 + line * (zeta - 1) + k for k in range(zeta - 1)] + [t]
        for a, b in zip(chain, chain[1:]):
            edges.append((max(a, b), min(a, b), 1.0))
    if extra_edge:
        edges.append((t, s, 1.0))
    return n, edges


def _example_g1():
    # pendant vertex 0 on a clique {1..5}, bridged by {4,5}x{6,7} to a
    # second clique {6..10}; the two natural clusters are {0..5} and {6..10}
    edges = [(1, 0, 1.0)]
    for a in range(1, 6):
        for b in range(1, a):
            edges.append((a, b, 1.0))
    for a in range(6, 11):
        for b in range(6, a):
            edges.append((a, b, 1.0))
    for a in (6, 7):
        for b in (4, 5):
            edges.append((a, b, 1.0))
    return 11, edges


def _example_g2():
    # clique {0..4} sharing vertex 4 with the 6-cycle 4-5-6-7-8-9-4
    edges = []
    for a in range(5):
        for b in range(a):
            edges.append((a, b, 1.0))
    cycle = [4, 5, 6, 7, 8, 9]
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        edges.append((max(a, b), min(a, b), 1.0))
    return 10, edges


def _example_g3(eps):
    # 6-vertex path with one weak edge in the middle of the right end
    if not (0 < eps < 1):
        raise InvalidParams(f"example_g3 requires eps in (0,1), got {eps}")
    weights = [1.0, 1.0, 1.0, eps, 1.0]
    return 6, [(v + 1, v, w) for v, w in enumerate(weights)]


# the parameters each `generate` family takes besides the seed
_FAMILY_PARAMS = {
    "path": {"n"},
    "cycle": {"n"},
    "complete": {"n"},
    "star": {"n"},
    "random_tree": {"n", "weight_range"},
    "gnp_connected": {"n", "edge_prob"},
    "broom_a": {"delta", "zeta"},
    "broom_b": {"delta", "zeta"},
    "example_g1": set(),
    "example_g2": set(),
    "example_g3": {"eps"},
}


def generate(family, seed=None, **params):
    """Deterministic graph generators.

    Families and their parameters:

    - ``path(n)``, ``cycle(n)``, ``complete(n)``, ``star(n)``: unit weights,
      vertices numbered along the obvious order (star center is 0).
    - ``random_tree(n, seed)``: uniform labeled tree from a Prufer sequence.
    - ``gnp_connected(n, edge_prob, seed)``: G(n, p) with components stitched
      together by extra random edges until connected.
    - ``broom_a(delta, zeta)``: delta parallel paths of zeta edges glued at
      vertices 0 and n-1 (n = delta*(zeta-1)+2, m = delta*zeta).
    - ``broom_b(delta, zeta)``: broom_a plus one direct unit edge between the
      two glue vertices.
    - ``example_g1``: pendant + two bridged 5-cliques on 11 vertices.
    - ``example_g2``: 5-clique and 6-cycle sharing vertex 4, n = 10.
    - ``example_g3(eps)``: 6-path with unit weights except one eps edge.

    The labelings are canonical for this toolkit and are documented above;
    no claim is made that they match any external drawing vertex-for-vertex.
    """
    if family not in _FAMILY_PARAMS:
        raise InvalidParams(f"unknown graph family {family!r}")
    unknown = sorted(set(params) - _FAMILY_PARAMS[family])
    if unknown:
        raise InvalidParams(
            f"{family} takes no parameter {unknown[0]!r}; "
            f"it takes {sorted(_FAMILY_PARAMS[family]) or 'none'}"
        )
    rng = np.random.default_rng(seed)

    def need(name):
        if name not in params:
            raise InvalidParams(f"{family} requires parameter {name!r}")
        return params[name]

    if family == "path":
        n = int(need("n"))
        if n < 2:
            raise InvalidParams("path requires n >= 2")
        return build_graph(n, _path_edges(n))
    if family == "cycle":
        n = int(need("n"))
        if n < 3:
            raise InvalidParams("cycle requires n >= 3")
        edges = _path_edges(n) + [(n - 1, 0, 1.0)]
        return build_graph(n, edges)
    if family == "complete":
        n = int(need("n"))
        if n < 2:
            raise InvalidParams("complete requires n >= 2")
        return build_graph(n, [(i, j, 1.0) for i in range(n) for j in range(i)])
    if family == "star":
        n = int(need("n"))
        if n < 2:
            raise InvalidParams("star requires n >= 2")
        return build_graph(n, [(v, 0, 1.0) for v in range(1, n)])
    if family == "random_tree":
        n = int(need("n"))
        if n < 2:
            raise InvalidParams("random_tree requires n >= 2")
        edges = _prufer_tree(n, rng)
        lo, hi = params.get("weight_range", (1.0, 1.0))
        if not (0 < lo <= hi):
            raise InvalidParams("weight_range must satisfy 0 < lo <= hi")
        if hi > lo:
            edges = [(i, j, float(rng.uniform(lo, hi))) for i, j, _ in edges]
        return build_graph(n, edges)
    if family == "gnp_connected":
        n = int(need("n"))
        prob = float(params.get("edge_prob", 0.5))
        if n < 2 or not (0 <= prob <= 1):
            raise InvalidParams("gnp_connected requires n >= 2 and edge_prob in [0,1]")
        return build_graph(n, _gnp_connected(n, prob, rng))
    if family in ("broom_a", "broom_b"):
        n, edges = _broom(int(need("delta")), int(need("zeta")), family == "broom_b")
        return build_graph(n, edges)
    if family == "example_g1":
        return build_graph(*_example_g1())
    if family == "example_g2":
        return build_graph(*_example_g2())
    return build_graph(*_example_g3(float(params.get("eps", 0.01))))


def write_edge_list(g, path):
    """Write the canonical `i j w` edge-list text format."""
    with open(path, "w") as f:
        f.write(f"# n={g.n} m={g.m}\n")
        for i, j, w in g.edges:
            f.write(f"{i} {j} {w!r}\n")


def read_edge_list(path, largest_component=False):
    """Read the `i j w` text format (whitespace separated, '#' comments)."""
    edges = []
    n = 0
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise InvalidParams(f"{path}:{lineno}: expected 'i j w', got {line!r}")
            try:
                i, j, w = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise InvalidParams(f"{path}:{lineno}: {exc}") from exc
            edges.append((i, j, w))
            n = max(n, i + 1, j + 1)
    if not edges:
        raise InvalidParams(f"{path}: no edges found")
    return build_graph(n, edges, largest_component=largest_component)
