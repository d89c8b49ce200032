"""Graph representation, incidence/Laplacian construction, and generators.

Vertices are 0-based. A graph is three read-only arrays `(ei, ej, w)`, one
entry per edge with ei > ej and w > 0, in insertion order; that order fixes
the rows of the incidence matrix and the fingerprint. Connectivity comes from
`scipy.sparse.csgraph`; the incidence and Laplacian matrices are dense,
because the Laplacian pseudoinverse every later layer reads is dense.
"""

import hashlib
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import (
    Disconnected,
    DuplicateEdge,
    InvalidParams,
    NonPositiveWeight,
    SelfLoop,
    check_seed,
)


@dataclass(frozen=True, eq=False)
class Graph:
    """Weighted undirected connected graph with a fixed edge ordering.

    Attributes
    ----------
    n : int
        Vertex count.
    ei, ej : int arrays
        Edge heads and tails, ei[k] > ej[k], in insertion order (read-only).
    w : float array
        Strictly positive edge weights, aligned with ei and ej (read-only).
    kept : tuple of int, optional
        When the graph was restricted to its largest component, the original
        vertex ids of the surviving vertices (index k here was `kept[k]`).
    """

    n: int
    ei: np.ndarray
    ej: np.ndarray
    w: np.ndarray
    kept: tuple = None

    @property
    def m(self):
        return len(self.w)

    @property
    def edges(self):
        """The edges as a tuple of (i, j, w) Python values, built per call."""
        return tuple(zip(self.ei.tolist(), self.ej.tolist(), self.w.tolist()))

    @cached_property
    def _fingerprint(self):
        # hashes Python ints and floats: the repr of a numpy scalar differs
        h = hashlib.sha256()
        h.update(f"{self.n}:{self.m}".encode())
        h.update(_format_edges("{},{},{!r};", self).encode())
        return f"{self.n}:{self.m}:{h.hexdigest()}"

    def fingerprint(self):
        """Stable identity of (n, m, edge content), used to match cached L+."""
        return self._fingerprint


def _format_edges(template, g):
    return "".join(map(template.format, g.ei.tolist(), g.ej.tolist(), g.w.tolist()))


def _component_labels(n, ei, ej):
    # connected_components numbers components in order of their smallest
    # vertex, which is the order `Disconnected` lists them in
    A = csr_matrix((np.ones(len(ei)), (ei, ej)), shape=(n, n))
    return connected_components(A, directed=False)


def _frozen(*arrays):
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def build_graph(n, edge_list, largest_component=False):
    """Validate and canonicalize an edge list into a Graph.

    Parameters
    ----------
    n : int
        Vertex count; indices must lie in [0, n).
    edge_list : sequence of (i, j, w), or an (m, 3) array
        Undirected weighted edges, w > 0. Indices are truncated to integers.
    largest_component : bool
        Off by default: a disconnected input raises `Disconnected`. When on,
        the graph is restricted to its largest component (ties broken by the
        smallest contained vertex id) and vertices are relabeled 0..n'-1 with
        the original ids recorded in `Graph.kept`.

    Each check names the first edge that fails it; the checks run in the
    order range, self-loop, weight, duplicate.
    """
    if n < 1:
        raise InvalidParams(f"vertex count must be positive, got {n}")
    E = np.asarray(edge_list, dtype=float)
    if E.size == 0:
        E = E.reshape(0, 3)
    if E.ndim != 2 or E.shape[1] != 3:
        raise InvalidParams("edges must be (i, j, w) triples")
    ij, w = np.trunc(E[:, :2]), E[:, 2].copy()  # a copy: the graph freezes w
    bad = ~((ij >= 0) & (ij < n)).all(axis=1)
    if bad.any():
        a, b = ij[np.argmax(bad)]
        raise InvalidParams(f"edge ({a:.0f},{b:.0f}) out of range for n={n}")
    i, j = ij.astype(int).T
    bad = i == j
    if bad.any():
        raise SelfLoop(f"self-loop at vertex {i[np.argmax(bad)]}")
    bad = ~(w > 0) | ~np.isfinite(w)
    if bad.any():
        k = np.argmax(bad)
        raise NonPositiveWeight(f"edge ({i[k]},{j[k]}) has weight {float(w[k])}")
    ei, ej = np.maximum(i, j), np.minimum(i, j)
    key = ei * n + ej
    order = np.argsort(key, kind="stable")
    repeats = order[1:][key[order][1:] == key[order][:-1]]
    if repeats.size:
        k = repeats.min()
        raise DuplicateEdge(f"duplicate edge ({ei[k]},{ej[k]})")

    count, labels = _component_labels(n, ei, ej)
    if count > 1:
        if not largest_component:
            by_label = np.argsort(labels, kind="stable")
            bounds = np.cumsum(np.bincount(labels))[:-1]
            raise Disconnected([c.tolist() for c in np.split(by_label, bounds)])
        # argmax takes the first of equal sizes: the smallest contained vertex
        main = np.argmax(np.bincount(labels))
        keep = np.flatnonzero(labels == main)
        relabel = np.cumsum(labels == main) - 1
        inside = labels[ei] == main
        return Graph(
            len(keep), *_frozen(relabel[ei[inside]], relabel[ej[inside]], w[inside]),
            kept=tuple(keep.tolist()),
        )
    return Graph(n, *_frozen(ei, ej, w))


def incidence(g):
    """Signed incidence matrix, one row per edge: +1 at column i, -1 at j (i > j)."""
    C = np.zeros((g.m, g.n))
    rows = np.arange(g.m)
    C[rows, g.ei] = 1.0
    C[rows, g.ej] = -1.0
    return C


def laplacian(g):
    """Dense graph Laplacian, degree matrix minus adjacency."""
    # summing the rows of the filled adjacency keeps the degree bytes of
    # the edge-by-edge construction; a bincount over edges does not. One
    # array: 0 - A keeps the +0.0 of the non-edges, where a negation in
    # place would make them -0.0
    A = np.zeros((g.n, g.n))
    A[g.ei, g.ej] = g.w
    A[g.ej, g.ei] = g.w
    degrees = A.sum(axis=1)
    np.subtract(0.0, A, out=A)
    np.fill_diagonal(A, degrees)
    return A


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
    # one draw per vertex pair, row-major over the lower triangle
    ei, ej = np.tril_indices(n, -1)
    chosen = rng.random(len(ei)) < edge_prob
    ei, ej = ei[chosen], ej[chosen]
    # stitch components together deterministically until connected
    count, labels = _component_labels(n, ei, ej)
    while count > 1:
        first, second = np.flatnonzero(labels == 0), np.flatnonzero(labels == 1)
        a = first[int(rng.integers(0, len(first)))]
        b = second[int(rng.integers(0, len(second)))]
        ei, ej = np.append(ei, max(a, b)), np.append(ej, min(a, b))
        count, labels = _component_labels(n, ei, ej)
    return np.column_stack((ei, ej, np.ones(len(ei))))


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


def _clique(lo, hi):
    # unit edges between all vertices in [lo, hi), row-major: (a, b), a > b
    a, b = np.tril_indices(hi - lo, -1)
    return np.column_stack((a + lo, b + lo, np.ones(len(a))))


def _example_g1():
    # pendant vertex 0 on a clique {1..5}, bridged by {4,5}x{6,7} to a
    # second clique {6..10}; the two natural clusters are {0..5} and {6..10}
    bridges = [(a, b, 1.0) for a in (6, 7) for b in (4, 5)]
    return 11, np.vstack(([(1, 0, 1.0)], _clique(1, 6), _clique(6, 11), bridges))


def _example_g2():
    # clique {0..4} sharing vertex 4 with the 6-cycle 4-5-6-7-8-9-4
    cycle = [(v + 1, v, 1.0) for v in range(4, 9)] + [(9, 4, 1.0)]
    return 10, np.vstack((_clique(0, 5), cycle))


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
    rng = np.random.default_rng(check_seed(seed))

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
        return build_graph(n, _clique(0, n))
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
        try:
            lo, hi = params.get("weight_range", (1.0, 1.0))
        except (TypeError, ValueError):
            raise InvalidParams(
                f"weight_range must be a (lo, hi) pair, got {params['weight_range']!r}"
            ) from None
        if not (0 < lo <= hi):
            raise InvalidParams("weight_range must satisfy 0 < lo <= hi")
        edges = np.array(edges, dtype=float)
        if hi > lo:
            edges[:, 2] = rng.uniform(lo, hi, size=len(edges))
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


def format_edge_list(g):
    """The canonical `i j w` edge-list text, headed by an `# n= m=` comment
    and, for a restricted graph, a `# kept:` line of the original ids."""
    kept = "" if g.kept is None else "# kept: " + " ".join(map(str, g.kept)) + "\n"
    return f"# n={g.n} m={g.m}\n" + kept + _format_edges("{} {} {!r}\n", g)


def write_edge_list(g, path):
    """Write the canonical `i j w` edge-list text format."""
    with open(path, "w") as f:
        f.write(format_edge_list(g))


def read_edge_list(path):
    """Read the `i j w` text format (whitespace separated, '#' comments);
    a `# kept:` comment line restores `Graph.kept`."""
    edges = []
    n = 0
    kept = None
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            if line.startswith("# kept:"):
                try:
                    kept = tuple(int(v) for v in line[7:].split())
                except ValueError as exc:
                    raise InvalidParams(f"{path}:{lineno}: {exc}") from exc
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
    g = build_graph(n, edges)
    if kept is not None and len(kept) != g.n:
        raise InvalidParams(f"{path}: {len(kept)} kept ids for n={g.n}")
    return g if kept is None else replace(g, kept=kept)
