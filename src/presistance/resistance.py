"""Exact and approximated effective p-resistance.

The exact route pins a unit potential drop between a vertex pair and
minimizes the graph p-energy over the free coordinates with gradient descent
(Armijo backtracking). The approximate route evaluates a conjugate-exponent
seminorm of pseudoinverse columns, reusing one Laplacian pseudoinverse for
every pair. Combinatorial oracles for the two limit regimes (minimum cut and
hop distance) live here as well.
"""

import heapq
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, FingerprintMismatch, InvalidP
from .numerics import P_MIN, conjugate_exponent, laplacian, laplacian_pinv

# Test hook for the verification suite's negative control: when set, the
# approximated metric comes back negated, which must trip the invariant
# suites. Never set outside `verify --inject-fault`.
FAULT_FLIP_APPROX_SIGN = False


@dataclass(frozen=True)
class PairQuery:
    i: int
    j: int
    p: float

    def __post_init__(self):
        if self.i == self.j:
            raise DimensionMismatch("pair query needs two distinct vertices")
        if self.p <= P_MIN:
            raise InvalidP(f"p must exceed 1, got {self.p}")


@dataclass(frozen=True)
class SolverConfig:
    """Settings for the pinned-drop energy minimizer."""

    grad_tol: float = 1e-8
    rel_energy_tol: float = 1e-12
    max_iter: int = 100000
    smoothing_eps: float = 1e-12
    init: str = "p2_warmstart"

    def __post_init__(self):
        if self.grad_tol <= 0 or self.rel_energy_tol <= 0 or self.smoothing_eps <= 0:
            raise InvalidP("solver tolerances must be positive")
        if self.max_iter < 1:
            raise InvalidP("max_iter must be at least 1")
        if self.init not in ("p2_warmstart", "zeros"):
            raise InvalidP(f"unknown init {self.init!r}")

    def fingerprint(self):
        return (
            f"grad_tol={self.grad_tol!r},rel_energy_tol={self.rel_energy_tol!r},"
            f"max_iter={self.max_iter},smoothing_eps={self.smoothing_eps!r},init={self.init}"
        )


@dataclass(frozen=True)
class SolverReport:
    """Convergence record; `potentials` is the minimizing vector."""

    energy: float
    iterations: int
    final_grad_norm: float
    converged: bool
    potentials: np.ndarray


def _edge_energy(ei, ej, w, x, p):
    d = np.abs(x[ei] - x[ej])
    return float(w @ d**p)


def _edge_gradient(n, ei, ej, w, x, p, smoothing_eps):
    d = x[ei] - x[ej]
    base = np.maximum(np.abs(d), smoothing_eps) if smoothing_eps > 0 else np.abs(d)
    s = w * p * np.sign(d) * base ** (p - 1.0)
    grad = np.zeros(n)
    np.add.at(grad, ei, s)
    np.add.at(grad, ej, -s)
    return grad


def p_energy(g, x, p):
    """Sum over edges of w |x_i - x_j|^p."""
    ei, ej, w = g.edge_index_arrays()
    return _edge_energy(ei, ej, w, np.asarray(x, dtype=float), p)


def p_energy_gradient(g, x, p, smoothing_eps=0.0):
    """Gradient of the p-energy: p times the graph p-Laplacian applied to x.

    With the default smoothing_eps of 0 this is the plain analytic gradient
    (tied coordinates contribute 0 through sign(0)). A positive value floors
    |d| in the exponent base, which for p close to 1 stops near-tie terms
    from dominating the scale of the gradient.
    """
    ei, ej, w = g.edge_index_arrays()
    return _edge_gradient(g.n, ei, ej, w, np.asarray(x, dtype=float), p, smoothing_eps)


def _warm_start(g, i, j):
    # L+ (e_i - e_j) via the rank-one shift solve, rescaled to pin i at 1, j at 0
    L = laplacian(g)
    n = g.n
    rhs = np.zeros(n)
    rhs[i], rhs[j] = 1.0, -1.0
    y = np.linalg.solve(L + np.full((n, n), 1.0 / n), rhs)
    drop = y[i] - y[j]
    if not np.isfinite(drop) or drop <= 0:
        x = np.zeros(n)
        x[i] = 1.0
        return x
    return (y - y[j]) / drop


def _continuation_exponents(p):
    # solve a short ladder of easier exponents first when p is large;
    # each stage warm-starts the next
    stages = []
    if p > 8.0:
        v = 8.0
        while v < p:
            stages.append(v)
            v *= 2.5
    stages.append(p)
    return stages


def _smoothing_ladder(p, eps):
    # below p = 2 the smoothed problem has curvature ~ eps^(p-2) at zero
    # drops; grading the smoothing from coarse to fine keeps each stage
    # well conditioned
    if p >= 2.0:
        return [eps]
    ladder = []
    v = 1e-2
    while v > eps * 100.0:
        ladder.append(v)
        v *= 1e-2
    ladder.append(eps)
    return ladder


def _descend(x, f_fn, g_fn, grad_tol, rel_energy_tol, max_iter):
    # monotone gradient descent: Barzilai-Borwein trial step with Armijo
    # backtracking; runs until energy progress stalls, the gradient meets
    # the tolerance with no progress left, or the budget runs out
    f = f_fn(x)
    grad = g_fn(x)
    grad_norm = float(np.abs(grad).max()) if grad.size else 0.0
    iterations = 0
    plateau = 0
    step = 1.0
    prev_x = None
    prev_grad = None
    while iterations < max_iter:
        if grad_norm == 0.0:
            break
        if grad_norm <= grad_tol and plateau >= 2:
            break
        if plateau >= 25:
            break
        iterations += 1
        gsq = float(grad @ grad)
        if prev_x is not None:
            s = x - prev_x
            y = grad - prev_grad
            sy = float(s @ y)
            if sy > 0 and np.isfinite(sy):
                step = float(s @ s) / sy
        accepted = False
        t = min(max(step, 1e-300), 1e300)
        for _ in range(200):
            x_new = x - t * grad
            f_new = f_fn(x_new)
            if f_new <= f - 1e-4 * t * gsq:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        drop = f - f_new
        prev_x, prev_grad = x, grad
        x, f = x_new, f_new
        step = t * 2.0
        grad = g_fn(x)
        grad_norm = float(np.abs(grad).max()) if grad.size else 0.0
        if drop <= rel_energy_tol * max(f, np.finfo(float).tiny):
            plateau += 1
        else:
            plateau = 0
    return x, f, grad_norm, iterations


def ssl_solve(g, p, i, j, cfg=None):
    """Minimize the p-energy subject to x_i = 1, x_j = 0.

    Pinning the two labels eliminates the unit-drop constraint exactly (the
    energy is translation invariant), leaving an unconstrained convex problem
    over the n - 2 free coordinates. Returns the full `SolverReport`; the
    reciprocal of its energy is the p-resistance of the pair.
    """
    cfg = cfg or SolverConfig()
    if p <= P_MIN:
        raise InvalidP(f"p must exceed 1, got {p}")
    if i == j or not (0 <= i < g.n and 0 <= j < g.n):
        raise DimensionMismatch(f"invalid pair ({i},{j}) for n={g.n}")

    if cfg.init == "p2_warmstart":
        x = _warm_start(g, i, j)
    else:
        x = np.zeros(g.n)
        x[i] = 1.0

    ei, ej, w = g.edge_index_arrays()
    free = np.ones(g.n, dtype=bool)
    free[[i, j]] = False

    # The descent works on the smoothed energy sum w (d^2 + eps^2)^(p/2):
    # same minimizer up to O(eps), but its gradient vanishes continuously at
    # zero drops, where the raw |d|^(p-1) sgn(d) term flips sign and stalls
    # the iteration for p close to 1.
    def smooth_energy(v, pp, eps2):
        # overlong line-search probes may overflow to inf; Armijo rejects them
        with np.errstate(over="ignore"):
            d = v[ei] - v[ej]
            return float(w @ (d * d + eps2) ** (pp / 2.0))

    def smooth_gradient(v, pp, eps2):
        d = v[ei] - v[ej]
        s = w * pp * d * (d * d + eps2) ** ((pp - 2.0) / 2.0)
        grad = np.zeros(g.n)
        np.add.at(grad, ei, s)
        np.add.at(grad, ej, -s)
        grad[~free] = 0.0
        return grad

    total_iterations = 0
    grad_norm = 0.0
    stages = [
        (pp, eps)
        for pp in _continuation_exponents(p)
        for eps in _smoothing_ladder(pp, cfg.smoothing_eps)
    ]
    for stage_idx, (pp, eps) in enumerate(stages):
        final = stage_idx == len(stages) - 1
        budget = cfg.max_iter - total_iterations if final else min(
            3000, cfg.max_iter - total_iterations
        )
        if budget <= 0:
            break
        eps2 = eps * eps
        x, _, grad_norm, its = _descend(
            x,
            lambda v, pp=pp, eps2=eps2: smooth_energy(v, pp, eps2),
            lambda v, pp=pp, eps2=eps2: smooth_gradient(v, pp, eps2),
            cfg.grad_tol,
            cfg.rel_energy_tol,
            budget,
        )
        total_iterations += its

    return SolverReport(
        energy=_edge_energy(ei, ej, w, x, p),
        iterations=total_iterations,
        final_grad_norm=grad_norm,
        converged=grad_norm <= cfg.grad_tol,
        potentials=x,
    )


def exact_presistance(g, query, cfg=None):
    """Exact p-resistance of a pair: reciprocal of the minimal pinned energy.

    Returns (value, report); a non-converged report still carries the
    best-so-far value with `converged=False`.
    """
    report = ssl_solve(g, query.p, query.i, query.j, cfg)
    return 1.0 / report.energy, report


def _check_pinv(pinv, g):
    if pinv.fingerprint != g.fingerprint():
        raise FingerprintMismatch(
            "pseudoinverse was computed for a different graph "
            f"({pinv.fingerprint} != {g.fingerprint()})"
        )


def _pair_seminorm_pow_q(pinv, g, i, j, q):
    ei, ej, w = g.edge_index_arrays()
    y = pinv.matrix[:, i] - pinv.matrix[:, j]
    d = np.abs(y[ei] - y[ej])
    peak = d.max() if d.size else 0.0
    if peak == 0.0:
        return 0.0
    return float(peak**q * (w @ (d / peak) ** q))


def approx_metric(pinv, g, query):
    """Approximated p-resistance metric: the conjugate seminorm of the
    pseudoinverse column difference, raised to the (small) power q.

    This is the r^(1/(p-1)) form used for clustering; it stays numerically
    robust even for very large p because only the q-th power is taken.
    """
    _check_pinv(pinv, g)
    q = conjugate_exponent(query.p)
    value = _pair_seminorm_pow_q(pinv, g, query.i, query.j, q)
    if FAULT_FLIP_APPROX_SIGN:
        return -value
    return value


def approx_presistance(pinv, g, query):
    """Approximated p-resistance: the metric form raised to the p - 1."""
    metric = approx_metric(pinv, g, query)
    # the metric is nonnegative unless the fault hook is active; keep the
    # sign outside the power so an injected fault propagates as a bad value
    # instead of a complex crash
    return float(np.sign(metric) * abs(metric) ** (query.p - 1.0))


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric pairwise matrix of p-resistance values with provenance.

    `form` is 'resistance' for raw values or 'metric' for the
    1/(p-1)-power metric form; `mode` records whether values came from the
    pseudoinverse approximation or the exact solver.
    """

    matrix: np.ndarray
    p: float
    mode: str
    form: str
    graph_fingerprint: str
    config_fingerprint: str
    warnings: tuple = field(default=())
    meta: str = field(default="", compare=False)

    @property
    def n(self):
        return self.matrix.shape[0]


def _exact_row(args):
    g, p, form, cfg, i = args
    vals = []
    warnings = []
    for j in range(i + 1, g.n):
        report = ssl_solve(g, p, i, j, cfg)
        r = 1.0 / report.energy
        if not report.converged:
            warnings.append((i, j, report.iterations, report.final_grad_norm))
        vals.append(r ** (1.0 / (p - 1.0)) if form == "metric" else r)
    return i, vals, warnings


def distance_matrix(g, p, mode="approx", form="metric", cfg=None, pinv=None,
                    workers=1):
    """All-pairs p-resistance (or metric) matrix.

    In approx mode the pseudoinverse is computed once (or passed in) and
    reused across every pair; at p = 2 the matrix comes from its closed
    form. In exact mode one solver run per pair is
    performed; pairs that fail to converge are recorded in `warnings` and
    the best-so-far value is kept. Exact-mode rows may be solved by a pool
    of `workers` processes; the result is identical for any worker count.
    """
    if p <= P_MIN:
        raise InvalidP(f"p must exceed 1, got {p}")
    if mode not in ("approx", "exact"):
        raise InvalidP(f"unknown mode {mode!r}")
    if form not in ("resistance", "metric"):
        raise InvalidP(f"unknown form {form!r}")
    n = g.n
    D = np.zeros((n, n))
    warnings = []
    if mode == "approx":
        if pinv is None:
            pinv = laplacian_pinv(g)
        _check_pinv(pinv, g)
        Lp = pinv.matrix
        if p == 2.0:
            # q = 2: the edge sum collapses to the classic effective
            # resistance (e_i - e_j)^T L+ (e_i - e_j); metric and resistance
            # forms coincide. The clamp absorbs cancellation at tiny values
            d = np.diag(Lp)
            D = np.maximum(d[:, None] + d[None, :] - (Lp + Lp.T), 0.0)
            np.fill_diagonal(D, 0.0)
        else:
            q = conjugate_exponent(p)
            ei, ej, w = g.edge_index_arrays()
            B = Lp[ei] - Lp[ej]  # row per edge: potentials of each column
            for i in range(n - 1):
                diff = np.abs(B[:, i : i + 1] - B[:, i + 1 :])
                peak = diff.max(axis=0)
                peak[peak == 0.0] = 1.0
                vals = peak**q * (w @ (diff / peak[None, :]) ** q)
                if form == "resistance":
                    vals = vals ** (p - 1.0)
                D[i, i + 1 :] = vals
                D[i + 1 :, i] = vals
        if FAULT_FLIP_APPROX_SIGN:
            D = -D
        config_fp = f"pinv={pinv.fingerprint}"
    else:
        cfg = cfg or SolverConfig()
        tasks = [(g, p, form, cfg, i) for i in range(n - 1)]
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_exact_row, tasks))
        else:
            rows = [_exact_row(t) for t in tasks]
        for i, vals, row_warnings in sorted(rows):
            D[i, i + 1 :] = vals
            D[i + 1 :, i] = vals
            warnings.extend(row_warnings)
        config_fp = cfg.fingerprint()
    return DistanceMatrix(
        matrix=D,
        p=float(p),
        mode=mode,
        form=form,
        graph_fingerprint=g.fingerprint(),
        config_fingerprint=config_fp,
        warnings=tuple(warnings),
    )


_DMAT_MAGIC = b"PDMX"


def save_distance_matrix(dm, path):
    header = "\x1f".join(
        [
            str(dm.n),
            repr(dm.p),
            dm.mode,
            dm.form,
            dm.graph_fingerprint,
            dm.config_fingerprint,
            dm.meta,
        ]
    ).encode()
    with open(path, "wb") as f:
        f.write(_DMAT_MAGIC)
        f.write(struct.pack("<Q", len(header)))
        f.write(header)
        f.write(np.ascontiguousarray(dm.matrix, dtype="<f8").tobytes())


def load_distance_matrix(path):
    with open(path, "rb") as f:
        if f.read(4) != _DMAT_MAGIC:
            raise FingerprintMismatch(f"{path} is not a distance-matrix file")
        (hlen,) = struct.unpack("<Q", f.read(8))
        fields = f.read(hlen).decode().split("\x1f")
        data = np.frombuffer(f.read(), dtype="<f8")
    n = int(fields[0])
    if data.size != n * n:
        raise FingerprintMismatch(f"{path}: expected {n * n} floats, got {data.size}")
    return DistanceMatrix(
        matrix=data.reshape(n, n).copy(),
        p=float(fields[1]),
        mode=fields[2],
        form=fields[3],
        graph_fingerprint=fields[4],
        config_fingerprint=fields[5],
        meta=fields[6] if len(fields) > 6 else "",
    )


def export_distance_csv(dm, path):
    with open(path, "w") as f:
        f.write(f"# n={dm.n} p={dm.p!r} mode={dm.mode} form={dm.form}\n")
        for row in dm.matrix:
            f.write(",".join(repr(float(v)) for v in row) + "\n")


def mincut(g, s, t):
    """Minimum s-t cut value via breadth-first augmenting paths.

    Real capacities, dense residual matrix; intended for desk-scale graphs
    (worst case O(V E^2)).
    """
    n = g.n
    cap = np.zeros((n, n))
    for i, j, w in g.edges:
        cap[i, j] += w
        cap[j, i] += w
    flow = 0.0
    while True:
        parent = np.full(n, -1, dtype=int)
        parent[s] = s
        queue = [s]
        while queue and parent[t] == -1:
            u = queue.pop(0)
            for v in np.nonzero(cap[u] > 1e-15)[0]:
                if parent[v] == -1:
                    parent[v] = u
                    queue.append(v)
        if parent[t] == -1:
            return flow
        bottleneck = np.inf
        v = t
        while v != s:
            bottleneck = min(bottleneck, cap[parent[v], v])
            v = parent[v]
        v = t
        while v != s:
            u = parent[v]
            cap[u, v] -= bottleneck
            cap[v, u] += bottleneck
            v = u
        flow += bottleneck


def shortest_path(g, s, t, weighted=True):
    """Dijkstra distance; unweighted treats every edge as length 1."""
    adj = g.neighbors()
    dist = {s: 0.0}
    heap = [(0.0, s)]
    visited = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in visited:
            continue
        if u == t:
            return d
        visited.add(u)
        for v, w in adj[u]:
            length = w if weighted else 1.0
            nd = d + length
            if nd < dist.get(v, np.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist.get(t, np.inf)
