"""Exact and approximated effective p-resistance.

The exact route pins a unit potential drop between a vertex pair and
minimizes the graph p-energy over the free coordinates with gradient descent
(Armijo backtracking). The approximate route evaluates a conjugate-exponent
seminorm of pseudoinverse columns, reusing one Laplacian pseudoinverse for
every pair. Each route has one kernel: `_edge_kernel` for the (smoothed)
energy and its gradient, `_approx_sums` for the approximate metric of one
pair or of a row of pairs. Combinatorial oracles for the two limit regimes
(minimum cut and hop distance) live here as well.
"""

import struct
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import DimensionMismatch, FingerprintMismatch, InvalidP
from .numerics import (
    P_MIN,
    _signed_power,
    conjugate_exponent,
    laplacian,
    laplacian_pinv,
)

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


# smallest positive float: floor of the energy scale in the plateau test
_TINY = np.finfo(float).tiny


def _edge_kernel(ei, ej, w, x, p, eps2=0.0, gradient=False):
    """Smoothed p-energy sum over edges of w (d^2 + eps2)^(p/2), with the
    edge drops d = x[ei] - x[ej]; with `gradient` its gradient in x instead.

    At eps2 = 0 this is the plain p-energy sum w |d|^p, and tied coordinates
    contribute exactly 0 to the gradient.
    """
    d = x[ei] - x[ej]
    base = d * d + eps2
    if not gradient:
        return float(w @ base ** (p / 2.0))
    if eps2 == 0.0:
        # a zero base is a tie, whose term the factor d makes 0; a unit base
        # keeps 0 ** negative out of it for p < 2
        base[base == 0.0] = 1.0
    s = w * p * d * base ** ((p - 2.0) / 2.0)
    grad = np.zeros(x.size)
    np.add.at(grad, ei, s)
    np.add.at(grad, ej, -s)
    return grad


def p_energy(g, x, p):
    """Sum over edges of w |x_i - x_j|^p."""
    ei, ej, w = g.edge_index_arrays()
    return _edge_kernel(ei, ej, w, np.asarray(x, dtype=float), p)


def p_energy_gradient(g, x, p):
    """Gradient of the p-energy: p times the graph p-Laplacian applied to x.

    Each edge contributes w p |d|^(p-2) d to its head and the negative to its
    tail; tied coordinates (d = 0) contribute exactly 0.
    """
    ei, ej, w = g.edge_index_arrays()
    return _edge_kernel(ei, ej, w, np.asarray(x, dtype=float), p, gradient=True)


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


def _descend(x, kernel, pinned, grad_tol, rel_energy_tol, max_iter):
    # monotone gradient descent: Barzilai-Borwein trial step with Armijo
    # backtracking; runs until energy progress stalls, the gradient meets
    # the tolerance with no progress left, or the budget runs out.
    # `kernel(x)` is the energy, `kernel(x, gradient=True)` its gradient;
    # the `pinned` coordinates never move
    f = kernel(x)
    iterations = 0
    plateau = 0
    step = 1.0
    prev_x = None
    prev_grad = None
    while True:
        grad = kernel(x, gradient=True)
        grad[pinned] = 0.0
        grad_norm = float(np.abs(grad).max())
        if iterations >= max_iter or grad_norm == 0.0:
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
            f_new = kernel(x_new)
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
        if drop <= rel_energy_tol * max(f, _TINY):
            plateau += 1
        else:
            plateau = 0
    return x, grad_norm, iterations


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

    # The descent works on the smoothed energy sum w (d^2 + eps^2)^(p/2):
    # same minimizer up to O(eps), but its gradient vanishes continuously at
    # zero drops, where the raw |d|^(p-1) sgn(d) term flips sign and stalls
    # the iteration for p close to 1.
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
        kernel = partial(_edge_kernel, ei, ej, w, p=pp, eps2=eps * eps)
        # overlong line-search probes may overflow to inf; Armijo rejects them
        with np.errstate(over="ignore"):
            x, grad_norm, its = _descend(
                x, kernel, [i, j], cfg.grad_tol, cfg.rel_energy_tol, budget
            )
        total_iterations += its

    return SolverReport(
        energy=_edge_kernel(ei, ej, w, x, p),
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


def _approx_sums(drops, w, q):
    """Approximated metric of the pairs whose edge drops of L+ (e_i - e_j)
    are the columns of `drops` (the vector `drops` for one pair): the q-th
    power sum over edges of w |drop|^q, factored by each column's peak so
    that huge q stays in range.

    Works in place and overwrites `drops`: the all-pairs loop passes a
    fresh edges-by-pairs block per row, and further temporaries of that
    size more than double its time.
    """
    diff = np.abs(drops, out=drops)
    peak = diff.max(axis=0)
    peak = np.where(peak == 0.0, 1.0, peak)
    diff /= peak
    diff **= q
    return peak**q * (w @ diff)


def _approx_form(metric, p, form):
    """Approximated values in the requested form, where the sign fault hook
    applies. The resistance form is the metric raised to the p - 1, with
    the sign outside the power so that an injected fault propagates as a
    bad value instead of a complex crash.
    """
    if FAULT_FLIP_APPROX_SIGN:
        metric = -metric
    return _signed_power(metric, p - 1.0) if form == "resistance" else metric


def approx_metric(pinv, g, query):
    """Approximated p-resistance metric: the conjugate seminorm of the
    pseudoinverse column difference, raised to the (small) power q.

    This is the r^(1/(p-1)) form used for clustering; it stays numerically
    robust even for very large p because only the q-th power is taken.
    """
    _check_pinv(pinv, g)
    ei, ej, w = g.edge_index_arrays()
    y = pinv.matrix[:, query.i] - pinv.matrix[:, query.j]
    metric = _approx_sums(y[ei] - y[ej], w, conjugate_exponent(query.p))
    return float(_approx_form(metric, query.p, "metric"))


def approx_presistance(pinv, g, query):
    """Approximated p-resistance: the metric form raised to the p - 1."""
    return float(_signed_power(approx_metric(pinv, g, query), query.p - 1.0))


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
                vals = _approx_sums(B[:, i : i + 1] - B[:, i + 1 :], w, q)
                D[i, i + 1 :] = vals
                D[i + 1 :, i] = vals
        D = _approx_form(D, p, form)
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
    """Dijkstra distance; unweighted treats every edge as length 1.

    Returns inf when t is unreachable from s.
    """
    ei, ej, w = g.edge_index_arrays()
    lengths = w if weighted else np.ones_like(w)
    A = csr_matrix((lengths, (ei, ej)), shape=(g.n, g.n))
    return float(dijkstra(A, directed=False, indices=s)[t])
