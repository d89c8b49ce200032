"""Exact and approximated effective p-resistance.

The exact route pins a unit potential drop between a vertex pair and
minimizes the graph p-energy over the free coordinates with damped Newton
steps: each step solves the Laplacian weighted by the edge curvatures,
restricted to the free vertices, and Armijo backtracking on the smoothed
energy damps it. It starts from the p = 2 (harmonic) potentials
L+ (e_i - e_j), the pseudoinverse columns whose conjugate-exponent seminorm
the approximate route evaluates: one Laplacian pseudoinverse per graph
serves every pair of both routes. Each route has one kernel: `_edge_kernel` for
the (smoothed) energy, its gradient and its edge curvatures, `_approx_sums`
for the approximate metric of one pair or of a block of pairs at every p
asked for. `distance_matrices` builds the approximate all-pairs matrices of
one graph for a whole p grid: it gathers the edge drops of each L+ column
once (a vertex-by-edges array) and divides them in place by one power of
two, so that no pair drop exceeds 1. On those scaled drops two fast passes
give the plain sums over edges of w |drop|^q: the pairs that are edges take
the symmetric pass `_edge_pair_sums`, which logs each (edge, edge) drop once
for both of its edges, a strip of edges and its square per block, and the
other pairs the peak-free row pass, one log per drop and one exp and one
product per drop and p, in cache-sized blocks.
Both passes share one scale, one trust rule (`_trusted`) and one skip rule
(`_unit_scale`) in `_fast_metrics`. A pair that either rule rejects at any
p of the grid takes the peak-scaled row path `_approx_sums` instead, at
every p. Every path runs its blocks on a thread pool, and the matrices have
the same bytes for any thread count.
`distance_matrix` in approximate mode is its one-p call.
Every pair query takes the pair as `(g, p, i, j)`: `ssl_solve`,
`exact_presistance`, `approx_metric` and `approx_presistance`.
Combinatorial oracles for the two limit regimes (minimum cut and hop
distance) live here as well.
"""

import contextvars
import os
import struct
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import DimensionMismatch, FingerprintMismatch, InvalidP
from .numerics import (
    _checked_pinv,
    _signed_power,
    check_p,
    conjugate_exponent,
)

# Test hook for the verification suite's negative control: when set, the
# approximated metric comes back negated, which must trip the invariant
# suites. Never set outside `verify --inject-fault`.
FAULT_FLIP_APPROX_SIGN = False


@dataclass(frozen=True)
class SolverConfig:
    """Settings for the pinned-drop energy minimizer.

    `grad_tol` is the one setting: `converged` in the report means the
    final free gradient meets it, and a stage of `_stages` may stop early
    only once it does (or once the Newton decrement has stopped shrinking
    tenfold per step). The energy tolerance, the final smoothing and the
    step budget are the module constants `_REL_ENERGY_TOL`,
    `_SMOOTHING_EPS` and `_MAX_STEPS`.
    """

    grad_tol: float = 1e-8

    def __post_init__(self):
        if not self.grad_tol > 0:
            raise InvalidP(f"grad_tol must be positive, got {self.grad_tol}")

    def fingerprint(self):
        return f"grad_tol={self.grad_tol!r}"


@dataclass(frozen=True)
class SolverReport:
    """Convergence record; `potentials` is the minimizing vector."""

    energy: float
    iterations: int
    final_grad_norm: float
    converged: bool
    potentials: np.ndarray


# smallest positive float: floor of the energy scale in the stopping rule
_TINY = np.finfo(float).tiny

# a stage stops once the Newton decrement puts its energy within this share
# of the minimum
_REL_ENERGY_TOL = 1e-12

# smoothing eps of the last stage, in the energy sum w (d^2 + eps^2)^(p/2)
_SMOOTHING_EPS = 1e-12

# Newton steps over all stages of one solve; the solves seen take under 100
_MAX_STEPS = 3000

# edge curvatures below this share of the largest are raised to it when the
# Newton step is formed: for p > 2 tied drops have (next to) zero curvature,
# which leaves the Laplacian they weight singular wherever a group of free
# vertices ties with the one vertex linking it to the rest, as a pendant
# subtree does at the optimum. The floor changes the step, never the energy
# or gradient, so an accepted step still descends
_CURVATURE_FLOOR = 1e-14


def _edge_kernel(ei, ej, w, x, p, eps2=0.0, gradient=False, curvature=False):
    """Smoothed p-energy sum over edges of w (d^2 + eps2)^(p/2), with the
    edge drops d = x[ei] - x[ej]; with `gradient` its gradient in x instead,
    and with `curvature` as well the pair (gradient, edge curvatures), the
    second derivatives p w (d^2 + eps2)^((p-4)/2) ((p-1) d^2 + eps2) of each
    edge term in its drop. The Hessian in x is the Laplacian weighted by the
    edge curvatures.

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
    slope = w * p * base ** ((p - 2.0) / 2.0)
    s = slope * d
    n = x.size
    grad = np.bincount(ei, s, minlength=n) - np.bincount(ej, s, minlength=n)
    if not curvature:
        return grad
    return grad, slope / base * ((p - 1.0) * d * d + eps2)


def p_energy(g, x, p):
    """Sum over edges of w |x_i - x_j|^p."""
    return _edge_kernel(g.ei, g.ej, g.w, np.asarray(x, dtype=float), p)


def p_energy_gradient(g, x, p):
    """Gradient of the p-energy: p times the graph p-Laplacian applied to x.

    Each edge contributes w p |d|^(p-2) d to its head and the negative to its
    tail; tied coordinates (d = 0) contribute exactly 0.
    """
    return _edge_kernel(g.ei, g.ej, g.w, np.asarray(x, dtype=float), p, gradient=True)


def _stages(p):
    # (exponent, smoothing eps) of each Newton stage at p, each warm-starting
    # the next: above p = 8 a ladder of easier exponents 8, 20, 50, ...;
    # below p = 2, where the smoothed curvature at zero drops is ~ eps^(p-2),
    # smoothings graded from 1e-2 down by factors of 1e-2
    stages = []
    v = 8.0
    while v < p:
        stages.append((v, _SMOOTHING_EPS))
        v *= 2.5
    if p < 2.0:
        v = 1e-2
        while v > _SMOOTHING_EPS * 100.0:
            stages.append((p, v))
            v *= 1e-2
    stages.append((p, _SMOOTHING_EPS))
    return stages


def _hessian_layout(ei, ej, free, n):
    """Where each edge's four Laplacian entries land in the flattened
    free-by-free Hessian: flat positions, the edge each entry takes its
    curvature from, and its sign. Pinned endpoints drop out. Computed once
    per solve, so that each Newton step assembles its Hessian with one
    `np.bincount`.
    """
    k = free.size
    pos = np.full(n, -1)
    pos[free] = np.arange(k)
    a, b = pos[ei], pos[ej]
    fa, fb = np.flatnonzero(a >= 0), np.flatnonzero(b >= 0)
    both = np.flatnonzero((a >= 0) & (b >= 0))
    flat = np.concatenate([a[fa] * (k + 1), b[fb] * (k + 1),
                           a[both] * k + b[both], b[both] * k + a[both]])
    source = np.concatenate([fa, fb, both, both])
    sign = np.repeat([1.0, 1.0, -1.0, -1.0],
                     [fa.size, fb.size, both.size, both.size])
    return flat, source, sign, k


def _hessian(curv, layout):
    """The curvature-weighted Laplacian restricted to the free vertices."""
    flat, source, sign, k = layout
    return np.bincount(flat, curv[source] * sign, minlength=k * k).reshape(k, k)


def _newton(x, edges, free, layout, p, eps2, grad_tol, max_steps):
    # damped Newton on the smoothed energy: the step solves the floored
    # curvature Laplacian against the free gradient, and Armijo backtracking
    # accepts it only where the true smoothed energy decreases. A stage
    # ends once the Newton decrement lam2 = -grad . step says the energy gap
    # (about lam2 / 2) is within _REL_ENERGY_TOL, and either the gradient
    # meets grad_tol or lam2 no longer shrinks tenfold per step (rounding
    # has taken over); or when no step decreases the energy, or the step
    # budget is spent
    ei, ej, w = edges
    f = _edge_kernel(ei, ej, w, x, p, eps2)
    steps = 0
    prev_lam2 = np.inf
    while True:
        grad, curv = _edge_kernel(ei, ej, w, x, p, eps2, gradient=True,
                                  curvature=True)
        grad = grad[free]
        grad_norm = float(np.abs(grad).max(initial=0.0))
        if grad_norm == 0.0:
            break
        curv = np.maximum(curv, _CURVATURE_FLOOR * curv.max())
        try:
            step = np.linalg.solve(_hessian(curv, layout), -grad)
        except np.linalg.LinAlgError:
            break
        lam2 = -float(grad @ step)
        if not lam2 > 0.0:
            break
        if lam2 / 2.0 <= _REL_ENERGY_TOL * max(f, _TINY) and (
            grad_norm <= grad_tol or lam2 > 0.1 * prev_lam2
        ):
            break
        if steps >= max_steps:
            break
        t = 1.0
        for _ in range(60):
            trial = x.copy()
            trial[free] += t * step
            f_new = _edge_kernel(ei, ej, w, trial, p, eps2)
            if f_new <= f - 1e-4 * t * lam2:
                break
            t *= 0.5
        else:
            break
        x, f = trial, f_new
        prev_lam2 = lam2
        steps += 1
    return x, grad_norm, steps


def ssl_solve(g, p, i, j, cfg=None, pinv=None):
    """Minimize the p-energy subject to x_i = 1, x_j = 0.

    Pinning the two labels eliminates the unit-drop constraint exactly (the
    energy is translation invariant), leaving an unconstrained convex problem
    over the n - 2 free coordinates, solved by damped Newton steps from the
    p = 2 minimizer L+ (e_i - e_j), scaled to the pins. `pinv` is the graph's
    `LaplacianPinv`, computed when left out. Returns the full
    `SolverReport`; the reciprocal of its energy is the p-resistance.
    """
    cfg = cfg or SolverConfig()
    p = check_p(p)
    if p == np.inf:
        raise InvalidP("the exact solver needs a finite p, got inf")
    _check_pair(g, i, j)
    pinv = _checked_pinv(pinv, g)

    edges = ei, ej, w = g.ei, g.ej, g.w
    pinned = np.zeros(g.n, dtype=bool)
    pinned[[i, j]] = True
    free = np.flatnonzero(~pinned)
    layout = _hessian_layout(ei, ej, free, g.n)
    y = pinv.matrix[:, i] - pinv.matrix[:, j]
    x = (y - y[j]) / (y[i] - y[j])
    x[i], x[j] = 1.0, 0.0

    # Newton works on the smoothed energy sum w (d^2 + eps^2)^(p/2): same
    # minimizer up to O(eps), but twice differentiable at zero drops, where
    # the raw |d|^(p-1) sgn(d) term flips sign and its curvature blows up
    # for p < 2
    total_iterations = 0
    grad_norm = 0.0
    for pp, eps in _stages(p):
        # overlong line-search probes may overflow to inf; Armijo rejects them
        with np.errstate(over="ignore"):
            x, grad_norm, its = _newton(
                x, edges, free, layout, pp, eps * eps, cfg.grad_tol,
                _MAX_STEPS - total_iterations,
            )
        total_iterations += its

    return SolverReport(
        energy=_edge_kernel(ei, ej, w, x, p),
        iterations=total_iterations,
        final_grad_norm=grad_norm,
        converged=grad_norm <= cfg.grad_tol,
        potentials=x,
    )


def exact_presistance(g, p, i, j, cfg=None):
    """Exact p-resistance of the pair (i, j): the reciprocal of the minimal
    pinned energy of `ssl_solve`. A solve that did not converge gives its
    best-so-far value; a caller that needs its convergence record calls
    `ssl_solve`.
    """
    return 1.0 / ssl_solve(g, p, i, j, cfg).energy


def _check_pair(g, i, j):
    """Raise `DimensionMismatch` unless i, j are distinct vertices of `g`."""
    if i == j or not (0 <= i < g.n and 0 <= j < g.n):
        raise DimensionMismatch(f"invalid pair ({i},{j}) for n={g.n}")


# drops per block of pairs in the all-pairs kernel: the block and its one
# exp temporary stay in cache while every p of the grid passes over them.
# A strip of the symmetric edge pass at a single p needs no temporary, as
# its exp works in place, and takes twice this many
_BLOCK_DROPS = 1 << 16

# the fast passes trust a sum of at least m times this, times the largest
# weight where that is above 1: each of its at most m terms that underflowed
# was below its weight times the smallest normal float, so together they
# stay below eps of the sum
_SUM_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


def available_cores():
    """The cores this process may run on: its CPU affinity where the
    platform reports one, else the CPU count. A `workers` of None means
    this many, in the approximate kernel and in the CLI."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _ordered_map(fn, items, workers):
    """fn(item) for each of `items`, yielded in item order. With more than
    one worker and more than one item the calls run on a pool of `workers`
    threads made for this call, each in a copy of the caller's context (so
    under its numpy error state), with at most 2 * workers submitted and not
    yet taken: results of finished items do not pile up."""
    if workers <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for item in items:
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(contextvars.copy_context().run, fn, item))
        while pending:
            yield pending.popleft().result()


def _log(x):
    """Natural log of the nonnegative `x`, in place: the one log the
    approximate kernel takes of each drop it scales. A zero logs to -inf,
    whose every multiple exponentiates to exactly 0."""
    with np.errstate(divide="ignore"):
        return np.log(x, out=x)


def _approx_sums(drops, w, qs, peak=True, power=None):
    """Approximated metric of the pairs whose edge drops of L+ (e_i - e_j)
    are the rows of `drops`, at each q of `qs`: entry [k, r] is the q-th
    power sum over edges of w |drop|^q of row r at q = qs[k], factored by
    the row's peak so that huge q stays in range and the result does not
    depend on the scale of the drops. This is the row path:
    `approx_metrics` takes it for sampled pairs, `distance_matrices` for
    the edges whose symmetric value fails at some p and for the other pairs
    whose peak-free sums fail at some p.

    With `peak` False the drops are not factored: entry [k, r] is the plain
    sum over edges of w |drop|^q, for drops the caller has scaled to at
    most 1 (`_unit_pair_metrics`), which saves a row max and a divide per
    drop.

    The drops are logged once and each q costs one exp and one
    matrix-vector product, cheaper than one `**` per q. A zero drop logs to
    -inf and contributes exactly 0, so a pair of identical endpoints gets
    exactly 0. Works in place and overwrites `drops`: the last q
    exponentiates the logs where they lie, and the others exponentiate into
    `power`, an array of the shape of `drops` (made when None).
    """
    scaled = np.abs(drops, out=drops)
    if peak:
        top = scaled.max(axis=1)
        top[top == 0.0] = 1.0
        scaled /= top[:, None]
    logd = _log(scaled)
    sums = np.empty((len(qs), drops.shape[0]))
    last = len(qs) - 1
    if last > 0 and power is None:
        power = np.empty_like(logd)
    for k, q in enumerate(qs):
        out = logd if k == last else power
        np.exp(np.multiply(logd, q, out=out), out=out)
        # one pair sums in einsum's own loop: the BLAS dot product it would
        # otherwise call is threaded above 10000 edges and stalls for
        # milliseconds in some processes
        if drops.shape[0] == 1:
            total = np.einsum("e,e->", w, out[0])
        else:
            total = out @ w
        sums[k] = top**q * total if peak else total
    return sums


def _drop_rows(drops, a, b, start, out):
    """out[r] = drops[a[r], start:] - drops[b[r], start:]. A run of rows
    with one a and consecutive b is one subtract from a contiguous slab of
    `drops`: the rows of a k-NN graph's pairs and edges come in such runs,
    and a gather of scattered rows costs several times more."""
    cuts = np.flatnonzero((a[1:] != a[:-1]) | (b[1:] != b[:-1] + 1)) + 1
    for s, e in zip([0, *cuts], [*cuts, a.size]):
        np.subtract(drops[a[s], start:], drops[b[s] : b[s] + e - s, start:],
                    out=out[s:e])
    return out


def _pair_sums(drops, w, qs, a, b, workers=1, peak=True):
    """`_approx_sums` of the pairs (a[r], b[r]), whose edge drops are the
    differences of rows a[r] and b[r] of `drops`, taken in blocks of about
    `_BLOCK_DROPS` drops: the peak-scaled row path, or with `peak` False
    the peak-free row pass on drops scaled once by `_fast_metrics`. The blocks
    write disjoint columns of the result, so runs of them go to `workers`
    threads in any order. Each thread holds one block, and a second for the
    powers only when there is more than one q."""
    m = drops.shape[1]
    sums = np.empty((len(qs), a.size))
    rows = max(1, _BLOCK_DROPS // m)
    starts = range(0, a.size, rows)
    local = threading.local()

    def fill(run):
        # the columns of each block of the run
        if not hasattr(local, "block"):
            local.block = np.empty((min(rows, a.size), m))
            local.power = np.empty_like(local.block) if len(qs) > 1 else None
        for s in run:
            e = min(s + rows, a.size)
            diff = _drop_rows(drops, a[s:e], b[s:e], 0, local.block[: e - s])
            power = None if local.power is None else local.power[: e - s]
            sums[:, s:e] = _approx_sums(diff, w, qs, peak, power)

    # a few runs per worker: a task per block spends a share of its time in
    # hand-offs between the threads
    per_run = max(1, -(-len(starts) // (4 * workers)))
    runs = [starts[c : c + per_run] for c in range(0, len(starts), per_run)]
    for _ in _ordered_map(fill, runs, workers):
        pass
    return sums


def _unit_scale(drops, w, qs, a, b, floor):
    """The one scale of the fast passes, and their skip rule.

    c is the smallest power of two above twice the largest drop magnitude.
    Divided by c, every drop is below 1/2, so every pair drop, a difference
    of two of them, is below 1 and none of its powers overflows; and a
    division by a power of two is exact down to the smallest normal float.
    A pair's drop is at most reach[a] + reach[b], the largest drop
    magnitudes of its two rows, so its sum over edges of w |drop / c|^q is
    at most the sum of w times ((reach[a] + reach[b]) / c)^q. Returns c,
    c^q at each q of `qs` (as a column), and whether that bound of each
    pair (a[r], b[r]) is at least `floor` at every q: a pair for which it
    is not cannot be trusted at every q, and where c^q is not a normal
    float at some q no pair can.
    """
    reach = np.maximum(drops.max(axis=1), -drops.min(axis=1))
    top = reach.max()
    qcol = np.array(qs)[:, None]
    with np.errstate(over="ignore", under="ignore"):
        c = np.ldexp(1.0, np.frexp(top)[1] + 1)
        scale = c**qcol
        bound = w.sum() * ((reach[a] + reach[b]) / c) ** qcol
    live = (bound >= floor).all(axis=0)
    if not (0.0 < top < np.inf and np.all((scale >= _TINY) & (scale < np.inf))):
        live[:] = False
    return c, scale, live


def _trusted(sums, scale, floor):
    """The metrics c^q times `sums` of a fast pass, and the trust rule: an
    entry is ok where its sum is at least `floor` and its metric is finite
    and positive."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        metric = sums * scale
    return metric, (sums >= floor) & np.isfinite(metric) & (metric > 0.0)


def _fast_metrics(drops, g, qs, a, b, workers=1):
    """Approximated metric of the pairs (a[r], b[r]) at each q of `qs` by
    the fast passes, and where it is trusted. The first m pairs are the
    edge pairs (ej[f], ei[f]).

    The drops are divided in place by the scale c of `_unit_scale` and
    multiplied back by it before the return. On them the edge pairs take
    the symmetric pass `_edge_pair_sums` and the other pairs the peak-free
    row pass, `_pair_sums` with `peak` False; both give the plain sums over
    edges of w |drop / c|^q, which `_trusted` turns into metrics and ok
    entries with the floor m `_SUM_FLOOR`, times the largest weight where
    that is above 1. A pair that `_unit_scale` rules out skips its pass and
    comes back not ok; the symmetric pass, which takes every edge at once,
    is skipped when it rules out every edge.
    """
    m = g.m
    floor = m * max(1.0, g.w.max()) * _SUM_FLOOR
    c, scale, live = _unit_scale(drops, g.w, qs, a, b, floor)
    edge_sums = 0.0
    if live.any():
        drops /= c
        if live[:m].any():
            edge_sums = _edge_pair_sums(drops, g, qs, workers)
    # made after the symmetric pass: made before, these arrays sit below
    # its temporaries on the heap and raise the process's peak memory
    sums = np.zeros((len(qs), a.size))
    sums[:, :m] = edge_sums
    rows = m + np.flatnonzero(live[m:])
    if rows.size:
        sums[:, rows] = _pair_sums(drops, g.w, qs, a[rows], b[rows], workers,
                                   peak=False)
    if live.any():
        drops *= c
    metric, ok = _trusted(sums, scale, floor)
    return metric, ok & live


def _edge_pair_sums(drops, g, qs, workers=1):
    """Plain sum over edges e of w[e] |T[f, e]|^q of every edge pair
    (ej[f], ei[f]) at each q of `qs`, for drops scaled so that |T| <= 1.

    The drops of the edge pairs over the edges, T[f, e] = drops[ei[f], e] -
    drops[ej[f], e], form the symmetric matrix C L+ C^T. Each drop of its
    strict upper triangle is exponentiated once per q, and it adds to the
    sums of both its row and its column; the diagonal, the scaled p = 2
    resistances R of the edges, adds w |R|^q, taken with `**`.

    A strip of rows [s, t), at least one row, takes the columns [s, m) as
    one block, with one matrix-vector product into its rows and one into
    its columns per q. Each thread holds 2 `_BLOCK_DROPS` floats for its
    strips: with several q a strip of about `_BLOCK_DROPS` entries keeps
    its logs in one half and each q's powers in the other, and at one q
    the power is taken in place over the logs, so a strip fills the whole
    budget and there are half as many. The block's entries on and below
    the diagonal of its square [s, t) are logged as 1s and zeroed after
    each exp: a zero would log to -inf, whose exp is several times slower.
    Runs of strips go to `workers` threads, and this thread adds their
    products into the sums in strip order, so the sums do not depend on the
    thread count.
    """
    m = g.m
    ei, ej, w = g.ei, g.ej, g.w
    edges = np.arange(m)
    resist = np.abs(drops[ei, edges] - drops[ej, edges])
    sums = w * resist ** np.array(qs)[:, None]
    one_q = len(qs) == 1
    budget = _BLOCK_DROPS * (2 if one_q else 1)
    strips = []
    s = 0
    while s < m:
        t = min(m, s + max(1, budget // (m - s)))
        strips.append((s, t))
        s = t
    # the squares' lower triangles, diagonal included, as views of one mask
    k_max = max(t - s for s, t in strips)
    lower = np.tri(k_max, dtype=bool)
    local = threading.local()

    def products(run):
        # the row and column products of each strip [s, t) of the run, at
        # each q
        if not hasattr(local, "flat"):
            local.flat = np.empty(2 * max(_BLOCK_DROPS, m))
        out = []
        for s, t in run:
            k = t - s
            size = k * (m - s)
            blk = local.flat[:size].reshape(k, m - s)
            pw = blk if one_q else local.flat[size : 2 * size].reshape(k, m - s)
            below = lower[:k, :k]
            _drop_rows(drops, ei[s:t], ej[s:t], s, blk)
            np.abs(blk, out=blk)
            np.copyto(blk[:, :k], 1.0, where=below)
            logd = _log(blk)
            strip = []
            for q in qs:
                np.exp(np.multiply(logd, q, out=pw), out=pw)
                np.copyto(pw[:, :k], 0.0, where=below)
                strip.append((pw @ w[s:], w[s:t] @ pw))
            out.append(strip)
        return out

    # a task takes strips for at least two (strip, q) products: at one q, a
    # task per strip cost 8% more kernel time in hand-offs on iris, and each
    # more strip per task holds one more column product per q in flight
    per_run = -(-2 // len(qs))
    runs = [strips[c : c + per_run] for c in range(0, len(strips), per_run)]
    for run, out in zip(runs, _ordered_map(products, runs, workers)):
        for (s, t), strip in zip(run, out):
            for k, (row, col) in enumerate(strip):
                sums[k, s:t] += row
                sums[k, s:] += col
    return sums


def _approx_form(metric, p, form):
    """Approximated values in the requested form, where the sign fault hook
    applies. The resistance form is the metric raised to the p - 1, with
    the sign outside the power so that an injected fault propagates as a
    bad value instead of a complex crash.
    """
    if FAULT_FLIP_APPROX_SIGN:
        metric = -metric
    return _signed_power(metric, p - 1.0) if form == "resistance" else metric


def approx_metric(g, p, i, j, pinv=None):
    """Approximated p-resistance metric of the pair (i, j): the conjugate
    seminorm of the pseudoinverse column difference L+ (e_i - e_j), raised
    to the (small) power q. `pinv` is the graph's `LaplacianPinv`, computed
    when left out.

    This is the r^(1/(p-1)) form used for clustering; it stays numerically
    robust even for very large p because only the q-th power is taken.
    """
    return float(approx_metrics(g, (p,), ((i, j),), pinv)[0, 0])


def approx_metrics(g, ps, pairs, pinv=None):
    """`approx_metric` of every pair (i, j) of `pairs` at every p of `ps`:
    entry [k, r] is the metric of pairs[r] at ps[k]. One pass of the row
    path over the pairs' stacked drops takes them all; a sweep of a few
    sampled pairs over a p grid costs one call instead of one per value.
    """
    qs = tuple(conjugate_exponent(p) for p in ps)
    pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
    for i, j in pairs:
        _check_pair(g, i, j)
    pinv = _checked_pinv(pinv, g)
    # rows of L+ are its columns, as L+ is exactly symmetric
    y = pinv.matrix[pairs[:, 0]] - pinv.matrix[pairs[:, 1]]
    sums = _approx_sums(y[:, g.ei] - y[:, g.ej], g.w, qs)
    return np.stack([_approx_form(metric, p, "metric")
                     for metric, p in zip(sums, ps)])


def approx_presistance(g, p, i, j, pinv=None):
    """Approximated p-resistance: the metric form raised to the p - 1."""
    return float(_signed_power(approx_metric(g, p, i, j, pinv), p - 1.0))


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric pairwise matrix of p-resistance values with provenance.

    `form` is 'resistance' for raw values or 'metric' for the
    1/(p-1)-power metric form; `mode` records whether values came from the
    pseudoinverse approximation or the exact solver. `kept` carries the
    graph's `Graph.kept`: for a graph restricted to its largest component,
    the original ids of the matrix rows.
    """

    matrix: np.ndarray
    p: float
    mode: str
    form: str
    graph_fingerprint: str
    config_fingerprint: str
    warnings: tuple = field(default=())
    meta: str = field(default="", compare=False)
    kept: tuple = None

    @property
    def n(self):
        return self.matrix.shape[0]


def _exact_row(args):
    g, p, form, cfg, pinv, i = args
    vals = []
    warnings = []
    for j in range(i + 1, g.n):
        report = ssl_solve(g, p, i, j, cfg, pinv=pinv)
        r = 1.0 / report.energy
        if not report.converged:
            warnings.append((i, j, report.iterations, report.final_grad_norm))
        vals.append(r ** (1.0 / (p - 1.0)) if form == "metric" else r)
    return i, vals, warnings


def _check_form(form):
    if form not in ("resistance", "metric"):
        raise InvalidP(f"unknown form {form!r}")


def distance_matrices(g, ps, pinv=None, form="metric", workers=None):
    """Approximate all-pairs matrices of `g`, one `DistanceMatrix` per p of
    `ps`, in that order, all from one pseudoinverse (computed when `pinv`
    is None, else checked), on `workers` threads (None: the cores
    available to the process). The matrices have the same bytes for any
    thread count.

    At p = 2 the matrix takes its closed form. The other p share one pass
    over the pairs, from the edge drops of every L+ column gathered once.
    `_fast_metrics` divides them in place by one power of two, so that no
    pair drop exceeds 1, and on them the pairs that are edges take the
    symmetric pass `_edge_pair_sums`, which logs each (edge, edge) drop
    once instead of twice, and the other pairs the peak-free row pass,
    which needs no row max or divide per block. A pair whose value either
    pass's rules do not trust at some p takes the row path `_approx_sums`
    at every p, which scales each pair's drops by their peak, on the drops
    multiplied back. So a complete graph never enters the peak-free pass.
    All three walk blocks of about `_BLOCK_DROPS` drops (twice that in a
    strip of the symmetric pass at a single p) and take one log per drop
    and one exp per drop and p.
    """
    ps = tuple(check_p(p) for p in ps)
    _check_form(form)
    pinv = _checked_pinv(pinv, g)
    workers = available_cores() if workers is None else max(1, workers)
    Lp = pinv.matrix
    n = g.n
    qs = tuple(conjugate_exponent(p) for p in ps if p != 2.0)
    upper = np.zeros((len(qs), n, n))
    if qs and g.m:
        # row v: the drop over each edge of L+'s column v, which is its row
        # v, as L+ is exactly symmetric. The ej gather is subtracted in
        # blocks of rows, so no second array of this size is made
        drops = np.take(Lp, g.ei, axis=1)
        step = max(1, _BLOCK_DROPS // g.m)
        for v in range(0, n, step):
            drops[v : v + step] -= np.take(Lp[v : v + step], g.ej, axis=1)
        edge = np.zeros((n, n), dtype=bool)
        edge[g.ej, g.ei] = True
        # the edge pairs (ej[f], ei[f]) first, then the other pairs
        a, b = np.nonzero(np.triu(~edge, 1))
        a, b = np.concatenate([g.ej, a]), np.concatenate([g.ei, b])
        metric, ok = _fast_metrics(drops, g, qs, a, b, workers)
        keep = ok.all(axis=0)
        upper[:, a[keep], b[keep]] = metric[:, keep]
        # the pairs whose entry fails at some p take the peak-scaled row
        # path, in row order
        rest = np.zeros((n, n), dtype=bool)
        rest[a[~keep], b[~keep]] = True
        a, b = np.nonzero(rest)
        upper[:, a, b] = _pair_sums(drops, g.w, qs, a, b, workers)
    out = []
    k = 0
    for p in ps:
        if p == 2.0:
            # q = 2: the edge sum collapses to the classic effective
            # resistance (e_i - e_j)^T L+ (e_i - e_j); metric and resistance
            # forms coincide. The clamp absorbs cancellation at tiny values
            d = np.diag(Lp)
            D = np.maximum(d[:, None] + d[None, :] - (Lp + Lp.T), 0.0)
            np.fill_diagonal(D, 0.0)
        else:
            D = upper[k] + upper[k].T
            k += 1
        out.append(DistanceMatrix(
            matrix=_approx_form(D, p, form),
            p=p,
            mode="approx",
            form=form,
            graph_fingerprint=g.fingerprint(),
            config_fingerprint=f"pinv={pinv.fingerprint}",
            kept=g.kept,
        ))
    return out


def distance_matrix(g, p, mode="approx", form="metric", cfg=None, pinv=None,
                    workers=1):
    """All-pairs p-resistance (or metric) matrix.

    Both modes compute the pseudoinverse once (or check the one passed)
    and reuse it for every pair: approx mode is the one-p call of
    `distance_matrices`; exact mode starts each pair's solver run from it,
    records pairs that fail to converge in `warnings` and keeps their
    best-so-far values. `workers` bounds the cores used (None: the cores
    available): approx mode runs its kernel on that many threads, exact mode
    solves its rows on that many processes. The result is identical for
    any worker count.
    """
    if mode not in ("approx", "exact"):
        raise InvalidP(f"unknown mode {mode!r}")
    if mode == "approx":
        return distance_matrices(g, (p,), pinv, form, workers)[0]
    p = check_p(p)
    _check_form(form)
    n = g.n
    D = np.zeros((n, n))
    warnings = []
    pinv = _checked_pinv(pinv, g)
    cfg = cfg or SolverConfig()
    tasks = [(g, p, form, cfg, pinv, i) for i in range(n - 1)]
    if workers is None:
        workers = available_cores()
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
    return DistanceMatrix(
        matrix=D,
        p=p,
        mode=mode,
        form=form,
        graph_fingerprint=g.fingerprint(),
        config_fingerprint=cfg.fingerprint(),
        warnings=tuple(warnings),
        kept=g.kept,
    )


_DMAT_MAGIC = b"PDMX"


def save_distance_matrix(dm, path):
    """Write `dm` as the magic, a length-prefixed header of fields joined by
    0x1f, and the little-endian float payload. The kept ids follow as one
    more field only for a matrix of a restricted graph, so the matrix of a
    connected graph keeps its bytes."""
    fields = [
        str(dm.n),
        repr(dm.p),
        dm.mode,
        dm.form,
        dm.graph_fingerprint,
        dm.config_fingerprint,
        dm.meta,
    ]
    if dm.kept is not None:
        fields.append(" ".join(map(str, dm.kept)))
    header = "\x1f".join(fields).encode()
    with open(path, "wb") as f:
        f.write(_DMAT_MAGIC)
        f.write(struct.pack("<Q", len(header)))
        f.write(header)
        f.write(np.ascontiguousarray(dm.matrix, dtype="<f8").tobytes())


def load_distance_matrix(path):
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != _DMAT_MAGIC:
        raise FingerprintMismatch(f"{path} is not a distance-matrix file")
    # a cut or garbled file fails anywhere below: in the length prefix, the
    # header bytes or fields, or the float payload
    try:
        (hlen,) = struct.unpack_from("<Q", blob, 4)
        header = blob[12 : 12 + hlen]
        if len(header) != hlen:
            raise ValueError(f"header of {hlen} bytes cut at {len(header)}")
        fields = header.decode().split("\x1f")
        n, p, mode, form, graph_fp, config_fp = fields[:6]
        n, p = int(n), float(p)
        kept = tuple(int(v) for v in fields[7].split()) if len(fields) > 7 else None
        data = np.frombuffer(blob, dtype="<f8", offset=12 + hlen)
    except (struct.error, ValueError) as exc:
        raise FingerprintMismatch(f"{path}: malformed distance-matrix file ({exc})") from None
    if n < 0 or data.size != n * n:
        raise FingerprintMismatch(f"{path}: expected {n * n} floats, got {data.size}")
    if kept is not None and len(kept) != n:
        raise FingerprintMismatch(f"{path}: {len(kept)} kept ids for n={n}")
    return DistanceMatrix(
        matrix=data.reshape(n, n).copy(),
        p=p,
        mode=mode,
        form=form,
        graph_fingerprint=graph_fp,
        config_fingerprint=config_fp,
        meta=fields[6] if len(fields) > 6 else "",
        kept=kept,
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
    cap[g.ei, g.ej] = g.w
    cap[g.ej, g.ei] = g.w
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
    lengths = g.w if weighted else np.ones_like(g.w)
    A = csr_matrix((lengths, (g.ei, g.ej)), shape=(g.n, g.n))
    return float(dijkstra(A, directed=False, indices=s)[t])
