"""Exact and approximated effective p-resistance.

The exact route pins a unit potential drop between a vertex pair and
minimizes the graph p-energy over the free coordinates with damped Newton
steps: each step solves the Laplacian weighted by the edge curvatures,
restricted to the free vertices, and Armijo backtracking on the smoothed
energy damps it. It starts from the p = 2 (harmonic) potentials
L+ (e_i - e_j), the pseudoinverse columns whose conjugate-exponent seminorm
the approximate route evaluates: one Laplacian pseudoinverse per graph
serves every pair of both routes. `_edge_kernel` is the one kernel for the
(smoothed) energy, its gradient and its edge curvatures. The approximate
metric of every pair is read off column blocks of L+: a block of edges
gathers its slab of the drops array L+ C^T from L+ (`_slab`), and a pair's
drops over the block are the difference of two of its rows, so no path
holds the whole array. `distance_matrices` builds the approximate all-pairs
matrices of one graph for a whole p grid. Divided by one power of two, no
pair drop exceeds 1: the pairs that are edges take the symmetric pass
`_edge_pair_sums`, which logs each (edge, edge) drop once for both of its
edges, the other pairs the plain mode of `_pair_sums`, and a pair that the
skip rule (`_unit_scale`) or the trust rule rejects at some p takes its
peak-scaled mode at every p, as the pairs of `approx_metrics` do. Every
tile of both passes logs each drop once (`_log`) and takes its powers at
every p in one step (`_powers`), and the matrices have the same bytes for
any thread count. `distance_matrix` in approximate mode is its one-p call.
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

from .errors import DimensionMismatch, FingerprintMismatch, InvalidParams, InvalidP
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
        if not 0 < self.grad_tol < np.inf:
            raise InvalidP(f"grad_tol must be positive and finite, got {self.grad_tol}")

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


def exact_presistance(g, p, i, j, cfg=None, pinv=None):
    """Exact p-resistance of the pair (i, j): the reciprocal of the minimal
    pinned energy of `ssl_solve`, started from `pinv` (the graph's
    `LaplacianPinv`, computed when left out). A solve that did not converge
    gives its best-so-far value; a caller that needs its convergence record
    calls `ssl_solve`.
    """
    return 1.0 / ssl_solve(g, p, i, j, cfg, pinv).energy


def _check_pair(g, i, j):
    """Raise `DimensionMismatch` unless i, j are distinct vertices of `g`."""
    if i == j or not (0 <= i < g.n and 0 <= j < g.n):
        raise DimensionMismatch(f"invalid pair ({i},{j}) for n={g.n}")


# drops per block of pairs in the all-pairs kernel: the block and its one
# exp temporary stay in cache while every p of the grid passes over them.
# A tile of the symmetric edge pass at a single p needs no temporary, as
# its exp works in place, and takes twice this many. A column block of that
# pass gathers a slab of about this many drops
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


def _checked_workers(workers):
    """`workers`, or the cores available when it is None; below 1 it is an
    `InvalidParams`, as the CLI's `--workers` is."""
    if workers is not None and workers < 1:
        raise InvalidParams(f"workers must be at least 1, got {workers}")
    return available_cores() if workers is None else workers


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


def _powers(logs, qs, spare):
    """exp(q logs) at each q of `qs`, in that order: the power step of
    every tile of the approximate kernel. The last q is taken in place over
    `logs`, the others into the front of the flat buffer `spare` (empty at
    one q), so each is read before the next is taken. A zero drop, logged
    as -inf, gives exactly 0."""
    for k, q in enumerate(qs):
        pw = logs if k == len(qs) - 1 else spare[: logs.size].reshape(logs.shape)
        yield np.exp(np.multiply(logs, q, out=pw), out=pw)


def _drop_rows(drops, a, b, start, out):
    """out[r] = drops[a[r], start:] - drops[b[r], start:]. A run of rows
    with one a and consecutive b is one subtract from a contiguous slab of
    `drops`: a complete graph's edges come in such runs, and a gather of
    them costs several times more. Rows whose runs are shorter than four on
    average, as a k-NN graph's edges are, are gathered `_BLOCK_DROPS` / 4
    drops at a time instead: a subtract per row costs more in calls than
    the gather on short rows."""
    cuts = np.flatnonzero((a[1:] != a[:-1]) | (b[1:] != b[:-1] + 1)) + 1
    if 4 * cuts.size > a.size:
        src = drops[:, start:]
        step = max(1, _BLOCK_DROPS // (4 * src.shape[1]))
        for s in range(0, a.size, step):
            np.subtract(src[a[s : s + step]], src[b[s : s + step]],
                        out=out[s : s + step])
        return out
    for s, e in zip([0, *cuts], [*cuts, a.size]):
        np.subtract(drops[a[s], start:], drops[b[s] : b[s] + e - s, start:],
                    out=out[s:e])
    return out


def _row_pieces(mask):
    """The pieces (a, lo, hi, a n + lo) of the true entries of the n x n
    `mask`: each run of them in row a, columns lo to hi - 1, after a lone
    false entry between two true ones of a row is made true. Walking that
    pair costs less than a second subtract per column block, and its sum
    is not read."""
    walk = mask.copy()
    walk[:, 1:-1] |= mask[:, :-2] & mask[:, 2:]
    # each row's changes alternate between the starts and ends of its runs
    rows, cols = np.nonzero(np.diff(walk, prepend=False, append=False, axis=1))
    return rows[::2], cols[::2], cols[1::2], rows[::2] * len(mask) + cols[::2]


def _pair_pieces(a, b):
    """The pieces (a, lo, hi, r) of the pairs (a[r], b[r]): each run of
    pairs with one a and consecutive b is one piece, r its first pair."""
    r = np.flatnonzero((np.diff(a, prepend=-1) != 0) | (np.diff(b, prepend=-1) != 1))
    return a[r], b[r], b[r] + np.diff(r, append=a.size), r


def _tiles(pieces, rows):
    """The pieces (a, lo, hi, d) in tiles of at most `rows` rows, a piece
    cut where a tile fills: each tile is its row count and its list of
    (a, lo, hi, d, o), o the row of the tile where the piece starts."""
    tiles, tile, o = [], [], 0
    for a, lo, hi, d in zip(*(np.asarray(x).tolist() for x in pieces)):
        while lo < hi:
            k = min(hi - lo, rows - o)
            tile.append((a, lo, lo + k, d, o))
            lo, d, o = lo + k, d + k, o + k
            if o == rows:
                tiles.append((o, tile))
                tile, o = [], 0
    return tiles + [(o, tile)] if tile else tiles


def _pair_sums(L, c, g, qs, pieces, out, workers=1, peak=False):
    """Add the sum over edges of w |drop|^q of the pairs of each piece
    (a, lo, hi, d) into `out`: pair (a, lo + i) into out[k, d + i] at
    q = qs[k]; returns `out`. The drops of column v of `L` (columns of L+)
    over a column block of edges are row v of its slab, so a piece takes
    one subtract per block, and each block adds its sums in block order.
    Plain mode divides the slabs by c, a power of two that keeps every pair
    drop below 1. With `peak` (and c = 1) a first walk finds each pair's
    largest drop magnitude, the second divides by it, and the entry is that
    peak to the q times the sum, so that huge q stays in range. Each drop
    is logged once, each q costs one exp and one product per tile, and a
    zero drop adds exactly 0. The tiles of about `_BLOCK_DROPS` drops do not
    depend on the thread count; each of `workers` threads walks every block
    for its run of tiles, with one slab and a buffer of one tile, two with
    more than one q (the second for `_powers`).
    """
    width = max(1, _BLOCK_DROPS // L.shape[1])
    tiles = _tiles(pieces, max(1, _BLOCK_DROPS // min(width, g.m)))
    # a few sampled pairs need far less than a full tile
    size = max((rows for rows, _ in tiles), default=0) * min(width, g.m)
    top = np.zeros(out.shape[1]) if peak else None
    local = threading.local()

    def tile_peaks(tile, drops, w):
        most = drops.max(axis=1)
        for _, lo, hi, d, o in tile:
            np.maximum(top[d : d + hi - lo], most[o : o + hi - lo],
                       out=top[d : d + hi - lo])

    def tile_sums(tile, drops, w):
        for _, lo, hi, d, o in tile if peak else ():
            drops[o : o + hi - lo] /= top[d : d + hi - lo, None]
        for k, pw in enumerate(_powers(_log(drops), qs, local.flat[size:])):
            # one pair sums in einsum's own loop: the BLAS dot product it
            # would otherwise call is threaded above 10000 edges and stalls
            # for milliseconds in some processes
            sums = np.einsum("e,e->", w, pw[0])[None] if len(pw) == 1 else pw @ w
            for _, lo, hi, d, o in tile:
                out[k, d : d + hi - lo] += sums[o : o + hi - lo]

    def walk(run, fn):
        if not hasattr(local, "flat"):
            local.flat = np.empty(size * (2 if len(qs) > 1 else 1))
        for s in range(0, g.m, width):
            slab, w = _slab(L, g, s, min(g.m, s + width), c), g.w[s : s + width]
            for rows, tile in run:
                drops = local.flat[: rows * w.size].reshape(rows, w.size)
                for a, lo, hi, _, o in tile:
                    np.subtract(slab[a], slab[lo:hi], out=drops[o : o + hi - lo])
                fn(tile, np.abs(drops, out=drops), w)
            del slab  # freed before the next is gathered

    # one run of tiles per worker
    per_run = max(1, -(-len(tiles) // workers))
    runs = [tiles[i : i + per_run] for i in range(0, len(tiles), per_run)]
    for fn in (tile_peaks, tile_sums) if peak else (tile_sums,):
        list(_ordered_map(lambda run: walk(run, fn), runs, workers))
        if fn is tile_peaks:
            top[top == 0.0] = 1.0
    if peak:
        out *= top ** np.array(qs)[:, None]
    return out


def _slab(L, g, s, t, c):
    """The k x (t - s) slab whose row v holds the drops L[ei[e], v] -
    L[ej[e], v] of column v of `L` over the edges e in [s, t), divided by
    c: for L = L+, exactly symmetric, the columns [s, t) of the drops array
    L+ C^T. Rows of `L` gather several times faster than columns, so the
    edges' rows are gathered and divided by c as they are transposed,
    straight into the slab, in pieces of about `_BLOCK_DROPS` / 8 floats:
    the slab is the call's one array of its size. The pieces are sized in
    floats, not edges, so a two-column `L` takes thousands of edges per
    piece."""
    out = np.empty((L.shape[1], t - s))
    step = max(1, _BLOCK_DROPS // (8 * L.shape[1]))
    for a in range(s, t, step):
        b = min(t, a + step)
        piece = np.take(L, g.ei[a:b], axis=0)
        piece -= np.take(L, g.ej[a:b], axis=0)
        np.divide(piece.T, c, out=out[:, a - s : b - s])
    return out


def _unit_scale(Lp, g, qs, floor):
    """The one scale of the fast passes, and their skip rule.

    reach[v] is the largest drop magnitude of row v of the drops array
    L+ C^T, read off its slabs in one pass. c is the smallest power of two
    above twice the largest drop magnitude. Divided by c, every drop is
    below 1/2, so every pair drop, a difference of two of them, is below 1
    and none of its powers overflows; and a division by a power of two is
    exact down to the smallest normal float. A pair's drop is at most
    reach[a] + reach[b] < c, so its sum over edges of w |drop / c|^q is at
    most the sum of w times ((reach[a] + reach[b]) / c)^q, which falls as q
    grows. Returns c, c^q at each q of `qs` (as a column), and the n x n
    mask of the pairs (a, b), a < b, for which that bound is at least
    `floor` at the largest q: a pair for which it is not cannot be trusted
    at every q, and where c^q is not a normal float at some q no pair can.
    """
    reach = np.zeros(g.n)
    width = max(1, _BLOCK_DROPS // g.n)
    for s in range(0, g.m, width):
        slab = _slab(Lp, g, s, min(g.m, s + width), 1.0)
        np.maximum(reach, slab.max(axis=1), out=reach)
        np.maximum(reach, -slab.min(axis=1), out=reach)
    top, total = reach.max(), g.w.sum()
    live = np.triu(np.ones((g.n, g.n), dtype=bool), 1)
    with np.errstate(over="ignore", under="ignore"):
        c = np.ldexp(1.0, np.frexp(top)[1] + 1)
        scale = c ** np.array(qs)[:, None]
        # the bounds of a few rows at a time: no n x n array of floats
        for r in range(0, g.n, width):
            pair = (reach[r : r + width, None] + reach) / c
            live[r : r + width] &= total * pair ** max(qs) >= floor
    if not (0.0 < top < np.inf and np.all((scale >= _TINY) & (scale < np.inf))):
        live[:] = False
    return c, scale, live


def _edge_pair_sums(Lp, c, g, qs, workers=1):
    """Plain sum over edges e of w[e] |T[f, e]|^q of every edge pair
    (ej[f], ei[f]) at each q of `qs`, for drops of L+ (`Lp`) divided by the
    power of two c so that |T| <= 1.

    The drops of the edge pairs over the edges, T[f, e] = D[ei[f], e] -
    D[ej[f], e] with D = Lp C^T / c, form the symmetric matrix C Lp C^T / c.
    Each drop of its strict upper triangle is exponentiated once per q, and
    it adds to the sums of both its row and its column; the diagonal, the
    scaled p = 2 resistances R of the edges, adds w |R|^q, taken with `**`.

    D is never held whole, nor is a scaled copy of L+. Each column block E
    of `_BLOCK_DROPS` // n edges gathers its n x |E| slab of D once, divided
    by c as it is transposed, so every entry has the bytes it has in the
    whole drops array divided by c. The block's rows f < e are taken in
    tiles with one matrix-vector product into their rows and one into
    their columns per q: the rows above the block in tiles of the full
    block width, and the block's own rows in four strips [r, r2), each
    with the columns [r, t) right of its start. Each thread holds one slab
    and 2 `_BLOCK_DROPS` floats for its tiles: with several q a tile of
    about `_BLOCK_DROPS` entries leaves the other half to `_powers`, and at
    one q, whose power it takes in place over the logs, a tile fills the
    whole budget and there are half as many. A strip's entries on and below
    the diagonal of its square [r, r2) are logged as 1s and zeroed after
    each exp: a zero would log to -inf, whose exp is several times slower.
    Four strips log an eighth of the block's square this way, where one
    would log half of it. The blocks go to `workers` threads, the widest
    first, and this thread adds their tiles' products into the sums in that
    order, so the sums do not depend on the thread count.
    """
    m = g.m
    ei, ej, w = g.ei, g.ej, g.w
    resist = np.abs((Lp[ei, ei] - Lp[ei, ej]) / c - (Lp[ej, ei] - Lp[ej, ej]) / c)
    sums = w * resist ** np.array(qs)[:, None]
    budget = _BLOCK_DROPS * (2 if len(qs) == 1 else 1)
    width = max(1, _BLOCK_DROPS // g.n)
    local = threading.local()

    def tiles(s, t):
        # (first row, end row, first column) of each tile of block [s, t)
        k = t - s
        rows = max(1, max(budget, m) // k)
        strip = min(rows, -(-k // 4))
        return ([(r, min(s, r + rows), s) for r in range(0, s, rows)]
                + [(r, min(t, r + strip), r) for r in range(s, t, strip)])

    def products(block):
        # the row and column products of each tile of the block, at each q
        s, t = block
        if not hasattr(local, "flat"):
            local.flat = np.empty(2 * max(_BLOCK_DROPS, m))
        slab = _slab(Lp, g, s, t, c)
        spans = tiles(s, t)
        out = []
        for r, r2, c0 in spans:
            k = r2 - r
            size = k * (t - c0)
            blk = local.flat[:size].reshape(k, t - c0)
            _drop_rows(slab, ei[r:r2], ej[r:r2], c0 - s, blk)
            np.abs(blk, out=blk)
            # a strip of the block's own rows masks its square
            below = np.tri(k, dtype=bool) if c0 == r else None
            if below is not None:
                np.copyto(blk[:, :k], 1.0, where=below)
            tile = []
            for pw in _powers(_log(blk), qs, local.flat[size:]):
                if below is not None:
                    np.copyto(pw[:, :k], 0.0, where=below)
                tile.append((pw @ w[c0:t], w[r:r2] @ pw))
            out.append(tile)
        return spans, out

    # the last block holds the most rows: taken first, it does not keep
    # one thread busy after the others are done
    blocks = [(s, min(m, s + width)) for s in range(0, m, width)][::-1]
    for (s, t), (spans, out) in zip(blocks, _ordered_map(products, blocks, workers)):
        for (r, r2, c0), tile in zip(spans, out):
            for k, (row, col) in enumerate(tile):
                sums[k, r:r2] += row
                sums[k, c0:t] += col
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
    entry [k, r] is the metric of pairs[r] at ps[k]. One peak-scaled walk
    of `_pair_sums` over the columns of L+ at the pairs' vertices takes
    them all; a sweep of a few sampled pairs over a p grid costs one call
    instead of one per value.
    """
    qs = tuple(conjugate_exponent(p) for p in ps)
    pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
    for i, j in pairs:
        _check_pair(g, i, j)
    pinv = _checked_pinv(pinv, g)
    verts, at = np.unique(pairs, return_inverse=True)
    a, b = at.reshape(-1, 2).T
    sums = _pair_sums(pinv.matrix[:, verts], 1.0, g, qs, _pair_pieces(a, b),
                      np.zeros((len(qs), a.size)), peak=True)
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
    available to the process; below 1, `InvalidParams`). The matrices have
    the same bytes for any thread count and any order of `ps`.

    At p = 2 the matrix takes its closed form. The other p share one walk
    over column blocks of L+, each the edge drops of the L+ columns over a
    block of edges, in these steps. `_unit_scale` gives the one power of two
    c that divides the drops, and its skip rule keeps a pair out of the fast
    passes where its bound is below the floor (m `_SUM_FLOOR`, times the
    largest weight where that is above 1). The pairs that are edges take
    the symmetric pass `_edge_pair_sums`, which logs each (edge, edge) drop
    once instead of twice, and the other pairs the plain mode of
    `_pair_sums`. The trust rule keeps an entry, c^q times its sum, where
    the sum is at least the floor and the entry is finite and positive. A
    pair that either rule rejects at some p takes the peak-scaled mode of
    `_pair_sums` at every p.
    No path holds the n x m drops array: the kernel holds the len(ps) x n
    x n sums and, per thread, a slab and a tile of about `_BLOCK_DROPS`
    drops (a tile of the symmetric pass at a single p takes twice that).
    Each matrix but the closed form's is its layer of the sums, mirrored in
    place, and the closed form takes one n x n array.
    """
    ps = tuple(check_p(p) for p in ps)
    _check_form(form)
    pinv = _checked_pinv(pinv, g)
    workers = _checked_workers(workers)
    Lp = pinv.matrix
    n = g.n
    qs = tuple(conjugate_exponent(p) for p in ps if p != 2.0)
    if not (qs and g.m):
        upper = np.zeros((len(qs), n, n))
    else:
        floor = g.m * max(1.0, g.w.max()) * _SUM_FLOOR
        c, scale, live = _unit_scale(Lp, g, qs, floor)
        edge_sums = 0.0
        if live[g.ej, g.ei].any():
            edge_sums = _edge_pair_sums(Lp, c, g, qs, workers)
        # made after the symmetric pass: made before, these arrays sit below
        # its temporaries on the heap and raise the process's peak memory
        upper = np.zeros((len(qs), n, n))
        rest = live.copy()
        rest[g.ej, g.ei] = False
        if rest.any():
            _pair_sums(Lp, c, g, qs, _row_pieces(rest), upper.reshape(len(qs), -1), workers)
        upper[:, g.ej, g.ei] = edge_sums
        ok = upper >= floor
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            upper *= scale[:, :, None]
        ok = (ok & np.isfinite(upper) & (upper > 0.0)).all(axis=0) & live
        # an overflowing c^q makes NaN of the zero sums, below the diagonal too
        np.copyto(upper, 0.0, where=~ok)
        a, b = np.nonzero(np.triu(~ok, 1))
        if a.size:
            upper[:, a, b] = _pair_sums(Lp, 1.0, g, qs, _pair_pieces(a, b),
                                        np.zeros((len(qs), a.size)), workers, True)
    out = []
    k = 0
    for p in ps:
        if p == 2.0:
            # q = 2: the edge sum collapses to the classic effective
            # resistance (e_i - e_j)^T L+ (e_i - e_j); metric and resistance
            # forms coincide. The clamp absorbs cancellation at tiny values.
            # In place, a few rows at a time: one n x n array
            d = np.diag(Lp)
            D = np.add(Lp, Lp.T)
            rows = max(1, _BLOCK_DROPS // n)
            for r in range(0, n, rows):
                np.subtract(d[r : r + rows, None] + d, D[r : r + rows],
                            out=D[r : r + rows])
            np.maximum(D, 0.0, out=D)
            np.fill_diagonal(D, 0.0)
        else:
            # the matrix is its layer of the sums, mirrored in place (numpy
            # buffers the transposed operand it overlaps)
            D = upper[k]
            D += D.T
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
    workers = _checked_workers(workers)
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
        # the payload straight from the matrix's buffer, with no copy of it
        f.write(np.ascontiguousarray(dm.matrix, dtype="<f8").data)


def load_distance_matrix(path):
    """The `DistanceMatrix` that `save_distance_matrix` wrote to `path`; a
    file that is not one, or is cut or garbled, raises `FingerprintMismatch`.
    The payload is read straight into the matrix, the call's one array of
    its size."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if f.read(4) != _DMAT_MAGIC:
            raise FingerprintMismatch(f"{path} is not a distance-matrix file")
        # a cut or garbled file fails anywhere below: in the length prefix,
        # the header bytes or fields, or the float payload
        try:
            (hlen,) = struct.unpack("<Q", f.read(8))
            # never read more than the file holds: a garbled length is huge
            header = f.read(min(hlen, size - 12))
            if len(header) != hlen:
                raise ValueError(f"header of {hlen} bytes cut at {len(header)}")
            fields = header.decode().split("\x1f")
            n, p, mode, form, graph_fp, config_fp = fields[:6]
            n, p = int(n), float(p)
            kept = tuple(int(v) for v in fields[7].split()) if len(fields) > 7 else None
            payload = size - 12 - hlen
            if payload % 8:
                raise ValueError(f"payload of {payload} bytes is not whole floats")
            data = np.empty(payload // 8, dtype="<f8")
            if f.readinto(data) != payload:
                raise ValueError("payload cut while it was read")
        except (struct.error, ValueError) as exc:
            raise FingerprintMismatch(f"{path}: malformed distance-matrix file ({exc})") from None
    if n < 0 or data.size != n * n:
        raise FingerprintMismatch(f"{path}: expected {n * n} floats, got {data.size}")
    if kept is not None and len(kept) != n:
        raise FingerprintMismatch(f"{path}: {len(kept)} kept ids for n={n}")
    return DistanceMatrix(
        matrix=data.reshape(n, n),
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
