"""Weighted p-norms, graph seminorms, Laplacian pseudoinverse, and operator
p-norm estimation.

All arithmetic is 64-bit floating point. Conjugate exponents are computed as
q = p / (p - 1); every p of a p-resistance query passes `check_p` first.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    FingerprintMismatch,
    InvalidP,
    NonFinite,
    SingularShift,
    check_seed,
)
from .graph import laplacian

P_MIN = 1.0 + 1e-9
# steps of each power iteration in `matrix_op_pnorm`
_POWER_ITERATIONS = 100
# seeded random starts of the power iteration in `approximation_bound`
_BOUND_RESTARTS = 5


def check_p(p):
    """`float(p)` if p > P_MIN, the one rule every query's p passes; else
    `InvalidP`. NaN fails; +inf passes (q = 1, the approximate route's limit)."""
    if not p > P_MIN:
        raise InvalidP(f"p must exceed 1, got {p}")
    return float(p)


def conjugate_exponent(p):
    """q with 1/p + 1/q = 1; infinity maps to 1."""
    p = check_p(p)
    if p == np.inf:
        return 1.0
    return p / (p - 1.0)


def weighted_p_norm(x, w, p):
    """(sum_i w_i |x_i|^p)^(1/p); for p = inf the plain max of |x_i|.

    The infinity case drops the weights: w_i^(1/p) -> 1 as p grows, so the
    weighted norms converge to the unweighted max-absolute-entry.
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    if x.shape != w.shape:
        raise DimensionMismatch(f"x has shape {x.shape}, w has shape {w.shape}")
    if np.any(w <= 0):
        raise InvalidP("weights must be strictly positive")
    ax = np.abs(x)
    if p == np.inf:
        return float(ax.max()) if ax.size else 0.0
    if not p >= 1:
        raise InvalidP(f"p must be >= 1, got {p}")
    peak = ax.max() if ax.size else 0.0
    if peak == 0.0:
        return 0.0
    # factor out the peak so |x|^p stays in range for large p
    return float(peak * (w @ (ax / peak) ** p) ** (1.0 / p))


def graph_p_seminorm(g, x, p):
    """Edge-difference seminorm (sum over edges of w |x_i - x_j|^p)^(1/p).

    Vanishes exactly on constant vectors. Coincides with the Laplacian
    quadratic-form seminorm at p = 2.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({g.n},)")
    return weighted_p_norm(x[g.ei] - x[g.ej], g.w, p)


@dataclass(frozen=True)
class LaplacianPinv:
    """Dense Moore-Penrose pseudoinverse of a graph Laplacian.

    Carries the source graph fingerprint so pair queries can refuse a
    mismatched matrix.
    """

    matrix: np.ndarray
    fingerprint: str


def _pinv_residual(L, Lp):
    scale = max(np.linalg.norm(L), 1.0)
    return np.linalg.norm(L @ Lp @ L - L) / scale


def laplacian_pinv(g):
    """Pseudoinverse of the Laplacian of a connected graph.

    Uses the rank-one shift identity (L + J/n)^-1 - J/n, which is exact for
    connected graphs and costs one dense factorization. Falls back to a full
    eigendecomposition if the solve breaks down; raises `SingularShift` only
    when both routes fail. That route drops every eigenvalue at or below
    1e-12 max(lambda_max, 1), so a tiny lambda_2 goes too: iris at mu = 1,
    sigma = 10 (shift residual 2.7e-3) loses lambda_2 = 6.6e-14, and the L+
    of that connected graph has rank n - 2 yet passes the residual check.
    """
    L = laplacian(g)
    n = g.n
    J = np.full((n, n), 1.0 / n)
    Lp = None
    try:
        Lp = np.linalg.inv(L + J) - J
        if _pinv_residual(L, Lp) > 1e-8:
            Lp = None
    except np.linalg.LinAlgError:
        Lp = None
    if Lp is None:
        try:
            vals, vecs = np.linalg.eigh(L)
        except np.linalg.LinAlgError as exc:
            raise SingularShift("eigendecomposition failed") from exc
        nonzero = vals > 1e-12 * max(vals.max(), 1.0)
        Lp = (vecs[:, nonzero] / vals[nonzero]) @ vecs[:, nonzero].T
        if _pinv_residual(L, Lp) > 1e-8:
            raise SingularShift("pseudoinverse residual too large on both routes")
    Lp = 0.5 * (Lp + Lp.T)
    return LaplacianPinv(matrix=Lp, fingerprint=g.fingerprint())


def _checked_pinv(pinv, g):
    """`pinv` after checking it belongs to `g`; computed when None."""
    if pinv is None:
        return laplacian_pinv(g)
    if pinv.fingerprint != g.fingerprint():
        raise FingerprintMismatch(
            "pseudoinverse was computed for a different graph "
            f"({pinv.fingerprint} != {g.fingerprint()})"
        )
    return pinv


@dataclass(frozen=True)
class PNormEstimate:
    """Operator p-norm estimate; exact closed form when p is 1 or infinity."""

    value: float
    iterations: int
    exact: bool


def _signed_power(v, theta):
    return np.sign(v) * np.abs(v) ** theta


def _abs_sum_norm(M, axis):
    """Largest absolute column sum (axis 0, the operator 1-norm) or row sum
    (axis 1, the operator inf-norm) of M."""
    return float(np.abs(M).sum(axis=axis).max())


def _unit_rows(X, p):
    """The rows of X with a nonzero finite p-norm, scaled to norm 1."""
    norms = np.linalg.norm(X, ord=p, axis=1)
    keep = (norms != 0) & np.isfinite(norms)
    return X[keep] / norms[keep, None]


def matrix_op_pnorm(M, p, restarts=5, seed=0, extra_starts=()):
    """Estimate the operator p-norm of a dense matrix.

    For p in {1, inf} the exact max absolute column/row sum is returned.
    Otherwise a dual-norm power iteration (Higham & Tisseur, SIMAX 2000)
    runs from the ones vector, from `restarts` seeded random vectors and
    from any `extra_starts`, all at once as the rows of one block. A row
    leaves the block once its image is zero, its dual norm is stationary
    or its next step is zero or non-finite, and after at most
    `_POWER_ITERATIONS` steps; a zero start never enters. The value is the
    largest image norm any row reached, always a lower bound on the true
    norm, and `iterations` counts steps summed over the starts.
    """
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise NonFinite("matrix contains NaN or Inf")
    if M.ndim != 2:
        raise DimensionMismatch("matrix must be 2-d")
    if p == 1 or p == np.inf:
        return PNormEstimate(value=_abs_sum_norm(M, 0 if p == 1 else 1),
                             iterations=0, exact=True)
    q = conjugate_exponent(p)
    cols = M.shape[1]
    rng = np.random.default_rng(check_seed(seed))
    X = _unit_rows(np.vstack([
        np.ones(cols), rng.standard_normal((restarts, cols)),
        *(np.asarray(s, dtype=float) for s in extra_starts)]), p)

    # each step takes two elementwise powers, A^(p-1) of the image A = |Mx|
    # and B^(q-1) of the gradient B = |Z|, and reads every norm off them.
    # Most steps retire no row, and on the bound's small blocks masking
    # costs more than the step's reductions, so a step masks only when
    # some row leaves
    norms = []
    iterations = 0
    with np.errstate(over="ignore", under="ignore"):
        for _ in range(_POWER_ITERATIONS):
            if not X.shape[0]:
                break
            iterations += X.shape[0]
            Y = X @ M.T
            A = np.abs(Y)
            P1 = A ** (p - 1.0)
            ny = np.einsum("ij,ij->i", P1, A) ** (1.0 / p)
            norms.append(ny)
            if not ny.all():
                live = ny != 0
                X, Y, P1, ny = X[live], Y[live], P1[live], ny[live]
            # Z holds the gradients of ||Mx||_p at the rows x; stationarity
            # in the dual norm certifies a local maximum of the ratio
            Z = (np.copysign(P1, Y) / ny[:, None] ** (p - 1.0)) @ M
            B = np.abs(Z)
            Q1 = B ** (q - 1.0)
            zq = np.einsum("ij,ij->i", Q1, B)
            # the next step sign(Z) B^(q-1) has p-norm zq^(1/p), as
            # (q - 1) p = q. Extreme conjugate exponents can underflow it;
            # the image norms reached so far are still valid lower bounds
            nx = zq ** (1.0 / p)
            zx = np.einsum("ij,ij->i", Z, X)
            live = ~(zq ** (1.0 / q) <= zx * (1.0 + 1e-12) + 1e-15)
            live &= (nx != 0) & np.isfinite(nx)
            if not live.all():
                Q1, Z, nx = Q1[live], Z[live], nx[live]
            X = np.copysign(Q1, Z) / nx[:, None]
    best = float(np.concatenate(norms).max()) if norms else 0.0
    return PNormEstimate(value=best, iterations=iterations, exact=False)


@dataclass(frozen=True)
class ApproximationBound:
    """Operator p-norm of the weighted edge projector W^(1/p) P W^(-1/p),
    where P = C L+ C^T W is the p = 2 flow map of `edge_projector`, read off
    the same checked `L+` the approximation uses.

    This factor governs how loose the pseudoinverse-based resistance
    approximation can get. `estimate` is the power-iteration value, a lower
    bound on the true factor up to rounding; `value` is it clamped to
    `ceiling`, so that rounding cannot lift it above (at p = 2 both are 1).
    Checks of the estimator read `estimate`, which the clamp cannot hide.
    `worst_case` is the structure-free ceiling
    (m w_max / w_min)^|1/2 - 1/p|: the map is
    W^(1/p - 1/2) Q W^(1/2 - 1/p) for the orthogonal projector
    Q = W^(1/2) C L+ C^T W^(1/2), whose p-norm is at most m^|1/2 - 1/p|.
    `one_norm_ceiling` is the exactly computable max(1-norm, inf-norm)
    bound. `ceiling`, the smaller of the two, is a rigorous upper bound on
    weighted and unit-weight graphs alike, so the exact value always lies
    within [approx / ceiling^p, approx]; on unit weights P is C C+ and
    `worst_case` is m^|1/2 - 1/p|.
    """

    estimate: float
    worst_case: float
    one_norm_ceiling: float
    iterations: int

    @property
    def ceiling(self):
        return min(self.one_norm_ceiling, self.worst_case)

    @property
    def value(self):
        return min(self.estimate, self.ceiling)


def edge_projector(g, pinv=None):
    """C L+ C^T W, the p = 2 flow map of `g`: it sends edge drops to the
    drops of the potentials that fit them in the w-weighted least-squares
    sense, an oblique projector onto the image of the incidence matrix C.
    It is gathered from the checked `pinv` (computed when None), the same
    `L+` every pair query reads: the edge drops of the `L+` columns, and
    then their drops over each edge, times W. On unit weights it is the
    orthogonal projector C C+.
    """
    Lp = _checked_pinv(pinv, g).matrix
    drops = Lp[:, g.ei] - Lp[:, g.ej]
    return (drops[g.ei] - drops[g.ej]) * g.w


def approximation_bound(g, p, seed=0, pinv=None):
    """Estimate the approximation bound factor for a graph at exponent p.

    The flow map comes from `edge_projector(g, pinv)`, so a sweep over p
    that passes one `pinv` factors the graph once, and a graph whose `L+`
    fails raises as every pair query does. The estimate is a lower bound
    on the true factor but at least 1 up to floating-point noise: a vector
    from the projector's image (where the map acts as the identity) is
    always among the starting vectors.
    """
    p = check_p(p)
    projector = edge_projector(g, pinv)
    scale = g.w ** (1.0 / p)
    E = (scale[:, None] * projector) / scale[None, :]
    # the drops C (e_0 - e_{n-1}), scaled: in the image of E
    x = np.zeros(g.n)
    x[0], x[-1] = 1.0, -1.0
    image_start = scale * (x[g.ei] - x[g.ej])
    est = matrix_op_pnorm(E, p, restarts=_BOUND_RESTARTS, seed=seed,
                          extra_starts=(image_start,))
    worst_case = float((g.m * g.w.max() / g.w.min()) ** abs(0.5 - 1.0 / p))
    one_norm_ceiling = max(_abs_sum_norm(E, 0), _abs_sum_norm(E, 1))
    return ApproximationBound(
        estimate=est.value,
        worst_case=worst_case,
        one_norm_ceiling=one_norm_ceiling,
        iterations=est.iterations,
    )
