"""Weighted p-norms, graph seminorms, Laplacian pseudoinverse, and operator
p-norm estimation.

All arithmetic is 64-bit floating point. Conjugate exponents are computed as
q = p / (p - 1); every p of a p-resistance query passes `check_p` first.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidP,
    NonFinite,
    SingularShift,
)
from .graph import incidence, laplacian

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


def _unit_columns(X, p):
    """The columns of X with a nonzero finite p-norm, scaled to norm 1."""
    norms = np.linalg.norm(X, ord=p, axis=0)
    keep = (norms != 0) & np.isfinite(norms)
    return X[:, keep] / norms[keep]


def matrix_op_pnorm(M, p, restarts=5, seed=0, extra_starts=()):
    """Estimate the operator p-norm of a dense matrix.

    For p in {1, inf} the exact max absolute column/row sum is returned.
    Otherwise a dual-norm power iteration (Higham & Tisseur, SIMAX 2000)
    runs from the ones vector, from `restarts` seeded random vectors and
    from any `extra_starts`, all at once as the columns of one block. A
    column leaves the block once its image is zero, its dual norm is
    stationary or its next step is zero or non-finite, and after at most
    `_POWER_ITERATIONS` steps; a zero start never enters. The value is the
    largest image norm any column reached, always a lower bound on the true
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
    rng = np.random.default_rng(seed)
    X = _unit_columns(np.column_stack([
        np.ones(cols), *rng.standard_normal((restarts, cols)),
        *(np.asarray(s, dtype=float) for s in extra_starts)]), p)

    best = 0.0
    iterations = 0
    with np.errstate(over="ignore", under="ignore"):
        for _ in range(_POWER_ITERATIONS):
            if not X.shape[1]:
                break
            iterations += X.shape[1]
            Y = M @ X
            ny = np.linalg.norm(Y, ord=p, axis=0)
            best = max(best, float(ny.max()))
            live = ny != 0
            X, Y, ny = X[:, live], Y[:, live], ny[live]
            # Z holds the gradients of ||Mx||_p at the columns x; stationarity
            # in the dual norm certifies a local maximum of the ratio
            Z = M.T @ _signed_power(Y / ny, p - 1.0)
            nz = np.linalg.norm(Z, ord=q, axis=0)
            live = ~(nz <= np.einsum("ij,ij->j", Z, X) * (1.0 + 1e-12) + 1e-15)
            # extreme conjugate exponents can underflow the dual step; the
            # image norms reached so far are still valid lower bounds
            X = _unit_columns(_signed_power(Z[:, live], q - 1.0), p)
    return PNormEstimate(value=best, iterations=iterations, exact=False)


@dataclass(frozen=True)
class ApproximationBound:
    """Operator p-norm of the weighted edge projector W^(1/p) C C+ W^(-1/p).

    This factor governs how loose the pseudoinverse-based resistance
    approximation can get. `value` is a power-iteration estimate, a lower
    bound on the true factor. `worst_case` is the structure-free ceiling
    m^|1/2 - 1/p|, and `one_norm_ceiling` the exactly computable
    max(1-norm, inf-norm) bound; `ceiling`, the smaller of the two, is a
    rigorous upper bound, so the exact value always lies within
    [approx / ceiling^p, approx].
    """

    value: float
    worst_case: float
    one_norm_ceiling: float
    iterations: int

    @property
    def ceiling(self):
        return min(self.one_norm_ceiling, self.worst_case)


def edge_projector(g):
    """C C+, the orthogonal projector onto the image of the incidence matrix."""
    C = incidence(g)
    return C @ np.linalg.pinv(C)


def approximation_bound(g, p, seed=0):
    """Estimate the approximation bound factor for a graph at exponent p.

    The estimate is a lower bound on the true factor but at least 1 up to
    floating-point noise: a vector from the projector's image (where the map
    acts as the identity) is always among the starting vectors.
    """
    p = check_p(p)
    scale = g.w ** (1.0 / p)
    E = (scale[:, None] * edge_projector(g)) / scale[None, :]
    # the drops C (e_0 - e_{n-1}), scaled: in the image of E
    x = np.zeros(g.n)
    x[0], x[-1] = 1.0, -1.0
    image_start = scale * (x[g.ei] - x[g.ej])
    est = matrix_op_pnorm(E, p, restarts=_BOUND_RESTARTS, seed=seed,
                          extra_starts=(image_start,))
    return ApproximationBound(
        value=est.value,
        worst_case=float(g.m ** abs(0.5 - 1.0 / p)),
        one_norm_ceiling=max(_abs_sum_norm(E, 0), _abs_sum_norm(E, 1)),
        iterations=est.iterations,
    )
