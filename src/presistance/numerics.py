"""Weighted p-norms, graph seminorms, Laplacian pseudoinverse, and operator
p-norm estimation.

All arithmetic is 64-bit floating point. Conjugate exponents are computed as
q = p / (p - 1) and require p > 1 + 1e-9.
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


def conjugate_exponent(p):
    """q with 1/p + 1/q = 1; infinity maps to 1 and vice versa."""
    if p == np.inf:
        return 1.0
    if p <= P_MIN:
        raise InvalidP(f"conjugate exponent needs p > 1, got {p}")
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
    if p < 1:
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
    ei, ej, w = g.edge_index_arrays()
    return weighted_p_norm(x[ei] - x[ej], w, p)


@dataclass(frozen=True)
class LaplacianPinv:
    """Dense Moore-Penrose pseudoinverse of a graph Laplacian.

    Carries the source graph fingerprint so pair queries can refuse a
    mismatched matrix.
    """

    matrix: np.ndarray
    fingerprint: str

    @property
    def n(self):
        return self.matrix.shape[0]


def _pinv_residual(L, Lp):
    scale = max(np.linalg.norm(L), 1.0)
    return np.linalg.norm(L @ Lp @ L - L) / scale


def laplacian_pinv(g):
    """Pseudoinverse of the Laplacian of a connected graph.

    Uses the rank-one shift identity (L + J/n)^-1 - J/n, which is exact for
    connected graphs and costs one dense factorization. Falls back to a full
    eigendecomposition (discarding the zero eigenvalue) if the solve breaks
    down; raises `SingularShift` only when both routes fail.
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
    p: float
    restarts: int
    iterations: int
    exact: bool


def _signed_power(v, theta):
    return np.sign(v) * np.abs(v) ** theta


def matrix_op_pnorm(M, p, restarts=5, max_iter=100, seed=0, extra_starts=()):
    """Estimate the operator p-norm of a dense matrix.

    For p in {1, inf} the exact max absolute column/row sum is returned.
    Otherwise a dual-norm power iteration is run from the ones vector, from
    `restarts` seeded random vectors, and from any `extra_starts`; the best
    (largest) stationary value is returned. The result is always a lower
    bound on the true norm.
    """
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise NonFinite("matrix contains NaN or Inf")
    if M.ndim != 2:
        raise DimensionMismatch("matrix must be 2-d")
    if p == 1:
        return PNormEstimate(
            value=float(np.abs(M).sum(axis=0).max()),
            p=1.0,
            restarts=0,
            iterations=0,
            exact=True,
        )
    if p == np.inf:
        return PNormEstimate(
            value=float(np.abs(M).sum(axis=1).max()),
            p=np.inf,
            restarts=0,
            iterations=0,
            exact=True,
        )
    if p < 1:
        raise InvalidP(f"p must be >= 1 or inf, got {p}")
    q = conjugate_exponent(p)
    cols = M.shape[1]
    rng = np.random.default_rng(seed)
    starts = [np.ones(cols)]
    starts += [rng.standard_normal(cols) for _ in range(restarts)]
    starts += [np.asarray(s, dtype=float) for s in extra_starts]

    best = 0.0
    total_iters = 0
    for x in starts:
        nx = np.linalg.norm(x, ord=p)
        if nx == 0 or not np.isfinite(nx):
            continue
        x = x / nx
        gamma = 0.0
        with np.errstate(over="ignore", under="ignore"):
            for _ in range(max_iter):
                total_iters += 1
                y = M @ x
                ny = np.linalg.norm(y, ord=p)
                gamma = max(gamma, ny)
                if ny == 0:
                    break
                # z is the gradient of ||Mx||_p at x; stationarity in the
                # dual norm certifies a local maximum of the ratio
                z = M.T @ _signed_power(y / ny, p - 1.0)
                nz = np.linalg.norm(z, ord=q)
                if nz <= z @ x * (1.0 + 1e-12) + 1e-15:
                    break
                xn = _signed_power(z, q - 1.0)
                nxn = np.linalg.norm(xn, ord=p)
                if nxn == 0 or not np.isfinite(nxn):
                    # extreme conjugate exponents can underflow the dual
                    # step; the current gamma is still a valid lower bound
                    break
                x = xn / nxn
        best = max(best, float(gamma))
    return PNormEstimate(
        value=best, p=float(p), restarts=restarts, iterations=total_iters, exact=False
    )


@dataclass(frozen=True)
class ApproximationBound:
    """Operator p-norm of the weighted edge projector W^(1/p) C C+ W^(-1/p).

    This factor governs how loose the pseudoinverse-based resistance
    approximation can get: the exact value is always within [approx / value^p,
    approx]. `worst_case` is the structure-free ceiling m^|1/2 - 1/p|, and
    `one_norm_ceiling` the exactly computable max(1-norm, inf-norm) bound.
    """

    fingerprint: str
    p: float
    value: float
    worst_case: float
    one_norm_ceiling: float
    restarts: int
    iterations: int


def edge_projector(g, p=None):
    """C C+ (an orthogonal projector); optionally weighted by W^(1/p)."""
    C = incidence(g)
    P = C @ np.linalg.pinv(C)
    if p is None:
        return P
    w = g.weights()
    scale = w ** (1.0 / p)
    return (scale[:, None] * P) / scale[None, :]


def approximation_bound(g, p, restarts=5, max_iter=100, seed=0):
    """Estimate the approximation bound factor for a graph at exponent p.

    The estimate is a lower bound on the true factor but at least 1 up to
    floating-point noise: a vector from the projector's image (where the map
    acts as the identity) is always among the starting vectors.
    """
    if p <= P_MIN:
        raise InvalidP(f"bound factor needs p > 1, got {p}")
    E = edge_projector(g, p)
    C = incidence(g)
    w = g.weights()
    probe = np.zeros(g.n)
    probe[0] = 1.0
    probe[-1] = -1.0
    image_start = (w ** (1.0 / p)) * (C @ probe)
    est = matrix_op_pnorm(
        E, p, restarts=restarts, max_iter=max_iter, seed=seed, extra_starts=(image_start,)
    )
    ceiling = max(np.abs(E).sum(axis=0).max(), np.abs(E).sum(axis=1).max())
    return ApproximationBound(
        fingerprint=g.fingerprint(),
        p=float(p),
        value=est.value,
        worst_case=float(g.m ** abs(0.5 - 1.0 / p)),
        one_norm_ceiling=float(ceiling),
        restarts=est.restarts,
        iterations=est.iterations,
    )
