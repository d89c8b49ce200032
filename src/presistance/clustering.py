"""Distance-matrix clustering and evaluation.

k-medoids is the PAM variant (greedy BUILD initialization plus SWAP local
search) so the centers are always actual data points. SWAP takes the gains
of all k(n-k) trial swaps from one O(n^2) FastPAM1 pass (Schubert and
Rousseeuw 2019) and applies the swap PAM would choose. Farthest-first is
the greedy 2-approximation for k-center. Ties are broken by lowest index
everywhere for reproducibility.
"""

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import EigenFailure, InvalidK, LengthMismatch, NonFinite
from .graph import laplacian


@dataclass(frozen=True)
class ClusterResult:
    """Assignments plus the chosen center vertices.

    `objective` is the total within-cluster distance to the medoid for
    k-medoids (and the k-means inertia for the spectral baseline) or the
    covering radius for farthest-first.
    """

    assignments: np.ndarray
    centers: tuple
    objective: float
    seed: int
    iterations: int

    def to_json(self, extra=None):
        doc = {
            "assignments": [int(a) for a in self.assignments],
            "centers": [int(c) for c in self.centers],
            "objective": self.objective,
            "seed": self.seed,
            "iterations": self.iterations,
        }
        if extra:
            doc.update(extra)
        return json.dumps(doc, indent=2, sort_keys=True)


def _check_distance_input(D, k):
    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise InvalidK("distance matrix must be square")
    if not np.isfinite(D).all():
        # e.g. a resistance-form matrix at large p, whose values overflow
        raise NonFinite("distance matrix contains NaN or Inf")
    n = D.shape[0]
    if not (1 <= k <= n):
        raise InvalidK(f"k must be in [1, {n}], got {k}")
    return D, n


def _assign(D, centers):
    # nearest center, ties to the lowest center index
    sub = D[:, centers]
    return np.argmin(sub, axis=1)


def _pam_objective(D, centers):
    return float(D[:, centers].min(axis=1).sum())


def _pam_build(D, k):
    n = D.shape[0]
    centers = [int(np.argmin(D.sum(axis=0)))]
    nearest = D[:, centers[0]].copy()
    while len(centers) < k:
        gains = np.maximum(nearest[:, None] - D, 0.0).sum(axis=0)
        gains[centers] = -np.inf
        c = int(np.argmax(gains))
        centers.append(c)
        nearest = np.minimum(nearest, D[:, c])
    return centers


def _swap_gains(D, centers):
    # FastPAM1 (Schubert & Rousseeuw 2019): the objective decrease of every
    # (medoid slot, candidate) swap from one O(n^2) pass. A point outside
    # the removed medoid's cluster only moves if the candidate is closer
    # (T); a point inside it moves to the candidate or to its second-nearest
    # medoid, whichever is closer (E corrects T for those points).
    points = np.arange(D.shape[0])
    sub = D[:, centers]
    nearest = np.argmin(sub, axis=1)
    dn = sub[points, nearest]
    if len(centers) > 1:
        ds = np.partition(sub, 1, axis=1)[:, 1]
    else:
        ds = np.full(D.shape[0], np.inf)
    T = np.minimum(D - dn[:, None], 0.0)
    E = np.minimum(D, ds[:, None]) - dn[:, None] - T
    onehot = np.zeros((len(centers), D.shape[0]))
    onehot[nearest, points] = 1.0
    gains = -(T.sum(axis=0)[None, :] + onehot @ E)
    gains[:, centers] = -np.inf
    return gains


def _pam_pick(gains):
    # PAM's choice: scan the gains in order and keep one only if it beats
    # the best so far (starting at 0) by more than 1e-12; None if none does
    best, pick, start = 0.0, None, 0
    while start < gains.size:
        above = gains[start:] > best + 1e-12
        step = int(np.argmax(above))
        if not above[step]:
            break
        pick = start + step
        best = gains[pick]
        start = pick + 1
    return pick


def _pam_swap(D, centers):
    centers = list(centers)
    iterations = 0
    while True:
        pick = _pam_pick(_swap_gains(D, centers).ravel())
        if pick is None:
            break
        mi, h = divmod(pick, D.shape[0])
        centers[mi] = h
        iterations += 1
    # exact, not a running total of gains, so restarts compare exact values
    return centers, _pam_objective(D, centers), iterations


def pam_build_run(D, k):
    """The first run of `k_medoids(D, k)`: PAM SWAP from the BUILD
    initialization, as (centers, objective, iterations). It does not depend
    on the seed, so a caller clustering one matrix under many seeds
    computes it once and passes it to each call as `build`."""
    D, _ = _check_distance_input(D, k)
    centers, obj, iterations = _pam_swap(D, _pam_build(D, k))
    return tuple(centers), obj, iterations


def k_medoids(D, k, seed=0, restarts=1, build=None):
    """PAM k-medoids on a symmetric zero-diagonal distance matrix.

    The first run starts from the deterministic BUILD initialization; any
    additional restarts start from seeded random center subsets. The best
    run by objective wins (ties to the earliest run). Deterministic given
    (seed, restarts).

    `build` must be `pam_build_run(D, k)` of this same matrix, the first
    run, computed when left out. Only its number of centers is checked: a
    run of another matrix with the same k gives a wrong result.
    """
    D, n = _check_distance_input(D, k)
    if restarts < 1:
        raise InvalidK("restarts must be at least 1")
    if build is None:
        build = pam_build_run(D, k)
    elif len(build[0]) != k:
        raise InvalidK(f"the BUILD run has {len(build[0])} centers, k is {k}")
    rng = np.random.default_rng(seed)
    best = None
    for run in range(restarts):
        if run == 0:
            centers, obj, iterations = build
        else:
            init = sorted(int(v) for v in rng.choice(n, size=k, replace=False))
            centers, obj, iterations = _pam_swap(D, init)
        if best is None or obj < best[0] - 1e-12:
            best = (obj, centers, iterations)
    obj, centers, iterations = best
    order = sorted(centers)
    labels = _assign(D, order)
    return ClusterResult(
        assignments=labels,
        centers=tuple(order),
        objective=obj,
        seed=seed,
        iterations=iterations,
    )


def farthest_first(D, k, start=0):
    """Greedy k-center (Gonzalez): repeatedly add the point farthest from
    the chosen centers. Objective is the covering radius."""
    D, n = _check_distance_input(D, k)
    if not (0 <= start < n):
        raise InvalidK(f"start must be a vertex index, got {start}")
    centers = [start]
    mind = D[:, start].copy()
    while len(centers) < k:
        nxt = int(np.argmax(mind))  # argmax takes the lowest index on ties
        centers.append(nxt)
        mind = np.minimum(mind, D[:, nxt])
    order = sorted(centers)
    labels = _assign(D, order)
    return ClusterResult(
        assignments=labels,
        centers=tuple(order),
        objective=float(D[:, order].min(axis=1).max()),
        seed=start,
        iterations=k,
    )


def _kmeans(X, k, rng, n_iter=100):
    n = X.shape[0]
    # ++-style seeding
    centers = [X[int(rng.integers(0, n))]]
    for _ in range(1, k):
        d2 = np.min(
            [np.sum((X - c) ** 2, axis=1) for c in centers], axis=0
        )
        total = d2.sum()
        if total <= 0:
            centers.append(X[int(rng.integers(0, n))])
            continue
        centers.append(X[int(rng.choice(n, p=d2 / total))])
    centers = np.array(centers)
    labels = np.full(n, -1, dtype=int)
    for _it in range(n_iter):
        dists = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(dists, axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            mask = labels == c
            if mask.any():
                centers[c] = X[mask].mean(axis=0)
    inertia = float(((X - centers[labels]) ** 2).sum())
    return labels, centers, inertia


def sc2_baseline(g, k, seed=0, restarts=10):
    """Standard spectral clustering with the unnormalized Laplacian.

    Embeds vertices with the bottom-k eigenvectors (the constant one
    included) and clusters the rows with seeded k-means.
    """
    if not (1 <= k <= g.n):
        raise InvalidK(f"k must be in [1, {g.n}], got {k}")
    L = laplacian(g)
    try:
        _, vecs = np.linalg.eigh(L)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    X = vecs[:, :k]
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        labels, centers, inertia = _kmeans(X, k, rng)
        if best is None or inertia < best[2] - 1e-12:
            best = (labels, centers, inertia)
    labels, centers, inertia = best
    # report the vertex nearest to each centroid as that cluster's center
    reps = []
    for c in range(k):
        d = ((X - centers[c]) ** 2).sum(axis=1)
        reps.append(int(np.argmin(d)))
    return ClusterResult(
        assignments=labels,
        centers=tuple(reps),
        objective=inertia,
        seed=seed,
        iterations=restarts,
    )


@dataclass(frozen=True)
class Evaluation:
    """Error rate under the best matching of predicted to true classes."""

    error_rate: float
    matching: tuple


def error_rate(pred, truth):
    """Fraction misclassified, minimized over bijections between predicted
    clusters and true classes.

    Maximum-weight matching on the confusion matrix; invariant under any
    relabeling of either side.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise LengthMismatch(
            f"label vectors must match, got {pred.shape} and {truth.shape}"
        )
    n = pred.size
    pred_ids, pred_dense = np.unique(pred, return_inverse=True)
    true_ids, true_dense = np.unique(truth, return_inverse=True)
    kp, kt = len(pred_ids), len(true_ids)
    size = max(kp, kt)
    confusion = np.zeros((size, size), dtype=int)
    np.add.at(confusion, (pred_dense, true_dense), 1)
    rows, cols = linear_sum_assignment(-confusion)
    best_hits = int(confusion[rows, cols].sum())
    matching = tuple(zip(rows.tolist(), cols.tolist()))
    return Evaluation(error_rate=1.0 - best_hits / n, matching=matching)
