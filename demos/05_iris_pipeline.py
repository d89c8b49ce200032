"""Feature CSV to clustering error, end to end.

Build a k-NN Gaussian graph from the iris features, compute the
approximated p-resistance metric for all pairs at every p of a sweep (one
pseudoinverse, one `distance_matrices` call), apply k-medoids, and score
against the labels. The sweep shows the large-p advantage on this dataset.
"""

import os
import time

from presistance import (
    GraphBuildParams,
    distance_matrices,
    error_rate,
    k_medoids,
    knn_gaussian_graph,
    laplacian_pinv,
    load_features,
    sc2_baseline,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ds = load_features(
    os.path.join(HERE, "..", "tests", "data", "iris.csv"),
    has_labels=True,
    label_column="last",
    name="iris",
)
print(f"dataset: {ds.name} n={ds.n} d={ds.d} classes={ds.n_classes}")

g = knn_gaussian_graph(ds, GraphBuildParams(mu=1.0, sigma=0.1))
print(f"graph: complete k-NN (mu=1), m={g.m}")
t0 = time.time()
pinv = laplacian_pinv(g)
print(f"pseudoinverse: {time.time() - t0:.2f}s (reused for every p below)")

t0 = time.time()
matrices = distance_matrices(g, (1.1, 2.0, 2.9, 10.0, 100.0), pinv=pinv)
print(f"metric matrices for {len(matrices)} p values: "
      f"{time.time() - t0:.2f}s (one kernel pass)")
for dm in matrices:
    res = k_medoids(dm.matrix, ds.n_classes, seed=0, restarts=3)
    err = error_rate(res.assignments, ds.labels).error_rate
    print(f"p={dm.p:6.1f}: error {err:.4f}")

sc = sc2_baseline(g, ds.n_classes, seed=0)
print(f"spectral baseline (p=2): error "
      f"{error_rate(sc.assignments, ds.labels).error_rate:.4f}")
print("\nfull grid sweep: presistance bench --features tests/data/iris.csv "
      "--out-dir bench_out")
