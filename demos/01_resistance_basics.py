"""Exact vs approximated p-resistance on small graphs.

The exact value minimizes the edge energy with a unit potential drop pinned
between the pair; the approximation evaluates a conjugate-exponent seminorm
of two pseudoinverse columns and reuses one pseudoinverse for every pair.
"""

import numpy as np

from presistance import (
    SolverConfig,
    approx_metric,
    approx_presistance,
    exact_presistance,
    generate,
    laplacian_pinv,
)

cfg = SolverConfig(grad_tol=1e-10)

print("== path 0-1-2, unit weights ==")
g = generate("path", n=3)
pinv = laplacian_pinv(g)
for p in (1.5, 2.0, 3.0, 5.0):
    exact = exact_presistance(g, p, 0, 2, cfg)
    approx = approx_presistance(g, p, 0, 2, pinv)
    print(f"p={p}: exact r = {exact:.6f} = 2^(p-1), approx = {approx:.6f}, "
          f"metric r^(1/(p-1)) = {approx_metric(g, p, 0, 2, pinv):.6f}")

print("\n== triangle, all pairs equivalent ==")
k3 = generate("complete", n=3)
pinv = laplacian_pinv(k3)
exact = exact_presistance(k3, 2.0, 0, 1, cfg)
print(f"p=2: exact = {exact:.6f} (series-parallel oracle: 1 || 2 = 2/3), "
      f"approx = {approx_presistance(k3, 2.0, 0, 1, pinv):.6f}")

print("\n== trees: the approximation is exact ==")
tree = generate("random_tree", n=20, seed=7, weight_range=(0.5, 2.0))
pinv = laplacian_pinv(tree)
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(10):
    i, j = map(int, rng.choice(20, size=2, replace=False))
    p = float(rng.choice([1.5, 3.0, 10.0]))
    exact = exact_presistance(tree, p, i, j, cfg)
    approx = approx_presistance(tree, p, i, j, pinv)
    worst = max(worst, abs(approx - exact) / exact)
print(f"worst relative gap over 10 random pairs: {worst:.2e}")
