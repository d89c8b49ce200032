"""The two-sided quality guarantee for the approximation.

For every pair, exact <= approx <= factor^p * exact, where the factor is
the operator p-norm of the weighted edge projector. The factor is at least
1, at most (m w_max / w_min)^|1/2 - 1/p| (m^|1/2 - 1/p| on the unit-weight
graphs below), and at most 4 for unit-weight complete graphs and cycles.
"""

from presistance import (
    PairQuery,
    SolverConfig,
    approx_presistance,
    approximation_bound,
    exact_presistance,
    generate,
    laplacian_pinv,
    ratio_sweep,
)

cfg = SolverConfig(grad_tol=1e-10)

print("== bound factor across p (cycle on 20 vertices) ==")
g = generate("cycle", n=20)
for p in (1.5, 2.0, 3.0, 5.0, 10.0):
    b = approximation_bound(g, p)
    print(f"p={p:5.1f}: estimate {b.value:.4f}  worst-case m^|1/2-1/p| = "
          f"{b.worst_case:.4f}  exact 1-norm ceiling = {b.one_norm_ceiling:.4f}")

print("\n== sandwich on a random graph, all pairs at p=3 ==")
g = generate("gnp_connected", n=10, edge_prob=0.4, seed=5)
pinv = laplacian_pinv(g)
b = approximation_bound(g, 3.0)
lo, hi = 10.0, 0.0
for i in range(g.n):
    for j in range(i + 1, g.n):
        q = PairQuery(i, j, 3.0)
        exact, _ = exact_presistance(g, q, cfg)
        ratio = approx_presistance(pinv, g, q) / exact
        lo, hi = min(lo, ratio), max(hi, ratio)
print(f"approx/exact in [{lo:.4f}, {hi:.4f}]; "
      f"factor^p ceiling = {b.value ** 3:.4f} (estimate), "
      f"{b.ceiling ** 3:.4f} (rigorous)")

print("\n== ratio table (metric form): 1 at p=2, grows away from it ==")
rows = ratio_sweep(g, (1.5, 2.0, 3.0, 5.0), sample_pairs=5, seed=1)
for p in (1.5, 2.0, 3.0, 5.0):
    rs = [r["ratio"] for r in rows if r["p"] == p]
    print(f"p={p}: ratios {min(rs):.6f} .. {max(rs):.6f} "
          f"(ceiling {[r for r in rows if r['p'] == p][0]['bound_pow_q']:.4f})")
