"""What p tunes: cuts at small p, paths at large p.

As p -> 1 the p-resistance approaches the reciprocal minimum cut; as
p -> inf its 1/(p-1) power approaches the unweighted hop distance. The two
combinatorial oracles make this measurable at finite p.
"""

from presistance import (
    SolverConfig,
    exact_presistance,
    generate,
    mincut,
    shortest_path,
)

cfg = SolverConfig(grad_tol=1e-10)

print("== broom: 3 parallel paths of 3 edges between vertices 0 and 7 ==")
g = generate("broom_a", delta=3, zeta=3)
mc = mincut(g, 0, 7)
hop = shortest_path(g, 0, 7, weighted=False)
print(f"min-cut = {mc:.0f}, hop distance = {hop:.0f}")
for p in (1.05, 1.5, 3.0, 10.0, 50.0):
    r = exact_presistance(g, p, 0, 7, cfg)
    print(f"p={p:5.2f}: r = {r:.4f} (1/mincut = {1 / mc:.4f}), "
          f"r^(1/(p-1)) = {r ** (1 / (p - 1)):.4f} (hop = {hop:.0f})")

print("\n== adding a direct edge (broom_b) moves the small-p side ==")
gb = generate("broom_b", delta=3, zeta=3)
mc = mincut(gb, 0, 7)
print(f"min-cut now {mc:.0f}")
r = exact_presistance(gb, 1.05, 0, 7, cfg)
print(f"p=1.05: r = {r:.4f} vs 1/mincut = {1 / mc:.4f}")
r = exact_presistance(gb, 50.0, 0, 7, cfg)
print(f"p=50: metric = {r ** (1 / 49):.4f} vs hop = "
      f"{shortest_path(gb, 0, 7, weighted=False):.0f} (the direct edge)")

print("\n== weighted 6-path with one weak edge ==")
g3 = generate("example_g3", eps=0.01)
r = exact_presistance(g3, 1.05, 0, 5, cfg)
print(f"p=1.05 across the weak edge: r = {r:.2f} "
      f"(1/mincut = {1 / mincut(g3, 0, 5):.2f}: the eps edge dominates)")
r = exact_presistance(g3, 50.0, 0, 5, cfg)
print(f"p=50: metric = {r ** (1 / 49):.3f} "
      f"(hop = {shortest_path(g3, 0, 5, weighted=False):.0f}: weights ignored)")
