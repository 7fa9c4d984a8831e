"""Brute-force the nested problem for ground truth.

The oracle never touches the penalty machinery: it describes the exact
follower argmin set (the vertices of an optimal face, or a dense grid
cloud when no exact face is at hand), minimizes the
squared leader objective over that description, and sweeps the leader
box. Its certified values are what the solver traces are judged against.
"""

import bilevelpen as bp

fs = bp.registry_get("FS")
qb = bp.registry_get("QB")

print("exact follower argmin sets at y = 1/2")
d = bp.exact_lower_set(fs, [0.5])
print(f"  FS: kind {d.kind}, value {d.value}, points {d.points.tolist()}")
d = bp.exact_lower_set(qb, [0.5])
sigma = d.points[:, 0] + d.points[:, 1]
print(f"  QB: kind {d.kind}, value {d.value}, the {len(d.points)} vertices "
      f"{d.points.tolist()} of the band z1 + z2 = 1 (sums {sigma.tolist()})")

print()
print("worst-case responses at y = 1/2")
r = bp.pessimistic_select(fs, [0.5])
print(f"  FS: x {r.x.tolist()}, leader value {r.value}")
r = bp.pessimistic_select(qb, [0.5])
print(f"  QB: leader value {r.value:.6f} (constant on the whole band)")

print()
print("three-level optima")
for problem in (fs, qb):
    sol = bp.solve_three_level(problem)
    print(f"  {problem.name}: y* {sol.y[0]:.6f}, leader value {sol.leader_value:.6f}, "
          f"follower value {sol.follower_value:.2e}, method {sol.method}, "
          f"resolution {sol.resolution:g}")
