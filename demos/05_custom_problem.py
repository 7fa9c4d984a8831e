"""Define a problem from a JSON document and solve it end to end.

Objectives are expression strings over y[i] and x[j]; gradients are
derived symbolically and the linear/quadratic structure is detected from
the polynomial degree. The same document drives the command line:

    bilevelpen solve --problem my_problem.json --epsilon 0.01
"""

import json
import pathlib
import tempfile

import bilevelpen as bp

doc = {
    "name": "tilted-segment",
    "dim_y": 1,
    "dim_x": 2,
    # follower set: the segment x0 + x1 = 1, x >= 0
    "A": [[1.0, 1.0]],
    "b": [1.0],
    "K_lower": [0.0],
    "K_upper": [1.0],
    # the follower prefers small x0 only weakly through y
    "f": "1 + y[0] + x[0]",
    "h": "y[0] * x[0]",
}

problem = bp.problem_from_dict(doc)
report = bp.validate_problem(problem)
print(f"{problem.name}: all standing assumptions hold: {report.all_passed}")
print(f"  leader objective: {problem.leader_objective.structure}")
print(f"  follower objective: {problem.follower_objective.structure}")

# At y > 0 the follower argmin is the single vertex (0, 1); at y = 0 the
# whole segment is optimal and the worst case selects x0 = 0 again, so
# the leader simply maximizes 1 + y.
oracle = bp.solve_three_level(problem)
print(f"  oracle: y* {oracle.y[0]:.4f}, leader value {oracle.leader_value:.6f}")

sol = bp.solve_penalized(problem, 0.01)
print(f"  penalized solve at eps 0.01: y {sol.y[0]:.4f}, value {sol.value:.6f}")

with tempfile.TemporaryDirectory() as tmp:
    path = pathlib.Path(tmp) / "problem.json"
    path.write_text(json.dumps(doc, indent=2))
    reloaded = bp.load_problem(path)
    again = bp.solve_penalized(reloaded, 0.01)
    print(f"  reloaded from JSON, same result: {again.value == sol.value}")
