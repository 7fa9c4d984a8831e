"""The solve path loads numpy and not scipy: the Sobol starts are drawn by
numpy, and scipy.linalg's pivoted QR is imported only where it runs."""

import json
import os
import subprocess
import sys

import bilevelpen

SRC = os.path.dirname(os.path.dirname(bilevelpen.__file__))

_SOLVE_PATH = """
import json
import sys

import bilevelpen as bp

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {"import": scipy_modules()}
qb = bp.registry_get("QB")
bp.run_continuation(qb, bp.EpsSchedule(eps0=0.1, rho=0.5, k_max=4))
loaded["continuation"] = scipy_modules()
# a custom-select-style document: C is a product of two simplices
doc = {"name": "blocks", "dim_y": 1, "dim_x": 4,
       "A": [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]], "b": [1.0, 2.0],
       "K_lower": [0.0], "K_upper": [1.0],
       "f": "1 + y[0] + x[0] + 2*x[2]", "h": "(x[0] + x[2] - 1 - 0.2*y[0])^2"}
problem = bp.problem_from_dict(doc)
bp.validate_problem(problem)
bp.select_response(problem, [0.5], 0.01)
loaded["select"] = scipy_modules()
# QB's argmin face stacks rank-deficient rows: their pivoted QR is scipy's
bp.solve_three_level(qb, y_grid_step=1e-2)
loaded["oracle"] = scipy_modules()
print(json.dumps(loaded))
"""


def test_solve_path_imports_no_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", _SOLVE_PATH],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    loaded = json.loads(proc.stdout)
    assert loaded["import"] == loaded["continuation"] == loaded["select"] == []
    assert "scipy.linalg" in loaded["oracle"]
    assert "scipy.stats" not in loaded["oracle"]
