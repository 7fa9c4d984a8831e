"""bilevelpen runs on numpy alone: with every scipy import made to fail, the
README's commands still run and exit with their documented codes."""

import json
import os
import subprocess
import sys

import bilevelpen

SRC = os.path.dirname(os.path.dirname(bilevelpen.__file__))

_NO_SCIPY = """
import contextlib
import io
import json
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, NoScipy())

from bilevelpen import cli

out = sys.argv[2]
codes = {}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes[" ".join(argv)] = cli.main([*argv, "--output", out] if argv != ["list"] else argv)
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""

# the README's command-line examples, and rates on FS, with their exit codes:
# QB's rates report an invalid certificate (the min of h + f is 3 < 4)
README_COMMANDS = {
    "list": 0,
    "solve --problem QB --epsilon 0.1 --seed 7": 0,
    "solve --problem FS --epsilon 0.01 --sign optimistic": 0,
    "continuation --problem QB --eps0 0.1 --rho 0.5 --k 12 --limit": 0,
    "oracle --problem QB --ygrid 1e-3": 0,
    "rates --problem QB": 2,
    "rates --problem FS": 0,
}


def test_readme_commands_run_with_scipy_blocked(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    argvs = json.dumps([command.split() for command in README_COMMANDS])
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, argvs, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300, check=True)
    result = json.loads(proc.stdout)
    assert result == {"codes": README_COMMANDS, "scipy": []}
