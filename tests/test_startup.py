"""What a fresh process loads: scipy is imported where it runs.

Each case runs in its own interpreter, since this test session has long
since imported scipy.  Importing the package, building every preset,
``describe-preset`` and a zero-volatility ``simulate`` need no root
finder, no quadrature and no normal quantile, so they must leave scipy
unloaded; ``solve`` needs the root finder, which shows that the check can
see an import at all.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import contextlib, io, json, sys
import levyou, levyou.cli as cli
from levyou import presets
for name in presets.PRESET_NAMES:
    presets.get_preset(name)
with contextlib.redirect_stdout(io.StringIO()):
    for argv in {commands!r}:
        assert cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""

NO_SCIPY = [["describe-preset"],
            ["simulate", "--preset", "benth2012", "--paths", "64",
             "--steps", "8"]]


def scipy_modules_after(commands, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(commands=commands)],
        capture_output=True, text=True, timeout=120, env=env, cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_start_up_and_a_zero_volatility_simulate_load_no_scipy(tmp_path):
    assert scipy_modules_after(NO_SCIPY, tmp_path) == []


def test_solve_loads_the_root_finder(tmp_path):
    solve = ["solve", "--preset", "benth2012"]
    assert "scipy.optimize" in scipy_modules_after([*NO_SCIPY, solve],
                                                   tmp_path)
