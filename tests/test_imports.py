"""scipy loads only where a quadratic is filtered.

Checked in a fresh interpreter: this suite's own modules import scipy, so
``sys.modules`` here says nothing about what noiseamp loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from noiseamp.cli import run

SRC = Path(__file__).resolve().parents[1] / "src"

QUADRATIC = ["simulate", "--algo", "hb", "--spectrum", "1,10", "--steps",
             "2000", "--seed", "3"]

# Every command but a quadratic simulate, small enough to run at once.
WITHOUT_SCIPY = [
    ["analyze", "--algo", "na", "--spectrum", "1,4,9"],
    ["bounds", "--algo", "gd", "--kappa", "4", "--n", "2"],
    ["certify", "--algo", "na", "--kappa", "10", "--n", "2"],
    ["tune", "--algo", "hb", "--spectrum", "1,5,25"],
    ["consensus", "--algo", "gd", "--torus", "2,8"],
    ["sweep", "--algo", "gd", "--d", "1", "--n0", "8,12,16,20"],
    ["simulate", "--algo", "hb", "--spectrum", "1,4", "--steps", "500",
     "--objective", "pseudo-huber"],
    ["simulate", "--algo", "na", "--spectrum", "1,4", "--steps", "50",
     "--replicates", "3", "--objective", "pseudo-huber"],
]

SCRIPT = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import noiseamp.cli
seen = [["import noiseamp.cli", scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = noiseamp.cli.run(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    seen.append([" ".join(argv), scipy_modules()])
print(json.dumps({"seen": seen, "report": json.loads(out.getvalue())}))
"""


def test_only_a_quadratic_simulate_loads_scipy(tmp_path, capsys):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(WITHOUT_SCIPY + [QUADRATIC])],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    # Nothing of scipy after the import and after each command but the
    # last ...
    for step, modules in result["seen"][:-1]:
        assert modules == [], step
    # ... and the quadratic simulate, which filters, loads it and gives
    # the report of a run in this process, bit for bit.
    assert "scipy.signal" in result["seen"][-1][1]
    assert run(QUADRATIC) == 0
    assert result["report"] == json.loads(capsys.readouterr().out)
