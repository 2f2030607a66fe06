"""scripts/convergence_study.py runs end to end on a two-level ladder."""

import os
import subprocess
import sys
from pathlib import Path

import carbon_fbsde

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "convergence_study.py"
SRC = str(Path(carbon_fbsde.__file__).resolve().parents[1])


def test_two_level_ladder_prints_two_rows():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, str(SCRIPT), "--levels", "2", "--base", "50"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    rows = [line.split() for line in out.stdout.splitlines()]
    assert [row[0] for row in rows if row[0].isdigit()] == ["50", "100"]
