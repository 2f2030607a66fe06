"""scripts/design_stats.py counts lines and settable values of a source tree."""

import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "design_stats.py"

MODULE = '''\
import argparse
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Knobs:
    a: int
    b: int = 1
    c: list = field(default_factory=list)


class Plain:
    d: int = 2


def f(x, y=1, *, z=2, w):
    return lambda u=3: u


def cli():
    ap = argparse.ArgumentParser()
    ap.add_argument("--version", action="version", version="0")
    ap.add_argument("--out")
    ap.add_argument("target")
'''


def _load():
    spec = importlib.util.spec_from_file_location("design_stats", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_a_small_tree(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(MODULE)
    (tmp_path / "pkg" / "empty.py").write_text("\n\n")
    stats = _load().design_stats(tmp_path)
    assert stats == {"lines": MODULE.count("\n") + 2, "parameters": 3, "fields": 2,
                     "options": 2}


def test_prints_both_figures_for_the_package():
    out = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("src lines: ") and int(lines[0].split()[-1]) > 0
    assert lines[1].startswith("settable values: ")
