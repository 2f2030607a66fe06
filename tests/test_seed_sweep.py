"""scripts/seed_sweep.py on a tiny factor market."""

import argparse
import importlib.util
import json
import math
from pathlib import Path

import pytest

from carbon_fbsde.cli import main
from carbon_fbsde.config import bundled_preset

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "seed_sweep.py"

TINY_FACTOR = {**bundled_preset("two-period-factor"), "label": "tiny-factor",
               "grid": {"e_min": -0.7, "e_max": 4.0, "n_e": 160,
                        "p_min": -3.0, "p_max": 3.0, "n_p": 17},
               "simulation": {"n_paths": 200, "steps_per_period": 16, "keep_paths": 2}}


@pytest.fixture(scope="module")
def seed_sweep():
    spec = importlib.util.spec_from_file_location("seed_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_line_per_seed_and_a_summary(tmp_path, seed_sweep, capsys):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY_FACTOR))
    assert main(["price-multi", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    assert seed_sweep.main([str(config), str(tmp_path / "run" / "field"),
                            "--seeds", "3-5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["seed", "z", "gate", "above", "below", "aborted"]
    rows = [line.split() for line in lines[1:-1]]
    assert [int(row[0]) for row in rows] == [3, 4, 5]
    for row in rows:
        assert math.isfinite(float(row[1])) and row[2] in ("pass", "FAIL")
        assert float(row[5]) == 0.0
    assert len({row[1] for row in rows}) == 3  # each seed draws its own paths
    assert lines[-1].startswith("z from ") and "over 3 seeds" in lines[-1]


@pytest.mark.parametrize("text", ["5-3", "a-b", "-1", ""])
def test_refuses_a_malformed_seed_range(seed_sweep, text):
    with pytest.raises(argparse.ArgumentTypeError):
        seed_sweep.seed_range(text)
