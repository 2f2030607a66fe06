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


def test_a_saved_table_pairs_the_seeds_of_another_run(tmp_path, seed_sweep, capsys):
    """``--json`` saves each seed's z, gate result and jump residuals;
    ``--against`` that table prints each seed's change in z, which is 0
    against the same checkout, and names a seed whose gate result differs."""
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY_FACTOR))
    assert main(["price-multi", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    field, table = str(tmp_path / "run" / "field"), tmp_path / "z.json"
    assert seed_sweep.main([str(config), field, "--seeds", "3-4", "--json", str(table)]) == 0
    rows = json.loads(table.read_text())
    assert [row["seed"] for row in rows] == [3, 4]
    for row in rows:
        assert set(row) == {"seed", "z", "passed", "above_residual", "below_residual"}
        assert math.isfinite(row["z"]) and isinstance(row["passed"], bool)
    capsys.readouterr()

    rows[1]["z"] += 0.5
    rows[1]["passed"] = not rows[1]["passed"]
    other = tmp_path / "other.json"
    other.write_text(json.dumps(rows))
    assert seed_sweep.main([str(config), field, "--seeds", "3-4", "--against", str(other)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[-1] == "dz"
    assert lines[1].split()[-1] == "+0.00e+00"
    assert lines[2].split()[-1] == "-5.00e-01!"
    assert lines[-1] == ("paired over 2 seeds: max |dz| 0.5; "
                         "gate result changed at seeds: [4]")
