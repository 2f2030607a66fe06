"""scripts/compare_runs.py on two tiny runs of the burgers preset."""

import importlib.util
import json
from pathlib import Path

import pytest

from carbon_fbsde.cli import main
from carbon_fbsde.gridio import read_grid, write_grid
from test_cli import give_a_recorded_axis

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_runs.py"


@pytest.fixture(scope="module")
def compare_runs():
    spec = importlib.util.spec_from_file_location("compare_runs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def two_runs(tmp_path):
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert main(["price-multi", "--config", "preset:burgers", "--out", str(out)]) == 0
    return runs


def test_repeated_runs_compare_identical(compare_runs, two_runs, capsys):
    a, b = two_runs
    assert compare_runs.main([str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "manifest.json: identical apart from timing" in lines
    assert "field/period_1.grid: identical" in lines
    assert all(line.endswith(("identical", "identical apart from timing"))
               for line in lines)


def test_grid_deviation_and_missing_files_are_reported(compare_runs, two_runs, capsys):
    a, b = two_runs
    grid_path = b / "field" / "period_1.grid"
    grid = read_grid(grid_path)
    grid.values[0, 5] += 3e-12
    write_grid(grid, grid_path)
    (a / "extra.txt").write_text("only here")

    assert compare_runs.main([str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "field/period_1.grid: differs, max abs deviation 3e-12" in lines
    assert "extra.txt: only in A" in lines


def test_a_grid_with_a_recorded_emissions_axis_is_reported_unreadable(
        compare_runs, two_runs, capsys):
    """As a reserve-rule period priced by an earlier version carries."""
    a, b = two_runs
    give_a_recorded_axis(b / "field", "period_1.grid")
    assert compare_runs.main([str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("field/period_1.grid: differs, unreadable grid (")
               and "recorded-emissions axis" in line for line in lines)


def test_manifest_content_differences_are_named(compare_runs, two_runs, capsys):
    a, b = two_runs
    manifest = b / "manifest.json"
    doc = json.loads(manifest.read_text())
    manifest.write_text(json.dumps({**doc, "label": "renamed", "wall_clock_utc": "now"}))
    assert compare_runs.main([str(a), str(b)]) == 1
    assert "manifest.json: differs in label" in capsys.readouterr().out.splitlines()
