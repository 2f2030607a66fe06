"""scripts/compare_runs.py on two tiny runs of the burgers preset."""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from carbon_fbsde.cli import main
from carbon_fbsde.gridio import read_grid, write_grid
from test_cli import give_a_recorded_axis
from test_gridio import first_format_blob

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


def test_a_grid_in_another_container_is_reported_bit_identical(compare_runs, two_runs,
                                                               capsys):
    a, b = two_runs
    grid_path = b / "field" / "period_1.grid"
    grid = read_grid(grid_path)
    grid_path.write_bytes(first_format_blob(grid))
    assert compare_runs.main([str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "field/period_1.grid: differs in bytes only, values bit-identical" in lines

    # a signed zero differs by 0 but not bit for bit
    flipped = np.flatnonzero(grid.values.ravel() == 0.0)[0]
    grid.values.ravel()[flipped] = -0.0
    write_grid(grid, grid_path)
    assert compare_runs.main([str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "field/period_1.grid: differs, max abs deviation 0, and value bits differ" in lines


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


def _rewrite_csv(path, edit):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def test_csv_deviation_is_reported_over_the_numeric_cells(compare_runs, two_runs, capsys):
    a, b = two_runs
    name = "value_surface_period_1.csv"

    def nudge(lines):
        e, value = lines[5].split(",")
        lines[5] = f"{e},{float(value) + 2.5e-13!r}"
        return lines

    _rewrite_csv(b / name, nudge)
    assert compare_runs.main([str(a), str(b)]) == 1
    assert f"{name}: differs, max abs deviation 2.5e-13" in capsys.readouterr().out.splitlines()


def test_csv_text_cells_and_reshaped_csvs_are_named(compare_runs, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for root, events, paths in (
            (a, ["path,k,branch", "0,1,below", "1,1,above"], ["path,Y", "0,0.5"]),
            (b, ["path,k,branch", "0,1,below", "1,1,below"], ["path,Y", "0,0.5", "1,0.25"])):
        root.mkdir()
        (root / "events.csv").write_text("\n".join(events) + "\n")
        (root / "paths.csv").write_text("\n".join(paths) + "\n")
    assert compare_runs.main([str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "events.csv: differs, max abs deviation 0, and non-numeric cells differ" in lines
    assert "paths.csv: differs" in lines


def test_manifests_that_differ_in_grid_digests_only_are_named(compare_runs, two_runs,
                                                               capsys):
    """A grid rewritten in another container, with both manifests recording
    its new digest, as a container change leaves them."""
    a, b = two_runs
    grid_path = b / "field" / "period_1.grid"
    grid_path.write_bytes(first_format_blob(read_grid(grid_path)))
    digest = hashlib.sha256(grid_path.read_bytes()).hexdigest()
    field_manifest = b / "field" / "field_manifest.json"
    doc = json.loads(field_manifest.read_text())
    doc["grids"][0]["sha256"] = digest
    field_manifest.write_text(json.dumps(doc, indent=1))
    manifest = b / "manifest.json"
    run = json.loads(manifest.read_text())
    for entry in run["artifacts"]:
        path = b / entry["path"]
        if entry["path"] in ("field/period_1.grid", "field/field_manifest.json"):
            entry.update(sha256=hashlib.sha256(path.read_bytes()).hexdigest(),
                         bytes=path.stat().st_size)
    run["content_hash"] = "sha256:" + "0" * 64
    manifest.write_text(json.dumps(run))

    assert compare_runs.main([str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "manifest.json: differs in grid digests only" in lines
    assert "field/field_manifest.json: differs in grid digests only" in lines
    assert "field/period_1.grid: differs in bytes only, values bit-identical" in lines

    # any other difference is still named by its keys
    field_manifest.write_text(json.dumps({**doc, "rate": 0.5}))
    run["artifacts"][-1]["sha256"] = "f" * 64
    manifest.write_text(json.dumps(run))
    assert compare_runs.main([str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "manifest.json: differs in artifacts, content_hash" in lines
    assert "field/field_manifest.json: differs in grids, rate" in lines
