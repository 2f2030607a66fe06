"""``price-multi`` and ``verify`` handle one period at a time.

``price-multi`` solves, writes, exports and checks each period before it
solves the one before; its march writes the grid file slice by slice,
and one read-back pass hashes and diagnoses it.  ``verify`` diagnoses
each grid in the pass that checks its hash.  Neither may hold more than
a small part of one period grid, a failed period leaves no grid file,
and what they write and report must not depend on that order.
"""

import dataclasses
import json
import tracemalloc

import pytest

from carbon_fbsde import cli, pde_kernel
from carbon_fbsde.cli import main
from carbon_fbsde.config import bundled_preset, load_config
from carbon_fbsde.gridio import read_grid, start_slice_csv
from carbon_fbsde.multi_period import (solve_periods, write_field_manifest,
                                       write_period_grid)
from test_grid_writer import poisoned_march

# three equal periods on a fine emissions grid: a period grid (about 330
# slices of 1000 cells) is large against every per-slice temporary
THREE_PERIODS = {
    "label": "three-periods",
    "rate": 0.05,
    "horizon": "finite",
    "periods": [1.0, 2.0, 3.0],
    "cap": {"kind": "levels", "parameters": {"levels": [0.0, 0.5, 1.0]}},
    "coefficients": {"preset": "no-factor", "parameters": {"m0": 1.2, "m2": 1.0}},
    "grid": {"e_min": -2.0, "e_max": 3.0, "n_e": 1000},
}


@pytest.fixture(scope="module")
def three_periods(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "three.json"
    path.write_text(json.dumps(THREE_PERIODS))
    return path


def _traced_peak(argv) -> tuple:
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, peak


def test_periods_are_solved_backward(three_periods):
    plan = load_config(str(three_periods))
    assert [k for k, _ in solve_periods(plan.spec, plan.solver)] == [3, 2, 1]


def test_price_multi_and_verify_hold_one_period_grid(tmp_path, three_periods):
    # a first run does the lazy imports, which tracemalloc would count
    assert main(["price-multi", "--config", str(three_periods),
                 "--out", str(tmp_path / "warm")]) == 0
    assert main(["verify", str(tmp_path / "warm")]) == 0
    out = tmp_path / "run"
    code, peak = _traced_peak(["price-multi", "--config", str(three_periods),
                               "--out", str(out)])
    assert code == 0
    grid_bytes = read_grid(out / "field" / "period_1.grid").values.nbytes
    assert grid_bytes > 2_000_000
    assert peak < 1.5 * grid_bytes, (peak, grid_bytes)
    for target in (out, out / "field"):
        code, peak = _traced_peak(["verify", str(target)])
        assert code == 0
        assert peak < 1.5 * grid_bytes, (target, peak, grid_bytes)


def test_price_multi_and_verify_hold_a_small_part_of_one_grid(tmp_path, three_periods):
    assert main(["price-multi", "--config", str(three_periods),
                 "--out", str(tmp_path / "warm")]) == 0
    assert main(["verify", str(tmp_path / "warm")]) == 0
    out = tmp_path / "run"
    code, peak = _traced_peak(["price-multi", "--config", str(three_periods),
                               "--out", str(out)])
    assert code == 0
    grid_bytes = read_grid(out / "field" / "period_1.grid").values.nbytes
    assert grid_bytes > 2_000_000
    assert peak < 0.25 * grid_bytes, (peak, grid_bytes)
    for target in (out, out / "field", out / "field" / "period_2.grid"):
        code, peak = _traced_peak(["verify", str(target)])
        assert code == 0
        assert peak < 0.25 * grid_bytes, (target, peak, grid_bytes)


def test_a_period_whose_march_fails_leaves_no_grid_file(tmp_path, three_periods,
                                                        monkeypatch):
    # periods are solved 3, 2, 1: the second march is period 2's
    monkeypatch.setattr(pde_kernel, "_march", poisoned_march(2, after=40))
    out = tmp_path / "run"
    assert main(["price-multi", "--config", str(three_periods), "--out", str(out)]) == 3
    # period 3 was finished before period 2 failed; it stays, with no manifest
    assert sorted(p.name for p in (out / "field").iterdir()) == ["period_3.grid"]
    assert not (out / "manifest.json").exists()
    assert main(["verify", str(out / "field")]) == 2


@pytest.mark.parametrize("name", ["two-period-factor", "two-period-msr"])
def test_price_multi_writes_what_the_whole_field_writers_write(
        tmp_path, preset_fields, name):
    """Byte for byte against whole grids written by ``write_period_grid``
    (``write_grid``), ``write_field_manifest`` and ``start_slice_csv``;
    ``two-period-msr`` links through the recorded-emissions read."""
    plan, field = preset_fields[name]
    ref, run = tmp_path / "ref", tmp_path / "run"
    (ref / "field").mkdir(parents=True)
    entries = [write_period_grid(g, ref / "field", k) for k, g in enumerate(field, start=1)]
    write_field_manifest(plan.spec, entries, ref / "field")
    for k in (1, 2):
        start_slice_csv(field[k - 1], ref / f"value_surface_period_{k}.csv")
    assert main(["price-multi", "--config", f"preset:{name}", "--out", str(run)]) == 0

    written = sorted(p.relative_to(ref) for p in ref.rglob("*") if p.is_file())
    assert len(written) == 5
    for rel in written:
        assert (run / rel).read_bytes() == (ref / rel).read_bytes(), rel
    reports = json.loads((run / "diagnostics.json").read_text())["reports"]
    assert reports == [cli._grid_report(field[k - 1], f"period_{k}")
                       for k in (1, 2)]
    manifest = json.loads((run / "manifest.json").read_text())
    assert [a["path"] for a in manifest["artifacts"]] == [
        "field/period_1.grid", "field/period_2.grid", "field/field_manifest.json",
        "value_surface_period_1.csv", "value_surface_period_2.csv", "diagnostics.json"]


@pytest.fixture()
def failing_period(monkeypatch):
    """Make the diagnostics of one period (by its grid's meta) fail."""
    def use(period):
        real = cli.diagnostics

        def diagnostics(grid, *args, **kwargs):
            d = real(grid, *args, **kwargs)
            return dataclasses.replace(d, passed=d.passed and grid.meta["period"] != period)

        monkeypatch.setattr(cli, "diagnostics", diagnostics)
    return use


def test_a_failing_period_still_writes_every_artifact_then_exits_4(
        tmp_path, three_periods, failing_period):
    failing_period(3)  # the first period solved
    out = tmp_path / "run"
    assert main(["price-multi", "--config", str(three_periods), "--out", str(out)]) == 4
    doc = json.loads((out / "diagnostics.json").read_text())
    assert [r["passed"] for r in doc["reports"]] == [True, True, False]
    assert doc["passed"] is False
    field = json.loads((out / "field" / "field_manifest.json").read_text())
    assert [g["period"] for g in field["grids"]] == [1, 2, 3]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["verification"] == {"diagnostics_passed": False}
    assert len(manifest["artifacts"]) == 8
    # every hash checks out; verify diagnoses period 3 as failing again
    assert main(["verify", str(out)]) == 4


def test_verify_checks_every_hash_before_a_failed_diagnostic_exits_4(
        tmp_path, three_periods, failing_period, capsys):
    out = tmp_path / "run"
    assert main(["price-multi", "--config", str(three_periods), "--out", str(out)]) == 0
    failing_period(1)
    capsys.readouterr()
    assert main(["verify", str(out)]) == 4
    assert "period_1.grid: FAIL" in capsys.readouterr().out
    victim = out / "field" / "period_3.grid"
    blob = bytearray(victim.read_bytes())
    blob[-1] ^= 0x01
    victim.write_bytes(bytes(blob))
    for target in (out, out / "field"):
        assert main(["verify", str(target)]) == 6
        # nothing is reported before every grid has been read
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("terminal", [{"kind": "indicator", "width": 0.0},
                                      {"kind": "smoothed-indicator", "width": 0.05}],
                         ids=["sharp", "smoothed"])
def test_the_reserve_rule_market_passes_its_diagnostics_at_640_cells(tmp_path, terminal):
    """Period 1 ends in period 2 read on the diagonal.  Read moved once per
    point, by the cap at the recorded emissions themselves, that terminal
    gains kinks the march turns into a scheme-added monotonicity defect
    (1.1e-5 at 640 cells with the sharp terminal); the blend of the two bracketing
    recorded-emissions nodes keeps every diagnostic passing."""
    tree = bundled_preset("two-period-msr")
    tree["grid"]["n_e"] = 640
    tree["terminal"] = terminal
    config = tmp_path / "msr.json"
    config.write_text(json.dumps(tree))
    assert main(["price-multi", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    diagnostics = json.loads((tmp_path / "run" / "diagnostics.json").read_text())
    assert diagnostics["passed"]
    assert all(r["scheme_added_monotonicity"] <= 1e-12 for r in diagnostics["reports"])
