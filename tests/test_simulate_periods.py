"""``simulate --field DIR`` holds one period grid at a time.

The CLI checks the field's manifests up front and hands ``simulate`` a
reader of the period grids; each grid is read and hash-checked when its
period starts, and released once every path block has taken its left
value at that period's compliance date.  Against the rolling grid, which
serves every period, the draw buffer likewise holds one period's steps.
"""

import json
import shutil
import sys
import tracemalloc
from pathlib import Path

import pytest

from carbon_fbsde import gridio, simulate, solve_infinite
from carbon_fbsde.cli import main
from carbon_fbsde.config import build_plan
from carbon_fbsde.gridio import read_grid
from carbon_fbsde.montecarlo import _BLOCK

# three equal periods on a fine emissions grid, so one period grid (about
# 330 slices of 1000 cells) is large against the few simulated paths
THREE_PERIODS = {
    "label": "three-periods",
    "rate": 0.05,
    "horizon": "finite",
    "periods": [1.0, 2.0, 3.0],
    "cap": {"kind": "levels", "parameters": {"levels": [0.0, 0.5, 1.0]}},
    "coefficients": {"preset": "no-factor", "parameters": {"m0": 1.2, "m2": 1.0}},
    "grid": {"e_min": -2.0, "e_max": 3.0, "n_e": 1000},
    "simulation": {"n_paths": 64, "steps_per_period": 32, "keep_paths": 4,
                   "e0": -1.0},
}


@pytest.fixture(scope="module")
def priced(tmp_path_factory):
    """``(config, run directory)`` of one ``price-multi`` run."""
    root = tmp_path_factory.mktemp("three")
    config = root / "three.json"
    config.write_text(json.dumps(THREE_PERIODS))
    assert main(["price-multi", "--config", str(config), "--out", str(root / "run")]) == 0
    return config, root / "run"


def _simulate(config, field, out) -> int:
    return main(["simulate", "--config", str(config), "--field", str(field),
                 "--out", str(out)])


@pytest.fixture()
def grid_reads(monkeypatch):
    """Paths passed to ``read_grid``, through any binding."""
    seen, original = [], gridio.read_grid

    def spy(path, *args, **kwargs):
        seen.append(Path(path).name)
        return original(path, *args, **kwargs)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("carbon_fbsde")
                and getattr(module, "read_grid", None) is original):
            monkeypatch.setattr(module, "read_grid", spy)
    return seen


def test_simulate_holds_one_period_grid(tmp_path, priced):
    config, run = priced
    # a first run does the lazy imports, which tracemalloc would count
    assert _simulate(config, run / "field", tmp_path / "warm") == 0
    tracemalloc.start()
    try:
        code = _simulate(config, run / "field", tmp_path / "sim")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    grid_bytes = read_grid(run / "field" / "period_1.grid").values.nbytes
    assert grid_bytes > 2_000_000
    assert peak < 1.5 * grid_bytes, (peak, grid_bytes)


def test_rolling_draw_buffer_holds_one_period(rolling_factor_tree):
    tree = rolling_factor_tree
    tree["grid"] = {"e_min": -2.5, "e_max": 3.5, "n_e": 120,
                    "p_min": -4.0, "p_max": 4.0, "n_p": 13}
    plan = build_plan(tree)
    spec = plan.spec
    grid, _ = solve_infinite(spec.coefficients, spec.period_length, spec.cap_per_period,
                             plan.solver, tol_l1=plan.infinite_opts["tol_l1"],
                             max_iter=plan.infinite_opts.get("max_iter"))
    steps, q = 128, 3
    simulate(grid, spec, n_paths=64, steps_per_period=steps, n_periods=q)  # warm-up
    tracemalloc.start()
    try:
        simulate(grid, spec, n_paths=_BLOCK + 17, steps_per_period=steps, n_periods=q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one block's draws for all q periods as a single float64 buffer
    all_periods = q * steps * _BLOCK * 8
    assert peak < all_periods, (peak, all_periods)


def test_simulate_reads_each_period_grid_once_in_order(tmp_path, priced, grid_reads):
    config, run = priced
    assert _simulate(config, run / "field", tmp_path / "sim") == 0
    assert grid_reads == ["period_1.grid", "period_2.grid", "period_3.grid"]


def test_a_corrupt_later_grid_exits_6_and_writes_nothing(tmp_path, priced, grid_reads,
                                                         capsys):
    config, run = priced
    broken = tmp_path / "run"
    shutil.copytree(run, broken)
    victim = broken / "field" / "period_2.grid"
    blob = bytearray(victim.read_bytes())
    blob[-1] ^= 0x01  # the last byte belongs to the payload
    victim.write_bytes(bytes(blob))

    out = tmp_path / "sim"
    assert _simulate(config, broken / "field", out) == 6
    # detected when period 2 starts, after period 1 has been simulated
    assert grid_reads == ["period_1.grid", "period_2.grid"]
    err = capsys.readouterr().err
    assert err.count("error: ") == 1 and "sha256" in err, err
    assert not any((out / name).exists()
                   for name in ("paths.csv", "events.csv", "manifest.json"))
