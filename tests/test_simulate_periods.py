"""``simulate --field DIR`` streams its period grids and holds none.

The CLI checks the field's manifests up front and hands ``simulate`` a
reader per period grid.  Each period runs in groups of ``_GROUP`` blocks,
and each group streams its grid in one hash-checked pass through a ring
of a few slices; grid k + 1's first slice settles compliance date T_k.
A pass advances the group's paths as one vector, so it reads the field a
fixed number of times whatever the number of blocks in the group; a
block only keys the noise stream.  Each block's stream is opened once and
read on from step to step across every period, so only one step's draws
of a group are held and the traced peak does not grow with the steps per
period, on a streamed field and on the held rolling grid alike; a
horizon's first periods are the whole of a shorter one.  A no-factor
market, which draws nothing, groups its blocks the same way.
"""

import json
import shutil
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from carbon_fbsde import gridio, simulate, solve_infinite
from carbon_fbsde.cli import main
from carbon_fbsde.config import build_plan, bundled_preset, load_config
from carbon_fbsde.gridio import read_grid
from carbon_fbsde.montecarlo import _BLOCK, _GROUP
from carbon_fbsde.multi_period import open_field_dir, read_period_grids
from carbon_fbsde.pde_kernel import FieldReader
from test_simulate_equivalence import assert_same_bundle, reference_simulate

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


def test_simulate_streams_less_than_half_a_period_grid(tmp_path, priced):
    config, run = priced
    assert _simulate(config, run / "field", tmp_path / "warm") == 0
    tracemalloc.start()
    try:
        code = _simulate(config, run / "field", tmp_path / "sim")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    grid_bytes = read_grid(run / "field" / "period_1.grid").values.nbytes
    assert peak < 0.5 * grid_bytes, (peak, grid_bytes)


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
    # one block's draws for all q periods as a single float64 buffer; the
    # draws now come one step at a time, so the peak is far below it
    all_periods = q * steps * _BLOCK * 8
    assert peak < all_periods, (peak, all_periods)


def _traced_peak(run):
    """``(traced peak in bytes, result)`` of ``run()``."""
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def _peak_growth_with_steps(run) -> tuple:
    """Traced peak at 256 steps per period less that at 32, and what the
    256-step run may hold beyond the 32-step one: one group's per-step
    draws, the kept paths and the time grid."""
    run(8)  # warm-up
    (low, _), (high, bundle) = (_traced_peak(partial(run, steps)) for steps in (32, 256))
    kept = sum(a.nbytes for a in (bundle.path_P, bundle.path_E, bundle.path_Y)
               if a is not None)
    return high - low, 8 * _BLOCK + kept + bundle.times.nbytes


def test_a_streamed_field_holds_no_more_with_more_steps(priced):
    config, run = priced
    plan = load_config(config)
    _, entries = open_field_dir(run / "field")
    readers = read_period_grids(run / "field", entries)
    sim = THREE_PERIODS["simulation"]
    growth, allowed = _peak_growth_with_steps(lambda steps: simulate(
        readers, plan.spec, n_paths=sim["n_paths"], steps_per_period=steps,
        keep_paths=sim["keep_paths"], e0=sim["e0"]))
    assert growth <= allowed, (growth, allowed)


def test_the_rolling_grid_holds_no_more_with_more_steps(coarse_rolling_factor):
    """A block's draws for a period took 256 * 8192 * 8 B = 16.8 MB; one
    step's take 64 KB."""
    spec, grid = coarse_rolling_factor
    growth, allowed = _peak_growth_with_steps(lambda steps: simulate(
        grid, spec, n_paths=_BLOCK, steps_per_period=steps, n_periods=2, keep_paths=4))
    assert growth <= allowed, (growth, allowed)


@pytest.mark.parametrize("first", [1, 2])
def test_a_horizon_starts_as_a_shorter_one(coarse_rolling_factor, first):
    """A block's stream runs on from period to period, so rolling three
    periods leaves the first ones as rolling fewer does."""
    spec, grid = coarse_rolling_factor
    steps = 16
    kwargs = dict(n_paths=_BLOCK + 17, steps_per_period=steps, seed=3, keep_paths=20)
    short = simulate(grid, spec, n_periods=first, **kwargs)
    full = simulate(grid, spec, n_periods=3, **kwargs)
    cols = slice(0, first * steps + 1)
    assert np.array_equal(short.times, full.times[cols])
    for name in ("path_P", "path_E", "path_Y"):
        assert np.array_equal(getattr(short, name), getattr(full, name)[:, cols]), name
    for name in ("compliance_E", "compliance_cap", "compliance_left", "compliance_right",
                 "branch"):
        assert np.array_equal(getattr(short, name), getattr(full, name)[:first],
                              equal_nan=name != "branch"), name


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
    # detected when period 2's pass ends, after period 1 has been simulated
    assert grid_reads == ["period_1.grid", "period_2.grid"]
    err = capsys.readouterr().err
    assert err.count("error: ") == 1 and "sha256" in err, err
    assert not any((out / name).exists()
                   for name in ("paths.csv", "events.csv", "manifest.json"))


# the factor preset on a coarse grid: two blocks, one group per period
SMALL_FACTOR = {**bundled_preset("two-period-factor"), "label": "small-factor",
                "grid": {"e_min": -0.7, "e_max": 4.0, "n_e": 160,
                         "p_min": -3.0, "p_max": 3.0, "n_p": 17},
                "simulation": {"n_paths": _BLOCK + 17, "steps_per_period": 32,
                               "keep_paths": 20, "seed": 5}}


@pytest.fixture(scope="module")
def small_factor(tmp_path_factory):
    """``(config, run directory)`` of one ``price-multi`` run."""
    root = tmp_path_factory.mktemp("small-factor")
    config = root / "small-factor.json"
    config.write_text(json.dumps(SMALL_FACTOR))
    assert main(["price-multi", "--config", str(config), "--out", str(root / "run")]) == 0
    return config, root / "run"


def test_block_groups_stream_each_grid_once_per_pass(small_factor, grid_reads):
    config, run = small_factor
    plan = load_config(config)
    _, entries = open_field_dir(run / "field")
    readers = read_period_grids(run / "field", entries)
    grids = tuple(read() for read in readers)
    sim = SMALL_FACTOR["simulation"]
    kwargs = dict(n_paths=sim["n_paths"], steps_per_period=sim["steps_per_period"],
                  seed=sim["seed"], keep_paths=sim["keep_paths"])

    grid_reads.clear()
    bundle = simulate(readers, plan.spec, **kwargs)
    assert grid_reads == ["period_1.grid", "period_2.grid"]
    assert_same_bundle(bundle, reference_simulate(grids, plan.spec, **kwargs))


def test_a_corrupt_grid_exits_6_when_its_first_pass_ends(tmp_path, small_factor,
                                                         grid_reads, capsys):
    config, run = small_factor
    broken = tmp_path / "run"
    shutil.copytree(run, broken)
    victim = broken / "field" / "period_2.grid"
    blob = bytearray(victim.read_bytes())
    blob[-1] ^= 0x01
    victim.write_bytes(bytes(blob))

    out = tmp_path / "sim"
    # five blocks: two passes per period, and period 2's first one fails
    assert main(["simulate", "--config", str(config), "--field", str(broken / "field"),
                 "--out", str(out), "--paths", str(4 * _BLOCK + 17)]) == 6
    assert grid_reads == ["period_1.grid"] * 2 + ["period_2.grid"]
    err = capsys.readouterr().err
    assert err.count("error: ") == 1 and "sha256" in err, err
    assert not any((out / name).exists()
                   for name in ("paths.csv", "events.csv", "manifest.json"))


def test_a_pass_reads_the_field_a_fixed_number_of_times_whatever_its_blocks(
        small_factor, grid_reads, monkeypatch):
    """Two reads per step, the left value at the period's date, and the
    right value of the date before: no read per block."""
    config, run = small_factor
    plan = load_config(config)
    _, entries = open_field_dir(run / "field")
    readers = read_period_grids(run / "field", entries)
    grids = tuple(read() for read in readers)
    steps = 8
    kwargs = dict(n_paths=4 * _BLOCK + 17, steps_per_period=steps, seed=5, keep_paths=20)
    # five blocks per period: a group of four, then one of one
    assert _GROUP == 4

    real = FieldReader.read

    def spy(*args, **kwargs):
        grid_reads.append("read")
        return real(*args, **kwargs)

    # every field read, ``lookup``'s included, is one ``FieldReader.read``
    monkeypatch.setattr(FieldReader, "read", spy)
    grid_reads.clear()
    bundle = simulate(readers, plan.spec, **kwargs)
    expected = []
    for k, name in enumerate(["period_1.grid", "period_2.grid"]):
        expected += 2 * ([name] + ["read"] * (2 * steps + 1 + (k > 0)))
    assert grid_reads == expected
    assert_same_bundle(bundle, reference_simulate(grids, plan.spec, **kwargs))


# the no-factor periods on a coarse grid, two blocks of paths
COARSE_NO_FACTOR = {**THREE_PERIODS, "label": "coarse-no-factor",
                    "grid": {"e_min": -2.0, "e_max": 3.0, "n_e": 100},
                    "simulation": {**THREE_PERIODS["simulation"], "n_paths": _BLOCK + 17}}


def test_a_no_factor_market_sizes_its_groups_as_a_factor_market_does(
        tmp_path, grid_reads):
    config = tmp_path / "coarse.json"
    config.write_text(json.dumps(COARSE_NO_FACTOR))
    run = tmp_path / "run"
    assert main(["price-multi", "--config", str(config), "--out", str(run)]) == 0
    plan = load_config(config)
    _, entries = open_field_dir(run / "field")
    readers = read_period_grids(run / "field", entries)
    grids = tuple(read() for read in readers)
    sim = COARSE_NO_FACTOR["simulation"]
    kwargs = dict(n_paths=sim["n_paths"], steps_per_period=sim["steps_per_period"],
                  keep_paths=sim["keep_paths"], e0=sim["e0"])

    grid_reads.clear()
    bundle = simulate(readers, plan.spec, **kwargs)
    # both blocks in one group, one pass per period, as with draws
    assert grid_reads == [f"period_{k}.grid" for k in (1, 2, 3)]
    assert_same_bundle(bundle, reference_simulate(grids, plan.spec, **kwargs))
