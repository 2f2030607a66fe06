"""Grid files written one time slice at a time.

A solve hands each slice to a :class:`gridio.GridWriter` as its march
makes it, and ``write_grid`` finishes the file with one read-back pass
that hashes it and runs the diagnostics.  The file must be the one the
whole-grid writer makes, byte for byte, a failed solve must leave no
partial file, and the commands that write this way must hold far less
than one grid.
"""

import hashlib
import itertools
import json
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from carbon_fbsde import cli, pde_kernel
from carbon_fbsde.cli import main
from carbon_fbsde.config import build_plan, preset_coefficients
from carbon_fbsde.errors import ArtifactError, SolverError
from carbon_fbsde.gridio import (GridWriter, canonical_json, jsonable, read_grid,
                                 start_slice_csv, write_grid)
from carbon_fbsde.infinite_period import solve_infinite
from carbon_fbsde.model import CapFunction, indicator_terminal
from carbon_fbsde.pde_kernel import SolverConfig, ValueGrid, diagnostics, solve_one_period
from test_march_equivalence import REGIMES, _band_market

# a no-factor rolling market on a fine emissions grid: cell width 0.004,
# so the allocation is 250 cells and falls on the edge of cell 625, and a
# grid of some 300 slices is large against every per-slice temporary
FINE_ROLLING = {
    "label": "fine-rolling", "rate": 0.05, "horizon": "infinite",
    "period_length": 1.0,
    "cap": {"kind": "per-period", "parameters": {"allocation": 1.0}},
    "coefficients": {"preset": "no-factor", "parameters": {"m0": 1.0, "m2": 1.0}},
    "grid": {"e_min": -1.5, "e_max": 2.5, "n_e": 1000},
}

# the rolling factor market of perfbench/rolling-factor.json on a coarse
# grid: cell width 0.1, the allocation is 10 cells on the edge of cell 35
SMALL_ROLLING_FACTOR = {
    "label": "small-rolling-factor", "rate": 0.05, "horizon": "infinite",
    "period_length": 1.0,
    "cap": {"kind": "per-period", "parameters": {"allocation": 1.0}},
    "coefficients": {"preset": "linear-abatement", "parameters": {
        "m0": 1.4, "m1": 0.1, "m2": 1.0, "kappa": 1.0, "sigma": 0.5}},
    "grid": {"e_min": -2.5, "e_max": 3.5, "n_e": 60, "p_min": -3.0, "p_max": 3.0,
             "n_p": 9},
}


def reference_grid_bytes(grid: ValueGrid) -> bytes:
    """The grid file of ``grid``: prefix, header with the stretch table
    (whole slices for a grid without one), then each slice's stretch in
    time order."""
    n_e = grid.values.shape[-1]
    table = grid.stretches or [(0, n_e, 0.0)] * grid.values.shape[0]
    payload = []
    for s, (c0, c1, bound) in zip(grid.values, table):
        # outside its stretch a slice holds 0 on the left and its bound on the right
        assert not s[..., :c0].view(np.uint64).any()
        assert np.all(s[..., c1:].view(np.uint64) == np.float64(bound).view(np.uint64))
        payload.append(np.ascontiguousarray(s[..., c0:c1], dtype="<f8").tobytes())
    header = {
        "times": grid.times.tolist(), "e_nodes": grid.e_nodes.tolist(),
        "p_nodes": None if grid.p_nodes is None else grid.p_nodes.tolist(),
        "rate": float(grid.rate), "shape": list(grid.values.shape),
        "stretches": [[c0, c1, bound] for c0, c1, bound in table],
        "meta": jsonable(grid.meta),
    }
    head = canonical_json(header).encode("utf-8")
    return b"CFBGRID2" + struct.pack("<Q", len(head)) + head + b"".join(payload)


def _solve_cases():
    """A no-factor market, a factor market and a general-flux market (``y*``
    inside [0, 1])."""
    terminal = indicator_terminal(CapFunction.constant(0.0))
    plain = SolverConfig(e_min=-1.0, e_max=1.0, n_e=48, cfl_target=0.9)
    factor = SolverConfig(e_min=-1.0, e_max=1.0, n_e=32, cfl_target=0.9,
                          p_min=-2.0, p_max=2.0, n_p=9)
    no_factor = preset_coefficients("no-factor", {"m0": 1.2, "m2": 1.0}, 0.05)
    general = preset_coefficients("no-factor", {"m0": 0.5, "m2": 1.0}, 0.0)
    abatement = preset_coefficients("linear-abatement", {}, 0.05)
    return {
        "no-factor": (no_factor, terminal, plain),
        "factor": (abatement, terminal, factor),
        "general-flux": (general, terminal, plain),
    }


def _files(root):
    return sorted(p.name for p in root.iterdir())


# ----------------------------------------------------------------------
# the writer
# ----------------------------------------------------------------------

@pytest.mark.parametrize("with_axes", [False, True])
def test_write_grid_writes_the_whole_grid_format(tmp_path, with_axes):
    rng = np.random.default_rng(7)
    shape = (7, 3, 11) if with_axes else (7, 11)
    grid = ValueGrid(times=np.linspace(0.0, 1.0, 7), e_nodes=np.linspace(-1.0, 1.0, 11),
                     values=rng.random(shape), rate=0.05,
                     p_nodes=np.linspace(-2.0, 2.0, 3) if with_axes else None,
                     meta={"label": "sample", "n_steps": 6})
    want = reference_grid_bytes(grid)
    path = tmp_path / "g.grid"
    assert write_grid(grid, path) == hashlib.sha256(want).hexdigest()
    assert path.read_bytes() == want

    # slices put in any order, as the march puts them (last first)
    seen = []
    with GridWriter(tmp_path / "h.grid", scan=lambda g: seen.append(g.values.shape)) as w:
        w.open(grid, grid.values.shape)
        for it in reversed(range(shape[0])):
            w.put(it, grid.values[it], 0, 0.0)
        assert write_grid(w, w.path) == hashlib.sha256(want).hexdigest()
    assert (tmp_path / "h.grid").read_bytes() == want
    assert seen == [shape]
    assert _files(tmp_path) == ["g.grid", "h.grid"]


@pytest.mark.parametrize("case", ["no-factor", "factor", "general-flux"])
def test_a_solve_writes_the_file_of_its_whole_grid(tmp_path, case):
    coeffs, terminal, config = _solve_cases()[case]
    full = solve_one_period(coeffs, terminal, 0.0, 0.5, config)
    with GridWriter(tmp_path / "g.grid", scan=lambda g: diagnostics(g, 1.0)) as writer:
        start = solve_one_period(coeffs, terminal, 0.0, 0.5, config, sink=writer)
        digest = write_grid(writer, writer.path)
    want = reference_grid_bytes(full)
    assert (tmp_path / "g.grid").read_bytes() == want
    assert digest == hashlib.sha256(want).hexdigest()
    assert writer.scanned == diagnostics(full, 1.0)
    assert start.values.shape == (1,) + full.values.shape[1:]
    assert np.array_equal(start.values[0].view(np.uint64), full.values[0].view(np.uint64))
    assert np.array_equal(start.times, full.times[:1])
    assert start.meta == full.meta
    assert _files(tmp_path) == ["g.grid"]


# ----------------------------------------------------------------------
# stretches
# ----------------------------------------------------------------------

def _recorded_solve(m, sink=None):
    """The solve of ``m`` with ``(it, c0, c1, bound)`` of every slice its
    march hands over."""
    puts = []
    march = pde_kernel._march

    def recording(u0, phi_gl, phi_gr, out_store, *args):
        def store(it, cells, c0, bound):
            puts.append((it, c0, c0 + cells.shape[-1], bound))
            out_store(it, cells, c0, bound)
        return march(u0, phi_gl, phi_gr, store, *args)

    with mock.patch.object(pde_kernel, "_march", recording):
        grid = solve_one_period(m["coeffs"], m["terminal"], 0.0, m["tau"], m["config"],
                                sink=sink)
    return grid, puts


@pytest.mark.parametrize("viscosity", [0.0, 0.05], ids=["sharp", "viscous"])
@pytest.mark.parametrize("factor", [False, True], ids=["no-factor", "factor"])
@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_a_streamed_file_holds_the_stretches_and_reads_back_the_solve(
        tmp_path, regime, factor, viscosity):
    """One-sided (``above``, ``below``) and general (``inside``) fluxes,
    with and without a factor and viscosity."""
    m = _band_market(regime, factor, viscosity)
    kept, puts = _recorded_solve(m)
    n_e = m["config"].n_e
    # the schedule is what the march puts: the terminal whole, then each
    # slice's stretch with its bound
    assert kept.stretches[-1] == (0, n_e, 1.0)
    assert [(it, c0, c1, bound) for it, (c0, c1, bound) in enumerate(kept.stretches)][::-1] \
        == puts
    assert min(c1 - c0 for c0, c1, _ in kept.stretches) < n_e

    with GridWriter(tmp_path / "g.grid") as writer:
        start, streamed = _recorded_solve(m, sink=writer)
        write_grid(writer, writer.path)
    assert streamed == puts
    assert start.stretches == kept.stretches[:1]
    blob = (tmp_path / "g.grid").read_bytes()
    assert blob == reference_grid_bytes(kept)
    rows = kept.values[0].size // n_e
    payload = len(blob) - 16 - int.from_bytes(blob[8:16], "little")
    assert payload == 8 * rows * sum(c1 - c0 for c0, c1, _ in kept.stretches)
    back = read_grid(tmp_path / "g.grid")
    assert np.array_equal(back.values.view(np.uint64), kept.values.view(np.uint64))
    assert back.stretches == kept.stretches
    # the grid kept in memory writes the same file
    write_grid(kept, tmp_path / "kept.grid")
    assert (tmp_path / "kept.grid").read_bytes() == blob


@pytest.mark.parametrize("case", ["no-factor", "factor", "general-flux"])
def test_writing_a_grid_read_from_a_file_gives_the_file_back(tmp_path, case):
    coeffs, terminal, config = _solve_cases()[case]
    write_grid(solve_one_period(coeffs, terminal, 0.0, 0.5, config), tmp_path / "a.grid")
    write_grid(read_grid(tmp_path / "a.grid"), tmp_path / "b.grid")
    assert (tmp_path / "b.grid").read_bytes() == (tmp_path / "a.grid").read_bytes()


def test_a_slice_that_leaves_its_constants_is_stored_whole(tmp_path):
    m = _band_market("above", False)
    grid, n_e = _recorded_solve(m)[0], m["config"].n_e
    it = next(i for i, (c0, _, _) in enumerate(grid.stretches) if c0 > 0)
    grid.values[it, 0] = -0.0  # equal to 0, but not its bits
    write_grid(grid, tmp_path / "g.grid")
    back = read_grid(tmp_path / "g.grid")
    want = list(grid.stretches)
    want[it] = (0, n_e, grid.stretches[it][2])
    assert back.stretches == want
    assert np.array_equal(back.values.view(np.uint64), grid.values.view(np.uint64))


def poisoned_march(which: int, after: int = 5):
    """A march whose ``which``-th call (counting from 1) raises
    :class:`SolverError` when it makes its ``after``-th slice."""
    real = pde_kernel._march
    calls = itertools.count(1)

    def march(u0, phi_gl, phi_gr, out_store, *args):
        mine = next(calls) == which
        seen = itertools.count()

        def store(it, *cells):
            if mine and next(seen) == after:
                raise SolverError(f"state became non-finite at slice {it}")
            out_store(it, *cells)
        return real(u0, phi_gl, phi_gr, store, *args)
    return march


@pytest.mark.parametrize("case, which", [("factor", 1)])
def test_a_failed_solve_leaves_no_file(tmp_path, monkeypatch, case, which):
    coeffs, terminal, config = _solve_cases()[case]
    monkeypatch.setattr(pde_kernel, "_march", poisoned_march(which))
    with pytest.raises(SolverError, match="non-finite"):
        with GridWriter(tmp_path / "g.grid") as writer:
            solve_one_period(coeffs, terminal, 0.0, 0.5, config, sink=writer)
    assert _files(tmp_path) == []


def test_finishing_a_file_logs_its_bytes_and_read_back_seconds(tmp_path, caplog):
    grid = ValueGrid(times=np.linspace(0.0, 1.0, 5), e_nodes=np.linspace(-1.0, 1.0, 6),
                     values=np.zeros((5, 6)), rate=0.0)
    with caplog.at_level("DEBUG", logger="carbon_fbsde.gridio"):
        write_grid(grid, tmp_path / "g.grid")
    size = (tmp_path / "g.grid").stat().st_size
    [line] = [r.getMessage() for r in caplog.records if r.name == "carbon_fbsde.gridio"]
    assert line.startswith(f"g.grid: {size} bytes written, read back in ")
    caplog.clear()
    write_grid(grid, tmp_path / "g.grid")
    assert caplog.records == [], "grid logging is off by default"


def test_a_scan_sees_every_slice_once_and_the_digest_is_checked(tmp_path):
    grid = ValueGrid(times=np.linspace(0.0, 1.0, 5), e_nodes=np.linspace(-1.0, 1.0, 6),
                     values=np.arange(30.0).reshape(5, 6), rate=0.0)
    path = tmp_path / "g.grid"
    digest = write_grid(grid, path)
    rows = read_grid(path, digest, scan=lambda g: [s.tolist() for s in g.values])
    assert rows == grid.values.tolist()
    # a scan that reads nothing still has every byte hashed
    assert read_grid(path, digest, scan=lambda g: None) is None
    with pytest.raises(ArtifactError, match="sha256 mismatch"):
        read_grid(path, "0" * 64, scan=lambda g: None)

    def twice(g):
        list(g.values)
        list(g.values)
    with pytest.raises(RuntimeError, match="read once"):
        read_grid(path, scan=twice)


# ----------------------------------------------------------------------
# price-infinite
# ----------------------------------------------------------------------

def _reference_infinite(plan, grid, out):
    """What ``price-infinite`` wrote when it held the whole grid."""
    out.mkdir()
    write_grid(grid, out / "w.grid")
    start_slice_csv(grid, out / "value_surface.csv")
    report = cli._grid_report(grid, "w")
    (out / "diagnostics.json").write_text(
        json.dumps({"reports": [report], "passed": report["passed"]},
                   indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _solve_in_memory(plan):
    spec = plan.spec
    return solve_infinite(spec.coefficients, spec.period_length, spec.cap_per_period,
                          plan.solver, tol_l1=plan.infinite_opts.get("tol_l1"),
                          max_iter=plan.infinite_opts.get("max_iter"))


@pytest.mark.parametrize("market", ["rolling-r005", "small-rolling-factor"])
def test_price_infinite_writes_what_the_whole_grid_writers_write(
        tmp_path, rolling_result, market):
    if market == "rolling-r005":
        plan, grid, _, _ = rolling_result
        config = "preset:rolling-r005"
    else:
        plan = build_plan(SMALL_ROLLING_FACTOR)
        grid, _ = _solve_in_memory(plan)
        config = tmp_path / "factor.json"
        config.write_text(json.dumps(SMALL_ROLLING_FACTOR))
    assert grid.values.shape[0] == grid.meta["n_steps"] + 1
    ref, run = tmp_path / "ref", tmp_path / "run"
    _reference_infinite(plan, grid, ref)
    assert main(["price-infinite", "--config", str(config), "--out", str(run)]) == 0
    for name in ("w.grid", "value_surface.csv", "diagnostics.json"):
        assert (run / name).read_bytes() == (ref / name).read_bytes(), name
    manifest = json.loads((run / "manifest.json").read_text())
    digests = {a["path"]: a["sha256"] for a in manifest["artifacts"]}
    assert digests["w.grid"] == hashlib.sha256((ref / "w.grid").read_bytes()).hexdigest()
    assert _files(run) == ["diagnostics.json", "manifest.json", "picard_certificate.json",
                           "value_surface.csv", "w.grid"]


def test_price_infinite_and_verify_hold_far_less_than_one_grid(tmp_path):
    config = tmp_path / "fine.json"
    config.write_text(json.dumps(FINE_ROLLING))
    # a first run does the lazy imports, which tracemalloc would count
    assert main(["price-infinite", "--config", str(config),
                 "--out", str(tmp_path / "warm")]) == 0
    assert main(["verify", str(tmp_path / "warm")]) == 0
    out = tmp_path / "run"
    tracemalloc.start()
    try:
        assert main(["price-infinite", "--config", str(config), "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grid_bytes = read_grid(out / "w.grid").values.nbytes
    assert grid_bytes > 2_000_000
    assert peak < 0.25 * grid_bytes, (peak, grid_bytes)
    for target in (out, out / "w.grid"):
        tracemalloc.start()
        try:
            assert main(["verify", str(target)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * grid_bytes, (target, peak, grid_bytes)


def test_a_factor_solve_whose_slices_are_all_constant_writes_its_grid(tmp_path):
    """A cap far below the grid penalises every path: the terminal is 1 in
    every cell, the one-sided band is empty, and each slice is stored as no
    cells at all, which a factor grid's rows must not trip over."""
    coeffs = preset_coefficients("linear-abatement", {"m0": 1.4, "m1": 0.1, "m2": 1.0,
                                                      "kappa": 1.0, "sigma": 0.5}, 0.05)
    config = SolverConfig(e_min=-1.0, e_max=1.0, n_e=60, p_min=-2.0, p_max=2.0, n_p=9)
    terminal = indicator_terminal(CapFunction.constant(-5.0))
    held = solve_one_period(coeffs, terminal, 0.0, 0.5, config)
    assert all(c0 == c1 for c0, c1, _ in held.stretches[:-1])
    with GridWriter(tmp_path / "g.grid", scan=lambda g: diagnostics(g, 1.0)) as writer:
        solve_one_period(coeffs, terminal, 0.0, 0.5, config, sink=writer)
        digest = write_grid(writer, writer.path)
    assert writer.scanned == diagnostics(held, 1.0)
    back = read_grid(tmp_path / "g.grid", digest)
    assert np.array_equal(back.values.view(np.uint64), held.values.view(np.uint64))
    assert write_grid(held, tmp_path / "held.grid") == digest
