"""The row-formatted CSV writers against the writers they replaced.

``reference_paths_csv`` and ``reference_events_csv`` are the writers as
they were before they formatted one row per ``%`` operation over
``tolist()`` columns, and later one template per kept path or row block:
one f-string per cell.  ``reference_start_slice_csv``
is the start-slice writer as it was before, through ``np.savetxt``.  They
are kept here, not in the package, as the oracle the row writers must
reproduce byte for byte.
"""

import numpy as np
import pytest

from carbon_fbsde.gridio import _kept, start_slice_csv
from carbon_fbsde.montecarlo import (
    _BRANCH_NAMES,
    _CSV_ROWS,
    BRANCH_ABORTED,
    PathBundle,
    events_csv,
    paths_csv,
)
from carbon_fbsde.pde_kernel import ValueGrid


def reference_paths_csv(bundle, path):
    """Kept trajectories, one row per (path, time)."""
    has_p = bundle.path_P is not None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("path,t" + (",P" if has_p else "") + ",E,Y\n")
        for row, pidx in enumerate(bundle.kept_idx):
            for j, t in enumerate(bundle.times):
                cells = [str(int(pidx)), f"{t:.17g}"]
                if has_p:
                    cells.append(f"{bundle.path_P[row, j]:.17g}")
                cells.append(f"{bundle.path_E[row, j]:.17g}")
                cells.append(f"{bundle.path_Y[row, j]:.17g}")
                fh.write(",".join(cells) + "\n")


def reference_events_csv(bundle, path):
    """Compliance-date records for every path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("path,k,E_Tk,cap,Y_left,Y_right,branch\n")
        for k in range(bundle.n_periods):
            for i in range(bundle.n_paths):
                fh.write(
                    f"{i},{k + 1},{bundle.compliance_E[k, i]:.17g},"
                    f"{bundle.compliance_cap[k, i]:.17g},"
                    f"{bundle.compliance_left[k, i]:.17g},"
                    f"{bundle.compliance_right[k, i]:.17g},"
                    f"{_BRANCH_NAMES[int(bundle.branch[k, i])]}\n"
                )


def reference_start_slice_csv(grid, path):
    """Write the start-of-period slice as CSV, one row per grid node."""
    named = [(name, nodes) for name, nodes in (("p", grid.p_nodes), ("e", grid.e_nodes))
             if nodes is not None]
    mesh = np.meshgrid(*(nodes for _, nodes in named), indexing="ij")
    data = np.column_stack([m.ravel() for m in mesh] + [grid.values[0].ravel()])
    np.savetxt(path, data, fmt="%.17g", delimiter=",",
               header=",".join([name for name, _ in named] + ["value"]), comments="")


SPECIAL = np.array([np.inf, -np.inf, -0.0, 0.0, 5e-324, -1e-310, 1e300,
                    0.1, 1.0 / 3.0, 1.0, np.nan])


def _values(rng, shape):
    """Random doubles with every special value sprinkled in."""
    out = rng.normal(0.5, 0.3, shape) * 10.0 ** rng.integers(-6, 7, shape)
    pick = rng.random(shape) < 0.3
    out[pick] = rng.choice(SPECIAL, int(pick.sum()))
    return out


def _bundle(seed: int, has_p: bool, n_periods: int, n_paths: int = 40,
            keep: int = 7, steps_per_period: int = 5) -> PathBundle:
    """A bundle with aborted paths: NaN compliance values, branch -2."""
    rng = np.random.default_rng(seed)
    n_steps = n_periods * steps_per_period
    times = np.linspace(0.0, float(n_periods), n_steps + 1)
    branch = rng.integers(-1, 2, (n_periods, n_paths)).astype(np.int8)
    left = _values(rng, (n_periods, n_paths))
    right = _values(rng, (n_periods, n_paths))
    aborted = rng.random(n_paths) < 0.2
    aborted[0] = True
    for k in range(n_periods):
        gone = aborted & (rng.random(n_paths) < 0.5 + 0.5 * (k == n_periods - 1))
        branch[k:, gone] = BRANCH_ABORTED
        left[k:, gone] = np.nan
        right[k:, gone] = np.nan
    return PathBundle(
        n_paths=n_paths, seed=seed, times=times, snapshot_times=times[[0, -1]],
        snap_P=None, snap_E=np.zeros((2, n_paths)), snap_Y=np.zeros((2, n_paths)),
        kept_idx=np.arange(keep),
        path_P=_values(rng, (keep, n_steps + 1)) if has_p else None,
        path_E=_values(rng, (keep, n_steps + 1)),
        path_Y=_values(rng, (keep, n_steps + 1)),
        compliance_E=_values(rng, (n_periods, n_paths)),
        compliance_cap=_values(rng, (n_periods, n_paths)),
        compliance_left=left, compliance_right=right, branch=branch,
        aborted=aborted, abort_step=np.where(aborted, 3, -1).astype(np.int32),
        rate=0.05)


@pytest.mark.parametrize("has_p", [False, True])
@pytest.mark.parametrize("n_periods", [1, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_writers_match_the_per_cell_writers_byte_for_byte(tmp_path, has_p,
                                                          n_periods, seed):
    bundle = _bundle(seed, has_p, n_periods)
    assert np.isnan(bundle.compliance_left).any()
    for writer, reference in ((paths_csv, reference_paths_csv),
                              (events_csv, reference_events_csv)):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        writer(bundle, got)
        reference(bundle, want)
        assert got.read_bytes() == want.read_bytes(), writer.__name__


@pytest.mark.parametrize("has_p", [False, True])
def test_paths_csv_formats_each_time_once_byte_for_byte(tmp_path, has_p):
    """Many kept paths share the formatted time column; times with long
    expansions, and path indices of one and two digits."""
    bundle = _bundle(2, has_p, 3, keep=12, steps_per_period=7)
    bundle.times = bundle.times / 3.0
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    paths_csv(bundle, got)
    reference_paths_csv(bundle, want)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("n_paths", [_CSV_ROWS, 2 * _CSV_ROWS + 5])
def test_events_csv_fills_one_template_per_row_block_byte_for_byte(tmp_path, n_paths):
    """One whole block, and two whole blocks with a partial one after them."""
    bundle = _bundle(3, False, 2, n_paths=n_paths, keep=1)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    events_csv(bundle, got)
    reference_events_csv(bundle, want)
    assert got.read_bytes() == want.read_bytes()
    assert b",aborted\n" in got.read_bytes()


def test_special_values_are_spelled_as_before(tmp_path):
    bundle = _bundle(0, True, 1, keep=1, steps_per_period=SPECIAL.size - 1)
    bundle.path_E[0] = SPECIAL
    paths_csv(bundle, tmp_path / "paths.csv")
    column = [line.split(",")[3]
              for line in (tmp_path / "paths.csv").read_text().splitlines()[1:]]
    assert column == ["inf", "-inf", "-0", "0", "4.9406564584124654e-324",
                      "-9.9999999999999694e-311", "1.0000000000000001e+300",
                      "0.10000000000000001", "0.33333333333333331", "1", "nan"]


def _slice_grid(seed: int, has_p: bool, n_e: int) -> ValueGrid:
    """A two-slice grid whose nodes and values carry every special value."""
    rng = np.random.default_rng(seed)
    e_nodes = np.concatenate([SPECIAL, _values(rng, n_e - SPECIAL.size)])
    p_nodes = _values(rng, 4) if has_p else None
    shape = (2,) + ((4,) if has_p else ()) + (n_e,)
    return ValueGrid(times=np.array([0.0, 1.0]), e_nodes=e_nodes,
                     values=_values(rng, shape), rate=0.05, p_nodes=p_nodes)


@pytest.mark.parametrize("has_p", [False, True])
@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("half", [7, 1024])
def test_start_slice_csv_matches_savetxt_byte_for_byte(tmp_path, has_p, exact, seed, half):
    """Grids of 16, 14, 2050 and 2048 emissions nodes: ``2 half``, or
    two more unless ``exact``."""
    grid = _slice_grid(seed, has_p, 2 * half if exact else 2 * half + 2)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    start_slice_csv(grid, got)
    reference_start_slice_csv(grid, want)
    assert got.read_bytes() == want.read_bytes()
    assert b"nan" in got.read_bytes() and b"-0," in got.read_bytes()


BOUND = 0.9512294245007168


def _stretched_grid(has_p: bool, n_e: int, c0: int, c1: int) -> ValueGrid:
    """A grid whose start slice is 0 left of ``[c0, c1)`` and ``BOUND``
    right of it, with every special value inside."""
    grid = _slice_grid(3, has_p, n_e)
    s = grid.values[0]
    s[..., :c0] = 0.0
    s[..., c1:] = BOUND
    grid.stretches = [(c0, c1, BOUND), (0, n_e, 1.0)]
    return grid


@pytest.mark.parametrize("has_p", [False, True])
@pytest.mark.parametrize("c0, c1", [(3, 17), (1, 19), (0, 17), (3, 20), (0, 20), (0, 0),
                                    (9, 9), (20, 20), (5, 6)])
def test_a_stretched_start_slice_formats_its_constants_once_byte_for_byte(
        tmp_path, has_p, c0, c1):
    grid = _stretched_grid(has_p, 20, c0, c1)
    assert _kept(grid.values[0], grid.stretches[0]) == (c0, c1, BOUND)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    start_slice_csv(grid, got)
    reference_start_slice_csv(grid, want)
    assert got.read_bytes() == want.read_bytes()
    if c1 < 20:
        assert b",0.95122942450071679\n" in got.read_bytes()


@pytest.mark.parametrize("has_p", [False, True])
@pytest.mark.parametrize("column, value", [
    (1, 5e-324), (1, -0.0), (1, np.nan),  # left of the stretch, not 0 bit for bit
    (18, np.nextafter(BOUND, 2.0)), (18, np.nextafter(BOUND, 0.0)), (19, np.nan)])
def test_a_start_slice_off_its_constants_is_written_whole_byte_for_byte(
        tmp_path, has_p, column, value):
    grid = _stretched_grid(has_p, 20, 3, 17)
    grid.values[0][..., column] = value
    assert _kept(grid.values[0], grid.stretches[0]) == (0, 20, BOUND)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    start_slice_csv(grid, got)
    reference_start_slice_csv(grid, want)
    assert got.read_bytes() == want.read_bytes()
