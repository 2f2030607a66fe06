"""The slice-wise structural scan against the whole-grid scan.

``reference_diagnostics`` is the kernel's ``diagnostics`` as it was
written before it read one time slice at a time: every reduction taken
over the whole grid at once, with full-grid temporaries.  It is kept
here, not in the package, as the oracle the slice-wise scan must
reproduce field for field, NaN included, on grids held in memory and on
grids read back from their files, where each slice comes as its stretch
and the two constants beside it.
"""

import dataclasses
import math
import tempfile
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbon_fbsde.gridio import read_grid, write_grid
from carbon_fbsde.pde_kernel import KernelDiagnostics, ValueGrid, diagnostics
from test_gridio import first_format_blob


def reference_diagnostics(grid: ValueGrid, mono_l1: float, tol: float = 1e-12,
                          lipschitz_headroom: float = 0.05,
                          min_age: float = 0.1) -> KernelDiagnostics:
    """Scan a solved grid; ``mono_l1`` is the rate's monotonicity constant."""
    v = grid.values
    e_axis = 1 + (1 if grid.has_p else 0)
    ages = grid.tau - grid.times
    bounds = np.exp(-grid.rate * ages)

    shape = [1] * v.ndim
    shape[0] = v.shape[0]
    bound_col = bounds.reshape(shape)
    range_viol = max(float((v - bound_col).max()), float((-v).max()))

    diffs = np.diff(v, axis=e_axis)
    if diffs.size:
        defect = np.maximum(0.0, -diffs)
        per_slice = defect.reshape(defect.shape[0], -1).max(axis=1)
        mono_viol = float(per_slice.max())
        term_defect = float(per_slice[-1])
        mono_added = float(max(0.0, per_slice[:-1].max() - term_defect)) \
            if per_slice.size > 1 else 0.0
    else:
        mono_viol = term_defect = mono_added = 0.0

    de = grid.delta_e
    aged = ages >= min_age - 1e-12
    if diffs.size:
        q = diffs.reshape(diffs.shape[0], -1).max(axis=1) / de
    else:
        q = np.zeros(v.shape[0])
    excess = (q * mono_l1 * ages - 1.0)[aged]
    lip_excess = max(-1.0, float(excess.max())) if excess.size else -1.0

    left = float(np.max(np.abs(np.take(v, 0, axis=e_axis))))
    right = np.take(v, -1, axis=e_axis)
    right_bounds = bounds.reshape((-1,) + (1,) * (right.ndim - 1))
    right_res = max(0.0, float(np.max(np.abs(right - right_bounds * right[-1]))))

    tail_sel = grid.e_nodes < 0.0
    if tail_sel.any():
        tail = np.take(v[0], np.nonzero(tail_sel)[0], axis=e_axis - 1)
        sum_axis = e_axis - 1
        tail_mass = float(np.max(tail.sum(axis=sum_axis)) * de)
    else:
        tail_mass = 0.0

    notes = []
    if range_viol > tol:
        notes.append(f"range violation {range_viol:.3g}")
    if mono_added > tol:
        notes.append(f"scheme-added monotonicity defect {mono_added:.3g}")
    elif mono_viol > tol:
        notes.append(f"non-monotone terminal data, defect {term_defect:.3g} "
                     "(inherited, not gating)")
    if lip_excess > lipschitz_headroom:
        notes.append(f"Lipschitz quotient excess {lip_excess:.3g} (reported, not gating)")
    passed = range_viol <= tol and mono_added <= tol
    return KernelDiagnostics(
        max_range_violation=range_viol,
        max_monotonicity_violation=mono_viol,
        terminal_monotonicity_defect=term_defect,
        scheme_added_monotonicity=mono_added,
        lipschitz_excess=lip_excess,
        boundary_left=left,
        boundary_right_residual=right_res,
        left_tail_mass=tail_mass,
        passed=passed,
        notes=tuple(notes),
    )


@st.composite
def grids(draw):
    """Small grids with and without a factor axis: mostly monotone in ``e``
    and in range, with NaN, signed zeros, range breaches and monotonicity
    breaks sprinkled in."""
    n_t = draw(st.integers(1, 6))
    n_p = draw(st.sampled_from([None, 1, 3]))
    n_e = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = np.cumsum(np.concatenate([[0.0], rng.uniform(0.01, 0.3, n_t - 1)]))
    shape = (n_t,) + (() if n_p is None else (n_p,)) + (n_e,)
    e_axis = 1 if n_p is None else 2
    values = np.sort(rng.uniform(0.0, 1.0, shape), axis=e_axis)
    special = rng.choice([np.nan, 0.0, -0.0, 1.0, 1.3, -0.2, 0.5], shape)
    rate = draw(st.sampled_from([0.0, 0.05, 0.7]))
    values = np.where(rng.random(shape) < draw(st.sampled_from([0.0, 0.05, 0.3])),
                      special, values)
    if draw(st.booleans()):
        values[-1] = -0.0  # a terminal slice of negative zeros
    return ValueGrid(
        times=times, e_nodes=np.linspace(-0.6, 1.4, n_e), values=values, rate=rate,
        p_nodes=None if n_p is None else np.linspace(-1.0, 1.0, n_p))


def _same(a, b):
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return a == b


@settings(max_examples=400, deadline=None)
@given(grid=grids(), mono_l1=st.sampled_from([0.5, 1.0, 3.0]),
       min_age=st.sampled_from([0.0, 0.1, 0.4]))
def test_slice_scan_matches_the_whole_grid_scan(grid, mono_l1, min_age):
    got = diagnostics(grid, mono_l1, min_age=min_age)
    want = reference_diagnostics(grid, mono_l1, min_age=min_age)
    for f in dataclasses.fields(KernelDiagnostics):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert type(a) is type(b), f.name
        assert _same(a, b), (f.name, a, b)


@pytest.mark.parametrize("has_p", [True, False])
def test_slice_scan_keeps_no_grid_sized_temporary(has_p):
    """Peak traced memory inside the scan stays far below the grid's size."""
    rng = np.random.default_rng(5)
    shape = (150, 9, 200) if has_p else (150, 1800)
    values = np.sort(rng.uniform(0.0, 1.0, shape), axis=-1)
    grid = ValueGrid(times=np.linspace(0.0, 1.0, 150),
                     e_nodes=np.linspace(-1.0, 2.0, shape[-1]), values=values, rate=0.05,
                     p_nodes=np.linspace(-1.0, 1.0, 9) if has_p else None)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        diagnostics(grid, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * values.nbytes, f"peak {peak} B for a {values.nbytes} B grid"


# a long bound, as a discounted one is, and bounds that break the range
BOUNDS = [0.9512294245007168, 1.0, 0.5, 0.0, -0.0, 1.25, -0.3]
CELL_SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.3, -0.2, 0.5]


@st.composite
def stretch_tables(draw, n_e: int, n_t: int):
    """One ``(c0, c1)`` per slice: empty stretches at 0, mid-grid and
    ``n_e``, whole slices, one-column stretches and constant runs of one
    and two columns among random ones."""
    mid = n_e // 2
    picks = st.sampled_from([(0, 0), (mid, mid), (n_e, n_e), (0, n_e), (mid, mid + 1),
                             (1, n_e - 1), (2, n_e - 2), (1, n_e), (0, n_e - 2)])
    spans = st.tuples(st.integers(0, n_e), st.integers(0, n_e))
    return [tuple(sorted(draw(st.one_of(picks, spans)))) for _ in range(n_t)]


@st.composite
def stretched_grids(draw):
    """Grids whose slices are 0 left of a stretch and a bound right of it,
    with special values and range or monotonicity breaks in the stretch
    and at its edges, and a left tail of no, some or every column."""
    n_t = draw(st.integers(1, 6))
    n_p = draw(st.sampled_from([None, 1, 3]))
    n_e = draw(st.integers(2, 9))
    table = draw(stretch_tables(n_e, n_t))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = () if n_p is None else (n_p,)
    values = np.empty((n_t,) + rows + (n_e,))
    stretches = []
    p_special = draw(st.sampled_from([0.0, 0.1, 0.3]))
    for s, (c0, c1) in zip(values, table):
        bound = float(rng.choice(BOUNDS))
        cells = np.sort(rng.uniform(0.0, 1.0, rows + (c1 - c0,)), axis=-1) * bound
        cells = np.where(rng.random(cells.shape) < p_special,
                         rng.choice(CELL_SPECIALS, cells.shape), cells)
        if c1 > c0 and draw(st.booleans()):  # a break at one edge of the stretch
            cells[..., draw(st.sampled_from([0, -1]))] = rng.choice([-0.2, 1.3, np.nan])
        s[..., :c0] = 0.0
        s[..., c0:c1] = cells
        s[..., c1:] = bound
        stretches.append((c0, c1, bound))
    times = np.cumsum(np.concatenate([[0.0], rng.uniform(0.01, 0.3, n_t - 1)]))
    e_lo = draw(st.sampled_from([-3.0, -0.6, -0.05, 0.2]))
    return ValueGrid(
        times=times, e_nodes=np.linspace(e_lo, e_lo + 2.0, n_e), values=values,
        rate=draw(st.sampled_from([0.0, 0.05, 0.7])),
        p_nodes=None if n_p is None else np.linspace(-1.0, 1.0, n_p), stretches=stretches)


@settings(max_examples=200, deadline=None)
@given(grid=stretched_grids(), first_format=st.booleans(),
       mono_l1=st.sampled_from([0.5, 1.0, 3.0]), min_age=st.sampled_from([0.0, 0.1, 0.4]))
def test_a_file_scan_of_stretches_matches_the_whole_grid_scan(grid, first_format,
                                                              mono_l1, min_age):
    """A file's slices reach the scan as stretches, unexpanded; the figures
    are those of the whole grid."""
    # infinite cells make inf - inf, a NaN on both sides
    with tempfile.TemporaryDirectory() as tmp, np.errstate(invalid="ignore"):
        path = Path(tmp) / "g.grid"
        if first_format:
            path.write_bytes(first_format_blob(grid))
        else:
            write_grid(grid, path)
            assert read_grid(path).stretches == grid.stretches
        got = read_grid(path, scan=partial(diagnostics, mono_l1=mono_l1, min_age=min_age))
        want = reference_diagnostics(grid, mono_l1, min_age=min_age)
    for f in dataclasses.fields(KernelDiagnostics):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert type(a) is type(b), f.name
        assert _same(a, b), (f.name, a, b)
