"""Single-period kernel tests: flux structure, marching, diagnostics."""

import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator

from carbon_fbsde.config import build_plan, bundled_preset, preset_coefficients
from carbon_fbsde.errors import CoverageError, ValidationError
from carbon_fbsde.infinite_period import initial_state, picard_step
from carbon_fbsde.model import (
    CapFunction,
    CoefficientSet,
    TerminalSurface,
    indicator_terminal,
    make_cap_msr,
    smoothed_indicator,
)
from carbon_fbsde.pde_kernel import (
    _GL8_W,
    _GL8_X,
    _SLAB_CELLS,
    _project_terminal,
    SliceSink,
    SolverConfig,
    ValueGrid,
    diagnostics,
    evaluate,
    lookup,
    lookup_recorded,
    make_flux,
    recorded_shifts,
    solve_one_period,
)
from oracle import brentq_y_star, constant_surface

ROLLING_FACTOR = Path(__file__).resolve().parents[1] / "perfbench" / "rolling-factor.json"


def no_factor(m0: float = 1.2, m2: float = 1.0, rate: float = 0.0):
    return preset_coefficients("no-factor", {"m0": m0, "m2": m2}, rate)


def factor_coeffs(rate: float = 0.0):
    return preset_coefficients("linear-abatement", {}, rate)


def small_config(**kw):
    base = dict(e_min=-1.0, e_max=1.0, n_e=64, cfl_target=0.9)
    base.update(kw)
    return SolverConfig(**base)


# ----------------------------------------------------------------------
# configuration guards
# ----------------------------------------------------------------------

def test_solver_config_rejects_tiny_grids():
    with pytest.raises(ValidationError):
        SolverConfig(e_min=-1.0, e_max=1.0, n_e=4)


def test_solver_config_factor_args_come_together():
    with pytest.raises(ValidationError):
        SolverConfig(e_min=-1.0, e_max=1.0, n_e=16, p_min=-1.0)


def test_solver_config_rejects_empty_box():
    with pytest.raises(ValidationError):
        SolverConfig(e_min=1.0, e_max=-1.0, n_e=16)


# ----------------------------------------------------------------------
# flux model
# ----------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(
    u=st.floats(-0.2, 1.2),
    m0=st.floats(0.1, 2.0),
    m2=st.floats(0.3, 2.0),
)
def test_interface_flux_is_consistent(u, m0, m2):
    """The Godunov flux reduces to the physical flux on constant states."""
    coeffs = no_factor(m0, m2)
    flux = make_flux(coeffs)
    exact = 0.5 * m2 * u * u - m0 * u  # -int_0^u (m0 - m2 s) ds
    got = float(flux.interface(np.array(u), np.array(u)))
    assert got == pytest.approx(exact, abs=1e-12)


def test_y_star_is_the_stationary_state():
    coeffs = no_factor(0.55, 1.0)
    flux = make_flux(coeffs)
    assert float(flux.y_star) == pytest.approx(0.55, abs=1e-12)
    assert float(coeffs.emissions_rate(None, flux.y_star)) == pytest.approx(0.0, abs=1e-12)


def test_speed_bound_covers_unit_band_endpoints():
    assert no_factor(1.2, 1.0).peak_speed() == pytest.approx(1.2, abs=1e-14)


def test_table_flux_matches_closed_form():
    """Dropping the antiderivative forces the quadrature table; it must
    reproduce the closed-form primitive to near machine accuracy."""
    closed = no_factor(0.7, 1.0)
    tabled = CoefficientSet(dim_p=0, emissions_rate=closed.emissions_rate,
                            rate=0.0, lipschitz_L=closed.lipschitz_L,
                            mono_l1=closed.mono_l1, mono_l2=closed.mono_l2)
    f_closed = make_flux(closed)
    f_tabled = make_flux(tabled)
    y = np.linspace(-0.4, 1.4, 257)
    assert np.max(np.abs(f_closed._f(y) - f_tabled._f(y))) < 1e-9


def test_factor_flux_rows_follow_the_factor():
    p_nodes = np.array([-1.0, 0.0, 1.0])
    flux = make_flux(factor_coeffs(), p_nodes)
    vals = flux._f(np.full(3, 0.25)[None, :].T * np.ones(3))
    assert vals.shape[0] == 3
    assert flux.y_star.shape == (3,)


@pytest.mark.parametrize("factor", [False, True], ids=["no-factor", "factor"])
def test_in_place_flux_is_the_antiderivative_expression_bit_for_bit(factor):
    """The one-sided flux written into the march's buffers equals, bit for
    bit, ``-M`` of the closed-form antiderivative, on states on both sides
    of the price band."""
    rng = np.random.default_rng(20)
    for _ in range(5):
        m0, m1, m2 = rng.uniform(0.8, 1.8), rng.uniform(-0.3, 0.3), rng.uniform(0.5, 2.0)
        if factor:
            coeffs = preset_coefficients("linear-abatement",
                                         {"m0": m0, "m1": m1, "m2": m2}, 0.05)
            p_nodes = np.linspace(-3.0, 3.0, 9)
            y = rng.uniform(-0.5, 1.5, (p_nodes.size, 60))
            c = m0 + m1 * p_nodes[:, None]
        else:
            coeffs, p_nodes = no_factor(m0, m2), None
            y = rng.uniform(-0.5, 1.5, 60)
            c = m0
        assert y.min() < 0.0 and y.max() > 1.0
        want = -(c * y - 0.5 * m2 * y ** 2)
        flux = make_flux(coeffs, p_nodes)
        dest, scratch = np.empty_like(y), np.empty_like(y)
        for side in ("right", "left"):
            dest.fill(np.nan)
            assert flux.interface(y, y, side, out=(dest, scratch)) is dest
            assert np.array_equal(dest, want)
            assert np.array_equal(flux.interface(y, y, side), want)


def test_a_factor_sweep_allocates_no_state_buffers_per_step():
    """One Picard sweep of the rolling factor market: the march's four
    state buffers, the terminal cells and the new start slice, but nothing
    that grows with the step count."""
    plan = build_plan(json.loads(ROLLING_FACTOR.read_text()))
    spec, config = plan.spec, plan.solver
    args = (spec.coefficients, spec.period_length, spec.cap_per_period, config)
    # a first sweep does the lazy imports and gives a nonzero start slice
    state = picard_step(initial_state(spec.coefficients, config), *args)
    buffer = 8 * (config.n_p + 2) * (config.n_e + 2)
    tracemalloc.start()
    try:
        swept = picard_step(state, *args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert swept.residual > 0.0
    assert peak <= 8 * buffer, f"peak {peak / buffer:.2f} state buffers"


def _y_star_market(name):
    if name == "rolling-factor":
        return json.loads(ROLLING_FACTOR.read_text())
    if name == "two-period-factor-m0-0.6":  # y* inside [0, 1]: the general flux
        tree = bundled_preset("two-period-factor")
        tree["coefficients"]["parameters"]["m0"] = 0.6
        return tree
    return bundled_preset(name)


@pytest.mark.parametrize("name", ["burgers", "two-period-msr", "two-period-factor",
                                  "rolling-r005", "rolling-factor",
                                  "two-period-factor-m0-0.6"])
def test_y_star_bisection_matches_brentq_on_the_markets(name):
    plan = build_plan(_y_star_market(name))
    coeffs, p_nodes = plan.spec.coefficients, plan.solver.p_nodes()
    got = make_flux(coeffs, p_nodes).y_star
    assert np.array_equal(got, brentq_y_star(coeffs, p_nodes))
    assert type(got) is (float if p_nodes is None else np.ndarray)


_BENDS = {
    "linear": lambda k, y: 0.0 * y,
    "tanh": lambda k, y: k * np.tanh(3.0 * y),
    "cubic": lambda k, y: k * y ** 3,
}


@settings(max_examples=60, deadline=None)
@given(
    m0=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
    l1=st.floats(0.25, 4.0),
    tilt=st.one_of(st.none(), st.floats(-0.5, 0.5)),
    bend=st.sampled_from(sorted(_BENDS)),
    k=st.floats(0.0, 2.0),
)
def test_y_star_is_the_last_float_before_the_sign_change(m0, l1, tilt, bend, k):
    """``mu = m0 + tilt p - l1 y - bend(y)`` falls at least at rate ``l1``;
    ``y*`` must sit at its sign change to the last float and agree with
    brentq up to brentq's own tolerance ``xtol + rtol |y|`` plus one ulp."""
    p_nodes = None if tilt is None else np.linspace(-3.0, 3.0, 7)

    def mu(p, y):
        y = np.asarray(y, dtype=float)
        shift = 0.0 if p is None else tilt * np.asarray(p, dtype=float)
        return m0 + shift - l1 * y - _BENDS[bend](k, y)

    L = max(1.0, 1.0 / l1, l1 + 3.0 * k) + 1.0
    coeffs = CoefficientSet(dim_p=0 if tilt is None else 1, emissions_rate=mu,
                            rate=0.0, lipschitz_L=L, mono_l1=l1, mono_l2=L,
                            drift=lambda p: 0.0 * p, vol=lambda p: 1.0 + 0.0 * p)
    y = np.atleast_1d(make_flux(coeffs, p_nodes).y_star)
    assert np.all(mu(p_nodes, np.nextafter(y, -np.inf)) >= 0.0)
    assert np.all(mu(p_nodes, np.nextafter(y, np.inf)) <= 0.0)
    xtol, rtol = 1e-300, 8.9e-16
    ref = np.atleast_1d(brentq_y_star(coeffs, p_nodes, xtol=xtol))
    assert np.all(np.abs(y - ref) <= xtol + rtol * np.abs(ref) + np.spacing(np.abs(y)))


# ----------------------------------------------------------------------
# terminal projection
# ----------------------------------------------------------------------

def test_terminal_projection_calls_the_surface_on_slabs():
    """Slabs of factor rows of at most ``_SLAB_CELLS`` cells cover every row
    once, and the cell averages equal one whole-array evaluation bit for bit."""
    p_nodes, de = np.linspace(-1.0, 1.0, 41), 0.02
    centres = -2.0 + de * np.arange(202)
    sizes = []

    def fn(p, e):
        out = 0.5 + 0.4 * np.tanh(e - 0.3 * p)
        sizes.append(out.size)
        return out

    cells = _project_terminal(TerminalSurface(fn=fn), centres, de, p_nodes)
    assert max(sizes) <= _SLAB_CELLS and sum(sizes) == 8 * p_nodes.size * centres.size
    pts = centres[:, None] + (0.5 * de) * _GL8_X[None, :]
    whole = np.stack([fn(p_nodes[:, None], pts[None, :, j]) for j in range(8)], axis=-1)
    assert np.array_equal(cells, np.tensordot(whole, 0.5 * _GL8_W, axes=([-1], [0])))


# ----------------------------------------------------------------------
# one-period solves
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def burgers_grid():
    # wide enough that the whole rarefaction fan [-1.2, -0.2] fits
    terminal = indicator_terminal(CapFunction.constant(0.0))
    return solve_one_period(no_factor(), terminal, 0.0, 1.0,
                            small_config(e_min=-2.0, e_max=2.0))


def test_grid_geometry(burgers_grid):
    g = burgers_grid
    assert g.t0 == 0.0 and g.tau == 1.0
    assert g.times[-2] == g.last_interior_time
    assert g.delta_e == pytest.approx(4.0 / 64)
    assert g.values.shape == (g.times.size, g.e_nodes.size)
    assert not g.has_p


def test_solve_steps_respect_the_cfl_budget(burgers_grid):
    g = burgers_grid
    dts = np.diff(g.times)
    assert np.all(dts > 0.0)
    de = g.delta_e
    speed = 1.2  # fastest wave of the m0=1.2 family on [0, 1]
    assert np.all(dts <= 0.9 * de / speed + 1e-12)
    assert g.times[0] == 0.0 and g.times[-1] == 1.0


def test_explicit_step_count_gives_equal_steps():
    terminal = indicator_terminal(CapFunction.constant(0.0))
    grid = solve_one_period(no_factor(), terminal, 0.0, 1.0,
                            small_config(n_steps=200))
    dts = np.diff(grid.times)
    assert dts.size == 200
    assert np.max(np.abs(dts - dts[0])) < 1e-12


def test_discount_identity_without_terminal_risk():
    """A sure payoff of one allowance is worth its discount factor."""
    grid = solve_one_period(no_factor(rate=0.05), constant_surface(1.0),
                            0.0, 1.0, small_config(n_e=32))
    expected = np.exp(-0.05 * (1.0 - grid.times))
    gap = np.abs(grid.values - expected[:, None]).max()
    assert gap < 1e-12, f"discount identity broken by {gap:.3e}"


def test_solution_monotone_and_in_range(burgers_grid):
    v = burgers_grid.values
    assert v.min() >= -1e-15 and v.max() <= 1.0 + 1e-15
    assert np.min(np.diff(v, axis=1)) >= -1e-15


def test_terminal_slice_is_cell_averaged_indicator(burgers_grid):
    term = burgers_grid.values[-1]
    e = burgers_grid.e_nodes
    assert np.max(np.abs(term[e < -burgers_grid.delta_e])) < 1e-12
    assert np.max(np.abs(term[e > burgers_grid.delta_e] - 1.0)) < 1e-12


def test_solve_rejects_degenerate_horizon():
    terminal = indicator_terminal(CapFunction.constant(0.0))
    with pytest.raises(ValidationError):
        solve_one_period(no_factor(), terminal, 1.0, 1.0, small_config())


def test_factor_grid_without_factor_coefficients_is_the_plain_solve():
    """A factor axis in the config is ignored, bit for bit, by factor-free
    coefficients: the step size and the march both see no factor."""
    terminal = indicator_terminal(CapFunction.constant(0.0))
    plain = solve_one_period(no_factor(), terminal, 0.0, 0.5, small_config(n_e=32))
    gridded = solve_one_period(no_factor(), terminal, 0.0, 0.5,
                               small_config(n_e=32, p_min=-2.0, p_max=2.0, n_p=9))
    assert gridded.p_nodes is None
    assert np.array_equal(plain.times, gridded.times)
    assert np.array_equal(plain.values, gridded.values)


# the second cap of the ``two-period-msr`` preset, which depends on the
# emissions recorded at the first date
_, RESERVE_CAP = make_cap_msr(0.6, 0.6, 0.18, 0.72, 0.12, 0.88)


def _start_only_cases():
    """A no-factor market, a factor market, a general-flux market (``y*``
    inside [0, 1]) and a reserve-rule period, solved at the constant
    stand-in cap 0.75 on a cell edge and read through ``lookup_recorded``."""
    terminal = indicator_terminal(CapFunction.constant(0.0))
    factor_config = small_config(n_e=32, p_min=-2.0, p_max=2.0, n_p=9)
    recorded_config = small_config(e_max=2.0, n_e=36, p_min=-2.0, p_max=2.0, n_p=5)
    return {
        "no-factor": (no_factor(rate=0.05), terminal, small_config(n_e=48), {}),
        "factor": (factor_coeffs(rate=0.05), terminal, factor_config, {}),
        "general-flux": (no_factor(m0=0.5), terminal, small_config(n_e=48), {}),
        "recorded": (factor_coeffs(), indicator_terminal(CapFunction.constant(0.75)),
                     recorded_config, {"meta": {"cap_level": 0.75}}),
    }


@pytest.mark.parametrize("factor", [False, True], ids=["no-factor", "factor"])
@pytest.mark.parametrize("m", [-3, 3])
def test_a_cap_moved_by_whole_cells_moves_the_field(factor, m):
    """What ``lookup_recorded`` rests on: the emission rate does not depend
    on ``e``, so the period solved at the cap ``L0 + m de`` is the one
    solved at ``L0`` moved by ``m`` cells, on every cell that the box edges
    cannot reach within the period."""
    coeffs = factor_coeffs(rate=0.05) if factor else no_factor(rate=0.05)
    p_grid = dict(p_min=-2.0, p_max=2.0, n_p=9) if factor else {}
    config = small_config(e_max=2.0, n_e=72, **p_grid)
    de, level, tau = 3.0 / 72, 0.5, 0.5  # 0.5 is the edge of cell 36
    base, moved = (solve_one_period(coeffs, indicator_terminal(CapFunction.constant(cap)),
                                    0.0, tau, config)
                   for cap in (level, level + m * de))
    need = coeffs.peak_speed(config.p_nodes()) * tau
    e = base.e_nodes
    far = np.nonzero((np.minimum(e, e - m * de) >= config.e_min + need)
                     & (np.maximum(e, e - m * de) <= config.e_max - need))[0]
    assert far.size > 20
    gap = np.abs(np.take(moved.values, far, axis=-1) - np.take(base.values, far - m, axis=-1))
    assert gap.max() <= 1e-12


@pytest.mark.parametrize("case", ["no-factor", "factor", "general-flux"])
def test_start_only_solve_keeps_the_full_solves_start_slice(case, caplog):
    coeffs, terminal, config, kw = _start_only_cases()[case]
    with caplog.at_level("DEBUG", logger="carbon_fbsde.pde_kernel"):
        full = solve_one_period(coeffs, terminal, 0.0, 0.5, config, **kw)
        start = solve_one_period(coeffs, terminal, 0.0, 0.5, config,
                                 sink=SliceSink(), **kw)
    if case == "general-flux":
        assert 0.0 < make_flux(coeffs).y_star < 1.0
        assert "general flux" in caplog.records[0].getMessage()
    assert start.values.shape == (1,) + full.values.shape[1:]
    assert np.array_equal(start.values[0].view(np.uint64),
                          full.values[0].view(np.uint64))
    assert np.array_equal(start.times, full.times[:1])
    assert start.meta == full.meta
    assert start.meta["n_steps"] == full.values.shape[0] - 1


@pytest.mark.parametrize("case", ["no-factor", "factor", "recorded"])
def test_one_slice_grid_reads_its_only_slice(case):
    coeffs, terminal, config, kw = _start_only_cases()[case]
    full = solve_one_period(coeffs, terminal, 0.0, 0.5, config, **kw)
    start = solve_one_period(coeffs, terminal, 0.0, 0.5, config, sink=SliceSink(), **kw)
    rng = np.random.default_rng(3)

    def inside(nodes):
        return None if nodes is None else rng.uniform(nodes[0], nodes[-1], 200)

    p, e = inside(full.p_nodes), inside(full.e_nodes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if case == "recorded":
            shifts = recorded_shifts(full, RESERVE_CAP, inside(full.e_nodes))
            want, _ = lookup_recorded(full, 0.0, p, e, shifts)
            assert np.array_equal(lookup_recorded(start, 0.0, p, e, shifts)[0], want)
            value, in_box = lookup_recorded(start, 0.3, p, e, shifts)
        else:
            want = full.at_start(p, e)
            assert np.array_equal(start.at_start(p, e), want)
            assert np.array_equal(evaluate(start, 0.0, p, e), want)
            # any time reads the one stored slice
            value, in_box = lookup(start, 0.3, p, e)
    assert np.array_equal(value, want)
    assert in_box.all()


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

def test_evaluate_reproduces_stored_nodes(burgers_grid):
    g = burgers_grid
    it, ie = 0, 20
    got = evaluate(g, g.times[it], None, g.e_nodes[ie])
    assert got == pytest.approx(g.values[it, ie], abs=1e-15)


def test_evaluate_is_linear_between_nodes(burgers_grid):
    g = burgers_grid
    mid = 0.5 * (g.e_nodes[10] + g.e_nodes[11])
    got = evaluate(g, g.times[0], None, mid)
    assert got == pytest.approx(0.5 * (g.values[0, 10] + g.values[0, 11]), abs=1e-14)


def test_evaluate_guards_the_domain(burgers_grid):
    g = burgers_grid
    with pytest.raises(CoverageError):
        evaluate(g, g.times[0], None, g.e_nodes[-1] + 1.0)
    with pytest.raises(CoverageError):
        evaluate(g, g.tau + 0.5, None, 0.0)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
def test_evaluate_refuses_a_non_finite_time(burgers_grid, t):
    with pytest.raises(CoverageError, match="time query outside grid range"):
        evaluate(burgers_grid, t, None, 0.0)


@pytest.mark.parametrize("x", [math.inf, -math.inf, 1e300, -1e300, 1e19])
@pytest.mark.parametrize("axis", ["factor", "emissions"])
def test_lookup_clamps_huge_and_infinite_queries_onto_the_edge(lookup_grids, axis, x):
    """Beyond any int64 cell index a query still lands on the nearer edge."""
    grid = lookup_grids["factor"]
    edge = -1 if x > 0 else 0
    if axis == "factor":
        p, e, want = x, grid.e_nodes[0], grid.values[0, edge, 0]
    else:
        p, e, want = grid.p_nodes[0], x, grid.values[0, 0, edge]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, in_box = lookup(grid, grid.t0, p, e)
        values, in_boxes = lookup(grid, grid.t0, np.full(3, p), np.full(3, e))
    assert value == want and not in_box
    assert np.all(values == want) and not np.any(in_boxes)


@pytest.fixture(scope="module")
def lookup_grids():
    """A solved factor grid and a reserve-rule period solved at its stand-in cap."""
    factor = solve_one_period(
        factor_coeffs(), indicator_terminal(CapFunction.constant(0.0)), 0.0, 0.5,
        small_config(n_e=32, p_min=-2.0, p_max=2.0, n_p=9))
    recorded = solve_one_period(no_factor(), indicator_terminal(CapFunction.constant(0.75)),
                                0.0, 0.5, small_config(e_max=2.0, n_e=36),
                                meta={"cap_level": 0.75})
    return {"factor": factor, "recorded": recorded}


# unit coordinates along an axis; the band just outside each edge where the
# box tolerance still admits a point is left out so the expected mask is exact
UNIT_COORD = st.floats(-0.3, 1.3).filter(
    lambda u: not (-1e-6 < u < 0.0 or 1.0 < u < 1.0 + 1e-6))


@pytest.mark.parametrize("kind", ["factor", "recorded"])
@settings(max_examples=50, deadline=None)
@given(s=st.floats(0.0, 1.0),
       coords=st.lists(st.tuples(UNIT_COORD, UNIT_COORD), min_size=1, max_size=16))
def test_lookup_is_evaluate_with_an_in_box_mask(lookup_grids, kind, s, coords):
    """Inside the box the masked lookup is evaluate, bit for bit; it flags
    exactly the points outside, where evaluate raises.  The recorded read
    flags exactly the points whose ``e`` or recorded ``ep`` is outside, and
    blends two reads of an independent interpolant, each moved by the cap
    at a node bracketing ``ep`` and clamped onto the box."""
    grid = lookup_grids[kind]
    t = grid.t0 + s * (grid.tau - grid.t0)
    u = np.array(coords)
    side = grid.p_nodes if grid.has_p else grid.e_nodes
    x = side[0] + u[:, 0] * (side[-1] - side[0])
    e = grid.e_nodes[0] + u[:, 1] * (grid.e_nodes[-1] - grid.e_nodes[0])
    inside = np.all((u >= 0.0) & (u <= 1.0), axis=1)
    axes = (grid.times,) + ((side,) if grid.has_p else ()) + (grid.e_nodes,)
    interp = RegularGridInterpolator(axes, grid.values, bounds_error=False, fill_value=None)

    if kind == "recorded":
        value, in_box = lookup_recorded(grid, t, None, e,
                                        recorded_shifts(grid, RESERVE_CAP, x))
        assert np.array_equal(in_box, inside)
        de = side[1] - side[0]
        j = np.clip(np.floor((x - side[0]) / de), 0, side.size - 2).astype(int)
        theta = np.clip((x - side[j]) / de, 0.0, 1.0)

        def moved(ep):
            at = np.clip(e - RESERVE_CAP.level(ep) + grid.meta["cap_level"],
                         side[0], side[-1])
            return interp(np.column_stack([np.full(e.size, t), at]))

        ref = (1.0 - theta) * moved(side[j]) + theta * moved(side[j + 1])
        assert value == pytest.approx(ref, abs=1e-12)
        return

    def query(sel):
        return x[sel], e[sel]

    value, in_box = lookup(grid, t, *query(slice(None)))
    assert np.array_equal(in_box, inside)
    if inside.any():
        assert np.array_equal(evaluate(grid, t, *query(inside)), value[inside])
        # the value itself against an independent multilinear interpolant
        pts = np.column_stack([np.full(inside.sum(), t), x[inside], e[inside]])
        assert value[inside] == pytest.approx(interp(pts), abs=1e-12)
    for i in np.nonzero(~inside)[0]:
        with pytest.raises(CoverageError):
            evaluate(grid, t, *query(i))


# ----------------------------------------------------------------------
# diagnostics
# ----------------------------------------------------------------------

def test_diagnostics_pass_on_a_clean_solve(burgers_grid):
    report = diagnostics(burgers_grid, no_factor().mono_l1)
    assert report.passed, report.notes
    assert report.max_range_violation <= 1e-12
    assert report.scheme_added_monotonicity <= 1e-12
    assert report.lipschitz_excess < 0.05
    assert report.boundary_left < 1e-12, "fan mass reached the left edge"


def test_diagnostics_catch_range_violations(burgers_grid):
    g = burgers_grid
    bad = g.values.copy()
    bad[3, 40] = 1.5
    tampered = ValueGrid(times=g.times, e_nodes=g.e_nodes, values=bad,
                         rate=g.rate, meta=dict(g.meta))
    report = diagnostics(tampered, no_factor().mono_l1)
    assert not report.passed
    assert report.max_range_violation >= 0.5
    assert any("range" in note for note in report.notes)


def _synthetic_grid(interior, terminal):
    times = np.array([0.0, 0.5, 1.0])
    e = np.linspace(-1.0, 1.0, 5)
    values = np.stack([interior, interior, terminal])
    return ValueGrid(times=times, e_nodes=e, values=values, rate=0.0, meta={})


def test_diagnostics_net_out_inherited_defects():
    """A wiggle already present in the terminal data does not gate, but
    the same wiggle born inside the march does."""
    wiggly = np.array([0.0, 0.30, 0.28, 0.60, 1.0])
    flat = np.array([0.0, 0.25, 0.50, 0.75, 1.0])

    inherited = diagnostics(_synthetic_grid(flat, wiggly), 1.0)
    assert inherited.passed
    assert inherited.terminal_monotonicity_defect == pytest.approx(0.02)
    assert inherited.scheme_added_monotonicity == 0.0

    created = diagnostics(_synthetic_grid(wiggly, flat), 1.0)
    assert not created.passed
    assert created.scheme_added_monotonicity == pytest.approx(0.02)


def _looped_lipschitz_and_right_residual(grid, mono_l1, min_age=0.1):
    """The Lipschitz excess and right-boundary residual, one slice at a time."""
    v = grid.values
    e_axis = 1 + (1 if grid.has_p else 0)
    ages = grid.tau - grid.times
    bounds = np.exp(-grid.rate * ages)
    diffs = np.diff(v, axis=e_axis)
    lip_excess = -1.0
    for it in range(v.shape[0]):
        age = ages[it]
        if age < min_age - 1e-12:
            continue
        q = float(np.max(np.take(diffs, it, axis=0))) / grid.delta_e
        lip_excess = max(lip_excess, q * mono_l1 * age - 1.0)
    term_right = np.take(v[-1], -1, axis=e_axis - 1)
    right_res = 0.0
    for it in range(v.shape[0]):
        slice_right = np.take(v[it], -1, axis=e_axis - 1)
        right_res = max(right_res, float(np.max(np.abs(slice_right - bounds[it] * term_right))))
    return lip_excess, right_res


def test_diagnostics_match_the_per_slice_loops():
    coeffs = factor_coeffs(rate=0.05)
    config = SolverConfig(e_min=-1.0, e_max=2.0, n_e=36, p_min=-2.0, p_max=2.0, n_p=9)
    grids = [
        solve_one_period(coeffs, indicator_terminal(CapFunction.constant(0.3)),
                         0.0, 0.5, config),
        solve_one_period(coeffs, smoothed_indicator(CapFunction.constant(0.75), 0.4),
                         0.0, 0.5, config),
    ]
    for grid in grids:
        report = diagnostics(grid, coeffs.mono_l1)
        lip, right = _looped_lipschitz_and_right_residual(grid, coeffs.mono_l1)
        assert report.lipschitz_excess == lip
        assert report.boundary_right_residual == right
        assert right > 0.0  # the right edge lost value to the emissions drift


def test_solve_logs_steps_courant_and_flux_path(caplog):
    terminal = indicator_terminal(CapFunction.constant(0.0))
    with caplog.at_level("DEBUG", logger="carbon_fbsde.pde_kernel"):
        one_sided = solve_one_period(no_factor(m0=1.2), terminal, 0.0, 0.5,
                                     small_config(n_e=32))
        solve_one_period(no_factor(m0=0.5), terminal, 0.0, 0.5,
                         small_config(n_e=32, n_steps=40))
    first, second = [r.getMessage() for r in caplog.records
                     if r.name == "carbon_fbsde.pde_kernel"]
    assert f"{one_sided.meta['n_steps']} steps" in first
    assert "Courant number 0.9," in first
    assert "one-sided (right state) flux (closed form)" in first
    assert "40 steps" in second and "general flux (closed form)" in second

    caplog.clear()
    solve_one_period(no_factor(), terminal, 0.0, 0.5, small_config(n_e=32))
    assert caplog.records == [], "kernel logging is off by default"


def test_solve_logs_the_march_time_after_the_march(caplog):
    terminal = indicator_terminal(CapFunction.constant(0.0))
    config = small_config(n_e=32, p_min=-2.0, p_max=2.0, n_p=9)
    quiet = solve_one_period(factor_coeffs(0.05), terminal, 0.0, 0.5, config)
    with caplog.at_level("DEBUG", logger="carbon_fbsde.pde_kernel"):
        grid = solve_one_period(factor_coeffs(0.05), terminal, 0.0, 0.5, config)
    (message,) = [r.getMessage() for r in caplog.records
                  if r.name == "carbon_fbsde.pde_kernel"]
    timed = re.search(r"; march (\d+\.\d{4}) s, (\d+\.\d) us per step$", message)
    assert timed, message
    assert float(timed.group(2)) > 0.0
    # the timing goes to the log alone
    assert grid.meta == quiet.meta
    assert np.array_equal(grid.values, quiet.values)
