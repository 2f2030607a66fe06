"""Single-period kernel tests: flux structure, marching, diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator

from carbon_fbsde import pde_kernel
from carbon_fbsde.config import preset_coefficients
from carbon_fbsde.errors import CoverageError, ValidationError
from carbon_fbsde.model import (
    CapFunction,
    CoefficientSet,
    constant_surface,
    indicator_terminal,
    make_cap_msr,
    smoothed_indicator,
)
from carbon_fbsde.pde_kernel import (
    SolverConfig,
    ValueGrid,
    diagnostics,
    evaluate,
    lookup,
    make_flux,
    mollify_terminal,
    solve_one_period,
)


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
    """Both schemes reduce to the physical flux on constant states."""
    coeffs = no_factor(m0, m2)
    flux = make_flux(coeffs)
    exact = -float(coeffs.emissions_antiderivative(None, u))
    for scheme in ("godunov", "engquist-osher"):
        got = float(flux.interface(np.array(u), np.array(u), scheme))
        assert got == pytest.approx(exact, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    ul=st.floats(-0.2, 1.2),
    ur=st.floats(-0.2, 1.2),
    m0=st.floats(0.1, 1.4),
)
def test_engquist_osher_dominates_godunov(ul, ur, m0):
    """The two monotone fluxes agree except across a transonic shock,
    where the smoother one sits weakly above."""
    flux = make_flux(no_factor(m0, 1.0))
    g = float(flux.interface(np.array(ul), np.array(ur), "godunov"))
    eo = float(flux.interface(np.array(ul), np.array(ur), "engquist-osher"))
    assert eo >= g - 1e-12
    ys = float(flux.y_star)
    transonic_shock = ul > ys > ur
    if not transonic_shock:
        assert eo == pytest.approx(g, abs=1e-10)


def test_interface_rejects_unknown_scheme():
    flux = make_flux(no_factor())
    with pytest.raises(ValidationError):
        flux.interface(np.array(0.5), np.array(0.5), "lax-wendroff")


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
    assert np.max(np.abs(f_closed.f(y) - f_tabled.f(y))) < 1e-9


def test_factor_flux_rows_follow_the_factor():
    p_nodes = np.array([-1.0, 0.0, 1.0])
    flux = make_flux(factor_coeffs(), p_nodes)
    vals = flux.f(np.full(3, 0.25)[None, :].T * np.ones(3))
    assert vals.shape[0] == 3
    assert flux.y_star.shape == (3,)


# ----------------------------------------------------------------------
# terminal mollification
# ----------------------------------------------------------------------

def test_mollify_zero_width_is_identity():
    surface = indicator_terminal(CapFunction.constant(0.0))
    assert mollify_terminal(surface, 0.0) is surface


def test_mollify_preserves_constants_and_range():
    flat = constant_surface(1.0)
    out = mollify_terminal(flat, 0.1)
    e = np.linspace(-1.0, 1.0, 33)
    assert np.max(np.abs(out.fn(None, e, None) - 1.0)) < 1e-12

    sharp = indicator_terminal(CapFunction.constant(0.0))
    soft = mollify_terminal(sharp, 0.08)
    vals = soft.fn(None, e, None)
    assert np.all(vals >= -1e-15) and np.all(vals <= 1.0 + 1e-15)
    assert np.all(np.diff(vals) >= -1e-15), "mollification broke monotonicity"


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
    assert not g.has_p and not g.has_eparam


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


def test_factor_solve_is_thread_invariant(monkeypatch):
    config = SolverConfig(e_min=-1.0, e_max=1.0, n_e=48,
                          p_min=-2.0, p_max=2.0, n_p=9)
    terminal = indicator_terminal(CapFunction.constant(0.0))
    a = solve_one_period(factor_coeffs(), terminal, 0.0, 0.5, config, threads=1)
    b = solve_one_period(factor_coeffs(), terminal, 0.0, 0.5, config, threads=3)
    assert np.array_equal(a.values, b.values), "thread count changed the answer"

    # a recorded-emissions batch is what the pool splits
    pools = []
    real_pool = pde_kernel.ThreadPoolExecutor
    monkeypatch.setattr(pde_kernel, "ThreadPoolExecutor",
                        lambda **kw: pools.append(kw) or real_pool(**kw))
    _, reserve_cap = make_cap_msr(0.6, 0.6, 0.18, 0.72, 0.12, 0.88)
    config = SolverConfig(e_min=-1.0, e_max=2.0, n_e=36,
                          p_min=-2.0, p_max=2.0, n_p=9)
    batch = [solve_one_period(factor_coeffs(), indicator_terminal(reserve_cap),
                              0.0, 0.5, config, eparam_nodes=config.e_cells(),
                              threads=threads)
             for threads in (1, 3)]
    assert pools == [{"max_workers": 3}]
    assert np.array_equal(batch[0].values, batch[1].values), \
        "thread count changed the batched answer"


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


@pytest.fixture(scope="module")
def lookup_grids():
    """A solved factor grid and a solved recorded-emissions grid."""
    factor = solve_one_period(
        factor_coeffs(), indicator_terminal(CapFunction.constant(0.0)), 0.0, 0.5,
        small_config(n_e=32, p_min=-2.0, p_max=2.0, n_p=9))
    _, reserve_cap = make_cap_msr(0.6, 0.6, 0.18, 0.72, 0.12, 0.88)
    config = small_config(e_max=2.0, n_e=36)
    recorded = solve_one_period(no_factor(), indicator_terminal(reserve_cap), 0.0, 0.5,
                                config, eparam_nodes=config.e_cells())
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
    exactly the points outside, where evaluate raises."""
    grid = lookup_grids[kind]
    t = grid.t0 + s * (grid.tau - grid.t0)
    u = np.array(coords)
    side = grid.p_nodes if grid.has_p else grid.eparam_nodes
    x = side[0] + u[:, 0] * (side[-1] - side[0])
    e = grid.e_nodes[0] + u[:, 1] * (grid.e_nodes[-1] - grid.e_nodes[0])

    def query(sel):
        return (x[sel], e[sel], None) if grid.has_p else (None, e[sel], x[sel])

    value, in_box = lookup(grid, t, *query(slice(None)))
    inside = np.all((u >= 0.0) & (u <= 1.0), axis=1)
    assert np.array_equal(in_box, inside)
    if inside.any():
        assert np.array_equal(evaluate(grid, t, *query(inside)), value[inside])
        # the value itself against an independent multilinear interpolant
        axes = ((grid.times, side, grid.e_nodes) if grid.has_p
                else (grid.times, grid.e_nodes, side))
        pts = np.column_stack([np.full(inside.sum(), t)]
                              + [a[inside] for a in ((x, e) if grid.has_p else (e, x))])
        ref = RegularGridInterpolator(axes, grid.values, bounds_error=False,
                                      fill_value=None)(pts)
        assert value[inside] == pytest.approx(ref, abs=1e-12)
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
