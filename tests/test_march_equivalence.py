"""The buffered band march and the split flux against the plain array march.

``reference_march`` and ``reference_interface`` are the kernel's march
and Godunov flux as they were written before the march kept its state
in preallocated buffers, marched only the band of columns that can move
and split the flux at ``y*``: one array expression per term over every
column, every temporary fresh, and the textbook Godunov formula.  They
are kept here, not in the package, as the oracle the buffered kernel
must reproduce.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbon_fbsde import pde_kernel
from carbon_fbsde.config import preset_coefficients
from carbon_fbsde.errors import SolverError
from carbon_fbsde.gridio import GridWriter, read_grid, write_grid
from carbon_fbsde.model import CapFunction, TerminalSurface, indicator_terminal
from carbon_fbsde.pde_kernel import SolverConfig, make_flux, solve_one_period


def reference_interface(flux, ul, ur):
    """Godunov flux at interfaces between ``ul`` and ``ur``: the minimum of
    ``f`` over ``[ul, ur]`` when ``ul <= ur``, else the maximum over
    ``[ur, ul]``."""
    lo = np.minimum(ul, ur)
    hi = np.maximum(ul, ur)
    inner = flux._f(np.clip(flux._ystar_col, lo, hi))
    outer = np.maximum(flux._f(ul), flux._f(ur))
    return np.where(ul <= ur, inner, outer)


def reference_march(u, phi_gl, phi_gr, out_store, flux, r, steps, de, eps,
                    p_ctx, upwind=None):
    """Explicit backward march; writes every time slice through out_store."""
    n_steps = len(steps)
    bound = 1.0
    out_store(n_steps, u, 0, bound)
    for k in range(n_steps):
        dt = float(steps[k])
        disc = math.exp(-r * dt)
        lam = dt / de
        pad = np.empty(u.shape[:-1] + (u.shape[-1] + 2,), dtype=float)
        pad[..., 1:-1] = u
        pad[..., 0] = bound * phi_gl
        pad[..., -1] = bound * phi_gr
        F = reference_interface(flux, pad[..., :-1], pad[..., 1:])
        unew = u - lam * (F[..., 1:] - F[..., :-1])
        if eps > 0.0:
            unew += (0.5 * eps * eps * dt / de ** 2) * (
                pad[..., 2:] - 2.0 * u + pad[..., :-2])
        if p_ctx is not None:
            b_col, a_col, dp = p_ctx
            top = np.clip(2.0 * u[..., 0:1, :] - u[..., 1:2, :], 0.0, bound)
            bot = np.clip(2.0 * u[..., -1:, :] - u[..., -2:-1, :], 0.0, bound)
            pu = np.concatenate([top, u, bot], axis=-2)
            up, dn = pu[..., 2:, :], pu[..., :-2, :]
            diff2 = (up - 2.0 * u + dn) / dp ** 2
            adv = np.where(b_col > 0.0, up - u, u - dn) * (b_col / dp)
            unew += dt * (0.5 * (a_col + eps * eps) * diff2 + adv)
        unew *= disc
        bound *= disc
        u = unew
        out_store(n_steps - 1 - k, u, 0, bound)
        if (k + 1) % 32 == 0 and not np.all(np.isfinite(u)):
            raise SolverError(f"state became non-finite at step {k + 1}/{n_steps}")
    if not np.all(np.isfinite(u)):
        raise SolverError("state became non-finite at the final step")
    return u


# y* ranges that put every state (all in [0, 1] here) on one side of it
REGIMES = {"above": ((1.3, 1.7), "right"), "below": ((-0.7, -0.3), "left"),
           "inside": ((0.35, 0.65), None)}


@st.composite
def markets(draw):
    """A small market: coefficients, terminal, grid and layout."""
    regime = draw(st.sampled_from(sorted(REGIMES)))
    lo, hi = REGIMES[regime][0]
    m2 = draw(st.floats(0.8, 1.5))
    m0 = m2 * draw(st.floats(lo, hi))
    rate = draw(st.sampled_from([0.0, 0.07]))
    factor = draw(st.booleans())
    grid = dict(e_min=-1.0, e_max=1.0, n_e=draw(st.integers(16, 40)),
                viscosity=draw(st.sampled_from([0.0, 0.05])))
    if factor:
        coeffs = preset_coefficients("linear-abatement", {
            "m0": m0, "m1": draw(st.floats(-0.2, 0.2)), "m2": m2,
            "kappa": draw(st.floats(0.0, 1.5)), "sigma": draw(st.floats(0.1, 0.6))}, rate)
        grid.update(p_min=-1.0, p_max=1.0, n_p=draw(st.integers(3, 7)))
    else:
        coeffs = preset_coefficients("no-factor", {"m0": m0, "m2": m2}, rate)
    if draw(st.booleans()):
        coeffs = dataclasses.replace(coeffs, emissions_slope=None)
    tau = draw(st.floats(0.1, 0.4))
    if draw(st.booleans()):
        # an explicit step count too small for the stability bound: the
        # march is no longer monotone and states may cross y*
        probe = SolverConfig(**grid)
        de = (probe.e_max - probe.e_min) / probe.n_e
        rate = pde_kernel._stability_rate(
            coeffs, probe.p_nodes() if factor else None, probe.viscosity, de)
        grid["n_steps"] = max(1, math.floor(tau * rate / draw(st.floats(1.05, 2.5))))
    cap = CapFunction.constant(draw(st.floats(-0.3, 0.3)))
    return dict(coeffs=coeffs, terminal=indicator_terminal(cap),
                config=SolverConfig(**grid), tau=tau, regime=regime)


def _solve(m):
    return solve_one_period(m["coeffs"], m["terminal"], 0.0, m["tau"], m["config"])


@settings(max_examples=60, deadline=None)
@given(m=markets())
def test_buffered_march_reproduces_the_array_march(m):
    got = _solve(m)
    with mock.patch.object(pde_kernel, "_march", reference_march):
        want = _solve(m)
    assert np.array_equal(got.times, want.times)
    assert got.values.shape == want.values.shape
    assert np.max(np.abs(got.values - want.values)) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(m=markets(), data=st.data())
def test_split_and_one_sided_fluxes_match_the_reference(m, data):
    config = m["config"]
    p_nodes = config.p_nodes() if m["coeffs"].dim_p else None
    flux = make_flux(m["coeffs"], p_nodes)
    side = flux.upwind_side(0.0, 1.0)
    assert side == REGIMES[m["regime"]][1]

    rows = 1 if p_nodes is None else p_nodes.size
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    ul, ur = np.random.default_rng(seed).uniform(0.0, 1.0, (2, rows, 25))
    if p_nodes is None:
        ul, ur = ul[0], ur[0]
    general = flux.interface(ul, ur)
    assert np.max(np.abs(general - reference_interface(flux, ul, ur))) <= 1e-15
    if side is not None:
        one_sided = flux.interface(ul, ur, upwind=side)
        assert np.max(np.abs(one_sided - general)) <= 1e-15


def test_too_few_steps_keep_the_general_flux():
    # two steps at a Courant number near 1.9 overshoot y* = 1.02, so the
    # one-sided flux, exact only for a monotone march, must not be used
    coeffs = preset_coefficients("no-factor", {"m0": 1.02, "m2": 1.0}, 0.0)
    terminal = indicator_terminal(CapFunction.constant(0.0))
    config = SolverConfig(e_min=-1.0, e_max=1.0, n_e=32, n_steps=2)
    got = solve_one_period(coeffs, terminal, 0.0, 0.3, config)
    with mock.patch.object(pde_kernel, "_march", reference_march):
        want = solve_one_period(coeffs, terminal, 0.0, 0.3, config)
    assert got.values.max() > 1.02
    assert np.max(np.abs(got.values - want.values)) <= 1e-14


@pytest.mark.parametrize("closed_form", [True, False], ids=["closed-form", "table"])
def test_a_factor_march_with_viscosity_and_a_remainder_step(closed_form):
    # the first step and the shorter last one each rebuild the weights
    # and g mu(p, 0); the viscosity term runs in the flux buffer
    coeffs = preset_coefficients("linear-abatement", {
        "m0": 1.5, "m1": 0.1, "m2": 1.0, "kappa": 0.8, "sigma": 0.4}, 0.07)
    if not closed_form:
        coeffs = dataclasses.replace(coeffs, emissions_slope=None)
    config = SolverConfig(e_min=-1.0, e_max=1.0, n_e=32, p_min=-1.0, p_max=1.0, n_p=7,
                          viscosity=0.05)
    terminal = indicator_terminal(CapFunction.constant(0.1))
    got = solve_one_period(coeffs, terminal, 0.0, 0.3, config)
    with mock.patch.object(pde_kernel, "_march", reference_march):
        want = solve_one_period(coeffs, terminal, 0.0, 0.3, config)
    steps = np.diff(got.times)
    assert got.meta["n_steps"] > 4 and steps[0] < 0.9 * steps[1]  # the remainder runs last
    assert make_flux(coeffs, config.p_nodes()).upwind_side(0.0, 1.0) == "right"
    assert np.max(np.abs(got.values - want.values)) <= 1e-14


# ----------------------------------------------------------------------
# the band
# ----------------------------------------------------------------------

def _half_beyond_the_box(p, e):
    """The indicator of ``e >= 0.05`` inside ``[-1, 1]`` and 0.5 outside:
    the cells are 0 and 1, the ghost cells neither."""
    e = np.asarray(e)
    return np.where(np.abs(e) > 1.0, 0.5, (e >= 0.05).astype(float))


def _band_market(regime, factor, viscosity=0.0, courant=None, ghosts=False, tau=0.6):
    """A market of 240 emission cells over a period long enough that the
    band leaves its buffer several times; ``courant`` pins a step count
    that runs at that Courant number."""
    lo, hi = REGIMES[regime][0]
    m0 = 0.5 * (lo + hi)
    grid = dict(e_min=-1.0, e_max=1.0, n_e=240, viscosity=viscosity)
    if factor:
        coeffs = preset_coefficients("linear-abatement", {
            "m0": m0, "m1": 0.1, "m2": 1.0, "kappa": 0.8, "sigma": 0.4}, 0.07)
        grid.update(p_min=-1.0, p_max=1.0, n_p=7)
    else:
        coeffs = preset_coefficients("no-factor", {"m0": m0, "m2": 1.0}, 0.07)
    if courant is not None:
        probe = SolverConfig(**grid)
        rate = pde_kernel._stability_rate(coeffs, probe.p_nodes() if factor else None,
                                          viscosity, 2.0 / probe.n_e)
        grid["n_steps"] = math.floor(tau * rate / courant)
    terminal = (TerminalSurface(fn=_half_beyond_the_box, label="half-beyond") if ghosts
                else indicator_terminal(CapFunction.constant(0.05)))
    return dict(coeffs=coeffs, terminal=terminal, config=SolverConfig(**grid), tau=tau)


def _banded_solve(m):
    """The solve of ``m`` and ``(c0, width)`` of every slice its march makes."""
    bands = []
    march = pde_kernel._march

    def recording(u0, phi_gl, phi_gr, out_store, *args):
        def store(it, cells, c0, bound):
            bands.append((c0, cells.shape[-1]))
            out_store(it, cells, c0, bound)
        return march(u0, phi_gl, phi_gr, store, *args)

    with mock.patch.object(pde_kernel, "_march", recording):
        grid = _solve(m)
    return grid, bands[1:]  # the terminal slice is handed over whole


def _against_reference(m):
    got, bands = _banded_solve(m)
    with mock.patch.object(pde_kernel, "_march", reference_march):
        want = _solve(m)
    assert np.array_equal(got.times, want.times)
    assert np.max(np.abs(got.values - want.values)) <= 1e-14
    return bands


@pytest.mark.parametrize("viscosity", [0.0, 0.05], ids=["sharp", "viscous"])
@pytest.mark.parametrize("factor", [False, True], ids=["no-factor", "factor"])
@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_the_band_march_reproduces_the_array_march(regime, factor, viscosity):
    bands = _against_reference(_band_market(regime, factor, viscosity))
    starts = {c0 for c0, _ in bands}
    ends = {c0 + width for c0, width in bands}
    # the buffer starts narrow and widens by whole chunks, more than once
    assert bands[0][1] < 240 and len(starts | ends) >= 3
    side = REGIMES[regime][1]
    if viscosity == 0.0 and side is not None:
        # a one-sided step reads one neighbour: the band widens on one side
        assert len(starts if side == "left" else ends) == 1
    else:
        assert len(starts) > 1 and len(ends) > 1


@pytest.mark.parametrize("factor", [False, True], ids=["no-factor", "factor"])
def test_an_under_resolved_band_march_reproduces_the_array_march(factor):
    m = _band_market("above", factor, courant=1.1)
    bands = _against_reference(m)
    # above Courant number 1 the march takes the general flux, which reads
    # both neighbours
    assert len({c0 for c0, _ in bands}) > 1 and len({c0 + w for c0, w in bands}) > 1


@pytest.mark.parametrize("regime", ["above", "below"])
@pytest.mark.parametrize("factor", [False, True], ids=["no-factor", "factor"])
def test_terminal_ghosts_off_the_constants_march_every_column(factor, regime):
    # a short period: the full-width factor march drifts from the array
    # march by rounding near the edges, where these ghosts move the field
    bands = _against_reference(_band_market(regime, factor, ghosts=True, tau=0.15))
    assert set(bands) == {(0, 240)}


@pytest.mark.parametrize("factor", [False, True], ids=["no-factor", "factor"])
def test_a_band_march_writes_the_kept_grid_to_its_file(tmp_path, factor):
    m = _band_market("above", factor)
    kept = _solve(m)
    with GridWriter(tmp_path / "g.grid") as writer:
        solve_one_period(m["coeffs"], m["terminal"], 0.0, m["tau"], m["config"],
                         sink=writer)
        write_grid(writer, writer.path)
    written = read_grid(tmp_path / "g.grid")
    assert written.values.shape == kept.values.shape
    for got, want in zip(written.values, kept.values):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
