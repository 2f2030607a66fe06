"""Rolling-market fixed-point iteration tests."""

import math

import numpy as np
import pytest

from carbon_fbsde import picard_step, solve_infinite
from carbon_fbsde.config import preset_coefficients
from carbon_fbsde.errors import (
    ConfigError,
    ConvergenceError,
    CoverageError,
    ValidationError,
)
from carbon_fbsde.infinite_period import initial_state
from carbon_fbsde.pde_kernel import SolverConfig, diagnostics


def rolling_coeffs(rate: float = 0.05):
    return preset_coefficients("no-factor", {"m0": 1.0, "m2": 1.0}, rate)


def aligned_config(n_e: int = 80):
    # cell width 0.05: the unit allocation spans exactly 20 cells and
    # falls on a cell edge of the box
    return SolverConfig(e_min=-1.5, e_max=2.5, n_e=n_e)


def test_rate_must_be_positive():
    with pytest.raises(ConfigError):
        solve_infinite(rolling_coeffs(rate=0.0), 1.0, 1.0, aligned_config())


def test_alignment_is_enforced():
    state = initial_state(rolling_coeffs(), aligned_config())
    with pytest.raises(ValidationError):
        picard_step(state, rolling_coeffs(), 1.0, 0.93, aligned_config())


def test_domain_must_cover_the_stationary_band():
    narrow = SolverConfig(e_min=-0.25, e_max=1.25, n_e=24)
    with pytest.raises(CoverageError):
        solve_infinite(rolling_coeffs(), 1.0, 1.0, narrow)


def test_budget_exhaustion_carries_a_certificate():
    with pytest.raises(ConvergenceError) as info:
        solve_infinite(rolling_coeffs(), 1.0, 1.0, aligned_config(), max_iter=1)
    cert = info.value.certificate
    assert cert["converged"] is False
    assert len(cert["table"]) == 1


def test_sweeps_increase_and_contract():
    coeffs = rolling_coeffs()
    config = aligned_config()
    state = initial_state(coeffs, config)
    residuals = []
    for _ in range(3):
        state = picard_step(state, coeffs, 1.0, 1.0, config)
        residuals.append(state.residual)
        assert state.min_increase >= 0.0, "sweep decreased the field somewhere"
    assert residuals[1] > residuals[2], f"no contraction: {residuals}"


def test_solve_infinite_converges_with_certificate():
    coeffs = rolling_coeffs()
    grid, cert = solve_infinite(coeffs, 1.0, 1.0, aligned_config())
    assert cert.converged
    assert cert.residual <= cert.contraction["tol_l1"]
    assert cert.contraction["self_consistency"] <= 2.0 * cert.contraction["tol_l1"]
    assert cert.contraction["factor"] == pytest.approx(math.exp(-0.05))
    assert all(r <= cert.contraction["factor"] + 0.05
               for r in cert.observed_ratios[1:])

    report = diagnostics(grid, coeffs.mono_l1)
    assert report.max_range_violation <= 1e-12
    assert report.scheme_added_monotonicity <= 1e-12


def test_stationary_field_is_worth_less_farther_from_the_cap():
    grid, _ = solve_infinite(rolling_coeffs(), 1.0, 1.0, aligned_config())
    v = grid.values[0]
    e = grid.e_nodes
    low = v[np.searchsorted(e, -1.0)]
    high = v[np.searchsorted(e, 0.9)]
    assert low < 0.05, "deep bank should make the allowance nearly worthless"
    assert high > 0.5, "near the cap the penalty should dominate"


def test_sweeps_log_residual_increase_and_seconds(caplog):
    coeffs, config = rolling_coeffs(), aligned_config()
    with caplog.at_level("DEBUG", logger="carbon_fbsde.infinite_period"):
        grid, cert = solve_infinite(coeffs, 1.0, 1.0, config)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "carbon_fbsde.infinite_period"]
    # every converging sweep, the self-consistency sweep, the re-solve
    assert len(lines) == cert.iteration + 2
    for n, (line, residual) in enumerate(zip(lines, cert.residuals), start=1):
        assert line.startswith(f"picard sweep {n}: L1 residual {residual:.6g}, "
                               "min increase ")
        assert line.endswith("s")
    assert lines[-2].startswith(
        f"picard sweep {cert.iteration + 1}: L1 residual "
        f"{cert.contraction['self_consistency']:.6g}")
    assert lines[-1].startswith(
        f"picard sweep {cert.iteration} re-solved with all "
        f"{grid.values.shape[0]} slices stored")

    caplog.clear()
    solve_infinite(coeffs, 1.0, 1.0, config)
    assert caplog.records == [], "sweep logging is off by default"
