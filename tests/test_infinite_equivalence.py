"""Start-slice Picard sweeps against sweeps that store every slice.

``ReferenceState``, ``reference_picard_step`` and
``reference_solve_infinite`` are the rolling-market iteration as it was
written before sweeps kept only their start slice: every sweep stored
its full grid in the state, and the stationary grid was the last
converging sweep's.  They are kept here, not in the package, as the
oracle the start-slice iteration and its one full re-solve must
reproduce bit for bit.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import pytest

from carbon_fbsde import infinite_period
from carbon_fbsde.config import preset_coefficients
from carbon_fbsde.errors import (ConfigError, ConvergenceError, CoverageError,
                                 InvariantError, ValidationError)
from carbon_fbsde.infinite_period import (_cells_shape, _picard_terminal,
                                          _shift_geometry, certificate_doc,
                                          default_max_iter, solve_infinite)
from carbon_fbsde.model import CoefficientSet
from carbon_fbsde.pde_kernel import SolverConfig, ValueGrid, solve_one_period


@dataclass(eq=False)
class ReferenceState:
    """Snapshot after one fixed-point sweep (immutable by convention)."""

    iteration: int
    start_slice: np.ndarray
    residual: float
    residuals: tuple
    min_increase: float
    converged: bool
    grid: Optional[ValueGrid] = None
    contraction: dict = field(default_factory=dict)

    @property
    def observed_ratios(self) -> tuple:
        r = self.residuals
        return tuple(r[i + 1] / r[i] for i in range(len(r) - 1) if r[i] > 0)


def reference_picard_step(state: ReferenceState, coeffs: CoefficientSet,
                          period_length: float, cap_per_period: float,
                          config: SolverConfig) -> ReferenceState:
    """One sweep of the fixed-point map; returns a fresh state."""
    if coeffs.rate <= 0.0:
        raise ConfigError("the rolling market needs a strictly positive rate")
    js, cut = _shift_geometry(config, cap_per_period)
    if state.start_slice.shape != _cells_shape(coeffs, config):
        raise ValidationError(
            f"state slice shaped {state.start_slice.shape}, grid wants "
            f"{_cells_shape(coeffs, config)}"
        )
    ext = _picard_terminal(state.start_slice, config, js, cut)
    n = state.iteration + 1
    grid = solve_one_period(
        coeffs, None, 0.0, period_length, config, terminal_cells_ext=ext,
        meta={"picard_iteration": n, "allocation": float(cap_per_period)},
    )
    new = grid.values[0]
    delta = new - state.start_slice
    de = grid.delta_e
    l1 = float(np.max(np.abs(delta).sum(axis=-1)) * de)
    min_inc = float(delta.min())
    if min_inc < -1e-12:
        raise InvariantError(
            f"fixed-point sweep {n} decreased the field by {-min_inc:.3g}"
        )
    return ReferenceState(
        iteration=n, start_slice=new, residual=l1,
        residuals=state.residuals + (l1,),
        min_increase=min(state.min_increase, min_inc),
        converged=False, grid=grid, contraction=dict(state.contraction),
    )


def reference_solve_infinite(coeffs: CoefficientSet, period_length: float,
                             cap_per_period: float, config: SolverConfig,
                             tol_l1: Optional[float] = None,
                             max_iter: Optional[int] = None):
    """Iterate one-period solves to the stationary field.

    Returns ``(grid, certificate)``: the final sweep's full grid on
    ``[0, period_length]`` and the :class:`ReferenceState` holding the
    residual history, the contraction certificate and the
    self-consistency figure (one extra sweep from the converged field
    moves its start slice by at most ``2 * tol_l1`` in grid L1).
    """
    if coeffs.rate <= 0.0:
        raise ConfigError(
            "stationary pricing needs rate > 0; without discounting the "
            "fixed-point map does not contract"
        )
    if period_length <= 0 or cap_per_period <= 0:
        raise ConfigError("period_length and cap_per_period must be positive")
    span = config.e_max - config.e_min
    if tol_l1 is None:
        tol_l1 = 1e-4 * span
    if max_iter is None:
        max_iter = default_max_iter(coeffs.rate, period_length,
                                    rel_tol=tol_l1 / span)

    need = coeffs.peak_speed(config.p_nodes()) * period_length
    if config.e_min > 0.0 - need + 1e-9 or config.e_max < cap_per_period + need - 1e-9:
        raise CoverageError(
            f"emissions domain [{config.e_min:g}, {config.e_max:g}] leaves less "
            f"than one domain of dependence ({need:g}) around [0, "
            f"{cap_per_period:g}]"
        )

    q = math.exp(-coeffs.rate * period_length)
    facts = {"factor": q, "rate": coeffs.rate, "period_length": period_length,
             "allocation": cap_per_period, "tol_l1": tol_l1, "max_iter": max_iter}
    state = ReferenceState(iteration=0,
                           start_slice=np.zeros(_cells_shape(coeffs, config)),
                           residual=math.inf, residuals=(), min_increase=0.0,
                           converged=False)
    while state.iteration < max_iter:
        state = reference_picard_step(state, coeffs, period_length,
                                      cap_per_period, config)
        if state.residual <= tol_l1:
            break
    if state.residual > tol_l1:
        exc = ConvergenceError(
            f"residual {state.residual:.3g} above tol {tol_l1:.3g} after "
            f"{state.iteration} sweeps (contraction factor {q:.6f})"
        )
        exc.certificate = certificate_doc(replace(state, contraction=dict(
            facts, observed_ratios=state.observed_ratios[-8:],
            min_increase=state.min_increase)))
        raise exc

    check = reference_picard_step(state, coeffs, period_length,
                                  cap_per_period, config)
    if check.residual > 2.0 * tol_l1:
        exc = ConvergenceError(
            f"self-consistency re-solve moved the field by {check.residual:.3g} "
            f"> 2 * tol = {2 * tol_l1:.3g}"
        )
        exc.certificate = certificate_doc(replace(state, contraction=dict(
            facts, observed_ratios=state.observed_ratios[-8:],
            self_consistency=check.residual,
            min_increase=min(state.min_increase, check.min_increase))))
        raise exc

    certificate = replace(
        state,
        converged=True,
        contraction={
            "factor": q,
            "rate": coeffs.rate,
            "period_length": period_length,
            "allocation": cap_per_period,
            "tol_l1": tol_l1,
            "max_iter": max_iter,
            "observed_ratios": state.observed_ratios[-8:],
            "self_consistency": check.residual,
            "min_increase": min(state.min_increase, check.min_increase),
        },
    )
    return state.grid, certificate


def _markets():
    """Small aligned rolling markets: allocation 1 is a whole number of
    cells and falls on a cell edge."""
    return {
        "no-factor": (preset_coefficients("no-factor", {"m0": 1.0, "m2": 1.0}, 0.05),
                      SolverConfig(e_min=-1.5, e_max=2.5, n_e=80)),
        "factor": (preset_coefficients("linear-abatement",
                                       {"m0": 1.4, "m1": 0.1, "m2": 1.0,
                                        "kappa": 1.0, "sigma": 0.5}, 0.3),
                   SolverConfig(e_min=-2.5, e_max=3.5, n_e=60,
                                p_min=-3.0, p_max=3.0, n_p=9)),
    }


@pytest.mark.parametrize("market", ["no-factor", "factor"])
def test_start_slice_sweeps_reproduce_the_full_grid_iteration(market):
    coeffs, config = _markets()[market]
    grid, cert = solve_infinite(coeffs, 1.0, 1.0, config)
    ref_grid, ref_cert = reference_solve_infinite(coeffs, 1.0, 1.0, config)
    assert np.array_equal(grid.values, ref_grid.values)
    assert np.array_equal(grid.times, ref_grid.times)
    assert grid.meta == ref_grid.meta
    assert cert.iteration == ref_cert.iteration
    assert cert.residuals == ref_cert.residuals
    assert cert.min_increase == ref_cert.min_increase
    assert cert.contraction == ref_cert.contraction
    assert np.array_equal(cert.start_slice, ref_cert.start_slice)
    assert not hasattr(cert, "grid"), "the certificate carries no grid"


def test_exactly_one_solve_per_call_stores_every_slice(monkeypatch):
    coeffs, config = _markets()["no-factor"]
    calls = []
    real = infinite_period.solve_one_period

    def spy(*args, **kwargs):
        grid = real(*args, **kwargs)
        calls.append((kwargs.get("sink") is not None, grid.values.shape[0]))
        return grid

    monkeypatch.setattr(infinite_period, "solve_one_period", spy)
    grid, cert = solve_infinite(coeffs, 1.0, 1.0, config)
    full = [c for c in calls if not c[0]]
    # the converging sweeps, the self-consistency sweep and one re-solve
    assert len(calls) == cert.iteration + 2
    assert full == [(False, grid.values.shape[0])]
    assert all(kept == 1 for start_only, kept in calls if start_only)
