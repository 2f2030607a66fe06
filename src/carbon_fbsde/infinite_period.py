"""Stationary field of the rolling (infinite-horizon) market.

One compliance period of length ``tau`` repeats forever with a fresh
allocation ``lam`` each period, and the stationary start-of-period field
solves a fixed-point problem: the terminal surface of a period is the
field itself, shifted by one allocation, below the cap, and the certain
penalty above it.  Iterating one-period solves from zero produces a
nondecreasing sequence; discounting makes the map a contraction with
factor ``exp(-rate * tau)`` per sweep, which is also the convergence
certificate this module emits.

The allocation must be a whole number of cells and fall on a cell edge,
so the shifted terminal is a pure translation of stored data: no
interpolation enters the loop, and the monotone-increase invariant holds
node by node in exact arithmetic, not just up to quadrature error.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import ConfigError, ConvergenceError, InvariantError, ValidationError
from .model import CoefficientSet
from .pde_kernel import (SliceSink, SolverConfig, ValueGrid, check_dependence,
                         solve_one_period)

__all__ = ["PicardState", "initial_state", "picard_step", "solve_infinite",
           "certificate_doc"]

_log = logging.getLogger(__name__)


@dataclass(eq=False)
class PicardState:
    """Snapshot after one fixed-point sweep (immutable by convention)."""

    iteration: int
    start_slice: np.ndarray
    residual: float
    residuals: tuple
    min_increase: float
    converged: bool
    contraction: dict = field(default_factory=dict)

    @property
    def observed_ratios(self) -> tuple:
        r = self.residuals
        return tuple(r[i + 1] / r[i] for i in range(len(r) - 1) if r[i] > 0)


def _cells_shape(coeffs: CoefficientSet, config: SolverConfig):
    if coeffs.dim_p == 1:
        return (config.n_p, config.n_e)
    return (config.n_e,)


def initial_state(coeffs: CoefficientSet, config: SolverConfig) -> PicardState:
    """The zero field the iteration starts from."""
    return PicardState(iteration=0,
                       start_slice=np.zeros(_cells_shape(coeffs, config)),
                       residual=math.inf, residuals=(), min_increase=0.0,
                       converged=False)


def _shift_geometry(config: SolverConfig, lam: float):
    """Cell shift and cut index for the allocation; both must be whole."""
    de = (config.e_max - config.e_min) / config.n_e
    js = lam / de
    if abs(js - round(js)) > 1e-9:
        raise ValidationError(
            f"allocation {lam:g} is {js:.6f} cells; needs to be a whole number "
            f"of cells (cell width {de:g})"
        )
    cut = (lam - config.e_min) / de
    if abs(cut - round(cut)) > 1e-9:
        raise ValidationError(
            f"allocation {lam:g} does not fall on a cell edge of "
            f"[{config.e_min:g}, {config.e_max:g}] / {config.n_e}"
        )
    cut = int(round(cut))
    if not 0 < cut < config.n_e:
        raise ValidationError(
            f"allocation {lam:g} must lie strictly inside the emissions domain"
        )
    return int(round(js)), cut


def _picard_terminal(start_slice: np.ndarray, config: SolverConfig,
                     js: int, cut: int) -> np.ndarray:
    """Terminal cell averages, ghosts included: shifted field below the
    cut, certain penalty at and above it.  Pure data movement."""
    n_e = config.n_e
    ext = np.zeros(start_slice.shape[:-1] + (n_e + 2,))
    # interior cell j maps to source cell j - js; left overhang fills with
    # the vanishing tail (zero), the right overhang never survives the cut
    lo = max(0, js)
    ext[..., 1 + lo: 1 + n_e] = start_slice[..., lo - js: n_e - js]
    idx = np.arange(-1, n_e + 1)  # ghost, interior cells, ghost
    ext[..., idx >= cut] = 1.0
    return ext


def _sweep(state: PicardState, coeffs: CoefficientSet, period_length: float,
           cap_per_period: float, config: SolverConfig, sink: Optional[SliceSink]) -> ValueGrid:
    """The one-period solve of the sweep that starts from ``state``; its
    slices go to ``sink`` when one is given (see ``solve_one_period``)."""
    js, cut = _shift_geometry(config, cap_per_period)
    ext = _picard_terminal(state.start_slice, config, js, cut)
    return solve_one_period(
        coeffs, None, 0.0, period_length, config, terminal_cells_ext=ext,
        meta={"picard_iteration": state.iteration + 1,
              "allocation": float(cap_per_period)},
        sink=sink,
    )


def picard_step(state: PicardState, coeffs: CoefficientSet, period_length: float,
                cap_per_period: float, config: SolverConfig) -> PicardState:
    """One sweep of the fixed-point map; returns a fresh state."""
    if coeffs.rate <= 0.0:
        raise ConfigError("the rolling market needs a strictly positive rate")
    if state.start_slice.shape != _cells_shape(coeffs, config):
        raise ValidationError(
            f"state slice shaped {state.start_slice.shape}, grid wants "
            f"{_cells_shape(coeffs, config)}"
        )
    started = time.perf_counter()
    grid = _sweep(state, coeffs, period_length, cap_per_period, config, sink=SliceSink())
    n = state.iteration + 1
    new = grid.values[0]
    delta = new - state.start_slice
    de = grid.delta_e
    l1 = float(np.max(np.abs(delta).sum(axis=-1)) * de)
    min_inc = float(delta.min())
    _log.debug("picard sweep %d: L1 residual %.6g, min increase %.3g, %.3fs",
               n, l1, min_inc, time.perf_counter() - started)
    if min_inc < -1e-12:
        raise InvariantError(
            f"fixed-point sweep {n} decreased the field by {-min_inc:.3g}"
        )
    return PicardState(
        iteration=n, start_slice=new, residual=l1,
        residuals=state.residuals + (l1,),
        min_increase=min(state.min_increase, min_inc),
        converged=False, contraction=dict(state.contraction),
    )


def default_max_iter(rate: float, period_length: float,
                     rel_tol: float = 1e-4) -> int:
    """Sweep budget from the contraction factor, with slack."""
    q = math.exp(-rate * period_length)
    return math.ceil(math.log(rel_tol) / math.log(q)) + 10


def certificate_doc(state: PicardState) -> dict:
    """``picard_certificate.json`` of a certificate from :func:`solve_infinite`,
    converged or not: the sweep table beside the state's contraction record."""
    r = state.residuals
    table = [{"n": i + 1, "residual": x,
              "ratio": (x / r[i - 1]) if i > 0 and r[i - 1] > 0 else None}
             for i, x in enumerate(r)]
    return {"iterations": state.iteration, "converged": state.converged,
            "residual": state.residual, "table": table,
            "contraction": state.contraction}


def solve_infinite(coeffs: CoefficientSet, period_length: float,
                   cap_per_period: float, config: SolverConfig,
                   tol_l1: Optional[float] = None, max_iter: Optional[int] = None,
                   writer: Optional[SliceSink] = None):
    """Iterate one-period solves to the stationary field.

    Returns ``(grid, certificate)``: the final sweep's full grid on
    ``[0, period_length]`` and the :class:`PicardState` holding the
    residual history, the contraction certificate and the
    self-consistency figure (one extra sweep from the converged field
    moves its start slice by at most ``2 * tol_l1`` in grid L1).

    Sweeps keep their start slice only; the final sweep is solved again
    from the same start for the grid.  With a ``writer`` (a
    :class:`gridio.GridWriter`, or any sink) that re-solve hands it every
    slice as the march makes it, and the returned grid keeps the start
    slice only; without one, the grid holds every slice.

    A :class:`ConvergenceError` carries the failed history as
    ``certificate``, in :func:`certificate_doc`'s layout with
    ``converged`` false.
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

    check_dependence(coeffs, config, [(period_length, 0.0, cap_per_period)])

    q = math.exp(-coeffs.rate * period_length)
    facts = {"factor": q, "rate": coeffs.rate, "period_length": period_length,
             "allocation": cap_per_period, "tol_l1": tol_l1, "max_iter": max_iter}

    def certified(state: PicardState, converged: bool,
                  check: Optional[PicardState]) -> PicardState:
        """``state`` with its contraction record; the self-consistency
        figure joins it once the check sweep ``check`` has run."""
        contraction = dict(facts, observed_ratios=state.observed_ratios[-8:],
                           min_increase=state.min_increase)
        if check is not None:
            contraction.update(self_consistency=check.residual,
                               min_increase=min(state.min_increase, check.min_increase))
        return replace(state, converged=converged, contraction=contraction)

    state = prev = initial_state(coeffs, config)
    while state.iteration < max_iter:
        prev = state
        state = picard_step(state, coeffs, period_length, cap_per_period, config)
        if state.residual <= tol_l1:
            break
    if state.residual > tol_l1:
        exc = ConvergenceError(
            f"residual {state.residual:.3g} above tol {tol_l1:.3g} after "
            f"{state.iteration} sweeps (contraction factor {q:.6f})"
        )
        exc.certificate = certificate_doc(certified(state, False, None))
        raise exc

    check = picard_step(state, coeffs, period_length, cap_per_period, config)
    if check.residual > 2.0 * tol_l1:
        exc = ConvergenceError(
            f"self-consistency re-solve moved the field by {check.residual:.3g} "
            f"> 2 * tol = {2 * tol_l1:.3g}"
        )
        exc.certificate = certificate_doc(certified(state, False, check))
        raise exc

    started = time.perf_counter()
    grid = _sweep(prev, coeffs, period_length, cap_per_period, config, sink=writer)
    _log.debug("picard sweep %d re-solved with all %d slices %s, %.3fs",
               state.iteration, grid.meta["n_steps"] + 1,
               "stored" if writer is None else "written",
               time.perf_counter() - started)
    return grid, certified(state, True, check)
