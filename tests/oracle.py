"""Independent reference solutions and test-only helpers.

Everything here is deliberately decoupled from the production code
paths: the fine-grid reference builds its flux by composite Simpson
tables and linear interpolation rather than the kernel's closed-form or
Hermite evaluation, and it carries its own march loop; the flux
minimiser is cross-checked against scipy's ``brentq`` rather than the
kernel's bisection.  Agreement between the two is then evidence, not
tautology.  The package never imports this module (it lives with the
tests, and ``scripts/convergence_study.py`` puts it on its path), so
scipy stays a test-time dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import brentq

from carbon_fbsde.errors import SolverError, ValidationError
from carbon_fbsde.model import CoefficientSet, TerminalSurface
from carbon_fbsde.multi_period import solve_periods
from carbon_fbsde.pde_kernel import ValueGrid, evaluate

__all__ = [
    "ReferenceSolution",
    "burgers_rarefaction",
    "verify_burgers_form",
    "fine_grid_reference",
    "richardson_probe",
    "compare_l1",
    "ou_moments",
    "picard_contraction_factor",
    "brentq_y_star",
    "constant_surface",
    "translation_check",
    "solve_grids",
]


@dataclass(eq=False)
class ReferenceSolution:
    """A reference field ``fn(t, e)`` with provenance metadata."""

    fn: Callable
    label: str
    exact: bool
    meta: dict = field(default_factory=dict)

    def __call__(self, t, e):
        return self.fn(t, e)


# ----------------------------------------------------------------------
# closed form: unit-slope affine emission rate, zero interest
# ----------------------------------------------------------------------

def verify_burgers_form(coeffs: CoefficientSet, n_check: int = 257) -> float:
    """Assert the coefficients are mu(y) = c - y with r = 0, d = 0.

    Returns the clearing rate ``c``.  Raises instead of silently
    answering for a model the closed form does not cover.
    """
    if coeffs.dim_p != 0:
        raise ValidationError("closed-form reference needs a factor-free model")
    if coeffs.rate != 0.0:
        raise ValidationError("closed-form reference needs zero interest rate")
    c = float(coeffs.emissions_rate(None, 0.0))
    ys = np.linspace(-0.5, 1.5, n_check)
    gap = np.max(np.abs(np.asarray(coeffs.emissions_rate(None, ys)) - (c - ys)))
    if gap > 1e-12 * max(1.0, abs(c)):
        raise ValidationError(
            f"emission rate deviates from c - y by {gap:.3g}; closed form refused"
        )
    return c


def burgers_rarefaction(clearing_rate: float, cap_level: float,
                        tau: float) -> ReferenceSolution:
    """Exact field for mu(y) = c - y, r = 0, terminal 1_{e >= cap}.

    Backward from the step the entropy solution is a single rarefaction:

        v(t, e) = clip((e - cap + c (tau - t)) / (tau - t), 0, 1).
    """
    c, lam = float(clearing_rate), float(cap_level)

    def fn(t, e):
        age = tau - t
        if age < 0:
            raise ValidationError("query beyond the terminal time")
        e = np.asarray(e, dtype=float)
        if age == 0:
            return (e >= lam).astype(float)
        return np.clip((e - lam + c * age) / age, 0.0, 1.0)

    return ReferenceSolution(fn=fn, label="rarefaction", exact=True,
                             meta={"clearing_rate": c, "cap_level": lam, "tau": tau})


# ----------------------------------------------------------------------
# fine-grid reference march (factor-free models)
# ----------------------------------------------------------------------

def _table_flux(coeffs: CoefficientSet, y_lo: float = -0.5, y_hi: float = 1.5,
                n: int = 16384):
    """Composite-Simpson cumulative table of -M and its minimiser."""
    ys = np.linspace(y_lo, y_hi, 2 * n + 1)
    vals = np.asarray(coeffs.emissions_rate(None, ys), dtype=float)
    h = ys[1] - ys[0]
    incr = (vals[:-2:2] + 4.0 * vals[1:-1:2] + vals[2::2]) * (h / 3.0)
    knots = ys[::2]
    M = np.concatenate([[0.0], np.cumsum(incr)])
    i0 = int(round(-y_lo / (2 * h)))
    M = M - M[i0]
    fvals = -M

    def f(y):
        return np.interp(y, knots, fvals)

    m0 = float(coeffs.emissions_rate(None, 0.0))
    if m0 == 0.0:
        y_star = 0.0
    else:
        span = abs(m0) / coeffs.mono_l1 + 1e-9 * (1 + abs(m0))
        lo, hi = (0.0, span) if m0 > 0 else (-span, 0.0)
        y_star = float(brentq(lambda yy: float(coeffs.emissions_rate(None, yy)),
                              lo, hi, xtol=1e-14))
    speed = max(abs(m0), abs(float(coeffs.emissions_rate(None, 1.0))))
    return f, y_star, speed


def fine_grid_reference(coeffs: CoefficientSet, terminal_fn: Callable,
                        t0: float, tau: float, e_lo: float, e_hi: float,
                        n_e: int, times: Optional[Sequence[float]] = None,
                        cfl: float = 0.45) -> ReferenceSolution:
    """First-order Godunov reference on a fine grid, factor-free only.

    ``terminal_fn`` maps emission levels to [0, 1] and is projected by
    64-point midpoint averaging per cell.  Only the slices nearest the
    requested ``times`` (default: just ``t0``) are retained; ``fn``
    interpolates linearly inside the stored slices.
    """
    if coeffs.dim_p != 0:
        raise ValidationError("the fine-grid reference covers factor-free models only")
    f, y_star, speed = _table_flux(coeffs)
    de = (e_hi - e_lo) / n_e
    centres = e_lo + (np.arange(n_e) + 0.5) * de

    sub = centres[:, None] + de * ((np.arange(64) + 0.5) / 64.0 - 0.5)[None, :]
    u = np.asarray(terminal_fn(sub), dtype=float).mean(axis=1)
    gl = float(np.mean(terminal_fn(centres[0] - de + de * ((np.arange(64) + 0.5) / 64.0 - 0.5))))
    gr = float(np.mean(terminal_fn(centres[-1] + de + de * ((np.arange(64) + 0.5) / 64.0 - 0.5))))
    if u.min() < -1e-12 or u.max() > 1 + 1e-12:
        raise ValidationError("terminal data leaves [0, 1]")

    span = tau - t0
    n_steps = max(1, math.ceil(span * (speed / de) / cfl))
    dt = span / n_steps
    disc = math.exp(-coeffs.rate * dt)

    want = sorted(set([t0] if times is None else [float(t) for t in times]))
    for t in want:
        if not (t0 - 1e-12 <= t <= tau + 1e-12):
            raise ValidationError(f"requested time {t} outside [{t0}, {tau}]")
    idx_want = {min(n_steps, max(0, int(round((t - t0) / dt)))) for t in want}
    stored = {}

    bound = 1.0
    if n_steps in idx_want:
        stored[n_steps] = u.copy()
    for k in range(n_steps):
        pad = np.concatenate([[bound * gl], u, [bound * gr]])
        ul, ur = pad[:-1], pad[1:]
        inner = f(np.clip(y_star, np.minimum(ul, ur), np.maximum(ul, ur)))
        F = np.where(ul <= ur, inner, np.maximum(f(ul), f(ur)))
        u = (u - (dt / de) * (F[1:] - F[:-1])) * disc
        bound *= disc
        it = n_steps - 1 - k
        if it in idx_want:
            stored[it] = u.copy()
    if not np.all(np.isfinite(u)):
        raise SolverError("reference march became non-finite")

    slice_times = np.array(sorted(t0 + i * dt for i in stored))
    slice_vals = np.stack([stored[i] for i in sorted(stored)])

    def fn(t, e):
        j = int(np.argmin(np.abs(slice_times - t)))
        if abs(slice_times[j] - t) > 0.51 * dt:
            raise ValidationError(
                f"reference stored no slice near t={t}; have {slice_times}"
            )
        return np.interp(np.asarray(e, dtype=float), centres, slice_vals[j])

    return ReferenceSolution(
        fn=fn, label=f"fine-grid({n_e})", exact=False,
        meta={"n_e": n_e, "n_steps": n_steps, "de": de, "cfl": cfl,
              "times": slice_times.tolist()},
    )


def richardson_probe(coeffs: CoefficientSet, terminal_fn: Callable,
                     t0: float, tau: float, e_lo: float, e_hi: float,
                     n_e: int, probes: Sequence[float]) -> dict:
    """Error estimate for the n_e reference via n, 2n, 4n refinement.

    Returns per-probe values on the finest grid together with the
    classical extrapolated error estimate and observed order.
    """
    sols = [fine_grid_reference(coeffs, terminal_fn, t0, tau, e_lo, e_hi, m)
            for m in (n_e, 2 * n_e, 4 * n_e)]
    probes = np.asarray(probes, dtype=float)
    v = [np.asarray(s(t0, probes), dtype=float) for s in sols]
    d01 = np.abs(v[0] - v[1])
    d12 = np.abs(v[1] - v[2])
    with np.errstate(divide="ignore", invalid="ignore"):
        order = np.log2(np.where(d12 > 0, d01 / np.maximum(d12, 1e-300), np.nan))
    err = d12  # conservative: first-order schemes give |v_4n - exact| <~ d12
    return {"values": v[2], "order": order, "error_estimate": err,
            "coarse_values": v[0], "mid_values": v[1]}


# ----------------------------------------------------------------------
# comparison and small analytic helpers
# ----------------------------------------------------------------------

def _as_field(obj):
    if callable(obj):
        return obj
    if hasattr(obj, "e_nodes") and hasattr(obj, "values"):
        def fn(t, e):
            return evaluate(obj, t, None, e)

        return fn
    raise ValidationError(f"cannot interpret {type(obj).__name__} as a field")


def compare_l1(a, b, t: float, e_lo: float, e_hi: float, n: int = 2000) -> dict:
    """L1 and sup distance between two factor-free fields at time ``t``.

    Both arguments may be grids, reference solutions or callables
    ``fn(t, e)``; sampling is at midpoints of ``n`` uniform cells.
    """
    fa, fb = _as_field(a), _as_field(b)
    de = (e_hi - e_lo) / n
    pts = e_lo + (np.arange(n) + 0.5) * de
    va = np.asarray(fa(t, pts), dtype=float)
    vb = np.asarray(fb(t, pts), dtype=float)
    gap = np.abs(va - vb)
    return {"l1": float(gap.sum() * de), "sup": float(gap.max()), "n": n}


def ou_moments(p0: float, kappa: float, sigma: float, t: float):
    """Mean and variance of an Ornstein-Uhlenbeck factor at time t."""
    mean = p0 * math.exp(-kappa * t)
    if kappa == 0.0:
        var = sigma * sigma * t
    else:
        var = sigma * sigma * (1.0 - math.exp(-2.0 * kappa * t)) / (2.0 * kappa)
    return mean, var


def picard_contraction_factor(rate: float, period_length: float) -> float:
    """Per-sweep contraction factor of the stationary fixed-point map."""
    return math.exp(-rate * period_length)


def brentq_y_star(coeffs: CoefficientSet, p_nodes=None, xtol: float = 1e-14):
    """Flux minimiser per factor node by ``brentq`` on the kernel's bracket.

    The bracket is ``[0, m0/l1 + pad]``, or ``[m0/l1 - pad, 0]`` when
    ``m0 = mu(p, 0) < 0``; ``m0 == 0`` gives 0.  Returns a float for a
    factor-free model and an array over ``p_nodes`` otherwise.
    """
    mu, l1 = coeffs.emissions_rate, coeffs.mono_l1

    def one(p):
        m0 = float(mu(p, 0.0))
        if m0 == 0.0:
            return 0.0
        other = m0 / l1
        pad = 1e-9 * (1.0 + abs(other))
        lo, hi = (0.0, other + pad) if m0 > 0 else (other - pad, 0.0)
        return float(brentq(lambda yy: float(mu(p, yy)), lo, hi,
                            xtol=xtol, rtol=8.9e-16))

    if p_nodes is None:
        return one(None)
    return np.array([one(float(pv)) for pv in p_nodes])


def constant_surface(value: float) -> TerminalSurface:
    """Constant payout, for discount-identity checks.

    Not an admissible terminal (its far-field limits are wrong), but the
    solver accepts it.
    """
    if not (0.0 <= value <= 1.0):
        raise ValidationError("constant surface value must lie in [0, 1]")
    v = float(value)

    def fn(p, e):
        return np.full_like(np.asarray(e, dtype=float), v)

    return TerminalSurface(fn=fn, label=f"const({v:g})")


def translation_check(field_long: Sequence[ValueGrid], field_short: Sequence[ValueGrid],
                      k: int, shift: float, e_window: tuple) -> dict:
    """Compare period ``k`` of one market against period ``k-1`` of another.

    For markets that differ by dropping the first of several identical
    periods (same length, every allocation equal), the later market's
    field is the earlier one translated by one period in time and by one
    allocation in cumulative emissions.  Both fields must share the
    emissions grid and the shift must be a whole number of cells; the
    comparison is then node-by-node over the stored slices, restricted
    to ``e_window`` so the report is not dominated by domain-truncation
    effects near the boundary.  Each field is its period grids in period
    order.
    """
    if k < 2:
        raise ValidationError("need k >= 2 so that period k-1 exists in the short market")
    ga = field_long[k - 1]
    gb = field_short[k - 2]
    if ga.e_nodes.shape != gb.e_nodes.shape or not np.allclose(ga.e_nodes, gb.e_nodes):
        raise ValidationError("the two fields do not share an emissions grid")
    if ga.values.shape != gb.values.shape:
        raise ValidationError(
            f"period grids differ in shape: {ga.values.shape} vs {gb.values.shape}"
        )
    de = ga.delta_e
    js = shift / de
    if abs(js - round(js)) > 1e-9:
        raise ValidationError(f"shift {shift:g} is not a whole number of cells")
    js = int(round(js))

    lo, hi = e_window
    sel = (ga.e_nodes >= lo) & (ga.e_nodes <= hi)
    idx = np.nonzero(sel)[0]
    if idx.size == 0:
        raise ValidationError("empty comparison window")
    if idx[0] - js < 0 or idx[-1] - js >= gb.e_nodes.size:
        raise ValidationError("window minus shift leaves the grid")

    e_axis = 1 + (1 if ga.has_p else 0)
    va = np.take(ga.values, idx, axis=e_axis)
    vb = np.take(gb.values, idx - js, axis=e_axis)
    gap = np.abs(va - vb)
    return {
        "max_residual": float(gap.max()),
        "mean_residual": float(gap.mean()),
        "n_nodes": int(gap.size),
        "cell_shift": js,
        "window": (float(lo), float(hi)),
    }


def solve_grids(spec, config) -> tuple:
    """Every period grid of a finite market, in period order."""
    return tuple(reversed([g for _, g in solve_periods(spec, config)]))
