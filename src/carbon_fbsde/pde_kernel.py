"""One-period pricing kernel.

Solves, backward from a terminal surface ``phi``, the degenerate
quasilinear equation satisfied by the allowance price field

    d_t v + mu(p, v) d_e v + b(p) d_p v + 0.5 sigma(p)^2 d_pp v = r v,

with the optional artificial-viscosity variant adding
``0.5 eps^2 (d_ee + d_pp)``.  In backward time ``s = tau - t`` the
emissions direction becomes a scalar conservation law with convex flux

    f(p, y) = -M(p, y),            M(p, y) = int_0^y mu(p, s) ds,

so a monotone finite-volume update (Godunov's) selects the correct weak
solution and inherits the comparison principle exactly, node by node.
The discount term is integrated exactly by a factor ``exp(-r dt)`` per
step, which keeps constant-in-space states constant in space to machine
precision.

The flux is convex with minimiser ``y*``, so it splits into a falling part
``f-(u) = f(min(u, y*))`` and a rising part ``f+(u) = f(max(u, y*))``,
and Godunov's flux is ``max(f+(u_l), f-(u_r))`` (LeVeque 2002, ch. 12).
One monotone scheme is all the entropy solution needs (Crandall and
Majda 1980).  At a Courant number of at most 1 the march is monotone and
discounts towards zero, so every state it reaches lies in
``[min(0, phi), max(1, phi)]`` over the terminal cells, ghosts included.
When that range sits on one side of every ``y*``, as in markets that
still emit at the penalty price (``y* >= 1``), all waves move one way and
the flux reduces to ``f`` of the upwind state: one flux evaluation per
cell and step.

A solve takes hundreds of steps on a state of some hundred kilobytes,
and the rolling market repeats it every sweep.  Fresh temporaries of that
size are paged in again on every step, which costs as much as the
arithmetic, so the march keeps its state and intermediates in four
buffers allocated once per solve; a one-sided step with the closed-form
flux allocates nothing.  The emissions direction has a finite wave speed
and the explicit step reads at most one neighbour on each side, so a
column changes only once the numerical domain of dependence reaches it
(Courant, Friedrichs and Lewy 1928): left of it the state is exactly 0,
right of it exactly the discounted bound.  Before the march a solve
computes that band for every step, from the terminal's moving columns,
the step sizes and the rate: it widens by one column per step on each
side the step reads, and the march's buffers cover it in a stretch of
columns that grows in chunks.  The march follows that schedule and
hands each slice over as its stretch with the two constants beside it
(:class:`SliceSink`); the grid carries the schedule, so a grid file
stores the stretches alone.  A band that spans every column is the
whole-grid march.

State layout: the emissions axis is always last and a factor axis, when
present, sits immediately before it.  Stored grids use the order
``(t, p, e)`` with an absent factor axis dropped.
"""

from __future__ import annotations

import hashlib
import logging
import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import CoverageError, SolverError, ValidationError
from .model import CoefficientSet, TerminalSurface

__all__ = [
    "SolverConfig",
    "ValueGrid",
    "SliceSink",
    "FluxModel",
    "make_flux",
    "check_dependence",
    "solve_one_period",
    "FieldReader",
    "lookup",
    "recorded_shifts",
    "lookup_recorded",
    "evaluate",
    "diagnostics",
    "KernelDiagnostics",
]

_log = logging.getLogger(__name__)
_GL8_X, _GL8_W = np.polynomial.legendre.leggauss(8)
_SLACK = 1e-9  # relative-position tolerance of the stored box
# flux table of a rate without a declared emissions_slope: price span, cells
_TABLE_SPAN = (-0.5, 1.5)
_TABLE_CELLS = 4096
# cells per surface call of the terminal projection: a slab of factor rows
_SLAB_CELLS = 4096
# columns a band march's buffers widen by when the band leaves them
_BAND_CHUNK = 32


# ----------------------------------------------------------------------
# configuration and grid container
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig:
    """Discretisation parameters for one-period solves.

    ``e_min``/``e_max`` bound the emissions domain (cell centres live half
    a cell inside).  The factor axis is optional and node-based.  Either
    ``n_steps`` pins the time resolution or it is derived from
    ``cfl_target`` and the stability bound of the explicit update.
    """

    e_min: float
    e_max: float
    n_e: int = 400
    p_min: Optional[float] = None
    p_max: Optional[float] = None
    n_p: Optional[int] = None
    cfl_target: float = 0.9
    n_steps: Optional[int] = None
    viscosity: float = 0.0

    def __post_init__(self):
        if not self.e_max > self.e_min:
            raise ValidationError("need e_max > e_min")
        if self.n_e < 8:
            raise ValidationError("need at least 8 emission cells")
        if not 0.0 < self.cfl_target <= 1.0:
            raise ValidationError("cfl_target must lie in (0, 1]")
        if self.viscosity < 0:
            raise ValidationError("viscosity must be >= 0")
        p_given = [x is not None for x in (self.p_min, self.p_max, self.n_p)]
        if any(p_given) and not all(p_given):
            raise ValidationError("p_min, p_max, n_p must be given together")
        if all(p_given):
            if not self.p_max > self.p_min:
                raise ValidationError("need p_max > p_min")
            if self.n_p < 3:
                raise ValidationError("need at least 3 factor nodes")
        if self.n_steps is not None and self.n_steps < 1:
            raise ValidationError("n_steps must be >= 1")

    @property
    def has_p(self) -> bool:
        return self.p_min is not None

    def e_cells(self) -> np.ndarray:
        de = (self.e_max - self.e_min) / self.n_e
        return self.e_min + (np.arange(self.n_e) + 0.5) * de

    def p_nodes(self) -> Optional[np.ndarray]:
        if not self.has_p:
            return None
        return np.linspace(self.p_min, self.p_max, self.n_p)


@dataclass(eq=False)
class ValueGrid:
    """Solved price field on a space-time grid.

    ``values`` is stored in ``(t, p, e)`` order with an absent factor axis
    dropped.  The final time slice holds the projected terminal data;
    the field's left limit at the period end is the last interior slice.
    ``stretches``, when known, holds one ``(c0, c1, bound)`` per time
    slice: the slice's emissions columns left of ``c0`` are 0 and those
    from ``c1`` on ``bound`` (the band schedule of the solve, or the
    table of a grid file).
    """

    times: np.ndarray
    e_nodes: np.ndarray
    values: np.ndarray
    rate: float
    p_nodes: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)
    stretches: Optional[list] = None

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def tau(self) -> float:
        return float(self.times[-1])

    @property
    def has_p(self) -> bool:
        return self.p_nodes is not None

    @property
    def delta_e(self) -> float:
        return float(self.e_nodes[1] - self.e_nodes[0])

    @property
    def last_interior_time(self) -> float:
        return float(self.times[-2])

    def at_start(self, p, e):
        """Field value on the first stored slice (start of the period)."""
        return evaluate(self, self.t0, p, e)

    def __repr__(self):  # keep array dumps out of logs
        shape = "x".join(str(n) for n in self.values.shape)
        return (f"ValueGrid(t=[{self.t0:g},{self.tau:g}], shape={shape}, "
                f"rate={self.rate:g})")


class SliceSink:
    """Where a solve sends its time slices instead of keeping them.

    :func:`solve_one_period` calls ``open(grid, shape)`` once before the
    march, with a grid whose axes, full ``times``, ``meta`` and
    ``stretches`` (the band schedule, one ``(c0, c1, bound)`` per slice)
    are final and the shape of the whole ``values``, then ``put(it,
    cells, c0, bound)`` for ``it = n_steps, ..., 0`` as the march makes
    each slice, one call at a time.  ``cells`` holds the slice's
    emissions columns from ``c0`` on, and they are the stretch of the
    schedule; the columns left of them are 0 and those right of them
    ``bound`` (:meth:`whole` writes the whole slice).  A slice is valid
    only during its call.  This base class drops every slice, which is
    all a solve whose start slice is read needs.
    """

    def open(self, grid: "ValueGrid", shape: tuple) -> None:
        pass

    def put(self, it: int, cells: np.ndarray, c0: int, bound: float) -> None:
        pass

    @staticmethod
    def whole(out: np.ndarray, cells: np.ndarray, c0: int, bound: float) -> None:
        """Write the slice that ``cells``, ``c0`` and ``bound`` describe into
        ``out``; ``cells`` may be a view of ``out``'s own first bytes."""
        c1 = c0 + cells.shape[-1]
        out[..., c0:c1] = cells
        out[..., :c0] = 0.0
        out[..., c1:] = bound


def _locate(nodes: np.ndarray, x):
    """Uniform-grid bracketing indices, weights, in-range mask and positions."""
    pos = (np.asarray(x, dtype=float) - nodes[0]) / (nodes[1] - nodes[0])
    ok = (pos >= -_SLACK) & (pos <= nodes.size - 1 + _SLACK)
    # clamp before the cast: a huge or infinite position has no int64, and
    # fmax sends NaN to 0
    i = np.fmin(np.fmax(np.floor(pos), 0.0), nodes.size - 2)
    w = np.minimum(np.maximum(pos - i, 0.0), 1.0)
    return i.astype(np.int64), w, ok, pos


def _query_axes(grid: ValueGrid, p, e):
    """``(name, nodes, query)`` for each stored spatial axis, in order."""
    axes = []
    if grid.has_p:
        axes.append(("factor", grid.p_nodes, p))
    axes.append(("emissions", grid.e_nodes, e))
    return axes


def _time_bracket(times: np.ndarray, t: float) -> tuple:
    """``(it, wt)``: ``t``, clamped to ``[t0, tau]``, lies ``wt`` of the way
    from time slice ``it`` to ``it + 1``.  The stored time axis may hold one
    shorter remainder step, so the bracket comes from a search; a grid that
    stores one time has ``(0, 0.0)``.  With ``wt == 0`` slice ``it`` alone
    gives the value."""
    t = min(max(t, times[0]), times[-1])
    if times.size == 1:
        return 0, 0.0
    it = min(max(int(np.searchsorted(times, t, side="right")) - 1, 0), times.size - 2)
    return it, min(max((t - times[it]) / (times[it + 1] - times[it]), 0.0), 1.0)


class FieldReader:
    """Multilinear reads of one grid through one time slice at a time.

    A read at time ``t`` (:func:`_time_bracket`) needs the field's slice
    there: stored slice ``it`` when ``wt == 0``, else ``S_it + wt (S_it+1 -
    S_it)`` in the reader's buffer, made again only when a read's bracket
    differs bit for bit.  It gathers the ``2^d`` corners from that slice,
    last axis fastest; :meth:`locate` places the factor once for any number
    of reads.  ``values`` may be a streamed grid's ring of recent slices.
    With ``shifts`` from :func:`recorded_shifts` a read is that of
    :func:`lookup_recorded`.
    """

    def __init__(self, grid: ValueGrid, shifts: Optional[tuple]):
        self.grid, self.shifts = grid, shifts
        self._bracket = self._flat = None
        self._buffer = np.empty(grid.values.shape[1:])

    def locate(self, p) -> tuple:
        """The factor's part of a read at ``p``: ``(corners, base, in_box)``,
        each factor corner's weight and offset in a slice, the flat index of
        the cell's first node and the factor's in-box mask.  ``p`` is
        ignored on a grid without a factor axis."""
        if not self.grid.has_p:
            return [(1.0, 0)], 0, True
        if p is None:
            raise ValidationError("grid has a factor axis; pass p")
        i, w, ok, _ = _locate(self.grid.p_nodes, p)
        n = self.grid.e_nodes.size
        return [(1.0 - w, 0), (w, n)], i * n, ok

    def read(self, t: float, at: tuple, e):
        """``(value, in_box)`` at time ``t``, the factor place ``at`` from
        :meth:`locate` and emissions ``e``."""
        bracket = _time_bracket(self.grid.times, t)
        if bracket != self._bracket:
            self._bracket = bracket
            self._flat = self._slice(*bracket).ravel()
        if self.shifts is None:
            return self._gather(at, e)
        theta, lo, hi, in_box = self.shifts
        value, _ = self._gather(at, e - lo)
        upper, _ = self._gather(at, e - hi)
        value *= 1.0 - theta
        upper *= theta
        value += upper
        return value, in_box & at[2] & _locate(self.grid.e_nodes, e)[2]

    def _slice(self, it: int, wt: float) -> np.ndarray:
        values = self.grid.values
        if wt == 0.0:
            return values[it]
        # the later slice first: a ring too short for the bracket then
        # raises instead of overwriting the earlier one
        out = np.subtract(values[it + 1], values[it], out=self._buffer)
        out *= wt
        out += values[it]
        return out

    def _gather(self, at: tuple, e):
        """``sum(weight * slice.flat[offset])`` over the corners, in order."""
        corners, base, in_box = at
        i, w, ok, _ = _locate(self.grid.e_nodes, e)
        base = base + i
        sides = ((1.0 - w, 0), (w, 1))
        acc = 0.0
        for wc, oc in corners:
            for a, c in sides:
                # a corner's offset moves the slice, not the indices
                term = self._flat[oc + c:].take(base)
                term *= wc * a
                acc += term
        return acc, in_box & ok


def lookup(grid: ValueGrid, t: float, p, e):
    """Multilinear field value at time ``t`` with an in-box mask.

    ``t`` is clamped to ``[t0, tau]``.  Points outside the spatial box are
    clamped onto it for the value and marked ``False`` in the mask; the
    caller decides what that means.  Returns ``(value, in_box)``: one read
    of a fresh :class:`FieldReader`.
    """
    reader = FieldReader(grid, None)
    return reader.read(t, reader.locate(p), e)


def recorded_shifts(grid: ValueGrid, cap, ep) -> tuple:
    """Where :func:`lookup_recorded` reads a period whose cap ``cap(ep)``
    depends on the emissions ``ep`` recorded at the previous date.

    ``grid`` is that period solved once, at the constant cap
    ``grid.meta["cap_level"]``.  Returns ``(theta, lo, hi, ok)``: ``ep``
    lies ``theta`` of the way from emissions node ``j`` to ``j + 1``
    (clamped onto the axis), ``lo`` and ``hi`` are the caps at those two
    nodes less the solved one, and ``ok`` marks ``ep`` inside the axis.
    """
    j, theta, ok, _ = _locate(grid.e_nodes, ep)
    level = grid.meta["cap_level"]
    return (theta, cap.level(grid.e_nodes[j]) - level,
            cap.level(grid.e_nodes[j + 1]) - level, ok)


def lookup_recorded(grid: ValueGrid, t: float, p, e, shifts: tuple):
    """:func:`lookup` of a period whose cap depends on recorded emissions.

    The emission rate does not depend on ``e``, so under a cap moved by
    ``d`` the field is the solved one moved by ``d``.  With ``shifts`` from
    :func:`recorded_shifts` the value blends the two recorded-emissions
    nodes that bracket ``ep``, as interpolation along a recorded-emissions
    axis would::

        (1 - theta) * v(t, p, e - lo) + theta * v(t, p, e - hi)

    One read moved by the cap at ``ep`` itself would put kinks into a
    terminal linked on the diagonal, which the march of the period before
    turns into a monotonicity defect.  The moved points are clamped onto
    the box; the in-box mask is that of ``p``, ``e`` and ``ep``.  Returns
    ``(value, in_box)``.
    """
    reader = FieldReader(grid, shifts)
    return reader.read(t, reader.locate(p), e)


def evaluate(grid: ValueGrid, t: float, p, e):
    """Multilinear interpolation of the field at time ``t``.

    ``t`` must lie in ``[t0, tau]``; the final slice is the projected
    terminal datum, so queries meant as left limits should stay at or
    below ``grid.last_interior_time``.  Queries outside the stored box
    raise :class:`CoverageError`.
    """
    t = float(t)
    times = grid.times
    if not times[0] - _SLACK <= t <= times[-1] + _SLACK:  # NaN fails both
        raise CoverageError(
            f"time query outside grid range [{times[0]:g}, {times[-1]:g}] (t={t:g})"
        )
    value, in_box = lookup(grid, t, p, e)
    if not np.all(in_box):
        for name, nodes, x in _query_axes(grid, p, e):
            _, _, ok, pos = _locate(nodes, x)
            if not np.all(ok):
                raise CoverageError(
                    f"{name} query outside grid range [{nodes[0]:g}, {nodes[-1]:g}] "
                    f"(relative positions {np.min(pos):.3g}..{np.max(pos):.3g})"
                )
    return value


# ----------------------------------------------------------------------
# flux construction
# ----------------------------------------------------------------------

class FluxModel:
    """Convex numerical flux ``f(p, y) = -M(p, y)`` with its minimiser.

    The emission rate is strictly decreasing in ``y``, so ``M`` is
    strictly concave and ``f`` strictly convex; its minimiser ``y*``
    solves ``mu(p, y*) = 0`` and is what the Godunov flux needs.  Array
    evaluation broadcasts the factor axis at position -2 when the model
    carries factor rows.

    ``y*`` comes from one bisection over all factor nodes at once.  With
    ``m0 = mu(p, 0)``, the slope bound ``mono_l1`` puts the root in
    ``[0, m0/l1 + pad]``, or in ``[m0/l1 - pad, 0]`` when ``m0 < 0``
    (``pad = 1e-9 (1 + |m0/l1|)``).  A rate that keeps one sign on that
    bracket falls more slowly than declared and raises
    :class:`ValidationError`.  The bracket is halved until its ends are
    adjacent floats, and the end with the smaller ``|mu|`` is kept; a
    scalar for a factor-free model, one value per node otherwise.
    """

    def __init__(self, coeffs: CoefficientSet, p_nodes: Optional[np.ndarray]):
        self._coeffs = coeffs
        self._p_nodes = p_nodes
        self._factor = p_nodes is not None
        mu = coeffs.emissions_rate

        p_col = np.asarray(p_nodes, dtype=float)[:, None] if self._factor else None

        if coeffs.emissions_slope is not None:
            # f(y) = (m2/2) y^2 - c y with c = mu(p, 0)
            self._c = coeffs.mu(p_col, 0.0)
            self._half_slope = 0.5 * coeffs.emissions_slope
            self._table = None
            self._f_into = self._f_affine
        else:
            self._c = None
            # Dense cumulative Gauss-Legendre table with Hermite-cubic
            # evaluation (slopes are mu itself, known exactly).
            y0, y1 = _TABLE_SPAN
            knots = np.linspace(y0, y1, _TABLE_CELLS + 1)
            h = knots[1] - knots[0]
            mids = 0.5 * (knots[:-1] + knots[1:])
            pts = mids[:, None] + 0.5 * h * _GL8_X[None, :]
            ax = (None,) if self._factor else ()  # a leading factor axis
            vals = mu(p_col[..., None] if self._factor else None, pts[ax])
            incr = (vals * (0.5 * _GL8_W)).sum(axis=-1) * h
            M = np.concatenate([np.zeros_like(incr[..., :1]), np.cumsum(incr, axis=-1)], axis=-1)
            slopes = np.asarray(mu(p_col, knots[ax]), dtype=float)
            # anchor M(0) = 0 exactly at the knot closest to zero
            i0 = int(round(-y0 / h))
            M = M - M[..., i0:i0 + 1]
            self._table = (knots[0], h, knots.size, M, slopes)
            self._f_into = self._f_table
        self._f = lambda y: self._f_into(y, None, None)

        self.y_star = self._solve_y_star()
        if self._factor:
            self._ystar_col = self.y_star[:, None]
        else:
            self._ystar_col = self.y_star

    # -- evaluation --------------------------------------------------

    # ``_f_into(y, out, scratch)`` writes ``f(y)`` to ``out`` when ``out``
    # and ``scratch`` are buffers shaped like ``y``, or to fresh arrays
    # when they are None; ``_f(y)`` is the latter

    def _f_affine(self, y, out, scratch):
        """``(m2/2) y y - c y``, ``c = mu(p, 0)``, in four passes.  With a
        factor ``c`` is a column, which numpy multiplies by at about a third
        of its elementwise speed; the march takes ``interface``'s ``scale``."""
        cy = np.multiply(self._c, y, out=scratch)
        out = np.multiply(y, y, out=out)
        out *= self._half_slope
        out -= cy
        return out

    def _f_table(self, y, out, scratch):
        y0, h, n, M, slopes = self._table
        y = np.asarray(y, dtype=float)
        pos = np.clip((y - y0) / h, 0.0, n - 1.0)
        i = np.clip(np.floor(pos).astype(np.int64), 0, n - 2)
        t = pos - i
        if self._factor:
            r = np.arange(M.shape[0])[:, None]
            Mi, Mi1 = M[r, i], M[r, i + 1]
            mi, mi1 = slopes[r, i], slopes[r, i + 1]
        else:
            Mi, Mi1 = M[i], M[i + 1]
            mi, mi1 = slopes[i], slopes[i + 1]
        t2, t3 = t * t, t * t * t
        val = (Mi * (2 * t3 - 3 * t2 + 1) + h * mi * (t3 - 2 * t2 + t)
               + Mi1 * (-2 * t3 + 3 * t2) + h * mi1 * (t3 - t2))
        return np.negative(val, out=out)

    # -- structure ---------------------------------------------------

    def _solve_y_star(self):
        mu = self._coeffs.mu
        l1 = self._coeffs.mono_l1
        p = np.asarray(self._p_nodes, dtype=float) if self._factor else None
        m0 = mu(p, np.zeros(1 if p is None else p.size))
        other = m0 / l1
        pad = 1e-9 * (1.0 + np.abs(other))
        lo = np.where(m0 < 0, other - pad, 0.0)
        hi = np.where(m0 > 0, other + pad, 0.0)
        bad = ~((mu(p, lo) >= 0) & (mu(p, hi) <= 0))
        if bad.any():
            i = int(np.argmax(bad))
            at = "" if p is None else f" at factor node p = {p[i]:g}"
            raise ValidationError(
                f"emission rate keeps one sign on the y* bracket "
                f"[{lo[i]:.6g}, {hi[i]:.6g}]{at}: it falls more slowly than "
                f"the declared mono_l1 = {l1:g}")
        while True:
            mid = 0.5 * (lo + hi)
            active = (mid != lo) & (mid != hi)
            if not active.any():
                break
            up = active & (mu(p, mid) > 0)
            lo = np.where(up, mid, lo)
            hi = np.where(active & ~up, mid, hi)
        y = np.where(np.abs(mu(p, hi)) < np.abs(mu(p, lo)), hi, lo)
        return y if self._factor else float(y[0])

    def upwind_side(self, lo: float, hi: float) -> Optional[str]:
        """Which state decides the flux when every state lies in ``[lo, hi]``.

        ``"right"`` when ``[lo, hi]`` sits at or below every ``y*`` (the
        flux falls there, so waves run towards lower emissions),
        ``"left"`` when it sits at or above every ``y*``, else ``None``.
        """
        if np.min(self.y_star) >= hi:
            return "right"
        if np.max(self.y_star) <= lo:
            return "left"
        return None

    def interface(self, ul, ur, upwind: Optional[str] = None, out=(None, None),
                  scale=None):
        """Godunov flux at interfaces between ``ul`` and ``ur``.

        With ``f+(u) = f(max(u, y*))`` and ``f-(u) = f(min(u, y*))`` it is
        ``max(f+(ul), f-(ur))``.  ``upwind`` from :meth:`upwind_side`
        promises that every state lies on one side of ``y*``; the flux is
        then ``f`` of that side's state, written to ``out[0]`` with
        ``out[1]`` as scratch when they are buffers shaped like the states
        (the closed form then allocates nothing).

        ``scale = (g, gc)`` asks for ``g f``, with ``gc = g mu(p, 0)`` at
        the states' full width.  The one-sided closed form is then
        ``y (g m2/2 y - gc)`` in three elementwise passes and no scratch;
        every other flux is computed as without ``scale``, then times ``g``.
        """
        if upwind is not None:
            y = ur if upwind == "right" else ul
            if scale is not None and self._table is None:
                g, gc = scale
                val = np.multiply(y, g * self._half_slope, out=out[0])
                val -= gc
                val *= y
                return val
            val = self._f_into(y, *out)
        else:
            plus = self._f(np.maximum(ul, self._ystar_col))
            minus = self._f(np.minimum(ur, self._ystar_col))
            val = np.maximum(plus, minus)
        if scale is not None:
            val *= scale[0]
        return val


def make_flux(coeffs: CoefficientSet, p_nodes: Optional[np.ndarray] = None) -> FluxModel:
    """Build the numerical flux for a coefficient set.

    Evaluates ``f = (m2/2) y^2 - mu(p, 0) y`` in closed form when the
    coefficients declare the slope ``m2`` of a rate affine in the price;
    otherwise tabulates the integral of the emission rate densely enough
    that evaluation error stays below 1e-10 for smooth rates.
    """
    if coeffs.dim_p > 0 and p_nodes is None:
        raise ValidationError("factor coefficients need the factor nodes for the flux")
    return FluxModel(coeffs, p_nodes)


# ----------------------------------------------------------------------
# terminal handling
# ----------------------------------------------------------------------

def _project_terminal(surface: TerminalSurface, e_centres_ext: np.ndarray, de: float,
                      p_nodes: Optional[np.ndarray]):
    """Cell averages of the terminal surface, ghost cells included.

    Returns an array shaped ``([n_p,] n_e + 2)``; the first and last
    entries along the emissions axis are the ghost-cell averages.
    """
    pts = e_centres_ext[:, None] + (0.5 * de) * _GL8_X[None, :]
    wts = 0.5 * _GL8_W
    # axes (p, e), an absent factor dropped; the surface is evaluated at one
    # quadrature node of a slab of factor rows at a time, about _SLAB_CELLS
    # cells, so its temporaries (a linked surface's lookup makes several)
    # stay that size
    lead = () if p_nodes is None else (p_nodes.size,)
    e_shape = (1,) * len(lead) + (-1,)
    p = None if p_nodes is None else p_nodes.reshape(p_nodes.shape + (1,))
    vals = np.empty(lead + pts.shape)
    slab = max(1, _SLAB_CELLS // pts.shape[0])
    for a in range(0, lead[0] if lead else 1, slab):
        rows = slice(a, a + slab) if lead else slice(None)
        for j in range(pts.shape[1]):
            # surfaces that ignore an argument return collapsed axes; the
            # assignment restores them
            vals[rows, ..., j] = surface(None if p is None else p[rows],
                                         pts[:, j].reshape(e_shape))
    cells = np.tensordot(vals, wts, axes=([-1], [0]))
    worst = max(float((-cells).max()), float((cells - 1.0).max()))
    if worst > 1e-9:
        raise ValidationError(
            f"terminal surface leaves [0, 1] by {worst:.3g} after projection"
        )
    return np.clip(cells, 0.0, 1.0)


# ----------------------------------------------------------------------
# the march
# ----------------------------------------------------------------------

def check_dependence(coeffs: CoefficientSet, config: SolverConfig, regions) -> None:
    """Each ``(length, lo, hi)`` of ``regions`` must sit one domain of dependence inside.

    The domain of dependence of a period of ``length`` is the peak
    emission speed times ``length``.  Boundary data closer than that to
    ``[lo, hi]`` (a period's cap levels, the rolling allocation window)
    reaches it and silently corrupts the field, so it is a hard error.
    """
    speed = coeffs.peak_speed(config.p_nodes())
    for length, lo, hi in regions:
        need = speed * length
        if lo - config.e_min < need - 1e-9 or config.e_max - hi < need - 1e-9:
            raise CoverageError(
                f"emissions domain [{config.e_min:g}, {config.e_max:g}] leaves less "
                f"than one domain of dependence ({need:g}) around [{lo:g}, {hi:g}]")


def _stability_rate(coeffs: CoefficientSet, p: Optional[np.ndarray], eps: float,
                    de: float) -> float:
    """Explicit-step rate bound; factor terms only when the march has a factor axis."""
    rate = coeffs.peak_speed(p) / de
    rate += eps * eps / de ** 2
    if p is not None:
        dp = p[1] - p[0]
        a_max = float(np.max(np.asarray(coeffs.vol(p), dtype=float) ** 2))
        b_max = float(np.max(np.abs(np.asarray(coeffs.drift(p), dtype=float))))
        rate += (a_max + eps * eps) / dp ** 2 + b_max / dp
    return rate


def _step_sizes(span: float, config: SolverConfig, stab_rate: float) -> np.ndarray:
    """Time steps for the backward march, terminal side first.

    With an explicit ``n_steps`` the steps are equal.  Otherwise every
    step runs at the target Courant number and a single shorter step at
    the far end covers the remainder; padding the count up instead would
    lower the effective Courant number and with it the sharpness of the
    scheme at kinks, which the accuracy targets are calibrated against.
    """
    if config.n_steps is not None:
        return np.full(config.n_steps, span / config.n_steps)
    dt = config.cfl_target / stab_rate
    if not math.isfinite(dt) or dt <= 0.0:
        raise SolverError(f"unusable stability rate {stab_rate:g}")
    n_full = int(math.floor(span / dt + 1e-12))
    if n_full == 0:
        return np.array([span])
    steps = np.full(n_full, dt)
    rem = span - n_full * dt
    if rem > 1e-9 * dt:
        steps = np.append(steps, rem)
    else:
        steps[-1] += rem
    return steps


def _band_schedule(u0, phi_gl, phi_gr, steps: np.ndarray, r: float, eps: float,
                   upwind: Optional[str]) -> tuple:
    """``(start, stretches)``: the columns a march from ``u0`` covers.

    Left of the band of columns that can move every cell is exactly 0 and
    right of it exactly the discounted bound, and a step keeps a cell
    whose stencil reads only its own constant.  The band starts at the
    first column of ``u0`` that is not 0 in some row and ends after the
    last that is not 1, or at a grid edge whose ghost cell is not that
    constant; each step widens it by one column on each side the step
    reads from: the left for the one-sided ``"right"`` flux, the right for
    ``"left"``, both for the general flux or with viscosity.  Factor-row
    terms stay in a column.

    ``start`` is the first band ``(lo, hi)``.  The march covers the band
    with a stretch of columns that starts as ``start`` and grows by
    ``_BAND_CHUNK`` columns on a side whenever the band leaves it;
    ``stretches[it]`` is ``(c0, c1, bound)`` of time slice ``it``, with
    ``bound`` the product of the step discounts ``exp(-r dt)`` from the
    terminal, and the terminal slice ``stretches[-1]`` is whole.
    """
    n_e = u0.shape[-1]
    lead = tuple(range(u0.ndim - 1))
    moved = np.flatnonzero(np.any(u0 != 0.0, axis=lead))
    below = np.flatnonzero(np.any(u0 != 1.0, axis=lead))
    lo = 0 if np.any(phi_gl != 0.0) else (int(moved[0]) if moved.size else n_e)
    hi = n_e if np.any(phi_gr != 1.0) else (int(below[-1]) + 1 if below.size else 0)
    grow_lo = int(upwind != "left" or eps > 0.0)
    grow_hi = int(upwind != "right" or eps > 0.0)
    n = len(steps)
    stretches = [None] * n + [(0, n_e, 1.0)]
    start = c0, c1 = lo, hi
    bound = 1.0
    for k, dt in enumerate(steps.tolist()):
        lo, hi = max(lo - grow_lo, 0), min(hi + grow_hi, n_e)
        # the band moves at most one column a step, so a chunk holds it
        if lo < c0:
            c0 = max(0, c0 - _BAND_CHUNK)
        if hi > c1:
            c1 = min(n_e, c1 + _BAND_CHUNK)
        bound *= math.exp(-r * dt)
        stretches[n - 1 - k] = (c0, c1, bound)
    return start, stretches


def _march(u0, phi_gl, phi_gr, out_store, flux: FluxModel, r: float,
           steps: np.ndarray, de: float, eps: float, p_ctx, band: tuple):
    """Explicit backward march over the stretches of a band schedule.

    ``band`` is ``(upwind, start, stretches)``: the one-sided flux's
    upwind side or None (:meth:`FluxModel.interface`) and
    :func:`_band_schedule`'s schedule for it, which says which columns
    each step computes; beyond them the state is its constants.

    The state lives in a contiguous buffer over the stretch of columns,
    with a ghost cell at each end of every emissions row and, with a
    factor, a ghost row at each end of the factor axis; the ghost columns
    hold the constant beyond the stretch, or ``bound`` times the terminal
    ghost at a grid edge.  Four buffers are allocated once at full width
    and viewed at the stretch's width, which grows whenever the schedule
    says so: two alternate as current and next state, the flux has the
    third, and the fourth holds the update terms without a factor and
    ``g mu(p, 0)`` with one.  Each operation covers a whole buffer, its
    factor rows, or the buffer read flat and shifted by one cell or one
    row; ghost positions get values nobody reads and are reset before
    each step.  Without a factor each
    interior element sees the operations of the plain array expressions
    of the scheme, in their order.  With one, the factor diffusion and
    upwind drift, the emissions viscosity and the discount are one stencil
    with per-row weights ``k_up``, ``k_dn`` (rows above and below), ``k_e``
    (each emissions neighbour) and ``k_0 = disc - k_up - k_dn - 2 k_e``,
    nonnegative where the march is monotone; its three factor-row terms
    are one weighted sum over a three-row window.  The flux comes scaled
    by the step factor ``g = disc dt / de`` (:meth:`FluxModel.interface`),
    and its two shifted reads go straight into the stencil sum, so a
    one-sided closed-form step is six passes besides the viscosity, which
    then uses the flux buffer as scratch.  The factor march differs from
    the plain expressions by rounding, which the constant columns beyond
    the stretch do not take.

    Slice ``it`` goes to ``out_store(it, cells, c0, bound)``, ``cells``
    being the stretch from column ``c0`` (:meth:`SliceSink.whole`).
    """
    n_steps = len(steps)
    n_e = u0.shape[-1]
    factor = p_ctx is not None
    if factor:
        inner = (slice(1, -1), slice(1, -1))
        ghosts = (slice(1, -1),)
    else:
        inner = (slice(1, -1),)
        ghosts = ()
    rows = ghosts + (slice(None),)
    full = (u0.shape[0] + 2, n_e + 2) if factor else (n_e + 2,)
    # zero-filled, so positions no step writes stay finite
    mem = np.zeros((4, math.prod(full)))

    def viewed(width):
        shape = full[:-1] + (width + 2,)
        return [b[:math.prod(shape)].reshape(shape) for b in mem]

    # the stretch [c0, c1) the buffers cover
    upwind, (c0, c1), stretches = band
    bufs = viewed(c1 - c0)
    bufs[0][inner] = u0[..., c0:c1]
    now, fresh = 0, True  # bufs[now] holds the state

    if factor:
        b_col, a_col, dp = p_ctx
        # weights per unit of disc * dt: the diffusion and the upwind drift
        diff = 0.5 * (a_col + eps * eps) / dp ** 2
        w_up, w_dn = diff + np.maximum(b_col, 0.0) / dp, diff + np.maximum(-b_col, 0.0) / dp
    dt_k = None
    # with a one-sided flux fl holds f of each cell's own state, and the
    # interface right of cell j takes f of cell j + 1 ("right") or j
    shift = 0 if upwind == "left" else 1
    scale = None

    bound = 1.0
    out_store(n_steps, u0, 0, bound)
    for k in range(n_steps):
        d0, d1, after = stretches[n_steps - 1 - k]
        if (d0, d1) != (c0, c1):
            wider = viewed(d1 - d0)
            SliceSink.whole(wider[1 - now][inner], bufs[now][inner], c0 - d0, bound)
            bufs, now, c0, c1, fresh = wider, 1 - now, d0, d1, True
        if fresh:
            fl, work = bufs[2], bufs[3]
            fl_f, work_f = fl.reshape(-1), work.reshape(-1)
            n = fl.size
            # the one-sided flux and its scratch; the scaled flux needs none
            fl_out = (fl[rows], None if factor else work[rows])
            if factor:
                gc = work[rows]  # g mu(p, 0) at the stretch's width, for the closed form
                # each state buffer's rows below, at and above every factor
                # row, as a trailing axis
                windows = [np.lib.stride_tricks.sliding_window_view(b, 3, axis=-2)
                           for b in bufs[:2]]
        cur, nxt = bufs[now], bufs[1 - now]
        dt = float(steps[k])
        disc = math.exp(-r * dt)
        lam = dt / de
        cur_f = cur.reshape(-1)
        cur[ghosts + (0,)] = bound * phi_gl if c0 == 0 else 0.0
        cur[ghosts + (-1,)] = bound * phi_gr if c1 == n_e else bound
        if factor:
            for g, a, b in ((0, 1, 2), (-1, -2, -3)):  # ghost rows
                ghost = cur[g]
                np.multiply(cur[a], 2.0, out=ghost)
                ghost -= cur[b]
                np.maximum(ghost, 0.0, out=ghost)
                np.minimum(ghost, bound, out=ghost)
            if dt != dt_k:  # the first step and a shorter remainder step
                dt_k, k_e = dt, disc * dt * 0.5 * eps * eps / de ** 2
                k_up, k_dn = disc * dt * w_up, disc * dt * w_dn
                weights = np.concatenate([k_dn, disc - k_up - k_dn - 2.0 * k_e, k_up], axis=-1)
                fresh = True
            if fresh:
                scale = (disc * lam, gc)  # the step factor g and g mu(p, 0)
                if flux._c is not None:
                    np.multiply(flux._c, scale[0], out=gc)
        fresh = False
        # the flux sees the factor rows it was built for, not the ghost rows
        live = cur[rows]
        if upwind is None:
            fl[rows][..., 1:] = flux.interface(live[..., :-1], live[..., 1:], scale=scale)
        else:
            flux.interface(live, live, upwind, out=fl_out, scale=scale)
        if factor:
            # one pass; three multiplies by a broadcast column cost several
            np.einsum("...ijk,ik->...ij", windows[now], weights, out=nxt[rows])
            nxt_f = nxt.reshape(-1)
            nxt_f[1:-1] -= fl_f[1 + shift:n - 1 + shift]
            nxt_f[1:-1] += fl_f[shift:n - 2 + shift]
            if eps > 0.0:
                np.add(cur_f[2:], cur_f[:-2], out=fl_f[1:-1])
                fl *= k_e
                nxt += fl
        else:
            np.subtract(fl_f[1 + shift:n - 1 + shift], fl_f[shift:n - 2 + shift],
                        out=work_f[1:-1])
            work *= lam
            np.subtract(cur, work, out=nxt)
            if eps > 0.0:
                np.multiply(cur, 2.0, out=work)
                np.subtract(cur_f[2:], work_f[1:-1], out=work_f[1:-1])
                work_f[1:-1] += cur_f[:-2]
                work *= 0.5 * eps * eps * dt / de ** 2
                nxt += work
            nxt *= disc
        bound = after
        now = 1 - now
        u = nxt[inner]
        out_store(n_steps - 1 - k, u, c0, bound)
        if (k + 1) % 32 == 0 and not np.all(np.isfinite(u)):
            raise SolverError(f"state became non-finite at step {k + 1}/{n_steps}")
    if not np.all(np.isfinite(u)):
        raise SolverError("state became non-finite at the final step")


def solve_one_period(coeffs: CoefficientSet, terminal: Optional[TerminalSurface],
                     t0: float, tau: float, config: SolverConfig,
                     meta: Optional[dict] = None,
                     terminal_cells_ext: Optional[np.ndarray] = None,
                     sink: Optional[SliceSink] = None) -> ValueGrid:
    """Solve one compliance period backward from its terminal surface.

    ``terminal_cells_ext`` bypasses projection entirely: it supplies the
    terminal cell averages directly, ghost cells included, shaped
    ``([n_p,] n_e + 2)``.  Fixed-point iterations use this to keep the
    terminal a pure translation of stored data, with no quadrature in
    between.

    With a ``sink`` (:class:`SliceSink`) the march hands it each time
    slice as soon as it is made, and the grid keeps the start slice alone:
    it holds ``times[:1]``, ``values[:1]`` and ``stretches[:1]`` of the
    full solve, bit for bit, with the same ``meta`` (``n_steps`` still
    counts the steps marched).  A :class:`gridio.GridWriter` sink puts
    each slice's stretch in its place in a grid file, so the solve holds
    about one stretch besides the march's buffers; the base class drops
    them.
    """
    if not tau > t0:
        raise ValidationError("need tau > t0")
    if coeffs.dim_p not in (0, 1):
        raise ValidationError("the kernel supports factor dimension 0 or 1")
    if coeffs.dim_p == 1 and not config.has_p:
        raise ValidationError("factor coefficients need a factor grid in the config")

    e_nodes = config.e_cells()
    de = (config.e_max - config.e_min) / config.n_e
    p_nodes = config.p_nodes() if coeffs.dim_p == 1 else None

    if terminal_cells_ext is not None:
        cells_ext = np.array(terminal_cells_ext, dtype=float, copy=True)
        want = ((config.n_p, config.n_e + 2) if p_nodes is not None
                else (config.n_e + 2,))
        if cells_ext.shape != want:
            raise ValidationError(
                f"terminal cells shaped {cells_ext.shape}, expected {want}"
            )
        worst = max(float((-cells_ext).max()), float((cells_ext - 1.0).max()))
        if worst > 1e-9:
            raise ValidationError(f"terminal cells leave [0, 1] by {worst:.3g}")
        term_label = "cells"
    else:
        if terminal is None:
            raise ValidationError("need a terminal surface or terminal cells")
        centres_ext = np.concatenate([[e_nodes[0] - de], e_nodes, [e_nodes[-1] + de]])
        cells_ext = _project_terminal(terminal, centres_ext, de, p_nodes)
        term_label = terminal.label
    phi_gl, phi_gr = cells_ext[..., 0], cells_ext[..., -1]
    phi_cells = cells_ext[..., 1:-1]

    flux = make_flux(coeffs, p_nodes)
    span = tau - t0
    stab_rate = _stability_rate(coeffs, p_nodes, config.viscosity, de)
    steps = _step_sizes(span, config, stab_rate)
    n_steps = len(steps)
    courant = float(steps.max()) * stab_rate
    # at a Courant number of at most 1 the march is monotone and discounts
    # towards zero, so every state it reaches, ghost cells included, stays
    # inside this range; an explicit n_steps may break that promise
    upwind = None
    if courant <= 1.0:
        upwind = flux.upwind_side(min(0.0, float(cells_ext.min())),
                                  max(1.0, float(cells_ext.max())))
    # steps run terminal side first, so any shorter remainder step lands
    # between the first two stored slices
    times = tau - np.concatenate([[0.0], np.cumsum(steps)])[::-1]
    times[0] = t0
    times[-1] = tau

    grid_meta = {
        "terminal_hash": hashlib.sha256(np.ascontiguousarray(phi_cells).tobytes()).hexdigest(),
        "terminal_label": term_label,
        # retired settings, kept at their one value so headers stay as they were
        "flux_scheme": "godunov",
        "cfl_target": config.cfl_target,
        "n_steps": n_steps,
        "viscosity": config.viscosity,
        "mollify_width": 0.0,
        "mono_l1": coeffs.mono_l1,
        "lipschitz_L": coeffs.lipschitz_L,
        "coefficients_label": coeffs.label,
    }
    if meta:
        grid_meta.update(meta)
    start, stretches = _band_schedule(phi_cells, phi_gl, phi_gr, steps, coeffs.rate,
                                      config.viscosity, upwind)
    # the march hands over slices n_steps, ..., 0; with a sink the grid
    # keeps the last one only
    kept = n_steps + 1 if sink is None else 1
    grid = ValueGrid(times=times, e_nodes=e_nodes,
                     values=np.empty((kept,) + phi_cells.shape), rate=coeffs.rate,
                     p_nodes=p_nodes, meta=grid_meta, stretches=stretches)
    if sink is not None:
        sink.open(grid, (n_steps + 1,) + phi_cells.shape)

    def put(it, cells, c0, bound):
        if it < kept:
            SliceSink.whole(grid.values[it], cells, c0, bound)
        if sink is not None:
            sink.put(it, cells, c0, bound)

    if p_nodes is not None:
        dp = p_nodes[1] - p_nodes[0]
        b_col = np.asarray(coeffs.drift(p_nodes), dtype=float)[:, None]
        a_col = np.asarray(coeffs.vol(p_nodes), dtype=float)[:, None] ** 2
        p_ctx = (b_col, a_col, dp)
    else:
        p_ctx = None

    started = time.perf_counter()
    _march(phi_cells, phi_gl, phi_gr, put, flux, coeffs.rate, steps, de,
           config.viscosity, p_ctx, (upwind, start, stretches))
    took = time.perf_counter() - started
    _log.debug("solve_one_period: %d steps, Courant number %.4g, %s flux (%s), band %.1f%% "
               "of %d columns; march %.4f s, %.1f us per step", n_steps, courant,
               "general" if upwind is None else f"one-sided ({upwind} state)",
               "closed form" if flux._table is None else "table",
               100.0 * sum(c1 - c0 for c0, c1, _ in stretches[:-1]) / (n_steps * config.n_e),
               config.n_e, took, 1e6 * took / n_steps)
    return grid if sink is None else replace(grid, times=times[:1], stretches=stretches[:1])


# ----------------------------------------------------------------------
# diagnostics
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class KernelDiagnostics:
    """Structural invariant scan of a solved grid.

    Hard invariants decide ``passed``: the range bound, and monotonicity
    in ``e`` measured net of the terminal data's own defect (a linked
    terminal may legitimately fall in emissions, as the next period's
    field read at a reserve-rule cap does where the reserve releases
    allowances, and the scheme may only shrink that defect, never add
    to it).  The Lipschitz quotient excess is reported and
    noted when it exceeds the headroom but does not gate: at a sonic
    corner, where the flux minimiser coincides with a plateau of the
    solution, a monotone first-order scheme carries a cell-scale
    difference quotient whose size is set by the elapsed time alone, so
    the smooth-solution bound cannot be met at any resolution.  The
    boundary and tail figures are informative.
    """

    max_range_violation: float
    max_monotonicity_violation: float
    terminal_monotonicity_defect: float
    scheme_added_monotonicity: float
    lipschitz_excess: float
    boundary_left: float
    boundary_right_residual: float
    left_tail_mass: float
    passed: bool
    notes: tuple = ()


def diagnostics(grid: ValueGrid, mono_l1: float, tol: float = 1e-12,
                lipschitz_headroom: float = 0.05, min_age: float = 0.1) -> KernelDiagnostics:
    """Scan a solved grid; ``mono_l1`` is the rate's monotonicity constant.

    The scan reads ``grid.values`` once, one time slice at a time and in
    order, each slice as its stretch and the two constants beside it, so
    the slices may come straight from a file (:func:`gridio.read_grid`
    with ``scan``) and none is expanded.  It reduces over the slice with
    each constant run cut to two columns: the same extrema, end columns
    and emissions differences as the whole slice, less repeated zero
    differences.  It keeps six extrema and the right-edge column per
    slice.  Max and min are exact and propagate NaN, so each figure is the
    whole-grid reduction's, up to the sign of a zero.
    """
    v = grid.values
    shape = v.shape[1:]
    n, n_e = v.shape[0], shape[-1]
    ages = grid.tau - grid.times
    bounds = np.exp(-grid.rate * ages)
    de = grid.delta_e
    tail_idx = np.nonzero(grid.e_nodes < 0.0)[0]

    # the cut slice and its differences go to two buffers: fresh ones may
    # be mapped and paged in again on every slice
    rows = math.prod(shape[:-1])
    sbuf, dbuf = np.empty(rows * n_e), np.empty(rows * n_e)

    def viewed(buf, width):
        return buf[:rows * width].reshape(shape[:-1] + (width,))

    over, under, dmin, dmax, lefts = np.zeros((5, n))
    # the right-edge residual needs the last slice, which comes last
    edges = np.empty((n,) + shape[:-1])
    tail_mass = 0.0
    # an array's slices are whole stretches
    stretches = ((s, 0, 0.0) for s in v) if isinstance(v, np.ndarray) else v.stretches()
    for k, (cells, c0, bound) in enumerate(stretches):
        w = cells.shape[-1]
        if k == 0 and tail_idx.size:
            # the same elements as the whole slice's, summed in the same order
            if c0 <= tail_idx[0] and tail_idx[-1] < c0 + w:
                s, idx = cells, tail_idx - c0
            else:
                s, idx = viewed(sbuf, n_e), tail_idx
                SliceSink.whole(s, cells, c0, bound)
            tail_mass = float(np.max(np.take(s, idx, axis=-1).sum(axis=-1)) * de)
        a, z = min(c0, 2), min(n_e - c0 - w, 2)
        s = cells
        if a or z:
            s = viewed(sbuf, a + w + z)
            s[..., :a] = 0.0
            s[..., a:a + w] = cells
            s[..., a + w:] = bound
        # rounding is monotone: max(s - b) is max(s) - b, and max(-s) is -min(s)
        over[k] = s.max() - bounds[k]
        under[k] = -s.min()
        # np.diff along emissions, into dbuf; delta_e needs two columns
        d = np.subtract(s[..., 1:], s[..., :-1], out=viewed(dbuf, s.shape[-1] - 1))
        dmin[k], dmax[k] = d.min(), d.max()
        lefts[k] = np.abs(s[..., 0]).max()
        edges[k] = s[..., -1]
    range_viol = max(float(over.max()), float(under.max()))

    per_slice = np.maximum(0.0, -dmin)
    mono_viol = float(per_slice.max())
    term_defect = float(per_slice[-1])
    mono_added = float(max(0.0, per_slice[:-1].max() - term_defect)) \
        if per_slice.size > 1 else 0.0

    aged = ages >= min_age - 1e-12
    q = dmax / de
    excess = (q * mono_l1 * ages - 1.0)[aged]
    lip_excess = max(-1.0, float(excess.max())) if excess.size else -1.0

    left = float(lefts.max())
    rights = np.abs(edges - bounds.reshape((n,) + (1,) * (edges.ndim - 1)) * edges[-1])
    right_res = max(0.0, float(rights.max()))

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
