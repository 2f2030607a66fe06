"""One-period pricing kernel.

Solves, backward from a terminal surface ``phi``, the degenerate
quasilinear equation satisfied by the allowance price field

    d_t v + mu(p, v) d_e v + b(p) d_p v + 0.5 sigma(p)^2 d_pp v = r v,

with the optional artificial-viscosity variant adding
``0.5 eps^2 (d_ee + d_pp)``.  In backward time ``s = tau - t`` the
emissions direction becomes a scalar conservation law with convex flux

    f(p, y) = -M(p, y),            M(p, y) = int_0^y mu(p, s) ds,

so a monotone finite-volume update (Godunov or Engquist-Osher) selects
the correct weak solution and inherits the comparison principle exactly,
node by node.  The discount term is integrated exactly by a factor
``exp(-r dt)`` per step, which keeps constant-in-space states constant in
space to machine precision.

State layout: the emissions axis is always last; a factor axis, when
present, sits immediately before it; a batch axis over recorded-emissions
slices, when present, comes first.  Stored grids use the order
``(t, p, e, eparam)`` with absent axes dropped.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import product
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from .errors import CoverageError, SolverError, ValidationError
from .model import CoefficientSet, TerminalSurface

__all__ = [
    "SolverConfig",
    "ValueGrid",
    "FluxModel",
    "make_flux",
    "mollify_terminal",
    "solve_one_period",
    "lookup",
    "evaluate",
    "diagnostics",
    "KernelDiagnostics",
]

_GL8_X, _GL8_W = np.polynomial.legendre.leggauss(8)
_FLUX_SCHEMES = ("godunov", "engquist-osher")
_SLACK = 1e-9  # relative-position tolerance of the stored box


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
    mollify_width: float = 0.0
    flux_scheme: str = "godunov"

    def __post_init__(self):
        if not self.e_max > self.e_min:
            raise ValidationError("need e_max > e_min")
        if self.n_e < 8:
            raise ValidationError("need at least 8 emission cells")
        if not 0.0 < self.cfl_target <= 1.0:
            raise ValidationError("cfl_target must lie in (0, 1]")
        if self.viscosity < 0 or self.mollify_width < 0:
            raise ValidationError("viscosity and mollify_width must be >= 0")
        if self.flux_scheme not in _FLUX_SCHEMES:
            raise ValidationError(f"flux_scheme must be one of {_FLUX_SCHEMES}")
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

    ``values`` is stored in ``(t, p, e, eparam)`` order with absent axes
    dropped.  The final time slice holds the projected terminal data;
    the field's left limit at the period end is the last interior slice.
    """

    times: np.ndarray
    e_nodes: np.ndarray
    values: np.ndarray
    rate: float
    p_nodes: Optional[np.ndarray] = None
    eparam_nodes: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

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
    def has_eparam(self) -> bool:
        return self.eparam_nodes is not None

    @property
    def delta_e(self) -> float:
        return float(self.e_nodes[1] - self.e_nodes[0])

    @property
    def last_interior_time(self) -> float:
        return float(self.times[-2])

    def at_start(self, p, e, eparam=None):
        """Field value on the first stored slice (start of the period)."""
        return evaluate(self, self.t0, p, e, eparam)

    def start_slice(self) -> np.ndarray:
        return self.values[0]

    def __repr__(self):  # keep array dumps out of logs
        shape = "x".join(str(n) for n in self.values.shape)
        return (f"ValueGrid(t=[{self.t0:g},{self.tau:g}], shape={shape}, "
                f"rate={self.rate:g})")


def _locate(nodes: np.ndarray, x):
    """Uniform-grid bracketing indices, weights and in-range mask."""
    pos = (np.asarray(x, dtype=float) - nodes[0]) / (nodes[1] - nodes[0])
    ok = (pos >= -_SLACK) & (pos <= nodes.size - 1 + _SLACK)
    i = np.clip(np.floor(pos).astype(np.int64), 0, nodes.size - 2)
    w = np.clip(pos - i, 0.0, 1.0)
    return i, w, ok, pos


def _query_axes(grid: ValueGrid, p, e, eparam):
    """``(name, nodes, query)`` for each stored spatial axis, in order."""
    axes = []
    if grid.has_p:
        if p is None:
            raise ValidationError("grid has a factor axis; pass p")
        axes.append(("factor", grid.p_nodes, p))
    axes.append(("emissions", grid.e_nodes, e))
    if grid.has_eparam:
        if eparam is None:
            raise ValidationError("grid has a recorded-emissions axis; pass eparam")
        axes.append(("recorded emissions", grid.eparam_nodes, eparam))
    return axes


def _interp_slice(S: np.ndarray, located):
    """Multilinear interpolation on one stored time slice."""
    acc = 0.0
    for corner in product((0, 1), repeat=len(located)):
        w = 1.0
        idx = []
        for (i, wt), c in zip(located, corner):
            w = w * (wt if c else (1.0 - wt))
            idx.append(i + c)
        acc = acc + w * S[tuple(idx)]
    return acc


def lookup(grid: ValueGrid, t: float, p, e, eparam=None):
    """Multilinear field value at time ``t`` with an in-box mask.

    ``t`` is clamped to ``[t0, tau]``; the stored time axis may hold
    one shorter remainder step, so its bracket comes from a search.
    Points outside the spatial box are clamped onto it for the value and
    marked ``False`` in the mask; the caller decides what that means.
    Returns ``(value, in_box)``.
    """
    times = grid.times
    t = min(max(t, times[0]), times[-1])
    it = min(max(int(np.searchsorted(times, t, side="right")) - 1, 0), times.size - 2)
    wt = min(max((t - times[it]) / (times[it + 1] - times[it]), 0.0), 1.0)

    located, in_box = [], True
    for _, nodes, x in _query_axes(grid, p, e, eparam):
        i, w, ok, _ = _locate(nodes, x)
        located.append((i, w))
        in_box = in_box & ok
    value = _interp_slice(grid.values[it], located)
    if wt > 0.0:
        value = (1.0 - wt) * value + wt * _interp_slice(grid.values[it + 1], located)
    return value, in_box


def evaluate(grid: ValueGrid, t: float, p, e, eparam=None):
    """Multilinear interpolation of the field at time ``t``.

    ``t`` must lie in ``[t0, tau]``; the final slice is the projected
    terminal datum, so queries meant as left limits should stay at or
    below ``grid.last_interior_time``.  Queries outside the stored box
    raise :class:`CoverageError`.
    """
    t = float(t)
    times = grid.times
    if t < times[0] - _SLACK or t > times[-1] + _SLACK:
        raise CoverageError(
            f"time query outside grid range [{times[0]:g}, {times[-1]:g}] (t={t:g})"
        )
    value, in_box = lookup(grid, t, p, e, eparam)
    if not np.all(in_box):
        for name, nodes, x in _query_axes(grid, p, e, eparam):
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
    solves ``mu(p, y*) = 0`` and is what the Godunov and
    Engquist-Osher formulas need.  Array evaluation broadcasts the
    factor axis at position -2 when the model carries factor rows.
    """

    def __init__(self, coeffs: CoefficientSet, p_nodes: Optional[np.ndarray],
                 table_span=(-0.5, 1.5), table_cells: int = 4096):
        self._coeffs = coeffs
        self._p_nodes = p_nodes
        self._rows = p_nodes is not None
        mu = coeffs.emissions_rate

        if self._rows:
            p_col = np.asarray(p_nodes, dtype=float)[:, None]
        else:
            p_col = None
        self._p_col = p_col

        if coeffs.emissions_antiderivative is not None:
            anti = coeffs.emissions_antiderivative
            self._f = lambda y: -np.asarray(anti(p_col, y), dtype=float)
            self._table = None
        else:
            # Dense cumulative Gauss-Legendre table with Hermite-cubic
            # evaluation (slopes are mu itself, known exactly).
            y0, y1 = table_span
            knots = np.linspace(y0, y1, table_cells + 1)
            h = knots[1] - knots[0]
            mids = 0.5 * (knots[:-1] + knots[1:])
            pts = mids[:, None] + 0.5 * h * _GL8_X[None, :]
            if self._rows:
                vals = mu(p_col[..., None], pts[None, ...])
                incr = (vals * (0.5 * _GL8_W)).sum(axis=-1) * h
                M = np.concatenate([np.zeros((incr.shape[0], 1)), np.cumsum(incr, axis=-1)], axis=-1)
                slopes = np.asarray(mu(p_col, knots[None, :]), dtype=float)
            else:
                vals = mu(None, pts)
                incr = (vals * (0.5 * _GL8_W)).sum(axis=-1) * h
                M = np.concatenate([[0.0], np.cumsum(incr)])
                slopes = np.asarray(mu(None, knots), dtype=float)
            # anchor M(0) = 0 exactly at the knot closest to zero
            i0 = int(round(-y0 / h))
            M = M - M[..., i0:i0 + 1]
            self._table = (knots[0], h, knots.size, M, slopes)
            self._f = self._f_table

        self.y_star = self._solve_y_star()
        if self._rows:
            self._ystar_col = self.y_star[:, None]
        else:
            self._ystar_col = self.y_star
        self.f_at_y_star = self._f(self._ystar_col)

    # -- evaluation --------------------------------------------------

    def _f_table(self, y):
        y0, h, n, M, slopes = self._table
        y = np.asarray(y, dtype=float)
        pos = np.clip((y - y0) / h, 0.0, n - 1.0)
        i = np.clip(np.floor(pos).astype(np.int64), 0, n - 2)
        t = pos - i
        if self._rows:
            rows = np.arange(M.shape[0])[:, None]
            Mi, Mi1 = M[rows, i], M[rows, i + 1]
            mi, mi1 = slopes[rows, i], slopes[rows, i + 1]
        else:
            Mi, Mi1 = M[i], M[i + 1]
            mi, mi1 = slopes[i], slopes[i + 1]
        t2, t3 = t * t, t * t * t
        val = (Mi * (2 * t3 - 3 * t2 + 1) + h * mi * (t3 - 2 * t2 + t)
               + Mi1 * (-2 * t3 + 3 * t2) + h * mi1 * (t3 - t2))
        return -val

    def f(self, y):
        """Flux at states ``y`` (factor rows broadcast at axis -2)."""
        return self._f(y)

    # -- structure ---------------------------------------------------

    def _solve_y_star(self):
        mu = self._coeffs.emissions_rate
        l1 = self._coeffs.mono_l1

        def one(p):
            m0 = float(mu(p, 0.0))
            if m0 == 0.0:
                return 0.0
            other = m0 / l1
            pad = 1e-9 * (1.0 + abs(other))
            lo, hi = (0.0, other + pad) if m0 > 0 else (other - pad, 0.0)
            return float(brentq(lambda yy: float(mu(p, yy)), lo, hi,
                                xtol=1e-14, rtol=8.9e-16))

        if not self._rows:
            return one(None)
        return np.array([one(float(pv)) for pv in self._p_nodes])

    def interface(self, ul, ur, scheme: str):
        """Monotone numerical flux at interfaces between ``ul`` and ``ur``."""
        ys = self._ystar_col
        if scheme == "godunov":
            lo = np.minimum(ul, ur)
            hi = np.maximum(ul, ur)
            inner = self._f(np.clip(ys, lo, hi))
            outer = np.maximum(self._f(ul), self._f(ur))
            return np.where(ul <= ur, inner, outer)
        if scheme == "engquist-osher":
            return (self._f(np.maximum(ul, ys)) + self._f(np.minimum(ur, ys))
                    - self.f_at_y_star)
        raise ValidationError(f"unknown flux scheme '{scheme}'")


def make_flux(coeffs: CoefficientSet, p_nodes: Optional[np.ndarray] = None) -> FluxModel:
    """Build the numerical flux for a coefficient set.

    Uses the closed-form antiderivative when the coefficients carry one;
    otherwise tabulates the integral of the emission rate densely enough
    that evaluation error stays below 1e-10 for smooth rates.
    """
    if coeffs.dim_p > 0 and p_nodes is None:
        raise ValidationError("factor coefficients need the factor nodes for the flux")
    return FluxModel(coeffs, p_nodes)


# ----------------------------------------------------------------------
# terminal handling
# ----------------------------------------------------------------------

def mollify_terminal(surface: TerminalSurface, width: float) -> TerminalSurface:
    """Convolve a terminal surface in the emissions variable.

    Uses a compactly supported smooth bump of total width ``width``,
    discretised on Gauss-Legendre nodes with weights normalised to sum
    to one exactly, so constants, the value range, monotonicity in ``e``
    and any factor-Lipschitz bound are preserved.  ``width == 0`` is the
    identity.
    """
    if width < 0:
        raise ValidationError("mollifier width must be >= 0")
    if width == 0.0:
        return surface
    x, w = np.polynomial.legendre.leggauss(33)
    offsets = 0.5 * width * x
    bump = np.exp(-1.0 / np.maximum(1.0 - x * x, 1e-300))
    wts = w * bump
    wts = wts / wts.sum()
    base = surface.fn

    def fn(p, e, eparam=None):
        e = np.asarray(e, dtype=float)
        acc = 0.0
        for off, wt in zip(offsets, wts):
            acc = acc + wt * np.asarray(base(p, e - off, eparam), dtype=float)
        return acc

    return TerminalSurface(fn=fn, lipschitz_p=surface.lipschitz_p,
                           representation=surface.representation,
                           parametrized=surface.parametrized,
                           label=surface.label + f"~mollified({width:g})")


def _project_terminal(surface: TerminalSurface, e_centres_ext: np.ndarray, de: float,
                      p_nodes: Optional[np.ndarray], eparam_nodes: Optional[np.ndarray]):
    """Cell averages of the terminal surface, ghost cells included.

    Returns an array shaped ``([n_ep,] [n_p,] n_e + 2)``; the first and
    last entries along the emissions axis are the ghost-cell averages.
    """
    pts = e_centres_ext[:, None] + (0.5 * de) * _GL8_X[None, :]
    wts = 0.5 * _GL8_W
    if p_nodes is None and eparam_nodes is None:
        vals, want = surface(None, pts, None), pts.shape
    elif eparam_nodes is None:
        vals = surface(p_nodes[:, None, None], pts[None, :, :], None)
        want = (p_nodes.size,) + pts.shape
    elif p_nodes is None:
        vals = surface(None, pts[None, :, :], eparam_nodes[:, None, None])
        want = (eparam_nodes.size,) + pts.shape
    else:
        vals = surface(p_nodes[None, :, None, None], pts[None, None, :, :],
                       eparam_nodes[:, None, None, None])
        want = (eparam_nodes.size, p_nodes.size) + pts.shape
    # surfaces that ignore an argument return collapsed axes; restore them
    vals = np.broadcast_to(np.asarray(vals, dtype=float), want)
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


def _march(u, phi_gl, phi_gr, out_store, flux: FluxModel, scheme: str,
           r: float, steps: np.ndarray, de: float, eps: float,
           p_ctx):
    """Explicit backward march; writes every time slice through out_store."""
    n_steps = len(steps)
    bound = 1.0
    out_store(n_steps, u)
    for k in range(n_steps):
        dt = float(steps[k])
        disc = math.exp(-r * dt)
        lam = dt / de
        pad = np.empty(u.shape[:-1] + (u.shape[-1] + 2,), dtype=float)
        pad[..., 1:-1] = u
        pad[..., 0] = bound * phi_gl
        pad[..., -1] = bound * phi_gr
        F = flux.interface(pad[..., :-1], pad[..., 1:], scheme)
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
        out_store(n_steps - 1 - k, u)
        if (k + 1) % 32 == 0 and not np.all(np.isfinite(u)):
            raise SolverError(f"state became non-finite at step {k + 1}/{n_steps}")
    if not np.all(np.isfinite(u)):
        raise SolverError("state became non-finite at the final step")
    return u


def solve_one_period(coeffs: CoefficientSet, terminal: Optional[TerminalSurface],
                     t0: float, tau: float, config: SolverConfig,
                     eparam_nodes: Optional[np.ndarray] = None,
                     threads: int = 1, meta: Optional[dict] = None,
                     terminal_cells_ext: Optional[np.ndarray] = None) -> ValueGrid:
    """Solve one compliance period backward from its terminal surface.

    When ``eparam_nodes`` is given the terminal is sliced at each node
    and all slices are marched as one batch (they share the grid, flux
    and time step); the result carries a recorded-emissions axis.
    ``threads`` may split that batch across a thread pool; results are
    assembled by slice index, so they do not depend on scheduling.

    ``terminal_cells_ext`` bypasses projection entirely: it supplies the
    terminal cell averages directly, ghost cells included, shaped
    ``([n_p,] n_e + 2)``.  Fixed-point iterations use this to keep the
    terminal a pure translation of stored data, with no quadrature in
    between.  Mollification does not apply to cell data.
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
        if eparam_nodes is not None:
            raise ValidationError("cell terminals do not batch over recorded emissions")
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
        term_width = 0.0
    else:
        if terminal is None:
            raise ValidationError("need a terminal surface or terminal cells")
        surface = mollify_terminal(terminal, config.mollify_width)
        centres_ext = np.concatenate([[e_nodes[0] - de], e_nodes, [e_nodes[-1] + de]])
        cells_ext = _project_terminal(surface, centres_ext, de, p_nodes, eparam_nodes)
        term_label = surface.label
        term_width = config.mollify_width
    phi_gl, phi_gr = cells_ext[..., 0], cells_ext[..., -1]
    phi_cells = cells_ext[..., 1:-1]

    flux = make_flux(coeffs, p_nodes)
    span = tau - t0
    steps = _step_sizes(span, config,
                        _stability_rate(coeffs, p_nodes, config.viscosity, de))
    n_steps = len(steps)
    # steps run terminal side first, so any shorter remainder step lands
    # between the first two stored slices
    times = tau - np.concatenate([[0.0], np.cumsum(steps)])[::-1]
    times[0] = t0
    times[-1] = tau

    has_ep = eparam_nodes is not None
    storage_shape = phi_cells.shape[1:] + (phi_cells.shape[0],) if has_ep else phi_cells.shape
    values = np.empty((n_steps + 1,) + storage_shape, dtype=float)

    if p_nodes is not None:
        dp = p_nodes[1] - p_nodes[0]
        b_col = np.asarray(coeffs.drift(p_nodes), dtype=float)[:, None]
        a_col = np.asarray(coeffs.vol(p_nodes), dtype=float)[:, None] ** 2
        p_ctx = (b_col, a_col, dp)
    else:
        p_ctx = None

    def run_chunk(sel):
        if has_ep:
            def store(it, state):
                values[it][..., sel] = np.moveaxis(state, 0, -1)
            _march(phi_cells[sel].copy(), phi_gl[sel], phi_gr[sel], store, flux,
                   config.flux_scheme, coeffs.rate, steps, de,
                   config.viscosity, p_ctx)
        else:
            def store(it, state):
                values[it] = state
            _march(phi_cells.copy(), phi_gl, phi_gr, store, flux,
                   config.flux_scheme, coeffs.rate, steps, de,
                   config.viscosity, p_ctx)

    if has_ep and threads > 1 and eparam_nodes.size >= 2 * threads:
        bounds = np.linspace(0, eparam_nodes.size, threads + 1).astype(int)
        chunks = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_chunk, chunks))
    else:
        run_chunk(slice(None))

    grid_meta = {
        "terminal_hash": hashlib.sha256(np.ascontiguousarray(phi_cells).tobytes()).hexdigest(),
        "terminal_label": term_label,
        "flux_scheme": config.flux_scheme,
        "cfl_target": config.cfl_target,
        "n_steps": n_steps,
        "viscosity": config.viscosity,
        "mollify_width": term_width,
        "mono_l1": coeffs.mono_l1,
        "lipschitz_L": coeffs.lipschitz_L,
        "coefficients_label": coeffs.label,
    }
    if meta:
        grid_meta.update(meta)
    return ValueGrid(times=times, e_nodes=e_nodes, values=values, rate=coeffs.rate,
                     p_nodes=p_nodes,
                     eparam_nodes=None if not has_ep else np.asarray(eparam_nodes, float),
                     meta=grid_meta)


# ----------------------------------------------------------------------
# diagnostics
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class KernelDiagnostics:
    """Structural invariant scan of a solved grid.

    Hard invariants decide ``passed``: the range bound, and monotonicity
    in ``e`` measured net of the terminal data's own defect (a linked
    terminal such as a reserve-rule cap is legitimately non-monotone in
    recorded emissions, and the scheme may only shrink that defect,
    never add to it).  The Lipschitz quotient excess is reported and
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
    n_slices: int
    passed: bool
    notes: tuple = ()


def diagnostics(grid: ValueGrid, mono_l1: float, tol: float = 1e-12,
                lipschitz_headroom: float = 0.05, min_age: float = 0.1) -> KernelDiagnostics:
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

    lip_excess = -1.0
    de = grid.delta_e
    for it in range(v.shape[0]):
        age = ages[it]
        if age < min_age - 1e-12:
            continue
        q = float(np.max(np.take(diffs, it, axis=0))) / de if diffs.size else 0.0
        lip_excess = max(lip_excess, q * mono_l1 * age - 1.0)

    left = float(np.max(np.abs(np.take(v, 0, axis=e_axis))))
    term_right = np.take(v[-1], -1, axis=e_axis - 1)
    right_res = 0.0
    for it in range(v.shape[0]):
        slice_right = np.take(v[it], -1, axis=e_axis - 1)
        right_res = max(right_res, float(np.max(np.abs(slice_right - bounds[it] * term_right))))

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
        n_slices=int(v.shape[0]),
        passed=passed,
        notes=tuple(notes),
    )
