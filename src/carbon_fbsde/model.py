"""Market primitives: coefficients, caps, terminal surfaces, market specs.

The model layer is deliberately dumb about numerics.  It holds the market
description (factor dynamics, emission rate, compliance caps, terminal
payout surface) and checks the coefficient properties the pricing theory
needs: Lipschitz bounds and strict monotonicity of the emission rate in
the price variable.  Terminal surfaces are checked where the solver
meets them: ``pde_kernel`` refuses projected values outside [0, 1], and
``pde_kernel.diagnostics`` reports their monotonicity defect.

Conventions
-----------
* ``p`` is the exogenous factor state (dimension ``dim_p``, possibly 0),
  ``y`` the allowance price, ``e`` cumulative emissions, and ``eparam``
  the emissions level recorded at the start of the current period (only
  relevant when a cap rule feeds back on it, as the reserve rule does).
* All user-supplied callables must accept numpy arrays and broadcast.
  For ``dim_p == 0`` the factor argument is passed as ``None`` and must
  be ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CoverageError, ValidationError

__all__ = [
    "CoefficientSet",
    "SampleBox",
    "validate_coefficients",
    "CapFunction",
    "make_cap_allocation",
    "make_cap_msr",
    "TerminalSurface",
    "indicator_terminal",
    "smoothed_indicator",
    "link_terminal",
    "MarketSpec",
]


# ----------------------------------------------------------------------
# coefficients
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientSet:
    """Dynamics of the factor process and the emission rate.

    Parameters
    ----------
    dim_p:
        Dimension of the factor state; 0 means no factor.
    emissions_rate:
        ``mu(p, y)``, the instantaneous emission rate as a function of
        factor state and allowance price.  Must be strictly decreasing
        in ``y`` with one-sided slopes between ``mono_l1`` and
        ``mono_l2``.
    rate:
        Riskless interest rate ``r >= 0``.
    lipschitz_L:
        Common Lipschitz bound ``L >= 1`` for drift, volatility and
        emission rate.
    mono_l1, mono_l2:
        Lower and upper monotonicity constants of ``-mu`` in ``y``;
        ``1/L <= l1 <= l2 <= L``.
    drift, vol:
        ``b(p)`` and ``sigma(p)`` for the factor; required when
        ``dim_p > 0``.
    emissions_slope:
        The constant ``m2`` of a rate affine in the price, ``mu(p, 0) -
        m2 y``, checked by :func:`validate_coefficients`.  The solver then
        has the flux in closed form; otherwise it tabulates it.
    ou_kappa, ou_sigma, ou_ref:
        Set when the factor is the mean-reverting Gaussian process
        ``dP = -kappa (P - ref) dt + sigma dW``; the simulator then
        steps the factor by its exact transition instead of an Euler
        update.  Leave ``ou_kappa`` ``None`` for a generic factor.
    """

    dim_p: int
    emissions_rate: Callable
    rate: float
    lipschitz_L: float
    mono_l1: float
    mono_l2: float
    drift: Optional[Callable] = None
    vol: Optional[Callable] = None
    emissions_slope: Optional[float] = None
    ou_kappa: Optional[float] = None
    ou_sigma: Optional[float] = None
    ou_ref: float = 0.0
    label: str = ""

    def __post_init__(self):
        if self.dim_p < 0:
            raise ValidationError("dim_p must be >= 0")
        if self.rate < 0:
            raise ValidationError("interest rate must be >= 0")
        if not self.lipschitz_L >= 1.0:
            raise ValidationError("lipschitz_L must be >= 1")
        ok = (1.0 / self.lipschitz_L) <= self.mono_l1 <= self.mono_l2 <= self.lipschitz_L
        if not ok:
            raise ValidationError(
                "monotonicity constants must satisfy 1/L <= l1 <= l2 <= L, got "
                f"l1={self.mono_l1}, l2={self.mono_l2}, L={self.lipschitz_L}"
            )
        if self.dim_p > 0 and (self.drift is None or self.vol is None):
            raise ValidationError("drift and vol are required when dim_p > 0")

    def mu(self, p, y):
        out = np.asarray(self.emissions_rate(p, y), dtype=float)
        return out

    def rate_range(self, p_nodes=None):
        """Lowest and highest emission rate over prices in [0, 1].

        The rate falls in ``y``, so the extremes sit at ``y = 1`` and
        ``y = 0`` of the given factor nodes (ignored when ``dim_p == 0``).
        """
        mu = self.emissions_rate
        if self.dim_p == 0:
            return float(mu(None, 1.0)), float(mu(None, 0.0))
        p = np.asarray(p_nodes, dtype=float)
        return (float(np.min(np.asarray(mu(p, np.ones_like(p)), dtype=float))),
                float(np.max(np.asarray(mu(p, np.zeros_like(p)), dtype=float))))

    def factor_reach(self, p0: float, span: float, p_nodes) -> float:
        """Largest ``|p|`` a 4-sigma factor excursion from ``p0`` reaches
        over a time ``span``, the volatility bounded on ``p_nodes``."""
        vol = float(np.max(np.asarray(self.vol(p_nodes), dtype=float)))
        return abs(p0) + 4.0 * vol * math.sqrt(span)

    def peak_speed(self, p_nodes=None) -> float:
        """Largest emission speed ``|mu|`` over prices in [0, 1]."""
        lo, hi = self.rate_range(p_nodes)
        return max(abs(lo), abs(hi))


@dataclass(frozen=True)
class SampleBox:
    """Axis-aligned box over (factor, price) used for sampled validation."""

    y_low: float = -0.25
    y_high: float = 1.25
    p_low: Optional[Sequence[float]] = None
    p_high: Optional[Sequence[float]] = None

    def p_bounds(self, dim_p: int):
        if dim_p == 0:
            return None, None
        lo = np.full(dim_p, -1.0) if self.p_low is None else np.asarray(self.p_low, float)
        hi = np.full(dim_p, 1.0) if self.p_high is None else np.asarray(self.p_high, float)
        if lo.shape != (dim_p,) or hi.shape != (dim_p,) or np.any(hi <= lo):
            raise ValidationError("sample box factor bounds are inconsistent")
        return lo, hi


# sampled validation: point pairs drawn, relative slack
_N_SAMPLES = 4096
_RTOL = 1e-6


def _r_sequence(n: int, dim: int) -> np.ndarray:
    """Points ``1..n`` of the additive recurrence R_d in ``[0, 1)^dim``.

    Point ``i`` is ``frac(0.5 + i / phi^k)`` on axis ``k = 1..dim``, with
    ``phi`` the positive root of ``x^(dim + 1) = x + 1``: a deterministic
    low-discrepancy sequence that fills the cube evenly.
    """
    phi = 2.0
    for _ in range(64):  # a contraction onto the root from above
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alpha = phi ** -np.arange(1.0, dim + 1.0)
    return (0.5 + np.arange(1.0, n + 1.0)[:, None] * alpha) % 1.0


def validate_coefficients(coeffs: CoefficientSet, box: SampleBox = SampleBox()) -> tuple:
    """Check the declared Lipschitz and monotonicity constants on samples.

    Takes 4096 point pairs ``(p, y), (p', y')`` inside ``box`` from the
    additive recurrence R_d over ``(y, y', p, p')`` (over ``(y, y')``
    without a factor) and measures the worst difference quotients of
    ``mu`` (jointly in ``(p, y)``), of the drift and of the volatility,
    plus the one-sided monotonicity ratio

        (y - y') * (mu(p, y') - mu(p, y)) / |y - y'|^2

    at fixed factor state (equal to ``emissions_slope``, when declared).
    Returns one message per measured value off its declared constant by
    more than a relative 1e-6, so an empty tuple passes.  Non-finite
    outputs raise :class:`ValidationError` immediately.
    """
    d = coeffs.dim_p
    u = _r_sequence(_N_SAMPLES, 2 + 2 * d)
    y_a, y_b = box.y_low + (box.y_high - box.y_low) * u[:, :2].T
    keep = np.abs(y_a - y_b) > 1e-9
    y_a, y_b, u = y_a[keep], y_b[keep], u[keep]

    if d > 0:
        lo, hi = box.p_bounds(d)
        p_a, p_b = lo + (hi - lo) * u[:, 2:2 + d], lo + (hi - lo) * u[:, 2 + d:]
        if d == 1:
            p_a, p_b = p_a[:, 0], p_b[:, 0]
        p_dist = np.abs(np.reshape(p_a - p_b, (y_a.size, -1))).sum(axis=1)
    else:
        p_a = p_b = None
        p_dist = 0.0

    mu_aa = coeffs.mu(p_a, y_a)
    mu_bb = coeffs.mu(p_b, y_b)
    mu_ab = coeffs.mu(p_a, y_b)  # same factor state as mu_aa
    for arr in (mu_aa, mu_bb, mu_ab):
        if not np.all(np.isfinite(arr)):
            raise ValidationError("emissions_rate returned non-finite values")

    lip_mu = float(np.max(np.abs(mu_aa - mu_bb) / (p_dist + np.abs(y_a - y_b))))
    ratio = (y_a - y_b) * (mu_ab - mu_aa) / (y_a - y_b) ** 2
    mono_min, mono_max = float(ratio.min()), float(ratio.max())

    lip_b = lip_s = 0.0
    if d > 0:
        ba, bb = coeffs.drift(p_a), coeffs.drift(p_b)
        sa, sb = coeffs.vol(p_a), coeffs.vol(p_b)
        for arr in (ba, bb, sa, sb):
            if not np.all(np.isfinite(np.asarray(arr, float))):
                raise ValidationError("drift or vol returned non-finite values")
        safe = np.where(p_dist > 1e-12, p_dist, np.inf)
        lip_b = float(np.max(np.abs(np.asarray(ba) - np.asarray(bb)) / safe))
        lip_s = float(np.max(np.abs(np.asarray(sa) - np.asarray(sb)) / safe))

    violations = []
    L, l1, l2 = coeffs.lipschitz_L, coeffs.mono_l1, coeffs.mono_l2
    if lip_mu > L * (1 + _RTOL):
        violations.append(f"mu Lipschitz {lip_mu:.6g} exceeds declared L={L}")
    if mono_min < l1 * (1 - _RTOL):
        violations.append(f"monotonicity ratio {mono_min:.6g} below declared l1={l1}")
    if mono_max > l2 * (1 + _RTOL):
        violations.append(f"monotonicity ratio {mono_max:.6g} above declared l2={l2}")
    m2 = coeffs.emissions_slope
    if m2 is not None and max(abs(mono_min - m2), abs(mono_max - m2)) > abs(m2) * _RTOL:
        violations.append(f"monotonicity ratio {mono_min:.6g}..{mono_max:.6g} off the "
                          f"declared emissions_slope={m2}")
    if lip_b > L * (1 + _RTOL):
        violations.append(f"drift Lipschitz {lip_b:.6g} exceeds declared L={L}")
    if lip_s > L * (1 + _RTOL):
        violations.append(f"vol Lipschitz {lip_s:.6g} exceeds declared L={L}")
    return tuple(violations)


# ----------------------------------------------------------------------
# caps
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CapFunction:
    """Cumulative allowance cap for one compliance date.

    ``level(eparam)`` maps the emissions recorded at the previous
    compliance date to the cap applying at this one.  ``constant_value``
    is set when the level does not depend on ``eparam`` at all; ``level``
    then returns that scalar, which broadcasts against any ``eparam``.
    A period whose cap does depend on it is solved at a constant stand-in
    and read moved by the difference (``pde_kernel.lookup_recorded``).
    """

    kind: str
    level_fn: Optional[Callable] = None
    constant_value: Optional[float] = None
    label: str = ""

    @property
    def is_constant(self) -> bool:
        return self.constant_value is not None

    def level(self, eparam=None):
        if self.is_constant:
            return self.constant_value
        if eparam is None:
            raise ValidationError(f"cap '{self.kind}' needs the recorded emissions argument")
        return np.asarray(self.level_fn(np.asarray(eparam, dtype=float)), dtype=float)

    @staticmethod
    def constant(value: float, kind: str = "constant", label: str = "") -> "CapFunction":
        return CapFunction(kind=kind, constant_value=float(value), label=label)


def make_cap_allocation(allocations: Sequence[float],
                        mode: str = "banking-borrowing-withdrawal") -> tuple:
    """Per-period caps from a schedule of fresh allowance allocations.

    With banking, borrowing (one period ahead) and withdrawal the cap at
    date ``k`` is the sum of the first ``min(k+1, q)`` allocations; drop
    borrowing and it is the sum of the first ``k``.  Either way the cap
    level is a constant, independent of recorded emissions.
    """
    if mode not in ("banking-borrowing-withdrawal", "banking-withdrawal"):
        raise ValidationError(f"unknown allocation mode '{mode}'")
    alloc = [float(c) for c in allocations]
    if not alloc or any(c <= 0 for c in alloc):
        raise ValidationError("allocations must be a non-empty sequence of positive numbers")
    q = len(alloc)
    caps = []
    for k in range(1, q + 1):
        upto = min(k + 1, q) if mode == "banking-borrowing-withdrawal" else k
        caps.append(CapFunction.constant(sum(alloc[:upto]), kind="affine-allocation",
                                         label=f"{mode}[{k}/{q}]"))
    return tuple(caps)


def make_cap_msr(c1: float, c2: float, kappa_low: float, kappa_high: float,
                 top_up: float, retain_fraction: float) -> tuple:
    """Two-period cap with a stability-reserve adjustment at the second date.

    The provisional net supply at the second date is ``c1 + c2`` minus
    the emissions recorded at the first.  Below ``kappa_low`` the
    reserve releases ``top_up`` extra allowances; inside the band the
    provisional figure stands; above ``kappa_high`` only the fraction
    ``retain_fraction`` survives.  The first date keeps the plain cap
    ``c1``.
    """
    if min(c1, c2) <= 0:
        raise ValidationError("allocations c1, c2 must be positive")
    if not (0 <= kappa_low <= kappa_high):
        raise ValidationError("need 0 <= kappa_low <= kappa_high")
    if top_up < 0:
        raise ValidationError("top_up must be >= 0")
    if not (0 < retain_fraction <= 1):
        raise ValidationError("retain_fraction must lie in (0, 1]")

    def level(eparam):
        provisional = (c1 + c2) - eparam
        adjusted = np.where(
            provisional < kappa_low, provisional + top_up,
            np.where(provisional > kappa_high, retain_fraction * provisional, provisional),
        )
        return adjusted + eparam

    first = CapFunction.constant(c1, kind="affine-allocation", label="msr[1/2]")
    second = CapFunction(kind="msr", level_fn=level, constant_value=None, label="msr[2/2]")
    return first, second


# ----------------------------------------------------------------------
# terminal surfaces
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TerminalSurface:
    """Terminal payout surface ``phi(p, e) in [0, 1]``, computed by ``fn``."""

    fn: Callable
    label: str = ""

    def __call__(self, p, e):
        return np.asarray(self.fn(p, e), dtype=float)


def indicator_terminal(cap: CapFunction) -> TerminalSurface:
    """Default terminal surface: one on or above the final cap, zero below."""

    def fn(p, e):
        e = np.asarray(e, dtype=float)
        return (e >= cap.level()).astype(float)

    return TerminalSurface(fn=fn, label=f"indicator({cap.kind})")


def smoothed_indicator(cap: CapFunction, width: float) -> TerminalSurface:
    """Cubic ramp of the given width replacing the sharp indicator."""
    if width <= 0:
        raise ValidationError("smoothing width must be positive")

    def fn(p, e):
        e = np.asarray(e, dtype=float)
        x = np.clip((e - cap.level()) / width + 0.5, 0.0, 1.0)
        return x * x * (3.0 - 2.0 * x)

    return TerminalSurface(fn=fn, label=f"smoothstep({cap.kind},w={width:g})")


def link_terminal(next_grid, cap: CapFunction, next_cap: CapFunction) -> TerminalSurface:
    """Terminal surface of a period from the solved field of the next one.

    Below the cap the payout is the next field at its own start time
    evaluated on the diagonal (recorded emissions equal to current
    emissions), through ``pde_kernel.lookup_recorded`` when ``next_cap``
    depends on them; on or above the cap the penalty is certain and the
    payout is 1.

    ``next_grid`` is a solved one-period grid, or its start slice.  Lookups are
    clamped to the stored axes within a two-cell slack band, which covers
    the ghost-cell quadrature points of a projection on the same grid
    (the domain margins keep the field flat there); anything farther out
    raises :class:`CoverageError`.
    """
    # pde_kernel imports this module
    from .pde_kernel import lookup_recorded, recorded_shifts

    e_ax = np.asarray(next_grid.e_nodes, dtype=float)
    e_lo, e_hi = float(e_ax[0]), float(e_ax[-1])
    slack = 2.0 * float(e_ax[1] - e_ax[0])
    lvl = cap.level()

    def fn(p, e):
        e = np.asarray(e, dtype=float)
        shape = np.broadcast(e, np.asarray(p)).shape
        below = np.broadcast_to(e < lvl, shape)
        out = np.ones(shape, dtype=float)
        if np.any(below):
            eb = np.broadcast_to(e, shape)[below]
            if eb.min() < e_lo - slack or eb.max() > e_hi + slack:
                raise CoverageError(
                    f"next field's emissions axis [{e_lo:g}, {e_hi:g}] does not "
                    f"cover the diagonal range [{eb.min():g}, {eb.max():g}] "
                    "even with ghost slack"
                )
            eb = np.clip(eb, e_lo, e_hi)
            pb = np.broadcast_to(p, shape)[below] if np.ndim(p) else p
            if next_cap.is_constant:
                out[below] = next_grid.at_start(pb, eb)
            else:
                shifts = recorded_shifts(next_grid, next_cap, eb)
                out[below] = lookup_recorded(next_grid, next_grid.t0, pb, eb, shifts)[0]
        return out

    return TerminalSurface(fn=fn, label=f"linked({cap.kind})")


# ----------------------------------------------------------------------
# market specification
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MarketSpec:
    """Full description of one cap-and-trade market.

    Finite markets carry explicit period ends ``T_1 < ... < T_q`` and one
    cap per end; the rolling (infinite-horizon) market carries a period
    length and a constant per-period allocation instead.  The penalty is
    normalised to 1; a market with another penalty rescales its price unit.
    """

    coefficients: CoefficientSet
    horizon: str = "finite"
    period_ends: tuple = ()
    caps: tuple = ()
    period_length: Optional[float] = None
    cap_per_period: Optional[float] = None
    terminal_kind: str = "indicator"
    terminal_width: float = 0.0
    label: str = ""

    def __post_init__(self):
        if self.horizon == "finite":
            ends = tuple(float(t) for t in self.period_ends)
            if not ends:
                raise ValidationError("finite market needs at least one period end")
            if any(e <= s for s, e in zip((0.0,) + ends, ends)):
                raise ValidationError("period ends must be strictly increasing and positive")
            if len(self.caps) != len(ends):
                raise ValidationError("need exactly one cap per period end")
            object.__setattr__(self, "period_ends", ends)
        elif self.horizon == "infinite":
            if not self.period_length or self.period_length <= 0:
                raise ValidationError("infinite market needs a positive period length")
            if self.cap_per_period is None or self.cap_per_period <= 0:
                raise ValidationError("infinite market needs a positive per-period cap")
        else:
            raise ValidationError(f"unknown horizon '{self.horizon}'")
        if self.terminal_kind not in ("indicator", "smoothed-indicator"):
            raise ValidationError(f"unknown terminal kind '{self.terminal_kind}'")
        if self.terminal_kind == "smoothed-indicator" and self.terminal_width <= 0:
            raise ValidationError("smoothed-indicator terminal needs a positive width")

    @property
    def n_periods(self) -> int:
        if self.horizon != "finite":
            raise ValidationError("n_periods is only defined for finite markets")
        return len(self.period_ends)

    def period_bounds(self, k: int):
        """Start and end time of period ``k`` (1-based)."""
        ends = self.period_ends
        if not 1 <= k <= len(ends):
            raise ValidationError(f"period index {k} out of range 1..{len(ends)}")
        start = 0.0 if k == 1 else ends[k - 2]
        return start, ends[k - 1]

    def final_terminal(self, level: Optional[float] = None) -> TerminalSurface:
        """Terminal surface at the last compliance date; ``level`` replaces
        its cap by a constant one of the same kind."""
        cap = self.caps[-1]
        if level is not None:
            cap = CapFunction.constant(level, kind=cap.kind)
        if self.terminal_kind == "indicator":
            return indicator_terminal(cap)
        return smoothed_indicator(cap, self.terminal_width)
