"""Path simulation against a solved price field, with statistical checks.

The forward system is degenerate: the factor diffuses on its own, the
cumulative-emissions state moves at the emission rate evaluated at the
current price, and the price itself is read back from the solved field
at every sub-step.  Paths are processed in fixed-size blocks, each block
drawing from a counter-based stream keyed by (seed, block index), so
results are bit-identical regardless of how many paths run (prefixes
agree).

Periods run outside, in one loop for a finite market's period grids and
the rolling grid alike.  Within a period, blocks run in groups of
``_GROUP``, one pass over the period's grid per group; a pass advances
the group's paths as one vector, step by step, with one field read at t
and one at t + dt, so a block only keys the noise stream.  A field
directory's grids are never held: each pass streams grid k from its file
through a ring of a few time slices, hashing it as it goes, so a step
finds the slices that bracket t and t + dt in the ring.  Grid k + 1's
first slice gives the right values at the compliance date T_k, settled
before any step of period k + 1.  The rolling grid serves every period,
held and read in period-local coordinates.  Each block's stream is opened once and read step-major: at
every step the block draws a full ``_BLOCK`` of normals, partial last
block included, so path ``i``'s draw at global step ``s`` is element
``s * _BLOCK + i % _BLOCK`` of its block's stream whatever the number of
paths, periods or groups.  Only one step's draws of one group are held.

A path that leaves the stored grid box is frozen where it was and
reported; the run only fails when more than 0.1% of paths do that.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .errors import CoverageError, SimulationError, ValidationError
from .model import CapFunction, MarketSpec
from .pde_kernel import FieldReader, ValueGrid, recorded_shifts

__all__ = [
    "PathBundle",
    "simulate",
    "martingale_test",
    "jump_consistency_test",
    "MartingaleReport",
    "JumpReport",
    "paths_csv",
    "events_csv",
]

_log = logging.getLogger(__name__)
_BLOCK = 8192
# blocks per group, one grid pass each: 32768 paths share a pass, and a
# path vector of the group takes 256 KB
_GROUP = 4
# slices of a streamed grid that stay readable: a step reads the bracket of t,
# then that of t + dt, which the next step's bracket starts at most one slice
# before; three would do.  A pass holds these slices, the field's slice at
# its latest read time and one step's draws.
_RING = 4
# paths per block of events.csv rows
_CSV_ROWS = 1 << 10
BRANCH_BELOW, BRANCH_AT, BRANCH_ABOVE, BRANCH_ABORTED = -1, 0, 1, -2
_BRANCH_NAMES = {BRANCH_BELOW: "below", BRANCH_AT: "at", BRANCH_ABOVE: "above",
                 BRANCH_ABORTED: "aborted"}


# ----------------------------------------------------------------------
# bundle
# ----------------------------------------------------------------------

@dataclass(eq=False)
class PathBundle:
    """Simulated paths, snapshots and compliance-date records.

    Full trajectories are kept for the first ``kept_idx.size`` paths
    only; every path contributes to the snapshot arrays (indexed as
    ``[snapshot, path]``) and to the per-date compliance records
    (indexed as ``[period, path]``).  ``branch`` uses -1/0/+1 for
    below/at/above and -2 for paths that left the grid box.
    """

    n_paths: int
    seed: int
    times: np.ndarray
    snapshot_times: np.ndarray
    snap_P: Optional[np.ndarray]
    snap_E: np.ndarray
    snap_Y: np.ndarray
    kept_idx: np.ndarray
    path_P: Optional[np.ndarray]
    path_E: np.ndarray
    path_Y: np.ndarray
    compliance_E: np.ndarray
    compliance_cap: np.ndarray
    compliance_left: np.ndarray
    compliance_right: np.ndarray
    branch: np.ndarray
    aborted: np.ndarray
    abort_step: np.ndarray
    rate: float
    meta: dict = field(default_factory=dict)

    @property
    def n_periods(self) -> int:
        return self.compliance_E.shape[0]

    @property
    def abort_fraction(self) -> float:
        return float(self.aborted.mean()) if self.n_paths else 0.0

    def snapshot_index(self, t: float, tol: Optional[float] = None) -> int:
        """Index of the stored snapshot nearest ``t``.

        A requested snapshot time is stored at its nearest time node, so
        by default ``t`` may sit just over half the step containing it
        away; periods of different lengths have different steps.
        """
        if tol is None:
            times = self.times
            step = min(max(int(np.searchsorted(times, t, side="right")) - 1, 0),
                       times.size - 2)
            tol = 0.51 * float(times[step + 1] - times[step])
        gap = np.abs(self.snapshot_times - t)
        j = int(np.argmin(gap))
        if gap[j] > tol:
            raise ValidationError(
                f"no snapshot near t={t:g}; stored times: "
                f"{np.round(self.snapshot_times, 6).tolist()}"
            )
        return j


# ----------------------------------------------------------------------
# simulation
# ----------------------------------------------------------------------

def _period_table(field, spec: MarketSpec, n_periods: Optional[int]):
    """Per-period ``(t_start, t_end, t_shift, e_offset, cap)`` rows, the grids
    to read in turn, and whether one grid serves every period (the rolling
    market).  A field is read at time ``t - t_shift`` and emissions
    ``e - e_offset``: period-local coordinates on the rolling grid."""
    if isinstance(field, ValueGrid):
        if spec.horizon != "infinite":
            raise ValidationError("a bare grid simulates only the rolling market")
        q = 1 if n_periods is None else int(n_periods)
        if q < 1:
            raise ValidationError("n_periods must be >= 1")
        tau, lam = spec.period_length, spec.cap_per_period
        rows = [((k - 1) * tau, k * tau, (k - 1) * tau, (k - 1) * lam,
                 CapFunction.constant((k - 1) * lam + lam)) for k in range(1, q + 1)]
        return rows, repeat(field), True
    try:
        grids = iter(field)
    except TypeError:
        grids = None
    if grids is None or spec.horizon != "finite":
        raise ValidationError(f"cannot simulate against {type(field).__name__}")
    rows = [(*spec.period_bounds(k), 0.0, 0.0, spec.caps[k - 1])
            for k in range(1, spec.n_periods + 1)]
    return rows, grids, False


def _next_grid(grids, k: int) -> ValueGrid:
    grid = next(grids, None)
    if grid is None:
        raise ValidationError(f"the field has no grid for period {k}")
    return grid


def _step_factor(coeffs, P, dt: float, sq: float, xi):
    """One factor step: exact mean-reverting transition when declared."""
    if coeffs.ou_kappa is not None:
        k, s, ref = coeffs.ou_kappa, coeffs.ou_sigma, coeffs.ou_ref
        if k > 0.0:
            a = math.exp(-k * dt)
            sd = s * math.sqrt((1.0 - a * a) / (2.0 * k))
        else:
            a, sd = 1.0, s * sq
        return ref + (P - ref) * a + sd * xi
    drift = np.asarray(coeffs.drift(P), dtype=float)
    vol = np.asarray(coeffs.vol(P), dtype=float)
    return P + drift * dt + vol * sq * xi


def _read_pass(source, run):
    """``run(grid)`` over one period grid: a held grid as it is, a reader's
    streamed through a ring of slices in one hash-checked pass."""
    if isinstance(source, ValueGrid):
        return run(source)
    return source(scan=run, ring=_RING)


def simulate(field, spec: MarketSpec, n_paths: int, steps_per_period: int = 512,
             seed: int = 0, p0: float = 0.0, e0: float = 0.0,
             snapshot_times: Optional[Sequence[float]] = None,
             keep_paths: int = 100, n_periods: Optional[int] = None) -> PathBundle:
    """Euler-simulate (P, E, Y) paths against a solved field.

    ``field`` is a finite market's period grids in period order, any
    iterable whose items are held :class:`ValueGrid` objects or readers
    (``multi_period.read_period_grids`` over a field directory:
    ``reader(scan=..., ring=...)`` streams one grid file as
    ``gridio.read_grid`` does); each item is asked for when its period
    starts.  For the rolling market it is the stationary
    :class:`ValueGrid`; then ``n_periods`` chooses how many periods to
    roll forward and the price reads the grid in period-local coordinates.

    A period runs in groups of ``_GROUP`` blocks, one pass over its grid
    each; a pass steps the group's paths as one vector, and a block only
    keys the noise stream.  Each block's stream is opened once and read on,
    step after step, across every period; a pass holds one step's draws of
    its group.  A pass settles the previous compliance date at its grid's
    first slice, before any step.
    A reader's digest is checked when its pass ends, so a corrupt grid
    raises :class:`ArtifactError` after that pass has run.

    The factor steps by its exact mean-reverting transition when the
    coefficients declare one, otherwise by an Euler increment.  The
    emissions state integrates the rate with a trapezoidal
    predictor-corrector, re-reading the price at the predictor point;
    the first-order coupling error of a plain Euler update shows up as
    spurious drift in the discounted price at practical step counts.
    """
    started = time.perf_counter()
    coeffs = spec.coefficients
    if n_paths < 1 or steps_per_period < 1:
        raise ValidationError("need n_paths >= 1 and steps_per_period >= 1")
    if seed < 0:
        raise ValidationError("seed must be a non-negative integer")
    if keep_paths < 0:
        raise ValidationError("keep_paths must be a non-negative integer")
    periods, sources, rolling = _period_table(field, spec, n_periods)
    q = len(periods)
    spp = steps_per_period
    has_p = coeffs.dim_p == 1

    n_steps = q * spp
    t_end = periods[-1][1]
    times = np.empty(n_steps + 1)
    for k, (t0, t1, *_) in enumerate(periods):
        times[k * spp: (k + 1) * spp + 1] = np.linspace(t0, t1, spp + 1)

    if snapshot_times is None:
        snapshot_times = sorted({periods[0][0], t_end}
                                | {row[1] for row in periods}
                                | {0.5 * (row[0] + row[1]) for row in periods})
    snap_idx = sorted({int(np.argmin(np.abs(times - t))) for t in snapshot_times})
    snap_pos = {g: j for j, g in enumerate(snap_idx)}
    n_snap = len(snap_idx)

    keep = min(keep_paths, n_paths)
    kept_idx = np.arange(keep)

    snap_P = np.empty((n_snap, n_paths)) if has_p else None
    snap_E = np.empty((n_snap, n_paths))
    snap_Y = np.empty((n_snap, n_paths))
    path_P = np.empty((keep, n_steps + 1)) if has_p else None
    path_E = np.empty((keep, n_steps + 1))
    path_Y = np.empty((keep, n_steps + 1))
    comp_E = np.empty((q, n_paths))
    comp_cap = np.empty((q, n_paths))
    comp_left = np.empty((q, n_paths))
    comp_right = np.empty((q, n_paths))
    branch = np.empty((q, n_paths), dtype=np.int8)
    aborted = np.zeros(n_paths, dtype=bool)
    abort_step = np.full(n_paths, -1, dtype=np.int32)

    # path state carried from period to period; a block group works on its slice
    P_all = np.full(n_paths, float(p0)) if has_p else None
    E_all = np.full(n_paths, float(e0))
    Y_all = np.zeros(n_paths)
    alive_all = np.ones(n_paths, dtype=bool)
    eparam_all = E_all.copy()
    ok_date = np.empty(n_paths, dtype=bool)  # left and right value inside the box

    n_blocks = -(-n_paths // _BLOCK)
    # one stream per block, read on from period to period and never rewound
    streams = [np.random.Generator(np.random.Philox(key=np.array([seed, b],
                                                                dtype=np.uint64)))
               for b in range(n_blocks)] if has_p else []
    passes = [0] * q
    ring_bytes = draw_bytes = 0
    delta_e = None

    def settle(k: int, g: slice, grid: Optional[ValueGrid] = None, off: float = 0.0,
               recorded: Optional[CapFunction] = None):
        """Compliance date T_k for the paths of ``g``.  The right value is
        read at ``grid``'s start ``off`` lower in emissions (on the diagonal
        when ``recorded`` is the grid's cap); without a grid (after a
        chained field's last date) it is the payout itself."""
        E = E_all[g]
        comp_E[k, g] = E
        comp_cap[k, g] = periods[k][4].level(eparam_all[g])
        if grid is None:
            comp_right[k, g] = E >= comp_cap[k, g]
        else:
            e = E - off
            reader = FieldReader(grid, None if recorded is None
                                 else recorded_shifts(grid, recorded, e))
            comp_right[k, g], ok = reader.read(
                grid.t0, reader.locate(P_all[g] if has_p else None), e)
            ok_date[g] &= ok
        alive = alive_all[g]
        newly = alive > ok_date[g]
        abort_step[g][newly] = (k + 1) * spp
        aborted[g] |= newly
        alive &= ok_date[g]
        lost = ~alive
        comp_left[k, g][lost] = np.nan
        comp_right[k, g][lost] = np.nan
        branch[k, g] = np.where(alive, np.sign(E - comp_cap[k, g]), BRANCH_ABORTED)
        eparam_all[g] = E
        np.copyto(Y_all[g], comp_right[k, g], where=alive)

    def run_pass(grid: ValueGrid, k: int, b0: int) -> int:
        """Period ``k`` for the block group that starts at block ``b0``, in
        one pass over ``grid``; returns the block after the group."""
        nonlocal ring_bytes, draw_bytes, delta_e
        t0, t1, t_shift, e_off, cap = periods[k]
        recorded = None if cap.is_constant else cap
        if delta_e is None:  # the first pass; the box check reads only the axes
            _check_reach_box(coeffs, grid, periods, rolling, p0, e0)
            delta_e = grid.delta_e
        if not isinstance(grid.values, np.ndarray):  # streamed
            ring_bytes = max(ring_bytes, _RING * 8 * math.prod(grid.values.shape[1:]))
        b1 = min(b0 + _GROUP, n_blocks)
        g = slice(b0 * _BLOCK, min(b1 * _BLOCK, n_paths))
        width = g.stop - g.start
        passes[k] += 1
        if k:
            settle(k - 1, g, grid, e_off, recorded)

        dt = (t1 - t0) / spp
        sq = math.sqrt(dt)
        if has_p:
            # a whole _BLOCK per block and step, so the partial last block
            # keeps its place in the stream
            draws = np.empty((b1 - b0, _BLOCK))
            draw_bytes = max(draw_bytes, draws.nbytes)
            xi = draws.reshape(-1)[:width]
        # the shifts of the recorded emissions hold for the period
        reader = FieldReader(grid, None if recorded is None
                             else recorded_shifts(grid, recorded, eparam_all[g]))
        P = P_all[g] if has_p else None
        at = reader.locate(P)
        E, Y, alive = E_all[g], Y_all[g], alive_all[g]
        kept = min(keep, g.stop) - g.start
        # the rate and predicted emissions, kept from a step's first half to
        # its second; owned here, as ``mu`` may return a shared or read-only array
        mu, e_pred, newly = np.empty(width), np.empty(width), np.empty(width, dtype=bool)

        # a step makes the slice at t + dt and places the factor there; the
        # next step's read at t shares both when its bracket is bit-equal,
        # so a streamed grid is read forward once per step
        for j in range(spp):
            gstep = k * spp + j
            t = times[gstep]
            y_new, ok = reader.read(t - t_shift, at, E - e_off)
            np.greater(alive, ok, out=newly)  # alive and not ok
            if newly.any():
                abort_step[g][newly] = gstep
                aborted[g][newly] = True
                alive &= ok
            np.copyto(Y, y_new, where=alive)

            s = snap_pos.get(gstep)
            if s is not None:
                if has_p:
                    snap_P[s, g] = P
                snap_E[s, g] = E
                snap_Y[s, g] = Y
            if kept > 0:
                if has_p:
                    path_P[g.start:g.start + kept, gstep] = P[:kept]
                path_E[g.start:g.start + kept, gstep] = E[:kept]
                path_Y[g.start:g.start + kept, gstep] = Y[:kept]

            np.copyto(mu, np.asarray(coeffs.mu(P, Y), dtype=float))
            if has_p:
                for stream, row in zip(streams[b0:b1], draws):
                    stream.standard_normal(out=row)
                np.copyto(P, _step_factor(coeffs, P, dt, sq, xi), where=alive)
                at = reader.locate(P)
            np.multiply(mu, dt, out=e_pred)
            e_pred += E
            e_pred -= e_off
            y_pred, okp = reader.read(min(t + dt - t_shift, grid.last_interior_time),
                                      at, e_pred)
            np.logical_not(okp, out=newly)
            np.copyto(y_pred, Y, where=newly)
            mu += np.asarray(coeffs.mu(P, y_pred), dtype=float)
            mu *= 0.5
            mu *= dt
            mu += E
            np.copyto(E, mu, where=alive)

        # left value at T_k from grid k; its last_interior_time is in the
        # same coordinates as the step reads
        comp_left[k, g], ok_date[g] = reader.read(grid.last_interior_time, at, E - e_off)
        if k + 1 == q and rolling:  # the rolling grid serves the last date too
            settle(k, g, grid, e_off + spec.cap_per_period)
        elif k + 1 == q:
            settle(k, g)
        return b1

    # periods outside; a chained field's grid k + 1 settles date T_k
    for k in range(q):
        source = _next_grid(sources, k + 1)
        b0 = 0
        while b0 < n_blocks:
            b0 = _read_pass(source, partial(run_pass, k=k, b0=b0))
        source = None  # a held grid of a chained field goes with its period

    # final mesh point: right value of the last compliance date
    if n_steps in snap_pos:
        s = snap_pos[n_steps]
        if has_p:
            snap_P[s] = P_all
        snap_E[s] = E_all
        snap_Y[s] = Y_all
    if has_p:
        path_P[:, n_steps] = P_all[:keep]
    path_E[:, n_steps] = E_all[:keep]
    path_Y[:, n_steps] = Y_all[:keep]

    if _log.isEnabledFor(logging.DEBUG):
        seconds = time.perf_counter() - started
        lost = np.diff(np.count_nonzero(branch == BRANCH_ABORTED, axis=1), prepend=0)
        _log.debug("simulate: %d paths x %d steps = %d path steps in %.3f s "
                   "(%.4g paths/s); aborted paths per compliance date %s; "
                   "block groups per period %s, one grid pass each; ring %d B, "
                   "one step's draws %d B",
                   n_paths, n_steps, n_paths * n_steps, seconds,
                   n_paths / seconds, lost.tolist(), passes, ring_bytes,
                   draw_bytes)
    frac = float(aborted.mean())
    if frac > 1e-3:
        raise SimulationError(
            f"{frac:.2%} of paths left the grid box (limit 0.1%); widen the "
            "grids or move the start point"
        )

    return PathBundle(
        n_paths=n_paths, seed=seed, times=times,
        snapshot_times=times[snap_idx], snap_P=snap_P, snap_E=snap_E,
        snap_Y=snap_Y, kept_idx=kept_idx, path_P=path_P, path_E=path_E,
        path_Y=path_Y, compliance_E=comp_E, compliance_cap=comp_cap,
        compliance_left=comp_left, compliance_right=comp_right, branch=branch,
        aborted=aborted, abort_step=abort_step, rate=coeffs.rate,
        meta={
            "steps_per_period": steps_per_period,
            "block_size": _BLOCK,
            "n_periods": q,
            "delta_e": delta_e,
            "p0": p0, "e0": e0,
            "period_ends": [row[1] for row in periods],
            "market_label": spec.label,
        },
    )


def _check_reach_box(coeffs, g0, periods, rolling, p0, e0):
    """Interval bound on the reachable states vs the stored grid box."""
    horizon = periods[-1][1] - periods[0][0]
    problems = []
    if coeffs.dim_p == 1:
        p_nodes = g0.p_nodes
        reach = coeffs.factor_reach(p0, horizon, p_nodes)
        if -reach < p_nodes[0] or reach > p_nodes[-1]:
            problems.append(
                f"factor box [{p_nodes[0]:g}, {p_nodes[-1]:g}] may not hold "
                f"4-sigma excursions (|p| up to {reach:g})"
            )
    mu_lo, mu_hi = coeffs.rate_range(g0.p_nodes)
    # grids are read in period-local coordinates for the rolling market,
    # so the per-period drift bound applies to each period separately
    span_t = (periods[0][1] - periods[0][0]) if rolling else horizon
    e_top = e0 + max(mu_hi, 0.0) * span_t
    e_bot = e0 + min(mu_lo, 0.0) * span_t
    if e_bot < g0.e_nodes[0] or e_top > g0.e_nodes[-1]:
        problems.append(
            f"emissions box [{g0.e_nodes[0]:g}, {g0.e_nodes[-1]:g}] cannot hold "
            f"the reachable interval [{e_bot:g}, {e_top:g}]"
        )
    if problems:
        raise CoverageError("; ".join(problems))


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MartingaleReport:
    t1: float
    t2: float
    n_used: int
    delta: float
    se: float
    passed: bool


def martingale_test(bundle: PathBundle, r: float, t1: float, t2: float,
                    period_ends: Optional[Sequence[float]] = None) -> MartingaleReport:
    """Check that the discounted price has no drift between t1 and t2.

    Uses the paired per-path differences, so the standard error reflects
    the increment, not the levels.  ``t2`` may sit exactly on a
    compliance date, in which case the left limit is used; a date
    strictly inside (t1, t2) is refused because the discounted price is
    only a martingale within a period.
    """
    if bundle.n_paths == 0:
        raise ValidationError("empty bundle")
    if not t2 > t1:
        raise ValidationError("need t2 > t1")
    if period_ends is None:
        period_ends = bundle.meta.get("period_ends", [])
    ends = np.asarray(period_ends, dtype=float)
    inside = (ends > t1 + 1e-9) & (ends < t2 - 1e-9)
    if inside.any():
        raise ValidationError(
            f"compliance date at {ends[inside][0]:g} lies strictly inside "
            f"({t1:g}, {t2:g}); the discounted price jumps there"
        )

    j1 = bundle.snapshot_index(t1)
    y1 = bundle.snap_Y[j1]
    on_date = ends.size and np.any(np.abs(ends - t2) <= 1e-9)
    if on_date:
        k = int(np.argmin(np.abs(ends - t2)))
        y2 = bundle.compliance_left[k]
    else:
        y2 = bundle.snap_Y[bundle.snapshot_index(t2)]

    ok = ~bundle.aborted & np.isfinite(y1) & np.isfinite(y2)
    n = int(ok.sum())
    if n == 0:
        raise ValidationError("no usable paths")
    d = math.exp(-r * t2) * y2[ok] - math.exp(-r * t1) * y1[ok]
    delta = float(np.mean(d))
    se = float(np.std(d, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    passed = abs(delta) <= 3.0 * se + 1e-12
    return MartingaleReport(t1=float(t1), t2=float(t2), n_used=n, delta=delta,
                            se=se, passed=passed)


@dataclass(frozen=True)
class JumpReport:
    margin_cells: float
    above_residual: Optional[float]
    below_residual: Optional[float]
    n_above: int
    n_below: int
    n_at: int
    per_period: tuple


def jump_consistency_test(bundle: PathBundle, margin_cells: float = 3.0) -> JumpReport:
    """Trichotomy check at every compliance date.

    Paths above the cap by at least ``margin_cells`` cells must price the
    certain penalty (left limit near 1); paths below by the same margin
    must carry the next period's value across the date.  Paths inside
    the margin band are counted but judged by neither branch, since at
    the cap the limit is only bracketed, not pinned.
    """
    de = bundle.meta["delta_e"]
    band = margin_cells * de
    rows = []
    for k in range(bundle.n_periods):
        ok = bundle.branch[k] != BRANCH_ABORTED
        gap = bundle.compliance_E[k] - bundle.compliance_cap[k]
        sel_a = ok & (gap >= band) & (gap > 0)
        sel_b = ok & (-gap >= band) & (gap < 0)
        sel_at = ok & ~sel_a & ~sel_b
        ra = (float(np.max(np.abs(bundle.compliance_left[k][sel_a] - 1.0)))
              if sel_a.any() else None)
        rb = (float(np.max(np.abs(bundle.compliance_left[k][sel_b]
                                  - bundle.compliance_right[k][sel_b])))
              if sel_b.any() else None)
        rows.append({"period": k + 1, "above": ra, "below": rb,
                     "n_above": int(sel_a.sum()), "n_below": int(sel_b.sum()),
                     "n_at": int(sel_at.sum())})
    return JumpReport(
        margin_cells=float(margin_cells),
        above_residual=max((r["above"] for r in rows if r["above"] is not None),
                           default=None),
        below_residual=max((r["below"] for r in rows if r["below"] is not None),
                           default=None),
        n_above=sum(r["n_above"] for r in rows), n_below=sum(r["n_below"] for r in rows),
        n_at=sum(r["n_at"] for r in rows), per_period=tuple(rows),
    )


# ----------------------------------------------------------------------
# CSV export
# ----------------------------------------------------------------------

def paths_csv(bundle: PathBundle, path: Union[str, Path]) -> None:
    """Kept trajectories, one row per (path, time)."""
    has_p = bundle.path_P is not None
    columns = ([bundle.path_P] if has_p else []) + [bundle.path_E, bundle.path_Y]
    # the time column is formatted once; each kept path is then one
    # template with a slot per value, filled by a single %
    cells = ["%.17g" % t + ",%.17g" * len(columns) for t in bundle.times.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("path,t" + (",P" if has_p else "") + ",E,Y\n")
        for row, pidx in enumerate(bundle.kept_idx.tolist()):
            prefix = "%d," % pidx
            template = prefix + ("\n" + prefix).join(cells) + "\n"
            values = np.stack([c[row] for c in columns], -1)
            fh.write(template % tuple(values.ravel().tolist()))


def events_csv(bundle: PathBundle, path: Union[str, Path]) -> None:
    """Compliance-date records for every path."""
    columns = (bundle.compliance_E, bundle.compliance_cap, bundle.compliance_left,
               bundle.compliance_right)
    slots = ",%.17g" * len(columns)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("path,k,E_Tk,cap,Y_left,Y_right,branch\n")
        for k in range(bundle.n_periods):
            # a block of rows at a time: whole-column lists of floats and
            # row strings would outgrow the columns several times over.  A
            # block is one template with a slot per value, filled by one %
            for at in range(0, bundle.n_paths, _CSV_ROWS):
                block = slice(at, at + _CSV_ROWS)
                names = [_BRANCH_NAMES[b] for b in bundle.branch[k, block].tolist()]
                template = "".join([f"{i},{k + 1}{slots},{name}\n"
                                    for i, name in enumerate(names, at)])
                values = np.stack([c[k, block] for c in columns], -1)
                fh.write(template % tuple(values.ravel().tolist()))
