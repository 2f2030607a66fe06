"""``simulate`` with periods outside and blocks inside, against the loop it replaced.

``reference_simulate`` (with ``reference_period_table`` and
``reference_step_factor``) is ``montecarlo.simulate`` as it was when each
8192-path block ran every period before the next block started: the whole
field held, one ``(steps, 8192)`` draw per block, and per-step ``np.where``
rebuilds of the state.  Only the reach check, which can only raise, and
the DEBUG line are left out.  It is kept here, not in the package, as the
oracle the period-outer loop must reproduce bit for bit, NaN included.
"""

import math
from typing import Optional, Sequence

import numpy as np
import pytest

from carbon_fbsde import pde_kernel, simulate, solve_infinite
from carbon_fbsde.config import build_plan, bundled_preset
from carbon_fbsde.errors import ValidationError
from carbon_fbsde.model import MarketSpec
from carbon_fbsde.montecarlo import _BLOCK, BRANCH_ABORTED, PathBundle
from carbon_fbsde.pde_kernel import ValueGrid, lookup, lookup_recorded, recorded_shifts
from oracle import solve_grids


def reference_period_table(field, spec: MarketSpec, n_periods: Optional[int]):
    """Per-period (grid, t_start, t_end, e_offset, cap_fn) descriptors."""
    rows = []
    if isinstance(field, tuple):
        for k in range(1, len(field) + 1):
            t0, t1 = spec.period_bounds(k)
            rows.append((field[k - 1], t0, t1, 0.0, spec.caps[k - 1]))
        nxt = [field[k - 1] for k in range(2, len(field) + 1)] + [None]
        return rows, nxt
    if isinstance(field, ValueGrid):
        if spec.horizon != "infinite":
            raise ValidationError("a bare grid simulates only the rolling market")
        q = 1 if n_periods is None else int(n_periods)
        if q < 1:
            raise ValidationError("n_periods must be >= 1")
        tau, lam = spec.period_length, spec.cap_per_period
        for k in range(1, q + 1):
            rows.append((field, (k - 1) * tau, k * tau, (k - 1) * lam, None))
        return rows, [field] * q
    raise ValidationError(f"cannot simulate against {type(field).__name__}")


def reference_step_factor(coeffs, P, dt: float, sq: float, xi):
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


def reference_read(grid, t, P, E, shifts):
    """``lookup``, or ``lookup_recorded`` with ``shifts`` for a period whose
    cap depends on recorded emissions."""
    if shifts is None:
        return lookup(grid, t, P, E)
    return lookup_recorded(grid, t, P, E, shifts)


def reference_simulate(field, spec: MarketSpec, n_paths: int, steps_per_period: int = 512,
             seed: int = 0, p0: float = 0.0, e0: float = 0.0,
             snapshot_times: Optional[Sequence[float]] = None,
             keep_paths: int = 100, n_periods: Optional[int] = None,
             coeffs=None) -> PathBundle:
    """Euler-simulate (P, E, Y) paths against a solved field.

    ``field`` is a tuple of period grids in period order or, for the rolling market, the
    stationary grid (then ``n_periods`` chooses how many periods to roll
    forward and the price reads the grid in period-local coordinates).
    The factor steps by its exact mean-reverting transition when the
    coefficients declare one, otherwise by an Euler increment.  The
    emissions state integrates the rate with a trapezoidal
    predictor-corrector, re-reading the price at the predictor point;
    the first-order coupling error of a plain Euler update shows up as
    spurious drift in the discounted price at practical step counts.
    """
    coeffs = spec.coefficients if coeffs is None else coeffs
    if n_paths < 1 or steps_per_period < 1:
        raise ValidationError("need n_paths >= 1 and steps_per_period >= 1")
    if seed < 0:
        raise ValidationError("seed must be a non-negative integer")
    periods, next_grids = reference_period_table(field, spec, n_periods)
    q = len(periods)
    has_p = coeffs.dim_p == 1
    g0 = periods[0][0]

    n_steps = q * steps_per_period
    t_end = periods[-1][2]
    times = np.empty(n_steps + 1)
    for k, (_, t0, t1, _, _) in enumerate(periods):
        loc = np.linspace(t0, t1, steps_per_period + 1)
        times[k * steps_per_period: (k + 1) * steps_per_period + 1] = loc

    if snapshot_times is None:
        snapshot_times = sorted({periods[0][1], t_end}
                                | {row[2] for row in periods}
                                | {0.5 * (row[1] + row[2]) for row in periods})
    snap_idx = sorted({int(np.argmin(np.abs(times - t))) for t in snapshot_times})
    snap_pos = {g: j for j, g in enumerate(snap_idx)}
    n_snap = len(snap_idx)

    keep = min(keep_paths, n_paths, _BLOCK)
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

    n_blocks = (n_paths + _BLOCK - 1) // _BLOCK
    for b in range(n_blocks):
        lo, hi = b * _BLOCK, min((b + 1) * _BLOCK, n_paths)
        bs = hi - lo
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, b],
                                                                dtype=np.uint64)))
        P = np.full(bs, float(p0)) if has_p else None
        E = np.full(bs, float(e0))
        Y = np.zeros(bs)
        alive = np.ones(bs, dtype=bool)
        eparam = E.copy()

        # one full block of draws per step across the whole horizon, so path i
        # sees the same noise no matter how many paths share its block
        xi_rows = rng.standard_normal((n_steps, _BLOCK))[:, :bs].T if has_p else None

        gstep = 0
        for k, (grid, t0, t1, e_off, cap) in enumerate(periods):
            dt = (t1 - t0) / steps_per_period
            sq = math.sqrt(dt)
            shifts = (None if cap is None or cap.is_constant
                      else recorded_shifts(grid, cap, eparam))
            for j in range(steps_per_period):
                t = times[gstep]
                y_new, ok = reference_read(grid, t if e_off == 0.0 else t - t0,
                                           P, E - e_off, shifts)
                newly = alive & ~ok
                if newly.any():
                    abort_step[lo:hi][newly] = gstep
                    aborted[lo:hi][newly] = True
                    alive &= ok
                Y = np.where(alive, y_new, Y)

                if gstep in snap_pos:
                    s = snap_pos[gstep]
                    if has_p:
                        snap_P[s, lo:hi] = P
                    snap_E[s, lo:hi] = E
                    snap_Y[s, lo:hi] = Y
                if b == 0 and keep > lo:
                    kb = min(keep - lo, bs)
                    if has_p:
                        path_P[lo:lo + kb, gstep] = P[:kb]
                    path_E[lo:lo + kb, gstep] = E[:kb]
                    path_Y[lo:lo + kb, gstep] = Y[:kb]

                mu0 = np.asarray(coeffs.mu(P, Y), dtype=float)
                if has_p:
                    P = np.where(alive,
                                 reference_step_factor(coeffs, P, dt, sq, xi_rows[:, gstep]), P)
                E_pred = E + mu0 * dt
                t_pred = min((t + dt) if e_off == 0.0 else t + dt - t0,
                             grid.last_interior_time)
                y_pred, okp = reference_read(grid, t_pred, P, E_pred - e_off, shifts)
                mu1 = np.asarray(coeffs.mu(P, np.where(okp, y_pred, Y)),
                                 dtype=float)
                E = np.where(alive, E + 0.5 * (mu0 + mu1) * dt, E)
                gstep += 1

            # -- compliance date T_k ------------------------------------
            if cap is not None:
                lvl = np.broadcast_to(
                    np.asarray(cap.level(eparam), dtype=float)
                    if not cap.is_constant else cap.constant_value,
                    (bs,)).astype(float)
            else:
                lvl = np.full(bs, e_off + spec.cap_per_period)
            # grid.last_interior_time is global for chained fields and
            # period-local for the rolling grid, same as the step reads
            y_left, okl = reference_read(grid, grid.last_interior_time, P, E - e_off,
                                         shifts)
            ng = next_grids[k]
            if ng is None:
                # after the final date the contract is settled: the right
                # value is the payout itself
                y_right = (E >= lvl).astype(float)
                okr = np.ones(bs, dtype=bool)
            else:
                off_n = periods[k + 1][3] if k + 1 < q else e_off + spec.cap_per_period
                if isinstance(field, tuple):
                    cap_n = periods[k + 1][4]
                    y_right, okr = reference_read(
                        ng, ng.t0, P, E,
                        None if cap_n.is_constant else recorded_shifts(ng, cap_n, E))
                else:
                    y_right, okr = lookup(ng, 0.0, P, E - off_n)
            newly = alive & ~(okl & okr)
            if newly.any():
                abort_step[lo:hi][newly] = gstep
                aborted[lo:hi][newly] = True
                alive &= okl & okr

            comp_E[k, lo:hi] = E
            comp_cap[k, lo:hi] = lvl
            comp_left[k, lo:hi] = np.where(alive, y_left, np.nan)
            comp_right[k, lo:hi] = np.where(alive, y_right, np.nan)
            sign = np.sign(E - lvl)
            branch[k, lo:hi] = np.where(alive, sign, BRANCH_ABORTED).astype(np.int8)
            eparam = E.copy()
            Y = np.where(alive, y_right, Y)

        # final mesh point: right value of the last compliance date
        if n_steps in snap_pos:
            s = snap_pos[n_steps]
            if has_p:
                snap_P[s, lo:hi] = P
            snap_E[s, lo:hi] = E
            snap_Y[s, lo:hi] = Y
        if b == 0 and keep > lo:
            kb = min(keep - lo, bs)
            if has_p:
                path_P[lo:lo + kb, n_steps] = P[:kb]
            path_E[lo:lo + kb, n_steps] = E[:kb]
            path_Y[lo:lo + kb, n_steps] = Y[:kb]

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
            "delta_e": g0.delta_e,
            "p0": p0, "e0": e0,
            "period_ends": [row[2] for row in periods],
            "market_label": spec.label,
        },
    )


# ----------------------------------------------------------------------
# markets
# ----------------------------------------------------------------------

def _plan(name: str, **grid):
    tree = bundled_preset(name)
    tree["grid"] = {**tree.get("grid", {}), **grid}
    return build_plan(tree)


@pytest.fixture(scope="module")
def chained():
    """Coarse versions of the factor and recorded-emissions presets."""
    out = {}
    for market, name, grid in (("factor", "two-period-factor", {"n_e": 160, "n_p": 17}),
                               ("msr", "two-period-msr", {"n_e": 60})):
        plan = _plan(name, **grid)
        out[market] = plan, solve_grids(plan.spec, plan.solver)
    return out


@pytest.fixture(scope="module")
def rolling():
    """Stationary grids of a rolling market without and with a factor,
    each on an emissions grid whose cells the allocation spans exactly."""
    flat = _plan("rolling-r005", e_min=-1.5, e_max=2.5, n_e=80)
    tree = bundled_preset("rolling-r005")
    tree["coefficients"] = {"preset": "linear-abatement", "parameters": {
        "m0": 1.4, "m1": 0.1, "m2": 1.0, "kappa": 1.0, "sigma": 0.5}}
    tree["grid"] = {"e_min": -2.5, "e_max": 3.5, "n_e": 120,
                    "p_min": -3.6, "p_max": 3.6, "n_p": 19}
    out = {}
    for market, plan in (("flat", flat), ("factor", build_plan(tree))):
        spec = plan.spec
        grid, _ = solve_infinite(spec.coefficients, spec.period_length,
                                 spec.cap_per_period, plan.solver,
                                 tol_l1=plan.infinite_opts.get("tol_l1"),
                                 max_iter=plan.infinite_opts.get("max_iter"))
        out[market] = plan, grid
    return out


def assert_same_bundle(new: PathBundle, ref: PathBundle) -> None:
    """Every array bit for bit (NaN equal to NaN), every other field equal."""
    for name in PathBundle.__dataclass_fields__:
        a, b = getattr(new, name), getattr(ref, name)
        if not isinstance(b, np.ndarray):
            assert a == b, name
            continue
        assert isinstance(a, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape, name
        nan = np.isnan(b) if b.dtype.kind == "f" else np.zeros(b.shape, dtype=bool)
        if b.dtype.kind == "f":
            assert np.array_equal(np.isnan(a), nan), name
        assert a[~nan].tobytes() == b[~nan].tobytes(), name


# ----------------------------------------------------------------------
# equivalence
# ----------------------------------------------------------------------

@pytest.mark.parametrize("market, n_paths, steps, seed, keep", [
    ("factor", _BLOCK + 17, 24, 3, 100),
    ("factor", 300, 16, 0, 300),
    ("msr", 500, 24, 1, 20),
])
def test_chained_field_matches_the_block_outer_loop(chained, market, n_paths, steps,
                                                    seed, keep):
    plan, field = chained[market]
    kwargs = dict(n_paths=n_paths, steps_per_period=steps, seed=seed, keep_paths=keep)
    ref = reference_simulate(field, plan.spec, **kwargs)
    assert_same_bundle(simulate(field, plan.spec, **kwargs), ref)
    # the period grids one at a time, as the CLI hands them over
    assert_same_bundle(simulate((g for g in field), plan.spec, **kwargs), ref)


@pytest.mark.parametrize("market", ["flat", "factor"])
@pytest.mark.parametrize("q", [1, 3])
def test_rolling_grid_matches_the_block_outer_loop(rolling, market, q):
    plan, grid = rolling[market]
    kwargs = dict(n_paths=_BLOCK + 17 if market == "factor" else 40,
                  steps_per_period=16, seed=2, keep_paths=50, n_periods=q)
    ref = reference_simulate(grid, plan.spec, **kwargs)
    assert_same_bundle(simulate(grid, plan.spec, **kwargs), ref)


def edge_read(reader, t, at, e, read=pde_kernel.FieldReader.read):
    """``FieldReader.read`` that also puts three positions of every block
    outside the box.

    Every read goes through it, ``lookup`` and ``simulate``'s shared reads
    alike.  Position 5 leaves once 30% of a grid's time span has passed (an
    abort mid-period), position 6 at a compliance date's left value and
    position 7 at the right value read from a later period's grid (aborts
    at a date).  Positions count within each ``_BLOCK`` of the query, so the
    same paths leave whether the query spans one block or a group of them.
    """
    grid = reader.grid
    value, ok = read(reader, t, at, e)
    ok = ok.copy()
    ok[5::_BLOCK] &= not t - grid.t0 > 0.3 * (grid.tau - grid.t0)
    ok[6::_BLOCK] &= t != grid.last_interior_time
    ok[7::_BLOCK] &= not t == grid.t0 > 0.0
    return value, ok


@pytest.mark.parametrize("case", ["chained", "rolling"])
def test_aborts_mid_period_and_at_dates_match(chained, rolling, monkeypatch, case):
    monkeypatch.setattr(pde_kernel.FieldReader, "read", edge_read)
    plan, field = (chained if case == "chained" else rolling)["factor"]
    steps = 16
    kwargs = dict(n_paths=_BLOCK + 17, steps_per_period=steps, seed=4, keep_paths=10,
                  n_periods=3 if case == "rolling" else None)
    ref = reference_simulate(field, plan.spec, **kwargs)
    assert_same_bundle(simulate(field, plan.spec, **kwargs), ref)

    lost = [5, 6] + ([7] if case == "chained" else [])
    rows = lost + [_BLOCK + i for i in lost]
    assert np.flatnonzero(ref.aborted).tolist() == rows
    assert all(0 < s % steps for s in ref.abort_step[[5, _BLOCK + 5]])
    assert ref.abort_step[rows[1:len(lost)]].tolist() == [steps] * (len(lost) - 1)
    assert (ref.branch[0, rows[1:len(lost)]] == BRANCH_ABORTED).all()
    assert np.isnan(ref.compliance_left[0, rows[1:len(lost)]]).all()


@pytest.mark.parametrize("market, steps, shared", [
    ("factor", 16, True), ("flat", 16, True), ("factor", 24, False), ("msr", 24, False),
])
def test_a_pass_makes_one_slice_per_step_plus_the_first(chained, rolling, monkeypatch,
                                                        market, steps, shared):
    """A reader makes a slice exactly at each read whose time bracket
    differs from that of the read before.  In a pass the predictor read of
    a step and the next step's read share their slice when their brackets
    are bit-equal, so a pass makes one slice per step, plus the first: on
    unit periods in 16 steps every time is exact and they all are.  At 24
    steps a few are not, and steps past the grid's last interior time read
    beyond the predictor's clamped time; each such step makes one more."""
    reads, made = {}, {}
    real_read, real_slice = pde_kernel.FieldReader.read, pde_kernel.FieldReader._slice

    def read(reader, t, at, e):
        reads.setdefault(reader, []).append(
            pde_kernel._time_bracket(reader.grid.times, t))
        return real_read(reader, t, at, e)

    def make(reader, it, wt):
        made.setdefault(reader, []).append((it, wt))
        return real_slice(reader, it, wt)

    monkeypatch.setattr(pde_kernel.FieldReader, "read", read)
    monkeypatch.setattr(pde_kernel.FieldReader, "_slice", make)
    plan, field = chained[market] if market in chained else rolling[market]
    simulate(field, plan.spec, n_paths=300, steps_per_period=steps, seed=0,
             n_periods=2 if market in rolling else None)
    passes = 0
    for reader, brackets in reads.items():
        assert made[reader] == [b for j, b in enumerate(brackets)
                                if j == 0 or b != brackets[j - 1]]
        if len(brackets) == 2 * steps + 1:  # a pass: two reads a step, one at T_k
            passes += 1
            # the predictor read of step j - 1 and the read of step j
            unshared = sum(brackets[2 * j - 1] != brackets[2 * j] for j in range(1, steps))
            assert len(made[reader]) == steps + 1 + unshared
            assert (unshared == 0) == shared
    assert passes == 2
