"""Path simulation tests on small fields.

Randomness is counter-based and keyed by (seed, path block), each block
drawing a whole block of normals per step, which is what the prefix
tests below pin down.
"""

import tracemalloc

import numpy as np
import pytest

from carbon_fbsde import (
    jump_consistency_test,
    martingale_test,
    simulate,
    solve_infinite,
)
from carbon_fbsde.config import build_plan, preset_coefficients
from carbon_fbsde.errors import CoverageError, ValidationError
from carbon_fbsde.model import MarketSpec, make_cap_allocation
from carbon_fbsde.montecarlo import _BLOCK, _BRANCH_NAMES, _CSV_ROWS, events_csv, paths_csv
from carbon_fbsde.pde_kernel import SolverConfig, evaluate
from oracle import ou_moments, solve_grids


def flat_spec():
    return MarketSpec(
        coefficients=preset_coefficients("no-factor", {"m0": 1.2, "m2": 1.0}, 0.0),
        horizon="finite", period_ends=(1.0,),
        caps=make_cap_allocation([0.5], "banking-withdrawal"),
        label="one-period-flat")


def factor_spec():
    return MarketSpec(
        coefficients=preset_coefficients("linear-abatement", {}, 0.05),
        horizon="finite", period_ends=(0.5, 1.0),
        caps=make_cap_allocation([0.5, 0.4], "banking-withdrawal"),
        label="two-period-small-factor")


@pytest.fixture(scope="module")
def flat_field():
    spec = flat_spec()
    return spec, solve_grids(spec, SolverConfig(e_min=-2.0, e_max=2.5, n_e=128))


@pytest.fixture(scope="module")
def factor_field():
    spec = factor_spec()
    config = SolverConfig(e_min=-0.9, e_max=2.3, n_e=80,
                          p_min=-3.0, p_max=3.0, n_p=31)
    return spec, solve_grids(spec, config)


# ----------------------------------------------------------------------
# deterministic degenerate case
# ----------------------------------------------------------------------

def test_no_factor_paths_are_deterministic(flat_field):
    spec, field = flat_field
    bundle = simulate(field, spec, n_paths=8, steps_per_period=64, seed=1)
    for snap in (bundle.snap_E, bundle.snap_Y):
        assert np.all(snap == snap[:, :1]), "paths diverged without noise"
    assert bundle.abort_fraction == 0.0


def test_initial_price_matches_the_field(flat_field):
    spec, field = flat_field
    bundle = simulate(field, spec, n_paths=4, steps_per_period=32, seed=0,
                      e0=0.1)
    i0 = bundle.snapshot_index(0.0)
    assert bundle.snap_Y[i0, 0] == pytest.approx(evaluate(field[0], 0.0, None, 0.1),
                                                 abs=1e-12)


def test_emissions_fall_as_the_price_bites(flat_field):
    """With mu = 1.2 - y the emission rate stays below 1.2, and paths
    short of the cap emit less than the uncontrolled trend."""
    spec, field = flat_field
    bundle = simulate(field, spec, n_paths=2, steps_per_period=128, seed=0,
                      e0=0.0)
    iT = bundle.snapshot_index(1.0)
    total = bundle.snap_E[iT, 0]
    assert 0.0 < total < 1.2


# ----------------------------------------------------------------------
# keyed randomness
# ----------------------------------------------------------------------

def test_prefix_paths_do_not_depend_on_n_paths(factor_field):
    spec, field = factor_field
    small = simulate(field, spec, n_paths=200, steps_per_period=32, seed=7)
    large = simulate(field, spec, n_paths=600, steps_per_period=32, seed=7)
    assert np.array_equal(small.snap_P, large.snap_P[:, :200])
    assert np.array_equal(small.snap_E, large.snap_E[:, :200])
    assert np.array_equal(small.snap_Y, large.snap_Y[:, :200])


def test_prefix_paths_hold_across_a_block_boundary(factor_field):
    """A partial last block still draws a whole block per step, so the
    300 paths of one partial block are the first 300 of a full block
    followed by a partial one, through both periods."""
    spec, field = factor_field
    kwargs = dict(steps_per_period=32, seed=7, keep_paths=300)
    small = simulate(field, spec, n_paths=300, **kwargs)
    large = simulate(field, spec, n_paths=_BLOCK + 17, **kwargs)
    for name in ("snap_P", "snap_E", "snap_Y", "compliance_E", "compliance_left",
                 "compliance_right", "branch"):
        assert np.array_equal(getattr(small, name), getattr(large, name)[:, :300],
                              equal_nan=name != "branch"), name
    for name in ("path_P", "path_E", "path_Y"):
        assert np.array_equal(getattr(small, name), getattr(large, name)), name


def test_seed_changes_the_draws(factor_field):
    spec, field = factor_field
    a = simulate(field, spec, n_paths=64, steps_per_period=32, seed=0)
    b = simulate(field, spec, n_paths=64, steps_per_period=32, seed=1)
    assert not np.array_equal(a.snap_P, b.snap_P)


def test_factor_moments_track_the_exact_transition(factor_field):
    """Sample mean and variance of the factor stay inside sampling error
    of the closed-form one-period moments."""
    spec, field = factor_field
    n = 20_000
    bundle = simulate(field, spec, n_paths=n, steps_per_period=16, seed=5,
                      p0=0.8)
    coeffs = spec.coefficients
    mean, var = ou_moments(0.8, coeffs.ou_kappa, coeffs.ou_sigma, 1.0)
    iT = bundle.snapshot_index(1.0)
    sample = bundle.snap_P[iT]
    se_mean = np.sqrt(var / n)
    assert abs(sample.mean() - mean) < 4.0 * se_mean
    assert abs(sample.var() - var) < 0.05 * var


# ----------------------------------------------------------------------
# guards
# ----------------------------------------------------------------------

def test_reach_check_blocks_escaping_starts(factor_field):
    spec, field = factor_field
    with pytest.raises(CoverageError):
        simulate(field, spec, n_paths=4, steps_per_period=8, seed=0, e0=2.0)


def test_rolling_auto_factor_box_holds_every_simulated_period(rolling_factor_tree):
    tree = rolling_factor_tree
    tree["grid"] = {"e_min": -2.5, "e_max": 3.5, "n_e": 300, "n_p": 25}
    tree["simulation"] = {"n_periods": 2}
    plan = build_plan(tree)
    spec = plan.spec
    grid, _ = solve_infinite(spec.coefficients, spec.period_length, spec.cap_per_period,
                             plan.solver, tol_l1=plan.infinite_opts["tol_l1"],
                             max_iter=plan.infinite_opts.get("max_iter"))
    bundle = simulate(grid, spec, n_paths=64, steps_per_period=16, n_periods=2)
    assert bundle.n_periods == 2


def test_negative_keep_paths_is_refused(factor_field):
    spec, field = factor_field
    with pytest.raises(ValidationError, match="keep_paths"):
        simulate(field, spec, n_paths=4, steps_per_period=8, seed=0, keep_paths=-1)


@pytest.mark.parametrize("keep", [0, _BLOCK + 17])
def test_keep_paths_keeps_as_many_paths_as_asked(factor_field, keep):
    """Kept rows may span blocks; each is its path's snapshot at the
    snapshot times."""
    spec, field = factor_field
    bundle = simulate(field, spec, n_paths=_BLOCK + 40, steps_per_period=8, seed=3,
                      keep_paths=keep)
    assert bundle.kept_idx.tolist() == list(range(keep))
    cols = np.searchsorted(bundle.times, bundle.snapshot_times)
    assert np.array_equal(bundle.times[cols], bundle.snapshot_times)
    for kept, snap in ((bundle.path_P, bundle.snap_P), (bundle.path_E, bundle.snap_E),
                       (bundle.path_Y, bundle.snap_Y)):
        assert kept.shape == (keep, bundle.times.size)
        assert np.array_equal(kept[:, cols], snap[:, :keep].T)


def test_snapshot_lookup_tolerance(flat_field):
    spec, field = flat_field
    bundle = simulate(field, spec, n_paths=2, steps_per_period=64, seed=0)
    with pytest.raises(ValidationError):
        bundle.snapshot_index(0.123456)


def test_snapshot_tolerance_follows_the_step_of_each_period():
    """Periods of 1 and 2 years at 3 steps each: the default snapshot at
    the second period's midpoint (t = 2) sits on the node 2.333, over half
    a first-period step away, and is found with that period's step."""
    spec = MarketSpec(
        coefficients=flat_spec().coefficients, horizon="finite",
        period_ends=(1.0, 3.0),
        caps=make_cap_allocation([0.5, 1.0], "banking-withdrawal"),
        label="unequal-periods")
    field = solve_grids(spec, SolverConfig(e_min=-2.0, e_max=4.5, n_e=64))
    bundle = simulate(field, spec, n_paths=2, steps_per_period=3, seed=0)
    j = bundle.snapshot_index(2.0)
    assert bundle.snapshot_times[j] == pytest.approx(7.0 / 3.0)
    assert bundle.snapshot_times[bundle.snapshot_index(0.5)] == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValidationError):
        bundle.snapshot_index(2.0, tol=0.51 / 3.0)


def test_snapshot_tolerance_on_equal_periods_is_half_a_step(factor_field):
    spec, field = factor_field
    bundle = simulate(field, spec, n_paths=2, steps_per_period=16, seed=0)
    dt = float(bundle.times[1] - bundle.times[0])
    mid = bundle.snapshot_index(0.25)
    assert bundle.snapshot_index(0.25 + 0.5 * dt) == mid
    assert bundle.snapshot_index(0.75 - 0.5 * dt) == bundle.snapshot_index(0.75)
    for t in (0.25 + 0.52 * dt, 0.75 - 0.52 * dt, 0.123456):
        with pytest.raises(ValidationError):
            bundle.snapshot_index(t)
        with pytest.raises(ValidationError):
            bundle.snapshot_index(t, tol=0.51 * dt)


def test_simulate_logs_throughput_and_aborts_per_date(caplog, factor_field):
    spec, field = factor_field
    with caplog.at_level("DEBUG", logger="carbon_fbsde.montecarlo"):
        logged = simulate(field, spec, n_paths=64, steps_per_period=16, seed=3)
    (record,) = [r for r in caplog.records if r.name == "carbon_fbsde.montecarlo"]
    message = record.getMessage()
    assert message.startswith("simulate: 64 paths x 32 steps = 2048 path steps in ")
    assert "paths/s); aborted paths per compliance date [0, 0]" in message

    caplog.clear()
    quiet = simulate(field, spec, n_paths=64, steps_per_period=16, seed=3)
    assert caplog.records == [], "simulation logging is off by default"
    for name in ("snap_E", "snap_Y", "path_Y", "compliance_left", "branch"):
        assert np.array_equal(getattr(logged, name), getattr(quiet, name),
                              equal_nan=name != "branch")


def test_martingale_window_may_not_straddle_a_date(factor_field):
    spec, field = factor_field
    bundle = simulate(field, spec, n_paths=256, steps_per_period=32, seed=0)
    with pytest.raises(ValidationError):
        martingale_test(bundle, 0.05, 0.2, 0.8, period_ends=(0.5, 1.0))


def test_martingale_report_fields(factor_field):
    spec, field = factor_field
    bundle = simulate(field, spec, n_paths=4096, steps_per_period=32, seed=0,
                      snapshot_times=[0.0, 0.25, 0.5, 0.75, 1.0])
    report = martingale_test(bundle, 0.05, 0.0, 0.25, period_ends=(0.5, 1.0))
    assert report.n_used == 4096
    assert report.se > 0.0
    assert np.isfinite(report.delta)


# ----------------------------------------------------------------------
# compliance records and writers
# ----------------------------------------------------------------------

def test_compliance_branches_partition_the_paths(factor_field):
    spec, field = factor_field
    bundle = simulate(field, spec, n_paths=512, steps_per_period=32, seed=2)
    report = jump_consistency_test(bundle)
    assert len(report.per_period) == bundle.branch.shape[0]
    counted = report.n_above + report.n_below + report.n_at
    assert counted == bundle.branch.size


def test_csv_writers_shape(tmp_path, factor_field):
    spec, field = factor_field
    bundle = simulate(field, spec, n_paths=32, steps_per_period=16, seed=0,
                      keep_paths=5)
    p_file = tmp_path / "paths.csv"
    e_file = tmp_path / "events.csv"
    paths_csv(bundle, p_file)
    events_csv(bundle, e_file)
    p_lines = p_file.read_text().strip().splitlines()
    e_lines = e_file.read_text().strip().splitlines()
    assert p_lines[0] == "path,t,P,E,Y"
    assert len(p_lines) == 1 + 5 * bundle.times.size
    assert e_lines[0] == "path,k,E_Tk,cap,Y_left,Y_right,branch"
    assert len(e_lines) == 1 + 2 * 32


def test_events_csv_rows_run_on_across_a_block(tmp_path, factor_field):
    spec, field = factor_field
    bundle = simulate(field, spec, n_paths=_CSV_ROWS + 3, steps_per_period=2, seed=0,
                      keep_paths=0)
    events_csv(bundle, tmp_path / "events.csv")
    columns = (bundle.compliance_E, bundle.compliance_cap, bundle.compliance_left,
               bundle.compliance_right)
    rows = [",".join([str(i), str(k + 1)] + ["%.17g" % c[k, i] for c in columns]
                     + [_BRANCH_NAMES[int(bundle.branch[k, i])]])
            for k in range(bundle.n_periods) for i in range(bundle.n_paths)]
    lines = (tmp_path / "events.csv").read_text().splitlines()
    assert lines[1:] == rows


def test_events_csv_holds_a_block_of_rows(tmp_path, factor_field):
    """Eight times the paths may not raise the writer's traced peak past
    twice that of one block: it holds one block's floats and strings."""
    spec, field = factor_field
    peaks = []
    for n_paths in (_CSV_ROWS, 8 * _CSV_ROWS):
        bundle = simulate(field, spec, n_paths=n_paths, steps_per_period=2, seed=0,
                          keep_paths=0)
        events_csv(bundle, tmp_path / "warm.csv")
        tracemalloc.start()
        try:
            events_csv(bundle, tmp_path / "events.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks
