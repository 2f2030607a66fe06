"""Shared fixtures and the acceptance summary hook.

The expensive artifacts (solved preset fields, the large path bundle)
are session-scoped so the acceptance criteria and the unit tests read
the same objects and the whole suite stays at desk scale.
"""

import time

import pytest

from carbon_fbsde import simulate, solve_infinite
from carbon_fbsde.config import build_plan, bundled_preset
from oracle import solve_grids

FINITE_PRESETS = ("burgers", "two-period-msr", "two-period-factor")


def smoothed_tree(name: str, width: float = 0.05) -> dict:
    tree = bundled_preset(name)
    tree["terminal"] = {"kind": "smoothed-indicator", "width": width}
    tree["label"] = tree["label"] + "-smooth"
    return tree


def _rolling_factor_market() -> dict:
    return {
        "label": "rolling-factor", "rate": 0.05, "horizon": "infinite",
        "period_length": 1.0,
        "cap": {"kind": "per-period", "parameters": {"allocation": 1.0}},
        "coefficients": {"preset": "linear-abatement", "parameters": {
            "m0": 1.4, "m1": 0.1, "m2": 1.0, "kappa": 1.0, "sigma": 0.5}},
    }


@pytest.fixture()
def rolling_factor_tree():
    """The rolling factor market of ``perfbench/rolling-factor.json``,
    without its grid block."""
    return _rolling_factor_market()


@pytest.fixture(scope="session")
def coarse_rolling_factor():
    """``(spec, grid)``: that market's stationary grid on a coarse box
    wide enough for three rolled periods."""
    tree = {**_rolling_factor_market(),
            "grid": {"e_min": -2.5, "e_max": 3.5, "n_e": 120,
                     "p_min": -4.0, "p_max": 4.0, "n_p": 13}}
    plan = build_plan(tree)
    spec = plan.spec
    grid, _ = solve_infinite(spec.coefficients, spec.period_length, spec.cap_per_period,
                             plan.solver, tol_l1=plan.infinite_opts["tol_l1"],
                             max_iter=plan.infinite_opts.get("max_iter"))
    return spec, grid


@pytest.fixture(scope="session")
def preset_fields():
    """Period grids of every finite preset, sharp and smoothed terminals."""
    out = {}
    for name in FINITE_PRESETS:
        plan = build_plan(bundled_preset(name))
        out[name] = (plan, solve_grids(plan.spec, plan.solver))
        plan_s = build_plan(smoothed_tree(name))
        out[name + "+smooth"] = (plan_s, solve_grids(plan_s.spec, plan_s.solver))
    return out


@pytest.fixture(scope="session")
def rolling_result():
    """Converged stationary field of the rolling preset, with certificate."""
    plan = build_plan(bundled_preset("rolling-r005"))
    t0 = time.monotonic()
    grid, cert = solve_infinite(
        plan.spec.coefficients, plan.spec.period_length, plan.spec.cap_per_period,
        plan.solver, tol_l1=plan.infinite_opts.get("tol_l1"),
        max_iter=plan.infinite_opts.get("max_iter"))
    return plan, grid, cert, time.monotonic() - t0


@pytest.fixture(scope="session")
def factor_bundle():
    """A 10^5-path run on the factor preset with quarter-point snapshots.

    Solved and simulated inside the fixture so the recorded time covers
    the whole pipeline the runtime budget applies to.
    """
    t0 = time.monotonic()
    plan = build_plan(bundled_preset("two-period-factor"))
    field = solve_grids(plan.spec, plan.solver)
    bundle = simulate(field, plan.spec, n_paths=100_000, steps_per_period=512,
                      seed=0, snapshot_times=[0.0, 0.25, 0.5, 1.0, 1.5, 2.0])
    return plan, bundle, time.monotonic() - t0


@pytest.fixture(scope="session")
def forced_over_bundle():
    """Factor-preset variant whose first cap sits below the forced-emission
    floor, so every path lands above it at the first compliance date."""
    tree = bundled_preset("two-period-factor")
    tree["cap"]["parameters"]["allocations"] = [0.42, 1.0]
    tree["grid"]["e_min"] = -1.3
    tree["label"] = "two-period-factor-forced"
    plan = build_plan(tree)
    field = solve_grids(plan.spec, plan.solver)
    bundle = simulate(field, plan.spec, n_paths=20_000, steps_per_period=256,
                      seed=0)
    return plan, bundle


# ----------------------------------------------------------------------
# acceptance reporting: one line per numbered criterion in the summary
# ----------------------------------------------------------------------

_CRITERIA = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(n, summary): numbered acceptance criterion")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when != "call":
        return
    mark = item.get_closest_marker("criterion")
    if mark is not None:
        n, summary = mark.args
        _CRITERIA[n] = (summary, rep.outcome)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_CRITERIA):
        summary, outcome = _CRITERIA[n]
        word = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(f"criterion {n:2d}: {word}  {summary}")
