"""Acceptance gate: one test per numbered release criterion.

Each test pins the tolerance it must meet; the conftest hook prints a
one-line PASS/FAIL verdict per criterion after the run.  Shared heavy
artifacts (preset fields, the large path bundle) come from session
fixtures so the gate stays inside its stated runtime budgets.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from carbon_fbsde import (
    martingale_test,
    jump_consistency_test,
    solve_one_period,
)
from carbon_fbsde.cli import main
from carbon_fbsde.config import build_plan, bundled_preset, preset_coefficients
from carbon_fbsde.model import (
    CapFunction,
    MarketSpec,
    indicator_terminal,
    make_cap_allocation,
    smoothed_indicator,
)
from carbon_fbsde.pde_kernel import SolverConfig, diagnostics
from oracle import (burgers_rarefaction, compare_l1, constant_surface,
                    solve_grids, translation_check, verify_burgers_form)

TOL_EXACT = 1e-12

ALL_FIELDS = ("burgers", "burgers+smooth", "two-period-msr",
              "two-period-msr+smooth", "two-period-factor",
              "two-period-factor+smooth")


@pytest.mark.criterion(1, "closed-form rarefaction match at 400 cells")
def test_criterion_01_burgers_oracle():
    t_start = time.monotonic()
    coeffs = preset_coefficients("no-factor", {"m0": 0.0, "m2": 1.0}, 0.0)
    clearing = verify_burgers_form(coeffs)
    exact = burgers_rarefaction(clearing, 0.0, 1.0)

    grid = solve_one_period(coeffs, indicator_terminal(CapFunction.constant(0.0)),
                            0.0, 1.0,
                            SolverConfig(e_min=-1.0, e_max=1.0, n_e=400,
                                         cfl_target=0.9))
    lo, hi = float(grid.e_nodes[0]), float(grid.e_nodes[-1])
    report = compare_l1(grid, exact, 0.0, lo, hi)
    elapsed = time.monotonic() - t_start

    assert report["l1"] <= 0.01, f"L1 error {report['l1']:.5f} above 0.01"
    assert report["sup"] <= 0.02, f"sup error {report['sup']:.5f} above 0.02"
    assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"


@pytest.mark.criterion(2, "sure payoff prices at the discount factor")
def test_criterion_02_discount_identity():
    rate, tau = 0.05, 1.0
    target = math.exp(-rate * tau)

    flat = solve_one_period(
        preset_coefficients("no-factor", {"m0": 1.2, "m2": 1.0}, rate),
        constant_surface(1.0), 0.0, tau,
        SolverConfig(e_min=-1.0, e_max=1.0, n_e=128))
    gap0 = np.max(np.abs(flat.values[0] - target))
    assert gap0 <= 1e-8, f"no-factor start slice off by {gap0:.3e}"

    factor = solve_one_period(
        preset_coefficients("linear-abatement", {}, rate),
        constant_surface(1.0), 0.0, tau,
        SolverConfig(e_min=-1.0, e_max=1.0, n_e=64,
                     p_min=-2.0, p_max=2.0, n_p=17))
    gap1 = np.max(np.abs(factor.values[0] - target))
    assert gap1 <= 1e-8, f"factor start slice off by {gap1:.3e}"


def _comparison_pairs():
    """Solved pairs with ordered terminal data, low cap first."""
    pairs = []
    coeffs = preset_coefficients("no-factor", {"m0": 1.2, "m2": 1.0}, 0.05)
    config = SolverConfig(e_min=-2.0, e_max=2.0, n_e=400)
    for make in (indicator_terminal,
                 lambda cap: smoothed_indicator(cap, 0.05)):
        lo = solve_one_period(coeffs, make(CapFunction.constant(0.0)),
                              0.0, 1.0, config)
        hi = solve_one_period(coeffs, make(CapFunction.constant(0.2)),
                              0.0, 1.0, config)
        pairs.append((lo, hi))

    fcoeffs = preset_coefficients("linear-abatement", {}, 0.05)
    fconfig = SolverConfig(e_min=-0.7, e_max=4.0, n_e=320,
                           p_min=-3.0, p_max=3.0, n_p=33)
    lo = solve_one_period(fcoeffs, indicator_terminal(CapFunction.constant(1.2)),
                          0.0, 1.0, fconfig)
    hi = solve_one_period(fcoeffs, indicator_terminal(CapFunction.constant(1.4)),
                          0.0, 1.0, fconfig)
    pairs.append((lo, hi))
    return pairs


@pytest.mark.criterion(3, "range, monotonicity, comparison on the preset suite")
def test_criterion_03_structural_invariants(preset_fields):
    for name in ALL_FIELDS:
        plan, field = preset_fields[name]
        for k, grid in enumerate(field, start=1):
            report = diagnostics(grid, plan.spec.coefficients.mono_l1, tol=TOL_EXACT)
            assert report.max_range_violation <= TOL_EXACT, \
                f"{name} period {k}: range violation {report.max_range_violation:.3e}"
            assert report.scheme_added_monotonicity <= TOL_EXACT, \
                f"{name} period {k}: created defect {report.scheme_added_monotonicity:.3e}"

    for lo, hi in _comparison_pairs():
        worst = float(np.max(hi.values - lo.values))
        assert worst <= TOL_EXACT, \
            f"comparison violated by {worst:.3e}: smaller terminal won somewhere"


@pytest.mark.criterion(4, "space-Lipschitz quotient within 5% of the model bound")
def test_criterion_04_lipschitz_bound(preset_fields):
    for name in ALL_FIELDS:
        plan, field = preset_fields[name]
        for k, grid in enumerate(field, start=1):
            report = diagnostics(grid, plan.spec.coefficients.mono_l1,
                                 lipschitz_headroom=0.05, min_age=0.1)
            assert report.lipschitz_excess <= 0.05, \
                f"{name} period {k}: quotient excess {report.lipschitz_excess:.3f}"


@pytest.mark.criterion(5, "terminal-data contraction in L1, discounted")
def test_criterion_05_l1_contraction():
    rate = 0.05
    coeffs = preset_coefficients("no-factor", {"m0": 1.2, "m2": 1.0}, rate)
    config = SolverConfig(e_min=-1.5, e_max=1.7, n_e=400, n_steps=200)
    a = solve_one_period(coeffs, indicator_terminal(CapFunction.constant(0.0)),
                         0.0, 1.0, config)
    b = solve_one_period(coeffs, indicator_terminal(CapFunction.constant(0.2)),
                         0.0, 1.0, config)
    de = a.delta_e
    phi_gap = float(np.sum(np.abs(a.values[-1] - b.values[-1]))) * de
    assert phi_gap > 0.0

    for t in (0.0, 0.5):
        it = int(np.argmin(np.abs(a.times - t)))
        assert abs(a.times[it] - t) < 1e-12, "t must sit on a stored slice"
        num = float(np.sum(np.abs(a.values[it] - b.values[it]))) * de
        bound = math.exp(-rate * (1.0 - t)) * phi_gap
        ratio = num / bound
        assert ratio <= 1.05, f"t={t}: L1 gap ratio {ratio:.4f} above 1.05"


@pytest.mark.criterion(6, "extra leading period only translates the field")
def test_criterion_06_translation():
    t_start = time.monotonic()
    lam = 0.5
    coeffs = preset_coefficients("no-factor", {"m0": 1.2, "m2": 1.0}, 0.05)
    config = SolverConfig(e_min=-2.1, e_max=2.9, n_e=400)

    def market(q):
        return MarketSpec(
            coefficients=coeffs, horizon="finite",
            period_ends=tuple(float(k) for k in range(1, q + 1)),
            caps=tuple(make_cap_allocation([lam] * q, "banking-withdrawal")),
            label=f"constant-cap-{q}")

    long_f = solve_grids(market(3), config)
    short_f = solve_grids(market(2), config)
    for k in (2, 3):
        out = translation_check(long_f, short_f, k=k, shift=lam,
                                e_window=(-0.5, 2.3))
        assert out["max_residual"] <= 0.02, \
            f"period {k}: translation residual {out['max_residual']:.3e}"
    elapsed = time.monotonic() - t_start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


@pytest.mark.criterion(7, "rolling-market sweeps contract at the discount rate")
def test_criterion_07_picard_contraction(rolling_result):
    plan, grid, cert, elapsed = rolling_result
    assert cert.converged, "iteration did not reach its tolerance"

    residuals = list(cert.residuals)
    assert len(residuals) >= 2
    for i in range(1, len(residuals)):
        assert residuals[i] < residuals[i - 1], \
            f"residuals not strictly decreasing at sweep {i + 1}: {residuals}"

    bound = cert.contraction["factor"] + 0.05
    for ratio in cert.observed_ratios:
        assert ratio <= bound, f"contraction ratio {ratio:.4f} above {bound:.4f}"

    tol = cert.contraction["tol_l1"]
    assert cert.residual <= tol
    assert cert.contraction["self_consistency"] <= 2.0 * tol, \
        "fixed point does not reproduce itself within twice the tolerance"
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"


@pytest.mark.criterion(8, "value sweeps are nodewise monotone increasing")
def test_criterion_08_sweep_monotonicity(rolling_result):
    _, _, cert, _ = rolling_result
    assert cert.min_increase >= 0.0, \
        f"a sweep lowered the field by {-cert.min_increase:.3e}"


@pytest.mark.criterion(9, "discounted price is a martingale within 3 SE")
def test_criterion_09_martingale(factor_bundle):
    plan, bundle, elapsed = factor_bundle
    report = martingale_test(bundle, plan.spec.coefficients.rate, 0.0, 0.25)
    assert report.se > 0.0
    assert report.passed, \
        (f"drift {report.delta:.3e} outside 3*SE={3 * report.se:.3e} "
         f"over [0, 0.25]")
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"


@pytest.mark.criterion(10, "compliance-date jump matches the cap trichotomy")
def test_criterion_10_jump_consistency(factor_bundle, forced_over_bundle):
    _, bundle, _ = factor_bundle
    below = jump_consistency_test(bundle, margin_cells=3.0)
    assert below.n_below > 0, "no paths cleared the first cap from below"
    assert below.below_residual <= 0.02, \
        f"below-cap continuity residual {below.below_residual:.4f} above 0.02"

    _, over = forced_over_bundle
    above = jump_consistency_test(over, margin_cells=3.0)
    assert above.n_above > 0, "no paths breached the first cap"
    assert above.above_residual <= 0.02, \
        f"above-cap settlement residual {above.above_residual:.4f} above 0.02"


@pytest.mark.criterion(11, "fixed seeds give byte-identical artifacts")
def test_criterion_11_reproducibility(tmp_path):
    config = "preset:burgers"
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / f"price-{tag}"
        assert main(["price-multi", "--config", config, "--out", str(out)]) == 0
        runs.append(out)
    m0 = json.loads((runs[0] / "manifest.json").read_text())
    m1 = json.loads((runs[1] / "manifest.json").read_text())
    assert m0["content_hash"] == m1["content_hash"]
    for entry in m0["artifacts"]:
        b0 = (runs[0] / entry["path"]).read_bytes()
        b1 = (runs[1] / entry["path"]).read_bytes()
        assert b0 == b1, f"artifact {entry['path']} differs between runs"

    sims = []
    for tag in ("a", "b"):
        out = tmp_path / f"sim-{tag}"
        assert main(["simulate", "--config", config,
                     "--field", str(runs[0] / "field"),
                     "--out", str(out)]) == 0
        sims.append(out)
    s0 = json.loads((sims[0] / "manifest.json").read_text())
    s1 = json.loads((sims[1] / "manifest.json").read_text())
    assert s0["content_hash"] == s1["content_hash"]
    assert ((sims[0] / "paths.csv").read_bytes()
            == (sims[1] / "paths.csv").read_bytes())


@pytest.mark.criterion(12, "vanishing viscosity converges to the sharp field")
def test_criterion_12_viscosity_limit():
    plan = build_plan(bundled_preset("burgers"))
    spec = plan.spec

    def start_slice(viscosity):
        config = dataclasses.replace(plan.solver, viscosity=viscosity)
        return solve_grids(spec, config)[0].values[0]

    sharp = start_slice(0.0)
    de = (plan.solver.e_max - plan.solver.e_min) / plan.solver.n_e
    distances = [float(np.sum(np.abs(start_slice(eps) - sharp))) * de
                 for eps in (0.1, 0.05, 0.025)]
    assert distances[0] > distances[1] > distances[2], \
        f"L1 distances not monotone along the viscosity ladder: {distances}"
