"""Config ingestion: presets, expression coefficients, plan building."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbon_fbsde import config
from carbon_fbsde.cli import main
from carbon_fbsde.config import (
    build_plan,
    bundled_preset,
    expression_coefficients,
    load_config,
    preset_coefficients,
)
from carbon_fbsde.errors import ConfigError

PRESET_NAMES = ("burgers", "two-period-msr", "two-period-factor", "rolling-r005")


# ----------------------------------------------------------------------
# coefficient presets
# ----------------------------------------------------------------------

def test_unknown_preset_and_params_are_rejected():
    with pytest.raises(ConfigError):
        preset_coefficients("cubic-abatement", {}, 0.0)
    with pytest.raises(ConfigError):
        preset_coefficients("no-factor", {"m0": 1.0, "m3": 2.0}, 0.0)
    with pytest.raises(ConfigError):
        preset_coefficients("no-factor", {"m0": 1.0, "m2": -1.0}, 0.0)


@settings(max_examples=100, deadline=None)
@given(m0=st.floats(-2.0, 2.0), m2=st.floats(0.05, 5.0))
def test_no_factor_preset_always_validates(m0, m2):
    """Whatever the slope, the derived regularity constants must admit it."""
    coeffs = preset_coefficients("no-factor", {"m0": m0, "m2": m2}, 0.0)
    assert coeffs.mono_l1 == coeffs.mono_l2 == m2
    assert 1.0 / coeffs.lipschitz_L <= coeffs.mono_l1 <= coeffs.lipschitz_L


def test_factor_preset_carries_ou_parameters():
    coeffs = preset_coefficients("linear-abatement", {}, 0.05)
    assert coeffs.dim_p == 1
    assert coeffs.ou_kappa == 1.0 and coeffs.ou_sigma == 0.5
    assert coeffs.emissions_slope is not None


# ----------------------------------------------------------------------
# expression coefficients
# ----------------------------------------------------------------------

def expr_tree(mu: str, **extra):
    tree = {"mu": mu, "dim_p": 0, "lipschitz_L": 4.0,
            "mono_l1": 0.28, "mono_l2": 1.29}
    tree.update(extra)
    return tree


def test_expression_mu_evaluates():
    coeffs = expression_coefficients(expr_tree("exp(-y) - 0.5"), rate=0.0)
    got = float(coeffs.emissions_rate(None, 0.0))
    assert got == pytest.approx(0.5, abs=1e-12)


def test_expression_rejects_attribute_access():
    with pytest.raises(ConfigError):
        expression_coefficients(expr_tree("np.exp(y)"), rate=0.0)


def test_expression_rejects_unknown_names():
    with pytest.raises(ConfigError):
        expression_coefficients(expr_tree("secret + y"), rate=0.0)


def test_expression_rejects_non_whitelisted_calls():
    with pytest.raises(ConfigError):
        expression_coefficients(expr_tree("eval('1')"), rate=0.0)


def test_expression_rejects_keyword_arguments():
    with pytest.raises(ConfigError):
        expression_coefficients(expr_tree("where(y, x=1, y=2)"), rate=0.0)


def test_expression_requires_declared_constants():
    with pytest.raises(ConfigError):
        expression_coefficients({"mu": "1 - y", "dim_p": 0}, rate=0.0)


# ----------------------------------------------------------------------
# plan building
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", PRESET_NAMES)
def test_bundled_presets_build(name):
    plan = build_plan(bundled_preset(name))
    assert plan.config_hash
    assert plan.resolved["label"] == plan.label


def test_plan_hash_is_stable_and_sensitive():
    a = build_plan(bundled_preset("burgers"))
    b = build_plan(bundled_preset("burgers"))
    assert a.config_hash == b.config_hash

    tree = bundled_preset("burgers")
    tree["grid"]["n_e"] = 200
    c = build_plan(tree)
    assert c.config_hash != a.config_hash


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_restating_the_retired_grid_defaults_keeps_the_config_hash(name):
    """The two retired grid keys stay in the defaults at their one value,
    so a config may restate it and resolve, and hash, as one that does not."""
    tree = bundled_preset(name)
    tree.setdefault("grid", {}).update(mollify_width=0.0, flux_scheme="godunov")
    plan, bare = build_plan(tree), build_plan(bundled_preset(name))
    assert plan.resolved == bare.resolved
    assert plan.config_hash == bare.config_hash


def test_plan_rejects_increasing_emission_rate():
    tree = bundled_preset("burgers")
    tree["coefficients"] = {"expression": {"mu": "y", "dim_p": 0,
                                           "lipschitz_L": 4.0,
                                           "mono_l1": 0.5, "mono_l2": 1.0}}
    with pytest.raises(ConfigError):
        build_plan(tree)


def test_cap_kind_validation():
    tree = bundled_preset("burgers")
    tree["cap"] = {"kind": "levels", "parameters": {"levels": [0.0, 1.0]}}
    with pytest.raises(ConfigError):
        build_plan(tree)  # one period, two levels

    tree = bundled_preset("two-period-factor")
    tree["cap"] = {"kind": "msr", "parameters": {"c1": 0.6}}
    with pytest.raises(ConfigError):
        build_plan(tree)  # msr needs its full parameter set

    tree = bundled_preset("rolling-r005")
    tree["cap"] = {"kind": "levels", "parameters": {"levels": [1.0]}}
    with pytest.raises(ConfigError):
        build_plan(tree)  # rolling market prices one allocation per period


def test_rolling_grid_must_align_with_the_allocation():
    tree = bundled_preset("rolling-r005")
    tree["grid"] = {"e_min": -1.5, "e_max": 2.53, "n_e": 400}
    with pytest.raises(ConfigError):
        build_plan(tree)


def test_rolling_plan_without_a_grid_snaps_to_the_allocation():
    """With no grid block the box is the plan's own choice, so it is
    snapped: the allocation is a whole number of cells on a cell edge."""
    tree = bundled_preset("rolling-r005")
    del tree["grid"]
    tree["coefficients"]["parameters"]["m0"] = 1.2
    solver = build_plan(tree).solver
    de = (solver.e_max - solver.e_min) / solver.n_e
    cells, edge = 1.0 / de, (1.0 - solver.e_min) / de
    assert abs(cells - round(cells)) <= 1e-9
    assert abs(edge - round(edge)) <= 1e-9


def test_bundled_rolling_grid_is_kept():
    solver = build_plan(bundled_preset("rolling-r005")).solver
    assert (solver.e_min, solver.e_max, solver.n_e) == (-1.5, 2.5, 400)


def cubic_factor_tree():
    """Factor market whose rate steepens in p: Lipschitz 1 holds on
    [-1, 1] but not on the preset's factor box [-3, 3]."""
    tree = bundled_preset("two-period-factor")
    tree["coefficients"] = {"expression": {
        "mu": "1.4 - y + 0.05*p**3", "drift": "-p", "vol": "0.5", "dim_p": 1,
        "lipschitz_L": 1.0, "mono_l1": 1.0, "mono_l2": 1.0}}
    return tree


def test_a_declared_slope_the_rate_lacks_exits_2(tmp_path, monkeypatch):
    def misdeclared(name, params, rate):
        coeffs = preset_coefficients(name, params, rate)
        return dataclasses.replace(coeffs, emissions_slope=1.01 * coeffs.emissions_slope)

    monkeypatch.setattr(config, "preset_coefficients", misdeclared)
    with pytest.raises(ConfigError, match="emissions_slope"):
        build_plan(bundled_preset("two-period-factor"))
    assert main(["price-multi", "--config", "preset:burgers",
                 "--out", str(tmp_path / "out")]) == 2


def test_coefficients_are_validated_on_the_solver_factor_box(tmp_path):
    with pytest.raises(ConfigError, match="mu Lipschitz"):
        build_plan(cubic_factor_tree())
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(cubic_factor_tree()))
    assert main(["price-multi", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2

    narrow = cubic_factor_tree()
    narrow["grid"].update(p_min=-1.0, p_max=1.0)
    build_plan(narrow)


def test_rolling_plan_resolves_tolerance_from_the_span():
    plan = build_plan(bundled_preset("rolling-r005"))
    span = plan.solver.e_max - plan.solver.e_min
    assert plan.infinite_opts["tol_l1"] == pytest.approx(1e-4 * span)


def test_factor_plan_auto_p_box_covers_excursions(rolling_factor_tree):
    tree = bundled_preset("two-period-factor")
    del tree["grid"]["p_min"], tree["grid"]["p_max"], tree["grid"]["n_p"]
    plan = build_plan(tree)
    sigma = plan.spec.coefficients.ou_sigma
    horizon = plan.spec.period_ends[-1]
    assert plan.solver.p_max >= 4.0 * sigma * np.sqrt(horizon)
    assert plan.solver.p_min == -plan.solver.p_max

    # a rolling market is simulated over n_periods periods, not one
    tree = rolling_factor_tree
    tree["grid"] = {"e_min": -2.5, "e_max": 3.5, "n_e": 300, "n_p": 25}
    tree["simulation"] = {"n_periods": 2}
    plan = build_plan(tree)
    sigma = plan.spec.coefficients.ou_sigma
    assert plan.solver.p_max >= 4.0 * sigma * np.sqrt(2 * plan.spec.period_length)
    assert plan.solver.p_min == -plan.solver.p_max
    tree["simulation"] = {"n_periods": 0}
    with pytest.raises(ConfigError, match="n_periods"):
        build_plan(tree)


def test_simulation_overrides_survive_the_merge():
    tree = bundled_preset("burgers")
    tree["simulation"] = {"n_paths": 7, "seed": 11}
    plan = build_plan(tree)
    assert plan.simulation["n_paths"] == 7
    assert plan.simulation["seed"] == 11
    assert plan.simulation["steps_per_period"] == 512  # default retained


# ----------------------------------------------------------------------
# file loading
# ----------------------------------------------------------------------

def test_load_config_preset_shorthand():
    a = load_config("preset:burgers")
    b = build_plan(bundled_preset("burgers"))
    assert a.config_hash == b.config_hash


def test_load_config_reads_json_files(tmp_path):
    tree = bundled_preset("burgers")
    path = tmp_path / "run.json"
    path.write_text(json.dumps(tree))
    plan = load_config(path)
    assert plan.config_hash == build_plan(bundled_preset("burgers")).config_hash


def test_load_config_error_paths(tmp_path):
    with pytest.raises(ConfigError):
        load_config("preset:nonexistent")
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
