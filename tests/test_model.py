"""Coefficient, cap, and terminal-condition validation tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbon_fbsde.errors import ValidationError
from carbon_fbsde.model import (
    CapFunction,
    CoefficientSet,
    MarketSpec,
    SampleBox,
    indicator_terminal,
    make_cap_allocation,
    make_cap_msr,
    smoothed_indicator,
    validate_coefficients,
)
from carbon_fbsde.model import _N_SAMPLES, _r_sequence
from carbon_fbsde.config import expression_coefficients, preset_coefficients

positive_floats = st.floats(0.05, 5.0)


def no_factor(m0: float = 1.2, m2: float = 1.0, rate: float = 0.0):
    return preset_coefficients("no-factor", {"m0": m0, "m2": m2}, rate)


# ----------------------------------------------------------------------
# coefficient sets
# ----------------------------------------------------------------------

def test_coefficient_constants_must_nest():
    with pytest.raises(ValidationError):
        CoefficientSet(dim_p=0, emissions_rate=lambda p, y: 1.0 - y,
                       rate=0.0, lipschitz_L=2.0, mono_l1=3.0, mono_l2=1.0)


def test_factor_model_requires_dynamics():
    with pytest.raises(ValidationError):
        CoefficientSet(dim_p=1, emissions_rate=lambda p, y: 1.0 - y,
                       rate=0.0, lipschitz_L=2.0, mono_l1=0.5, mono_l2=1.0)


def test_validate_coefficients_accepts_presets():
    for coeffs in (no_factor(), preset_coefficients("linear-abatement", {}, 0.05)):
        assert validate_coefficients(coeffs) == ()


def test_validate_coefficients_catches_understated_slope():
    """Declaring a tighter monotonicity window than the function has."""
    coeffs = CoefficientSet(dim_p=0,
                            emissions_rate=lambda p, y: 1.2 - 2.0 * np.asarray(y),
                            rate=0.0, lipschitz_L=4.0, mono_l1=2.5, mono_l2=3.0)
    assert validate_coefficients(coeffs)


def test_validate_coefficients_catches_increasing_rate():
    coeffs = CoefficientSet(dim_p=0, emissions_rate=lambda p, y: np.asarray(y),
                            rate=0.0, lipschitz_L=2.0, mono_l1=0.5, mono_l2=1.0)
    assert validate_coefficients(coeffs)


def test_validation_sequence_is_deterministic():
    assert np.array_equal(_r_sequence(_N_SAMPLES, 4), _r_sequence(_N_SAMPLES, 4))
    coeffs = expression_coefficients({
        "mu": "0.6 + 3.0 * p - y - 0.5 * y * y * y", "dim_p": 1, "drift": "-p",
        "vol": "0.5", "lipschitz_L": 2.0, "mono_l1": 1.5, "mono_l2": 2.0}, rate=0.0)
    assert validate_coefficients(coeffs) == validate_coefficients(coeffs) != ()


@pytest.mark.parametrize("dim", [2, 4])
def test_validation_pairs_fill_the_box(dim):
    """Every decile of every axis holds close to a tenth of the points, and
    the ``(y, y')`` pairs hit every cell of a 10 x 10 split of their square."""
    u = _r_sequence(_N_SAMPLES, dim)
    assert u.shape == (_N_SAMPLES, dim) and 0.0 <= u.min() and u.max() < 1.0
    deciles = (10 * u).astype(int)
    for axis in deciles.T:
        counts = np.bincount(axis, minlength=10)
        assert counts.size == 10 and np.all(np.abs(counts / (_N_SAMPLES / 10) - 1) < 0.03)
    assert np.unique(10 * deciles[:, 0] + deciles[:, 1]).size == 100


@pytest.mark.parametrize("expr", [
    # slope 1 + 1.5 y^2 in y: at least 1, declared at least 1.1
    {"mu": "0.6 - y - 0.5 * y * y * y", "dim_p": 0,
     "lipschitz_L": 3.5, "mono_l1": 1.1, "mono_l2": 3.5},
    # joint Lipschitz constant 3 (in p), declared 2.7
    {"mu": "0.6 + 3.0 * p - y", "dim_p": 1, "drift": "-p", "vol": "0.5",
     "lipschitz_L": 2.7, "mono_l1": 1.0, "mono_l2": 1.0},
], ids=["mono_l1-10%-high", "lipschitz_L-10%-low"])
def test_validation_refuses_a_constant_off_by_a_tenth(expr):
    assert validate_coefficients(expression_coefficients(expr, rate=0.0))


def test_sample_box_defaults_cover_the_unit_band():
    box = SampleBox()
    assert box.y_low < 0.0 < 1.0 < box.y_high


@settings(max_examples=100, deadline=None)
@given(a=st.floats(-2.0, 2.0), b=st.floats(-1.0, 1.0), d=st.floats(-0.5, 0.5),
       m2=st.floats(0.05, 3.0), c=st.floats(0.0, 1.0),
       lo=st.floats(-4.0, 0.0), width=st.floats(0.1, 8.0), n=st.integers(3, 65))
def test_speed_helper_matches_a_brute_force_scan(a, b, d, m2, c, lo, width, n):
    """The rate falls in y, so its extremes over y in [0, 1] on the nodes
    are the extremes of the scan over nodes x {0, 1}, exactly."""
    coeffs = expression_coefficients({
        "mu": f"{a!r} + {b!r} * p + {d!r} * p * p - {m2!r} * y - {c!r} * y * y * y",
        "drift": "-p", "vol": "0.5", "dim_p": 1,
        "lipschitz_L": 10.0, "mono_l1": 0.1, "mono_l2": 10.0}, rate=0.0)
    nodes = np.linspace(lo, lo + width, n)
    rates = [float(coeffs.emissions_rate(p, y)) for p in nodes for y in (0.0, 1.0)]
    assert coeffs.rate_range(nodes) == (min(rates), max(rates))
    assert coeffs.peak_speed(nodes) == max(abs(r) for r in rates)


# ----------------------------------------------------------------------
# cap constructions
# ----------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.lists(positive_floats, min_size=1, max_size=6))
def test_allocation_caps_are_cumulative(allocations):
    caps = make_cap_allocation(allocations, "banking-withdrawal")
    assert len(caps) == len(allocations)
    running = 0.0
    for cap, alloc in zip(caps, allocations):
        running += alloc
        assert cap.is_constant
        assert cap.level() == pytest.approx(running, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(positive_floats, min_size=2, max_size=6))
def test_borrowing_caps_lead_by_one_allocation(allocations):
    """With one-period borrowing each cap includes the next allocation,
    except the final one which closes at the total."""
    caps = make_cap_allocation(allocations, "banking-borrowing-withdrawal")
    total = sum(allocations)
    for k, cap in enumerate(caps, start=1):
        expected = sum(allocations[:min(k + 1, len(allocations))])
        assert cap.level() == pytest.approx(expected, rel=1e-12)
    assert caps[-1].level() == pytest.approx(total, rel=1e-12)


def test_allocation_caps_reject_bad_input():
    with pytest.raises(ValidationError):
        make_cap_allocation([1.0, -0.5], "banking-withdrawal")
    with pytest.raises(ValidationError):
        make_cap_allocation([1.0], "free-for-all")


def test_msr_cap_branch_arithmetic():
    c1, c2 = 0.6, 0.6
    caps = make_cap_msr(c1, c2, kappa_low=0.18, kappa_high=0.72,
                        top_up=0.12, retain_fraction=0.88)
    assert caps[0].is_constant and caps[0].level() == pytest.approx(0.6)
    second = caps[1]
    assert not second.is_constant
    # slack 0.1 below the lower band: topped up by 0.12
    assert second.level(1.1) == pytest.approx(1.32, rel=1e-12)
    # slack 0.9 above the upper band: retained at 88 percent
    assert second.level(0.3) == pytest.approx(0.3 + 0.9 * 0.88, rel=1e-12)
    # slack 0.6 inside the band: untouched
    assert second.level(0.6) == pytest.approx(1.2, rel=1e-12)


# ----------------------------------------------------------------------
# terminal surfaces
# ----------------------------------------------------------------------

def test_indicator_terminal_values():
    surface = indicator_terminal(CapFunction.constant(0.5))
    fn = surface.fn
    assert fn(None, np.array([0.4]))[0] == 0.0
    assert fn(None, np.array([0.5]))[0] == 1.0
    assert fn(None, np.array([0.6]))[0] == 1.0


def test_smoothed_indicator_midpoint_and_edges():
    surface = smoothed_indicator(CapFunction.constant(0.0), width=0.1)
    fn = surface.fn
    e = np.array([-0.1, -0.05, 0.0, 0.05, 0.1])
    vals = fn(None, e)
    assert vals[0] == 0.0 and vals[-1] == 1.0
    assert vals[2] == pytest.approx(0.5, abs=1e-12)
    assert np.all(np.diff(vals) >= 0.0)


@settings(max_examples=50, deadline=None)
@given(width=st.floats(0.01, 0.5), level=st.floats(-1.0, 1.0))
def test_smoothed_indicator_stays_in_range(width, level):
    surface = smoothed_indicator(CapFunction.constant(level), width)
    e = np.linspace(level - 1.0, level + 1.0, 401)
    vals = surface.fn(None, e)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(np.diff(vals) >= -1e-15)


# ----------------------------------------------------------------------
# market specs
# ----------------------------------------------------------------------

def _two_period_spec(**overrides):
    caps = make_cap_allocation([1.0, 1.0], "banking-withdrawal")
    base = dict(coefficients=no_factor(), horizon="finite",
                period_ends=(1.0, 2.0), caps=tuple(caps))
    base.update(overrides)
    return MarketSpec(**base)


def test_market_spec_period_bounds():
    spec = _two_period_spec()
    assert spec.n_periods == 2
    assert spec.period_bounds(1) == (0.0, 1.0)
    assert spec.period_bounds(2) == (1.0, 2.0)
    with pytest.raises(ValidationError):
        spec.period_bounds(3)


def test_market_spec_rejects_unsorted_period_ends():
    with pytest.raises(ValidationError):
        _two_period_spec(period_ends=(2.0, 1.0))


def test_market_spec_final_terminal_kind():
    sharp = _two_period_spec()
    assert sharp.final_terminal().label
    smooth = _two_period_spec(terminal_kind="smoothed-indicator",
                              terminal_width=0.05)
    fn = smooth.final_terminal().fn
    lvl = 2.0
    assert fn(None, np.array([lvl]))[0] == pytest.approx(0.5, abs=1e-12)
