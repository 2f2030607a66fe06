"""Tests for the reference-solution oracle.

The closed-form rarefaction values below are hand-computed from the
similarity solution and frozen here; the fine-grid reference is then
checked against them, never against the production kernel.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbon_fbsde.config import preset_coefficients
from carbon_fbsde.errors import ValidationError
from oracle import (
    burgers_rarefaction,
    compare_l1,
    fine_grid_reference,
    ou_moments,
    picard_contraction_factor,
    richardson_probe,
    verify_burgers_form,
)


def linear_coeffs(clearing_rate: float = 0.0):
    return preset_coefficients("no-factor", {"m0": clearing_rate, "m2": 1.0}, 0.0)


def indicator(level: float = 0.0):
    return lambda e: (np.asarray(e, dtype=float) >= level).astype(float)


# ----------------------------------------------------------------------
# closed-form rarefaction
# ----------------------------------------------------------------------

def test_rarefaction_hand_computed_points():
    ref = burgers_rarefaction(0.0, 0.0, 1.0)
    # fan spans [cap, cap + age] here, linear inside, clipped outside
    assert ref(0.0, 0.5) == pytest.approx(0.5, abs=1e-14)
    assert ref(0.0, 0.25) == pytest.approx(0.25, abs=1e-14)
    assert ref(0.0, -0.5) == 0.0
    assert ref(0.0, 1.5) == 1.0

    tilted = burgers_rarefaction(0.5, 0.2, 1.0)
    # (e - cap + c * age) / age with e=0.3, cap=0.2, c=0.5, age=1
    assert tilted(0.0, 0.3) == pytest.approx(0.6, abs=1e-14)


def test_rarefaction_terminal_limit_is_indicator():
    ref = burgers_rarefaction(0.0, 0.2, 1.0)
    assert ref(1.0, 0.3) == 1.0
    assert ref(1.0, 0.1) == 0.0
    assert ref(1.0, 0.2) == 1.0, "closure is right-continuous at the cap"


def test_rarefaction_refuses_times_past_compliance():
    ref = burgers_rarefaction(0.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        ref(1.5, 0.0)


@settings(max_examples=100, deadline=None)
@given(
    clearing=st.floats(-1.0, 1.0),
    cap=st.floats(-2.0, 2.0),
    t=st.floats(0.0, 0.99),
    e=st.floats(-5.0, 5.0),
)
def test_rarefaction_range_and_monotonicity(clearing, cap, t, e):
    """Values stay in [0, 1] and never decrease in the emission argument."""
    ref = burgers_rarefaction(clearing, cap, 1.0)
    lo = ref(t, e)
    hi = ref(t, e + 0.01)
    assert 0.0 <= lo <= 1.0
    assert hi >= lo - 1e-14


@settings(max_examples=100, deadline=None)
@given(
    cap=st.floats(-1.0, 1.0),
    shift=st.floats(-1.0, 1.0),
    t=st.floats(0.0, 0.9),
    e=st.floats(-3.0, 3.0),
)
def test_rarefaction_translates_with_the_cap(cap, shift, t, e):
    base = burgers_rarefaction(0.0, cap, 1.0)
    moved = burgers_rarefaction(0.0, cap + shift, 1.0)
    assert moved(t, e + shift) == pytest.approx(base(t, e), abs=1e-12)


# ----------------------------------------------------------------------
# coefficient-form verifier
# ----------------------------------------------------------------------

def test_verify_burgers_form_extracts_clearing_rate():
    assert verify_burgers_form(linear_coeffs(0.0)) == pytest.approx(0.0, abs=1e-12)
    assert verify_burgers_form(linear_coeffs(0.25)) == pytest.approx(0.25, abs=1e-10)


def test_verify_burgers_form_rejects_discounting():
    coeffs = preset_coefficients("no-factor", {"m0": 0.0, "m2": 1.0}, 0.05)
    with pytest.raises(ValidationError):
        verify_burgers_form(coeffs)


def test_verify_burgers_form_rejects_factor_models():
    coeffs = preset_coefficients("linear-abatement", {}, 0.0)
    with pytest.raises(ValidationError):
        verify_burgers_form(coeffs)


# ----------------------------------------------------------------------
# fine-grid reference vs closed form
# ----------------------------------------------------------------------

def test_fine_grid_reference_matches_closed_form():
    exact = burgers_rarefaction(0.0, 0.0, 1.0)
    ref = fine_grid_reference(linear_coeffs(), indicator(), 0.0, 1.0,
                              -1.0, 1.0, 3200, times=[0.0])
    report = compare_l1(exact, ref, 0.0, -0.99, 0.99)
    assert report["l1"] < 0.005, f"fine reference drifted: {report}"
    assert report["l1"] > 1e-4, "suspiciously exact for a first-order scheme"


def test_reference_error_shrinks_under_refinement():
    exact = burgers_rarefaction(0.0, 0.0, 1.0)
    l1s = []
    for n in (200, 400, 800):
        ref = fine_grid_reference(linear_coeffs(), indicator(), 0.0, 1.0,
                                  -1.0, 1.0, n, times=[0.0])
        l1s.append(compare_l1(exact, ref, 0.0, -0.99, 0.99)["l1"])
    assert l1s[0] > l1s[1] > l1s[2], f"no refinement gain: {l1s}"


def test_richardson_probe_contracts():
    out = richardson_probe(linear_coeffs(), indicator(), 0.0, 1.0,
                           -1.0, 1.0, 400, probes=[-0.4, 0.1, 0.4])
    d01 = np.max(np.abs(out["coarse_values"] - out["mid_values"]))
    d12 = np.max(np.abs(out["mid_values"] - out["values"]))
    assert d01 > d12, "refinement did not contract the probe values"
    assert np.all(np.isfinite(out["error_estimate"]))
    assert np.max(out["error_estimate"]) < 0.05


# ----------------------------------------------------------------------
# comparison helper
# ----------------------------------------------------------------------

def test_compare_l1_self_distance_is_zero():
    ref = burgers_rarefaction(0.0, 0.0, 1.0)
    report = compare_l1(ref, ref, 0.3, -0.9, 0.9)
    assert report["l1"] == 0.0
    assert report["sup"] == 0.0


def test_compare_l1_is_symmetric():
    a = burgers_rarefaction(0.0, 0.0, 1.0)
    b = burgers_rarefaction(0.0, 0.1, 1.0)
    fwd = compare_l1(a, b, 0.2, -0.9, 0.9)
    rev = compare_l1(b, a, 0.2, -0.9, 0.9)
    assert fwd["l1"] == pytest.approx(rev["l1"], rel=1e-12)
    assert fwd["sup"] == pytest.approx(rev["sup"], rel=1e-12)


# ----------------------------------------------------------------------
# factor moments and contraction factor
# ----------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(
    p0=st.floats(-3.0, 3.0),
    kappa=st.floats(0.05, 4.0),
    sigma=st.floats(0.05, 2.0),
    t1=st.floats(0.01, 2.0),
    t2=st.floats(0.01, 2.0),
)
def test_ou_moments_compose_over_subintervals(p0, kappa, sigma, t1, t2):
    """Propagating over t1 then t2 equals propagating over t1 + t2."""
    m1, v1 = ou_moments(p0, kappa, sigma, t1)
    m12, v12 = ou_moments(m1, kappa, sigma, t2)
    v12 += v1 * math.exp(-2.0 * kappa * t2)
    m_direct, v_direct = ou_moments(p0, kappa, sigma, t1 + t2)
    assert m12 == pytest.approx(m_direct, rel=1e-10, abs=1e-12)
    assert v12 == pytest.approx(v_direct, rel=1e-10, abs=1e-12)


def test_ou_moments_limits():
    mean, var = ou_moments(1.5, 1.0, 0.5, 0.0)
    assert (mean, var) == (1.5, 0.0)
    mean, var = ou_moments(1.5, 1.0, 0.5, 200.0)
    assert mean == pytest.approx(0.0, abs=1e-12)
    assert var == pytest.approx(0.125, abs=1e-12)


def test_ou_moments_zero_reversion_is_brownian():
    _, var = ou_moments(0.0, 0.0, 0.7, 2.0)
    assert var == pytest.approx(0.49 * 2.0, rel=1e-12)


def test_contraction_factor():
    assert picard_contraction_factor(0.05, 1.0) == pytest.approx(math.exp(-0.05))
    assert picard_contraction_factor(0.0, 1.0) == 1.0
