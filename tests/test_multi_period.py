"""Backward-linked multi-period solves and the field directory format."""

import numpy as np
import pytest

from carbon_fbsde import solve_multi_period
from carbon_fbsde.config import preset_coefficients
from carbon_fbsde.errors import ArtifactError, CoverageError, ValidationError
from carbon_fbsde.model import MarketSpec, make_cap_allocation
from carbon_fbsde.multi_period import (
    read_field_dir,
    translation_check,
    write_field_dir,
)
from carbon_fbsde.pde_kernel import SolverConfig, evaluate


def two_period_spec(rate: float = 0.05):
    caps = make_cap_allocation([0.6, 0.6], "banking-withdrawal")
    return MarketSpec(
        coefficients=preset_coefficients("no-factor", {"m0": 1.2, "m2": 1.0}, rate),
        horizon="finite", period_ends=(1.0, 2.0), caps=tuple(caps),
        label="two-period-unit")


def wide_config(n_e: int = 96):
    return SolverConfig(e_min=-1.5, e_max=3.0, n_e=n_e)


@pytest.fixture(scope="module")
def field():
    return solve_multi_period(two_period_spec(), wide_config())


def compliance_pair(field, k, e):
    """Left limit, right value and cap level around an inner date T_k.

    The left limit reads the last interior slice of period ``k``; below
    the cap the right value is period ``k + 1``'s start field, above it
    the certain penalty.
    """
    g, gn = field.period_grid(k), field.period_grid(k + 1)
    lvl = field.spec.caps[k - 1].constant_value
    left = evaluate(g, g.last_interior_time, None, e)
    right = evaluate(gn, gn.t0, None, e) if e < lvl else 1.0
    return left, right, lvl


def test_field_shape(field):
    assert field.n_periods == 2
    assert field.final_time == 2.0
    assert field.period_grid(1).t0 == 0.0
    assert field.period_grid(2).tau == 2.0
    with pytest.raises(ValidationError):
        field.period_grid(3)


def test_period_lookup(field):
    assert field.period_of(0.5) == 1
    assert field.period_of(1.0) == 2, "compliance dates belong to the next period"
    assert field.period_of(1.5) == 2
    assert field.period_of(2.0) == 2
    with pytest.raises(CoverageError):
        field.period_of(2.5)


def test_value_delegates_to_the_period_grid(field):
    g = field.period_grid(2)
    t = g.times[5]
    e = g.e_nodes[40]
    assert field.value(t, None, e) == evaluate(g, t, None, e)


def test_compliance_continuity_below_the_cap(field):
    """Banked positions pass through a compliance date at full value.

    The left limit is read one stability step before the date, so the
    gap is O(dt * slope) and must shrink as the grid refines.
    """
    gaps = []
    for n_e in (96, 192):
        f = solve_multi_period(two_period_spec(), wide_config(n_e))
        left, right, lvl = compliance_pair(f, 1, 0.0)
        assert lvl == pytest.approx(0.6)
        gaps.append(abs(float(left) - float(right)))
    assert gaps[1] < 0.6 * gaps[0], f"one-step gap did not shrink: {gaps}"
    assert gaps[1] < 0.02


def test_compliance_payout_above_the_cap(field):
    """Past the cap the position settles at the unit penalty."""
    left, right, lvl = compliance_pair(field, 1, 1.1)
    assert float(right) == 1.0
    assert left == pytest.approx(1.0, abs=5e-3)
    assert left <= 1.0 + 1e-12


def test_margins_are_enforced():
    with pytest.raises(CoverageError):
        solve_multi_period(two_period_spec(), SolverConfig(e_min=0.0, e_max=1.0, n_e=32))


def test_factor_spec_needs_factor_grid():
    caps = make_cap_allocation([0.6, 0.6], "banking-withdrawal")
    spec = MarketSpec(
        coefficients=preset_coefficients("linear-abatement", {}, 0.05),
        horizon="finite", period_ends=(1.0, 2.0), caps=tuple(caps))
    with pytest.raises(ValidationError):
        solve_multi_period(spec, wide_config())


# ----------------------------------------------------------------------
# stationarity shift check
# ----------------------------------------------------------------------

def constant_cap_spec(n_periods: int, lam: float = 0.5):
    caps = make_cap_allocation([lam] * n_periods, "banking-withdrawal")
    return MarketSpec(
        coefficients=preset_coefficients("no-factor", {"m0": 1.2, "m2": 1.0}, 0.05),
        horizon="finite", period_ends=tuple(float(k) for k in range(1, n_periods + 1)),
        caps=tuple(caps), label=f"constant-cap-{n_periods}")


@pytest.fixture(scope="module")
def shift_fields():
    config = SolverConfig(e_min=-2.1, e_max=2.9, n_e=100)
    return (solve_multi_period(constant_cap_spec(3), config),
            solve_multi_period(constant_cap_spec(2), config))


def test_translation_check_runs_clean(shift_fields):
    long_f, short_f = shift_fields
    out = translation_check(long_f, short_f, k=2, shift=0.5,
                            e_window=(-0.5, 2.0))
    assert out["cell_shift"] == 10
    assert out["max_residual"] <= 1e-12


def test_translation_check_guards_geometry(shift_fields):
    long_f, short_f = shift_fields
    with pytest.raises(ValidationError):
        translation_check(long_f, short_f, k=1, shift=0.5, e_window=(-0.5, 2.0))
    with pytest.raises(ValidationError):
        translation_check(long_f, short_f, k=2, shift=0.52, e_window=(-0.5, 2.0))
    with pytest.raises(ValidationError):
        translation_check(long_f, short_f, k=2, shift=0.5, e_window=(-2.0, 2.0))


# ----------------------------------------------------------------------
# field directory round trip
# ----------------------------------------------------------------------

def test_field_dir_round_trip(tmp_path, field):
    manifest = write_field_dir(field, tmp_path / "field")
    assert (tmp_path / "field" / "field_manifest.json").exists()
    assert manifest["format"].startswith("carbon-fbsde/field-dir/")

    grids, loaded = read_field_dir(tmp_path / "field")
    assert loaded == manifest
    for k in (1, 2):
        assert np.array_equal(grids[k - 1].values, field.period_grid(k).values)


def test_field_dir_detects_corruption(tmp_path, field):
    write_field_dir(field, tmp_path / "field")
    victim = tmp_path / "field" / "period_1.grid"
    blob = bytearray(victim.read_bytes())
    blob[-3] ^= 0xFF
    victim.write_bytes(bytes(blob))
    with pytest.raises(ArtifactError):
        read_field_dir(tmp_path / "field")


def test_field_dir_requires_manifest(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(ArtifactError):
        read_field_dir(tmp_path / "empty")
