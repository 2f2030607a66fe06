"""Backward-linked multi-period solves and the field directory format."""

import numpy as np
import pytest

from carbon_fbsde import solve_periods
from carbon_fbsde.config import preset_coefficients
from carbon_fbsde.errors import ArtifactError, CoverageError, ValidationError
from carbon_fbsde.model import CapFunction, MarketSpec, make_cap_allocation, make_cap_msr
from carbon_fbsde.multi_period import (open_field_dir, read_period_grids,
                                       write_field_manifest, write_period_grid)
from carbon_fbsde.pde_kernel import SolverConfig, evaluate
from oracle import solve_grids, translation_check


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
    return solve_grids(two_period_spec(), wide_config())


def compliance_pair(field, k, e):
    """Left limit, right value and cap level around an inner date T_k.

    The left limit reads the last interior slice of period ``k``; below
    the cap the right value is period ``k + 1``'s start field, above it
    the certain penalty.
    """
    g, gn = field[k - 1], field[k]
    lvl = two_period_spec().caps[k - 1].constant_value
    left = evaluate(g, g.last_interior_time, None, e)
    right = evaluate(gn, gn.t0, None, e) if e < lvl else 1.0
    return left, right, lvl


def test_field_shape(field):
    assert len(field) == 2
    assert field[0].t0 == 0.0
    assert field[1].tau == 2.0


def test_compliance_continuity_below_the_cap(field):
    """Banked positions pass through a compliance date at full value.

    The left limit is read one stability step before the date, so the
    gap is O(dt * slope) and must shrink as the grid refines.
    """
    gaps = []
    for n_e in (96, 192):
        f = solve_grids(two_period_spec(), wide_config(n_e))
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
        next(solve_periods(two_period_spec(), SolverConfig(e_min=0.0, e_max=1.0, n_e=32)))


def test_factor_spec_needs_factor_grid():
    caps = make_cap_allocation([0.6, 0.6], "banking-withdrawal")
    spec = MarketSpec(
        coefficients=preset_coefficients("linear-abatement", {}, 0.05),
        horizon="finite", period_ends=(1.0, 2.0), caps=tuple(caps))
    with pytest.raises(ValidationError):
        next(solve_periods(spec, wide_config()))


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
    return (solve_grids(constant_cap_spec(3), config),
            solve_grids(constant_cap_spec(2), config))


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

def write_field_dir(grids, root):
    """A field directory as ``price-multi`` lays it out; returns its manifest."""
    root.mkdir(parents=True, exist_ok=True)
    entries = [write_period_grid(g, root, k) for k, g in enumerate(grids, start=1)]
    return write_field_manifest(two_period_spec(), entries, root)


def read_field_dir(root):
    manifest, entries = open_field_dir(root)
    return [read() for read in read_period_grids(root, entries)], manifest


def test_field_dir_round_trip(tmp_path, field):
    manifest = write_field_dir(field, tmp_path / "field")
    assert (tmp_path / "field" / "field_manifest.json").exists()
    assert manifest["format"].startswith("carbon-fbsde/field-dir/")

    grids, loaded = read_field_dir(tmp_path / "field")
    assert loaded == manifest
    for k in (1, 2):
        assert np.array_equal(grids[k - 1].values, field[k - 1].values)


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


def test_a_recorded_emissions_cap_before_the_last_period_is_refused():
    """Moving a field by its cap is exact only for the final terminal, so a
    reserve-rule cap is priced in the last period only."""
    _, reserve_cap = make_cap_msr(0.6, 0.6, 0.18, 0.72, 0.12, 0.88)
    spec = MarketSpec(
        coefficients=preset_coefficients("no-factor", {"m0": 1.2, "m2": 1.0}, 0.05),
        horizon="finite", period_ends=(1.0, 2.0, 3.0),
        caps=(CapFunction.constant(0.6), reserve_cap, CapFunction.constant(1.8)),
        label="reserve-rule-inside")
    with pytest.raises(ValidationError, match="only in the last period"):
        next(solve_periods(spec, SolverConfig(e_min=-2.0, e_max=5.0, n_e=96)))
