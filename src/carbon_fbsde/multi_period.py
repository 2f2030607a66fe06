"""Chained pricing across finitely many compliance periods.

Periods are solved backward: the last period's terminal surface is the
penalty indicator of its cap, and each earlier period ends in the next
period's start-of-period field evaluated on the diagonal (recorded
emissions equal to realised emissions) below the cap, or in the certain
penalty above it.  All periods share one emissions grid, so the linking
step reads stored nodes rather than interpolating across meshes, and a
period whose cap depends on recorded emissions simply carries the
emissions grid a second time as the parameter axis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ArtifactError, CoverageError, ValidationError
from .gridio import canonical_json, read_grid, write_grid
from .gridio import file_sha256  # noqa: F401  bound for perfbench/tracer.py, which wraps it here
from .model import MarketSpec, link_terminal
from .pde_kernel import SolverConfig, ValueGrid, evaluate, solve_one_period

__all__ = [
    "MultiPeriodField",
    "solve_multi_period",
    "translation_check",
    "write_field_dir",
    "read_field_dir",
]

_DIR_FORMAT = "carbon-fbsde/field-dir/1"


def _check_margins(spec: MarketSpec, config: SolverConfig) -> None:
    """Every cap level must sit at least one domain of dependence inside.

    The bound uses the peak emission speed times the owning period's
    length; violating it lets boundary data reach the cap region and
    silently corrupt the field, so it is a hard error.
    """
    speed = spec.coefficients.peak_speed(config.p_nodes())
    e_nodes = config.e_cells()
    problems = []
    for k, cap in enumerate(spec.caps, start=1):
        t0, t1 = spec.period_bounds(k)
        need = speed * (t1 - t0)
        if cap.is_constant:
            lo = hi = cap.constant_value
        else:
            levels = np.asarray(cap.level(e_nodes), dtype=float)
            lo, hi = float(levels.min()), float(levels.max())
        if lo - config.e_min < need - 1e-9:
            problems.append(
                f"period {k}: left margin {lo - config.e_min:g} < {need:g}"
            )
        if config.e_max - hi < need - 1e-9:
            problems.append(
                f"period {k}: right margin {config.e_max - hi:g} < {need:g}"
            )
    if problems:
        raise CoverageError(
            "emissions domain too small for the caps; " + "; ".join(problems)
        )


@dataclass(eq=False)
class MultiPeriodField:
    """Solved allowance-price field over all periods of a finite market."""

    spec: MarketSpec
    config: SolverConfig
    grids: tuple

    def __post_init__(self):
        q = self.spec.n_periods
        if len(self.grids) != q:
            raise ValidationError(f"expected {q} period grids, got {len(self.grids)}")
        self._ends = np.array([self.spec.period_bounds(k)[1] for k in range(1, q + 1)])
        self._start = self.spec.period_bounds(1)[0]

    @property
    def n_periods(self) -> int:
        return len(self.grids)

    @property
    def final_time(self) -> float:
        return float(self._ends[-1])

    def period_grid(self, k: int) -> ValueGrid:
        if not 1 <= k <= self.n_periods:
            raise ValidationError(f"period index {k} outside 1..{self.n_periods}")
        return self.grids[k - 1]

    def period_of(self, t: float) -> int:
        """Owning period of time ``t``; boundaries belong to the right."""
        if t < self._start - 1e-9 or t > self.final_time + 1e-9:
            raise CoverageError(
                f"t={t:g} outside [{self._start:g}, {self.final_time:g}]"
            )
        k = int(np.searchsorted(self._ends, t, side="right")) + 1
        return min(k, self.n_periods)

    def value(self, t: float, p, e, eparam=None):
        """Price at time ``t``; compliance dates read the incoming period.

        A period whose grid carries no recorded-emissions axis ignores
        ``eparam`` (its value is the same for every recorded level).
        """
        g = self.period_grid(self.period_of(t))
        t = min(max(t, g.t0), g.tau)
        return evaluate(g, t, p if g.has_p else None, e,
                        eparam if g.has_eparam else None)


def solve_multi_period(spec: MarketSpec, config: SolverConfig,
                       threads: int = 1) -> MultiPeriodField:
    """Solve all periods of a finite market backward on a shared grid."""
    if spec.horizon != "finite":
        raise ValidationError("solve_multi_period needs a finite-horizon market")
    if spec.coefficients.dim_p == 1 and not config.has_p:
        raise ValidationError("factor coefficients need a factor grid in the config")
    _check_margins(spec, config)

    e_nodes = config.e_cells()
    q = spec.n_periods
    grids = [None] * q
    next_grid = None
    for k in range(q, 0, -1):
        t0, t1 = spec.period_bounds(k)
        cap = spec.caps[k - 1]
        if k == q:
            term = spec.final_terminal()
        else:
            term = link_terminal(next_grid, cap)
        meta = {"period": k, "cap_kind": cap.kind, "cap_label": cap.label,
                "t_start": t0, "t_end": t1, "market_label": spec.label}
        if cap.is_constant:
            meta["cap_level"] = float(cap.constant_value)
        g = solve_one_period(
            spec.coefficients, term, t0, t1, config,
            eparam_nodes=None if cap.is_constant else e_nodes,
            threads=threads, meta=meta,
        )
        grids[k - 1] = g
        next_grid = g
    return MultiPeriodField(spec=spec, config=config, grids=tuple(grids))


def translation_check(field_long: MultiPeriodField, field_short: MultiPeriodField,
                      k: int, shift: float, e_window: tuple) -> dict:
    """Compare period ``k`` of one market against period ``k-1`` of another.

    For markets that differ by dropping the first of several identical
    periods (same length, every allocation equal), the later market's
    field is the earlier one translated by one period in time and by one
    allocation in cumulative emissions.  Both fields must share the
    emissions grid and the shift must be a whole number of cells; the
    comparison is then node-by-node over the stored slices, restricted
    to ``e_window`` so the report is not dominated by domain-truncation
    effects near the boundary.
    """
    if k < 2:
        raise ValidationError("need k >= 2 so that period k-1 exists in the short market")
    ga = field_long.period_grid(k)
    gb = field_short.period_grid(k - 1)
    if ga.e_nodes.shape != gb.e_nodes.shape or not np.allclose(ga.e_nodes, gb.e_nodes):
        raise ValidationError("the two fields do not share an emissions grid")
    if ga.values.shape != gb.values.shape:
        raise ValidationError(
            f"period grids differ in shape: {ga.values.shape} vs {gb.values.shape}"
        )
    de = ga.delta_e
    js = shift / de
    if abs(js - round(js)) > 1e-9:
        raise ValidationError(f"shift {shift:g} is not a whole number of cells")
    js = int(round(js))

    lo, hi = e_window
    sel = (ga.e_nodes >= lo) & (ga.e_nodes <= hi)
    idx = np.nonzero(sel)[0]
    if idx.size == 0:
        raise ValidationError("empty comparison window")
    if idx[0] - js < 0 or idx[-1] - js >= gb.e_nodes.size:
        raise ValidationError("window minus shift leaves the grid")

    e_axis = 1 + (1 if ga.has_p else 0)
    va = np.take(ga.values, idx, axis=e_axis)
    vb = np.take(gb.values, idx - js, axis=e_axis)
    gap = np.abs(va - vb)
    return {
        "max_residual": float(gap.max()),
        "mean_residual": float(gap.mean()),
        "n_nodes": int(gap.size),
        "cell_shift": js,
        "window": (float(lo), float(hi)),
    }


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

def write_field_dir(field: MultiPeriodField, path) -> dict:
    """Write one grid file per period plus a hashed manifest; returns it."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    for k in range(1, field.n_periods + 1):
        name = f"period_{k}.grid"
        digest = write_grid(field.period_grid(k), root / name)
        entries.append({"file": name, "sha256": digest, "period": k})
    manifest = {
        "format": _DIR_FORMAT,
        "n_periods": field.n_periods,
        "rate": float(field.spec.coefficients.rate),
        "period_ends": [float(x) for x in field._ends],
        "market_label": field.spec.label,
        "grids": entries,
    }
    (root / "field_manifest.json").write_text(canonical_json(manifest) + "\n",
                                              encoding="utf-8")
    return manifest


def read_field_dir(path) -> tuple:
    """Load a field directory as ``(grids, manifest)``.

    Each grid is checked against its recorded sha256 while it is read.
    """
    root = Path(path)
    mpath = root / "field_manifest.json"
    if not mpath.exists():
        raise ArtifactError(f"{root}: no field_manifest.json")
    manifest = json.loads(mpath.read_text(encoding="utf-8"))
    if manifest.get("format") != _DIR_FORMAT:
        raise ArtifactError(f"{root}: unknown field format {manifest.get('format')!r}")
    grids = [read_grid(root / entry["file"], entry["sha256"])
             for entry in manifest["grids"]]
    return grids, manifest
