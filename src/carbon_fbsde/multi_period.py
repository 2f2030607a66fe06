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

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ArtifactError, CoverageError, ValidationError
from .gridio import canonical_json, read_grid, read_manifest, write_grid
from .gridio import file_sha256  # noqa: F401  bound for perfbench/tracer.py, which wraps it here
from .model import MarketSpec, link_terminal
from .pde_kernel import SliceSink, SolverConfig, ValueGrid, evaluate, solve_one_period

__all__ = [
    "MultiPeriodField",
    "solve_periods",
    "solve_multi_period",
    "write_period_grid",
    "write_field_manifest",
    "write_field_dir",
    "open_field_dir",
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


def solve_periods(spec: MarketSpec, config: SolverConfig, threads: int = 1,
                  sinks: Optional[Sequence[SliceSink]] = None):
    """Solve the periods of a finite market backward on a shared grid.

    Yields ``(k, grid)`` for ``k = q, ..., 1``.  The period before ``k``
    is linked to a start-slice copy of ``grid``, so a caller that drops
    each grid before asking for the next holds one period grid at a time.
    With ``sinks``, one per period in period order, period ``k``'s slices
    go to ``sinks[k - 1]`` as its march makes them (a
    :class:`gridio.GridWriter` writes them to its file, which the caller
    finishes with ``write_grid`` before asking for the next period), and
    each grid holds its start slice only: one slice at a time.
    """
    if spec.horizon != "finite":
        raise ValidationError("multi-period pricing needs a finite-horizon market")
    if spec.coefficients.dim_p == 1 and not config.has_p:
        raise ValidationError("factor coefficients need a factor grid in the config")
    _check_margins(spec, config)

    e_nodes = config.e_cells()
    q = spec.n_periods
    start = None
    for k in range(q, 0, -1):
        t0, t1 = spec.period_bounds(k)
        cap = spec.caps[k - 1]
        term = spec.final_terminal() if k == q else link_terminal(start, cap)
        meta = {"period": k, "cap_kind": cap.kind, "cap_label": cap.label,
                "t_start": t0, "t_end": t1, "market_label": spec.label}
        if cap.is_constant:
            meta["cap_level"] = float(cap.constant_value)
        grid = solve_one_period(
            spec.coefficients, term, t0, t1, config,
            eparam_nodes=None if cap.is_constant else e_nodes,
            threads=threads, meta=meta,
            sink=None if sinks is None else sinks[k - 1],
        )
        yield k, grid
        # copies, not views: a view would keep the whole grid alive
        start = replace(grid, times=grid.times[:1].copy(), values=grid.values[:1].copy())
        del grid


def solve_multi_period(spec: MarketSpec, config: SolverConfig,
                       threads: int = 1) -> MultiPeriodField:
    """Solve all periods of a finite market and keep every grid."""
    grids = [grid for _, grid in solve_periods(spec, config, threads)]
    return MultiPeriodField(spec=spec, config=config, grids=tuple(reversed(grids)))


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

def write_period_grid(grid, root: Path, k: int) -> dict:
    """Write period ``k``'s grid into a field directory; returns its manifest entry.

    ``grid`` is what ``write_grid`` takes: a grid, or the filled writer
    of this period's file.
    """
    name = f"period_{k}.grid"
    return {"file": name, "sha256": write_grid(grid, root / name), "period": k}


def write_field_manifest(spec: MarketSpec, entries: list, root: Path) -> dict:
    """Write the manifest of a field directory once every period grid is in it.

    ``entries`` are :func:`write_period_grid`'s, in period order.
    """
    manifest = {
        "format": _DIR_FORMAT,
        "n_periods": spec.n_periods,
        "rate": float(spec.coefficients.rate),
        "period_ends": [float(x) for x in spec.period_ends],
        "market_label": spec.label,
        "grids": entries,
    }
    (root / "field_manifest.json").write_text(canonical_json(manifest) + "\n",
                                              encoding="utf-8")
    return manifest


def write_field_dir(field: MultiPeriodField, path) -> dict:
    """Write one grid file per period plus a hashed manifest; returns it."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    entries = [write_period_grid(field.period_grid(k), root, k)
               for k in range(1, field.n_periods + 1)]
    return write_field_manifest(field.spec, entries, root)


def open_field_dir(path) -> tuple:
    """``(manifest, entries)`` of a field directory, checked; no grid is read."""
    root = Path(path)
    mpath = root / "field_manifest.json"
    if not mpath.exists():
        raise ArtifactError(f"{root}: no field_manifest.json")
    manifest, entries = read_manifest(mpath, "grids", ("file", "sha256"))
    if manifest.get("format") != _DIR_FORMAT:
        raise ArtifactError(f"{root}: unknown field format {manifest.get('format')!r}")
    rate = manifest.get("rate")
    if isinstance(rate, bool) or not isinstance(rate, (int, float)):
        raise ArtifactError(f"{mpath}: manifest needs a numeric 'rate'")
    return manifest, entries


def _read_grids(root: Path, entries: list):
    """The grids of :func:`open_field_dir`'s ``entries``, one per ``next``.

    Each grid is checked against its recorded sha256 while it is read, and
    the generator keeps no reference to a grid once it has yielded it.
    """
    for entry in entries:
        yield read_grid(root / entry["file"], entry["sha256"])


def read_field_dir(path) -> tuple:
    """Load a field directory as ``(grids, manifest)``."""
    manifest, entries = open_field_dir(path)
    return list(_read_grids(Path(path), entries)), manifest
