"""Chained pricing across finitely many compliance periods.

Periods are solved backward: the last period's terminal surface is the
penalty indicator of its cap, and each earlier period ends in the next
period's start-of-period field evaluated on the diagonal (recorded
emissions equal to realised emissions) below the cap, or in the certain
penalty above it.  All periods share one emissions grid, so the linking
step reads stored nodes rather than interpolating across meshes.  A
last period whose cap depends on the emissions recorded at the date
before it (the reserve rule) is solved once, at a constant cap on the
cell edge nearest the middle of that cap's range: its emission rate does
not depend on emissions, so the field under any other cap is that one
moved by the difference, which ``pde_kernel.lookup_recorded`` reads.

A field is its period grids and nothing more.  :func:`solve_periods`
yields them backward; :func:`write_period_grid` and
:func:`write_field_manifest` write a field directory, one grid file per
period plus a manifest; :func:`open_field_dir` checks that manifest and
:func:`read_period_grids` gives a reader per period grid, in period
order, each hash-checked in the pass that reads it; ``simulate`` streams
each grid through a few slices and never holds one.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ArtifactError, ValidationError
from .gridio import canonical_json, read_grid, read_manifest, write_grid
from .gridio import file_sha256  # noqa: F401  bound for perfbench/tracer.py, which wraps it here
from .model import MarketSpec, link_terminal
from .pde_kernel import SliceSink, SolverConfig, check_dependence, solve_one_period

__all__ = [
    "solve_periods",
    "write_period_grid",
    "write_field_manifest",
    "open_field_dir",
    "read_period_grids",
]

_DIR_FORMAT = "carbon-fbsde/field-dir/1"


def solve_periods(spec: MarketSpec, config: SolverConfig,
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

    Each grid's ``meta["cap_level"]`` is the constant cap it was solved
    at.  A cap that depends on recorded emissions is refused before the
    last period: moving the field by the cap is exact only for the final
    indicator or smoothstep terminal.
    """
    if spec.horizon != "finite":
        raise ValidationError("multi-period pricing needs a finite-horizon market")
    if not all(cap.is_constant for cap in spec.caps[:-1]):
        raise ValidationError("a cap that depends on recorded emissions is priced "
                              "only in the last period")
    if spec.coefficients.dim_p == 1 and not config.has_p:
        raise ValidationError("factor coefficients need a factor grid in the config")
    e_nodes = config.e_cells()
    regions = []
    for k, cap in enumerate(spec.caps, start=1):
        t0, t1 = spec.period_bounds(k)
        levels = np.asarray(cap.level(e_nodes), dtype=float)
        regions.append((t1 - t0, float(levels.min()), float(levels.max())))
    check_dependence(spec.coefficients, config, regions)

    q = spec.n_periods
    start = None
    for k in range(q, 0, -1):
        t0, t1 = spec.period_bounds(k)
        cap = spec.caps[k - 1]
        if cap.is_constant:
            level = float(cap.constant_value)
        else:  # the cell edge nearest the middle of the cap's range
            de = (config.e_max - config.e_min) / config.n_e
            mid = 0.5 * (regions[k - 1][1] + regions[k - 1][2])
            level = config.e_min + round((mid - config.e_min) / de) * de
        term = (spec.final_terminal(level) if k == q
                else link_terminal(start, cap, spec.caps[k]))
        meta = {"period": k, "cap_kind": cap.kind, "cap_label": cap.label,
                "cap_level": level, "t_start": t0, "t_end": t1,
                "market_label": spec.label}
        grid = solve_one_period(spec.coefficients, term, t0, t1, config, meta=meta,
                                sink=None if sinks is None else sinks[k - 1])
        yield k, grid
        # copies, not views: a view would keep the whole grid alive
        start = replace(grid, times=grid.times[:1].copy(), values=grid.values[:1].copy())
        del grid


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
    if isinstance(rate, bool) or not isinstance(rate, (int, float)) or not math.isfinite(rate):
        raise ArtifactError(f"{mpath}: manifest needs a finite numeric 'rate'")
    return manifest, entries


def read_period_grids(root: Path, entries: list) -> list:
    """A reader per grid of :func:`open_field_dir`'s ``entries``, in order.

    ``reader()`` loads the grid and ``reader(scan=..., ring=...)`` streams
    it, as :func:`gridio.read_grid` does; each call reads the file once and
    checks it against its recorded sha256 in that pass.
    """
    return [partial(read_grid, root / entry["file"], entry["sha256"])
            for entry in entries]
