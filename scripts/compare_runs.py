"""Compare two run directories file by file.

Usage: python scripts/compare_runs.py A B

Every file under either directory is reported as ``identical`` (same
bytes), ``differs`` or ``only in A``/``only in B``.  A ``.grid`` file
that differs is read through ``read_grid`` on both sides.  When its
axes, rate, meta and values agree bit for bit (values compared as uint64,
so a signed zero or a NaN payload counts) it is reported as differing in
bytes only, as a grid written in another container format is; otherwise
it is reported with its maximum absolute deviation, and a deviation of 0
between values whose bits differ says so.  A ``.csv`` file that differs
but keeps its header, row count and row lengths is reported with its
maximum absolute deviation too: the deviation is taken over the cells
that parse as numbers, and a difference in any other cell is noted.  A
``manifest.json`` or ``field_manifest.json`` is compared as JSON without
its timing fields (``wall_clock_utc``, ``solve_seconds``,
``simulate_seconds``), listing the top-level keys that still differ, or
saying ``differs in grid digests only`` when nothing else differs but the
digests that follow from the grids' bytes: a run manifest's
``content_hash`` and the ``sha256`` and ``bytes`` of its grid and field
manifest entries, and a field manifest's grid ``sha256`` entries.  The
field manifest and the grids are then reported on their own lines.

Exits 0 when every file matches: same bytes, or manifests equal apart
from timing.  Exits 1 otherwise.
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from carbon_fbsde.errors import ArtifactError
from carbon_fbsde.gridio import read_grid

TIMING_KEYS = ("wall_clock_utc", "solve_seconds", "simulate_seconds")


def _bits(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


def grid_deviation(a: Path, b: Path):
    """``(deviation, values_same, rest_same)`` of two grids, or None if their
    axes or shapes differ.

    ``deviation`` is the maximum absolute difference of the values,
    ``values_same`` whether they agree bit for bit, and ``rest_same``
    whether the axes, the rate and the meta do too.
    """
    ga, gb = read_grid(a), read_grid(b)
    axes = ("times", "e_nodes", "p_nodes")
    for name in axes:
        xa, xb = getattr(ga, name), getattr(gb, name)
        if (xa is None) != (xb is None) or (xa is not None and not np.array_equal(xa, xb)):
            return None
    if ga.values.shape != gb.values.shape:
        return None
    rest_same = (ga.meta == gb.meta and _bits(ga.rate) == _bits(gb.rate)
                 and all(getattr(ga, n) is None or np.array_equal(_bits(getattr(ga, n)),
                                                                  _bits(getattr(gb, n)))
                         for n in axes))
    return (float(np.max(np.abs(ga.values - gb.values))),
            np.array_equal(_bits(ga.values), _bits(gb.values)), rest_same)


def _grid_line(found) -> str:
    if found is None:
        return "differs, axes or shape disagree"
    dev, values_same, rest_same = found
    if values_same:
        return ("differs in bytes only" if rest_same
                else "differs in axes, rate or meta") + ", values bit-identical"
    return (f"differs, max abs deviation {dev:.3g}"
            + (", and value bits differ" if dev == 0.0 else ""))


def csv_deviation(a: Path, b: Path):
    """``(deviation, text_differs)`` of two CSV files, or None when their
    headers, row counts or row lengths disagree.

    ``deviation`` is the maximum absolute difference over the cells that
    differ and parse as finite numbers on both sides; ``text_differs``
    says whether any other cell differs.
    """
    rows = []
    for path in (a, b):
        with path.open(newline="", encoding="utf-8") as fh:
            rows.append(list(csv.reader(fh)))
    ra, rb = rows
    if not ra or not rb or ra[0] != rb[0] or len(ra) != len(rb):
        return None
    dev, text = 0.0, False
    for row_a, row_b in zip(ra[1:], rb[1:]):
        if len(row_a) != len(row_b):
            return None
        for x, y in zip(row_a, row_b):
            if x == y:
                continue
            try:
                d = abs(float(x) - float(y))
            except ValueError:
                d = math.nan
            if math.isfinite(d):
                dev = max(dev, d)
            else:
                text = True
    return dev, text


def _digests_dropped(doc: dict) -> dict:
    """A manifest without the digests that follow from the grids' bytes."""
    doc = {k: v for k, v in doc.items() if k != "content_hash"}
    for key in ("artifacts", "grids"):
        if isinstance(doc.get(key), list):
            doc[key] = [{k: v for k, v in e.items() if k not in ("sha256", "bytes")}
                        if isinstance(e, dict) and (key == "grids" or str(e.get("path")).endswith(
                            (".grid", "field_manifest.json")))
                        else e for e in doc[key]]
    return doc


def manifest_difference(a: Path, b: Path) -> str:
    """How two manifests differ once timing fields are dropped: not at all
    (``""``), in grid digests only, or in the top-level keys named."""
    docs = []
    for path in (a, b):
        doc = json.loads(path.read_text(encoding="utf-8"))
        docs.append({k: v for k, v in doc.items() if k not in TIMING_KEYS})
    keys = sorted(k for k in set(docs[0]) | set(docs[1])
                  if docs[0].get(k) != docs[1].get(k))
    if keys and _digests_dropped(docs[0]) == _digests_dropped(docs[1]):
        return "differs in grid digests only"
    return f"differs in {', '.join(keys)}" if keys else ""


def compare(root_a: Path, root_b: Path) -> tuple:
    """``(lines, ok)``: one report line per file and whether all match."""
    rel = sorted({p.relative_to(root).as_posix()
                  for root in (root_a, root_b) for p in root.rglob("*") if p.is_file()})
    lines, ok = [], True
    for name in rel:
        a, b = root_a / name, root_b / name
        if not b.exists() or not a.exists():
            lines.append(f"{name}: only in {'A' if a.exists() else 'B'}")
            ok = False
        elif a.read_bytes() == b.read_bytes():
            lines.append(f"{name}: identical")
        elif a.name in ("manifest.json", "field_manifest.json"):
            found = manifest_difference(a, b)
            lines.append(f"{name}: {found or 'identical apart from timing'}")
            ok = ok and not found
        elif a.suffix == ".grid":
            try:
                lines.append(f"{name}: {_grid_line(grid_deviation(a, b))}")
            except ArtifactError as exc:
                lines.append(f"{name}: differs, unreadable grid ({exc})")
            ok = False
        elif a.suffix == ".csv" and (found := csv_deviation(a, b)) is not None:
            dev, text = found
            lines.append(f"{name}: differs, max abs deviation {dev:.3g}"
                         + (", and non-numeric cells differ" if text else ""))
            ok = False
        else:
            lines.append(f"{name}: differs")
            ok = False
    return lines, ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    args = ap.parse_args(argv)
    for root in (args.a, args.b):
        if not root.is_dir():
            print(f"{root}: not a directory", file=sys.stderr)
            return 2
    lines, ok = compare(args.a, args.b)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
