"""Compare two run directories file by file.

Usage: python scripts/compare_runs.py A B

Every file under either directory is reported as ``identical`` (same
bytes), ``differs`` or ``only in A``/``only in B``.  A ``.grid`` file
that differs is read through ``read_grid`` on both sides and reported
with its maximum absolute deviation.  So is a ``.csv`` file that differs
but keeps its header, row count and row lengths: the deviation is taken
over the cells that parse as numbers, and a difference in any other
cell is noted.  A ``manifest.json`` is compared as JSON without its timing
fields (``wall_clock_utc``, ``solve_seconds``, ``simulate_seconds``),
listing the top-level keys that still differ.

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


def grid_deviation(a: Path, b: Path):
    """Maximum absolute difference of two grids, or None if their axes differ."""
    ga, gb = read_grid(a), read_grid(b)
    axes = ("times", "e_nodes", "p_nodes")
    for name in axes:
        xa, xb = getattr(ga, name), getattr(gb, name)
        if (xa is None) != (xb is None) or (xa is not None and not np.array_equal(xa, xb)):
            return None
    if ga.values.shape != gb.values.shape:
        return None
    return float(np.max(np.abs(ga.values - gb.values)))


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


def manifest_difference(a: Path, b: Path) -> list:
    """Top-level manifest keys that differ once timing fields are dropped."""
    docs = []
    for path in (a, b):
        doc = json.loads(path.read_text(encoding="utf-8"))
        docs.append({k: v for k, v in doc.items() if k not in TIMING_KEYS})
    return sorted(k for k in set(docs[0]) | set(docs[1])
                  if docs[0].get(k) != docs[1].get(k))


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
        elif a.name == "manifest.json":
            keys = manifest_difference(a, b)
            if keys:
                lines.append(f"{name}: differs in {', '.join(keys)}")
                ok = False
            else:
                lines.append(f"{name}: identical apart from timing")
        elif a.suffix == ".grid":
            try:
                dev = grid_deviation(a, b)
            except ArtifactError as exc:
                lines.append(f"{name}: differs, unreadable grid ({exc})")
            else:
                lines.append(f"{name}: differs, axes or shape disagree" if dev is None
                             else f"{name}: differs, max abs deviation {dev:.3g}")
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
