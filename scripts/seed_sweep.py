"""Run ``simulate`` over a range of seeds and print its statistical checks.

Usage: python scripts/seed_sweep.py CONFIG FIELD --seeds A-B [--json OUT]
                                    [--against FILE]

``CONFIG`` and ``FIELD`` are what ``carbon-fbsde simulate`` takes (a
config path or ``preset:NAME``, and the field directory or ``w.grid``
that config priced).  Each seed from A to B, both included, runs the
command as a user would into a scratch directory, and one line reports:

- the martingale z, delta / SE, and whether it is inside the 3-SE gate
  (``n/a`` without a factor, where SE is zero);
- the jump residuals above and below the cap;
- ``abort_fraction``.

A failed martingale gate (exit 4) is a result, not an error; any other
non-zero exit stops the sweep with that code.  The last line gives the
range of z and the seeds that failed the gate.

``--json OUT`` writes each seed's z, gate result and jump residuals to
``OUT``.  ``--against FILE`` reads such a table, saved from another
checkout on the same seeds, and adds each seed's change in z and whether
its gate result changed: the same seeds draw the same noise on both
sides, so the pair isolates the change between the two checkouts.
"""

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path
from typing import Optional

from carbon_fbsde.cli import main as cli_main

GATE_FAILED = 4


def seed_range(text: str) -> range:
    """``"A-B"`` (or ``"A"``) as the seeds A..B, both included."""
    first, _, last = text.partition("-")
    try:
        a, b = int(first), int(last or first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must read A-B, not {text!r}") from None
    if not 0 <= a <= b:
        raise argparse.ArgumentTypeError(f"need 0 <= A <= B, not {text!r}")
    return range(a, b + 1)


def run_seed(config: str, field: str, seed: int, out: Path) -> dict:
    """One ``simulate`` run's report, with its ``z`` (None without noise)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_main(["simulate", "--config", config, "--field", field,
                         "--out", str(out), "--seed", str(seed)])
    if code not in (0, GATE_FAILED):
        sys.stderr.write(err.getvalue())
        raise SystemExit(code)
    report = json.loads((out / "simulation_report.json").read_text(encoding="utf-8"))
    mart = report["martingale"]
    report["z"] = mart["delta"] / mart["se"] if mart["statistical"] else None
    return report


def _num(x) -> str:
    return "-" if x is None else f"{x:.3g}"


def _delta(row: dict, other: Optional[dict]) -> str:
    """The change in z against ``other``'s row of the same seed, with a
    ``!`` when the gate result differs."""
    if other is None:
        return "-"
    if row["z"] is None or other["z"] is None:
        return "n/a" if row["z"] is other["z"] else "?"
    flag = "" if row["passed"] == other["passed"] else "!"
    return f"{row['z'] - other['z']:+.2e}{flag}"


def sweep(config: str, field: str, seeds: range,
          against: Optional[dict] = None) -> list:
    """Print one line per seed as it arrives, then the summary; return each
    seed's ``{seed, z, passed, above_residual, below_residual}``.  With
    ``against`` (rows by seed) each line adds its change in z."""
    print(f"{'seed':>6} {'z':>7} {'gate':>5} {'above':>9} {'below':>9} {'aborted':>9}"
          + (f" {'dz':>10}" if against is not None else ""))
    zs, failed, rows = [], [], []
    with tempfile.TemporaryDirectory(prefix="seed_sweep_") as scratch:
        for seed in seeds:
            r = run_seed(config, field, seed, Path(scratch) / str(seed))
            z, jump = r["z"], r["jump"]
            row = {"seed": seed, "z": z, "passed": None if z is None
                   else bool(r["martingale"]["passed"]),
                   "above_residual": jump["above_residual"],
                   "below_residual": jump["below_residual"]}
            rows.append(row)
            if z is None:
                gate = "n/a"
            else:
                zs.append(z)
                gate = "pass" if row["passed"] else "FAIL"
                if gate == "FAIL":
                    failed.append(seed)
            print(f"{seed:>6} {'n/a' if z is None else f'{z:+.2f}':>7} {gate:>5} "
                  f"{_num(jump['above_residual']):>9} {_num(jump['below_residual']):>9} "
                  f"{r['abort_fraction']:>9.3g}"
                  + (f" {_delta(row, against.get(seed)):>10}" if against is not None
                     else ""))
    if zs:
        print(f"z from {min(zs):+.2f} to {max(zs):+.2f} over {len(zs)} seeds; "
              f"3-SE gate failed at seeds: {failed or 'none'}")
    else:
        print("no statistical martingale test: the market has no factor")
    if against is not None:
        paired = [(row, against[row["seed"]]) for row in rows if row["seed"] in against]
        dz = [abs(a["z"] - b["z"]) for a, b in paired
              if a["z"] is not None and b["z"] is not None]
        flips = [a["seed"] for a, b in paired if a["passed"] != b["passed"]]
        print(f"paired over {len(dz)} seeds: max |dz| {max(dz, default=math.nan):.3g}; "
              f"gate result changed at seeds: {flips or 'none'}")
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config")
    ap.add_argument("field")
    ap.add_argument("--seeds", type=seed_range, required=True, help="A-B, both included")
    ap.add_argument("--json", type=Path, metavar="OUT",
                    help="write each seed's z, gate result and jump residuals here")
    ap.add_argument("--against", type=Path, metavar="FILE",
                    help="a --json table from another checkout: print each seed's "
                         "change in z against it")
    args = ap.parse_args(argv)
    against = None
    if args.against is not None:
        against = {row["seed"]: row
                   for row in json.loads(args.against.read_text(encoding="utf-8"))}
    rows = sweep(args.config, args.field, args.seeds, against)
    if args.json is not None:
        args.json.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
