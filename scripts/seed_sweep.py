"""Run ``simulate`` over a range of seeds and print its statistical checks.

Usage: python scripts/seed_sweep.py CONFIG FIELD --seeds A-B

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
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

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


def sweep(config: str, field: str, seeds: range) -> None:
    """Print one line per seed as it arrives, then the summary."""
    print(f"{'seed':>6} {'z':>7} {'gate':>5} {'above':>9} {'below':>9} {'aborted':>9}")
    zs, failed = [], []
    with tempfile.TemporaryDirectory(prefix="seed_sweep_") as scratch:
        for seed in seeds:
            r = run_seed(config, field, seed, Path(scratch) / str(seed))
            z, jump = r["z"], r["jump"]
            if z is None:
                gate = "n/a"
            else:
                zs.append(z)
                gate = "pass" if r["martingale"]["passed"] else "FAIL"
                if gate == "FAIL":
                    failed.append(seed)
            print(f"{seed:>6} {'n/a' if z is None else f'{z:+.2f}':>7} {gate:>5} "
                  f"{_num(jump['above_residual']):>9} {_num(jump['below_residual']):>9} "
                  f"{r['abort_fraction']:>9.3g}")
    if zs:
        print(f"z from {min(zs):+.2f} to {max(zs):+.2f} over {len(zs)} seeds; "
              f"3-SE gate failed at seeds: {failed or 'none'}")
    else:
        print("no statistical martingale test: the market has no factor")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config")
    ap.add_argument("field")
    ap.add_argument("--seeds", type=seed_range, required=True, help="A-B, both included")
    args = ap.parse_args(argv)
    sweep(args.config, args.field, args.seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
