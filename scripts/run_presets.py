"""Run every bundled preset end to end and leave the artifacts on disk.

Each finite-horizon preset is solved and then simulated against its own
field; the infinite-horizon preset runs the fixed-point solve and a
rolled-forward simulation.  Everything goes through the command-line
entry points, so what this script exercises is exactly what a user gets.

Usage: python scripts/run_presets.py [--out runs/] [--paths 20000] [--threads N]

``--threads`` goes to the two solve commands, ``--paths`` to ``simulate``.
"""

import argparse
import sys
from pathlib import Path

from carbon_fbsde.cli import main as cli_main
from carbon_fbsde.config import BUNDLED_PRESETS


def run(argv) -> None:
    print("$ carbon-fbsde " + " ".join(argv))
    code = cli_main(argv)
    if code != 0:
        sys.exit(f"command failed with exit code {code}")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="runs")
    ap.add_argument("--paths", type=int, default=None)
    ap.add_argument("--threads", type=int, default=None)
    args = ap.parse_args()
    root = Path(args.out)

    solve_extra = [] if args.threads is None else ["--threads", str(args.threads)]
    sim_extra = [] if args.paths is None else ["--paths", str(args.paths)]

    for name, tree in BUNDLED_PRESETS.items():
        cfg = f"preset:{name}"
        out = root / name
        if tree.get("horizon", "finite") == "infinite":
            run(["price-infinite", "--config", cfg, "--out", str(out)] + solve_extra)
            field = out / "w.grid"
        else:
            run(["price-multi", "--config", cfg, "--out", str(out)] + solve_extra)
            field = out / "field"
        run(["simulate", "--config", cfg, "--field", str(field),
             "--out", str(out / "sim")] + sim_extra)
        run(["verify", str(out)])
        print()


if __name__ == "__main__":
    main()
