"""Run one carbon_fbsde CLI command in this fresh process and time it.

    python3 child.py --result R.json --spawned-ns NS [--trace T.json]
                     [--probe-field DIR --probe-seed S] -- CLI ARGS...

``setup_s`` runs from ``--spawned-ns`` (the parent's CLOCK_MONOTONIC
reading just before it started this process) until ``cli.main`` is
called, so it covers interpreter start and package import.  ``wall_s``
is the time inside ``cli.main``.  With ``--trace`` the benchmark's
tracer wraps the pipeline for the call and writes its spans to the
given file; ``--probe-field`` then also times ``pde_kernel.evaluate``
on the solved field, outside the CLI call.  With no CLI arguments the
process only imports the package, which warms caches and checks that
the checkout holds the program.  It puts the checkout's ``src`` first
on the import path and refuses any other copy of the package.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE_POINTS = 8192
PROBE_REPEATS = 64


def _evaluate_ns_per_point(field_dir: Path, seed: int) -> float:
    """Median time of one 8192-point ``evaluate`` call on period 1."""
    import numpy as np
    from carbon_fbsde.gridio import read_grid
    from carbon_fbsde.pde_kernel import evaluate

    grid = read_grid(field_dir / "period_1.grid")
    rng = np.random.default_rng(seed)
    t = rng.uniform(grid.t0, grid.last_interior_time, PROBE_REPEATS)
    p = rng.uniform(grid.p_nodes[0], grid.p_nodes[-1], PROBE_POINTS)
    e = rng.uniform(grid.e_nodes[0], grid.e_nodes[-1], PROBE_POINTS)
    took = []
    for tk in t:
        start = time.perf_counter()
        evaluate(grid, float(tk), p, e)
        took.append(time.perf_counter() - start)
    return 1e9 * float(np.median(took)) / PROBE_POINTS


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--result", required=True)
    ap.add_argument("--spawned-ns", type=int, required=True)
    ap.add_argument("--trace")
    ap.add_argument("--probe-field")
    ap.add_argument("--probe-seed", type=int, default=0)
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, str(ROOT / "src"))
    from carbon_fbsde import cli
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"carbon_fbsde imported from {cli.__file__}, not from the "
              "checkout", file=sys.stderr)
        return 97

    if not argv:
        Path(args.result).write_text(json.dumps({"exit": 0}), encoding="utf-8")
        return 0
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()
    called = time.monotonic_ns()
    try:
        code = cli.main(argv)
    finally:
        wall_s = (time.monotonic_ns() - called) / 1e9
        if tracer is not None:
            tracer.restore()
    result = {
        "exit": code,
        "setup_s": (called - args.spawned_ns) / 1e9,
        "wall_s": wall_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        Path(args.trace).write_text(json.dumps(tracer.dump()), encoding="utf-8")
        if args.probe_field and code == 0:
            result["evaluate_ns_per_point"] = _evaluate_ns_per_point(
                Path(args.probe_field), args.probe_seed)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
