"""Benchmark of the carbon_fbsde batch CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --write-reference

Every CLI command runs in a fresh process (``child.py``) with
``CARBON_FBSDE_THREADS=1`` and the BLAS/OpenMP pools pinned to one
thread.  One iteration of a workload is its main command (for
``factor-chain`` followed by ``verify`` on its output); iterations
repeat while another one fits in ``S`` seconds, and each metric is the
median over the run.

Workloads (NOTES.md says why each was chosen):

* ``factor-chain``: ``price-multi`` on ``preset:two-period-factor``,
  then ``verify``.
* ``factor-paths``: ``simulate`` on the same preset with the seed
  forwarded as ``--seed``, against a field solved once before timing.
* ``rolling-factor``: ``price-infinite`` on ``rolling-factor.json``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` iterations alternate untraced and traced (the
benchmark's own wrappers, ``tracer.py``) and it reports per-layer
metrics.  Each command's outputs are checked; a nonzero exit or a
failed check counts the command as failed.  Lines before the last one
give every sample, the error rate and the machine facts.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracer import layer_metrics, unit_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
CONFIGS = {"factor": "preset:two-period-factor",
           "rolling": str(HERE / "rolling-factor.json")}
WORKLOADS = ("factor-chain", "factor-paths", "rolling-factor")
MAIN_COMMAND = {"factor-chain": "price-multi", "factor-paths": "simulate",
                "rolling-factor": "price-infinite"}
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
THREAD_ENV = {"CARBON_FBSDE_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
COMMAND_TIMEOUT_S = 150
MAX_ABORT_FRACTION = 1e-3
# Probe nodes of the start slice: every PROBE_STRIDE[0]-th factor node and
# every PROBE_STRIDE[1]-th emissions cell.
PROBE_STRIDE = (8, 32)


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run, e.g. the program is missing."""


# ----------------------------------------------------------------------
# one command in a fresh process
# ----------------------------------------------------------------------

class Runner:
    """Spawns child processes inside one work directory."""

    def __init__(self, work: Path):
        self.work = work
        self.env = {**os.environ, **THREAD_ENV}
        self.count = 0

    def spawn(self, cli_args, trace=False, probe_field=None, probe_seed=0) -> dict:
        """Run one CLI command; returns the child's result plus ``problems``."""
        self.count += 1
        result_path = self.work / f"result_{self.count}.json"
        trace_path = self.work / f"trace_{self.count}.json"
        cmd = [sys.executable, str(CHILD), "--result", str(result_path)]
        if trace:
            cmd += ["--trace", str(trace_path)]
            if probe_field is not None:
                cmd += ["--probe-field", str(probe_field),
                        "--probe-seed", str(probe_seed)]
        spawned = time.monotonic_ns()
        cmd += ["--spawned-ns", str(spawned), "--", *cli_args]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"command": cli_args[:1], "exit": None,
                    "problems": [f"timed out after {COMMAND_TIMEOUT_S} s"]}
        res = {}
        if result_path.exists():
            res = json.loads(result_path.read_text(encoding="utf-8"))
            result_path.unlink()
        res["command"] = cli_args[:1]
        res["problems"] = []
        if proc.returncode != 0 or res.get("exit") != 0:
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
            res["problems"].append(f"exit code {proc.returncode}: " + " | ".join(tail))
        if trace and trace_path.exists():
            res["trace"] = json.loads(trace_path.read_text(encoding="utf-8"))
            trace_path.unlink()
        return res


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def probe_lattice(csv_path: Path) -> list:
    """``[p, e, value]`` rows of a start-slice CSV on the probe lattice."""
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = [[float(x) for x in row] for row in list(csv.reader(fh))[1:]]
    n_e = len({row[1] for row in rows})
    return [row for i, row in enumerate(rows)
            if (i // n_e) % PROBE_STRIDE[0] == 0 and (i % n_e) % PROBE_STRIDE[1] == 0]


def _compare_lattice(got: list, want: list, tol: float, label: str) -> list:
    if len(got) != len(want):
        return [f"{label}: {len(got)} probe nodes, reference has {len(want)}"]
    worst = 0.0
    for (p, e, v), (p0, e0, v0) in zip(got, want):
        if abs(p - p0) > 1e-12 or abs(e - e0) > 1e-12:
            return [f"{label}: probe node ({p:g}, {e:g}) is not the reference "
                    f"node ({p0:g}, {e0:g})"]
        worst = max(worst, abs(v - v0))
    if worst > tol:
        return [f"{label}: probe values deviate from the reference by {worst:.3g}"]
    return []


def _first_price(paths_csv: Path) -> float:
    with open(paths_csv, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return float(next(reader)["Y"])


def check_outputs(workload: str, out: Path, reference) -> list:
    """Problems with a main command's outputs (empty when all pass)."""
    problems = []
    if workload == "factor-paths":
        report = _read_json(out / "simulation_report.json")
        mart, jump = report["martingale"], report["jump"]
        if not (mart["statistical"] and mart["passed"]):
            problems.append(f"martingale test did not pass: {mart}")
        if jump["below_residual"] is None and jump["above_residual"] is None:
            problems.append("no jump residual reported")
        if not report["abort_fraction"] <= MAX_ABORT_FRACTION:
            problems.append(f"abort_fraction {report['abort_fraction']} "
                            f"> {MAX_ABORT_FRACTION}")
        if reference is not None:
            y0 = _first_price(out / "paths.csv")
            if abs(y0 - reference["y0"]) > reference["tolerance"]:
                problems.append(f"start price {y0!r} differs from the reference "
                                f"{reference['y0']!r}")
        return problems
    if not _read_json(out / "diagnostics.json")["passed"]:
        problems.append("diagnostics.json did not pass")
    if reference is not None:
        for name, want in reference["probes"].items():
            problems += _compare_lattice(probe_lattice(out / name), want,
                                         reference["tolerance"], name)
    return problems


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def _main_args(workload: str, configs: dict, out: Path, field: Path, seed: int):
    if workload == "factor-chain":
        return ["price-multi", "--config", configs["factor"], "--out", str(out)]
    if workload == "factor-paths":
        return ["simulate", "--config", configs["factor"], "--field", str(field),
                "--out", str(out), "--seed", str(seed)]
    return ["price-infinite", "--config", configs["rolling"], "--out", str(out)]


def _iteration(runner: Runner, configs: dict, workload: str, i: int, seed: int,
               traced: bool, field: Path, reference) -> list:
    """Main command, and ``verify`` on its output for factor-chain."""
    out = runner.work / f"iter_{i}"
    main = runner.spawn(_main_args(workload, configs, out, field, seed),
                        trace=traced,
                        probe_field=field if workload == "factor-paths" else None,
                        probe_seed=seed)
    done = [main]
    if not main["problems"]:
        try:
            main["problems"] += check_outputs(workload, out, reference)
            manifest = _read_json(out / "manifest.json")
            main["content_hash"] = manifest["content_hash"]
            main["n_paths"] = manifest.get("n_paths")
        except (OSError, KeyError, ValueError) as exc:
            main["problems"].append(f"unreadable output: {exc!r}")
        if workload == "factor-chain":
            done.append(runner.spawn(["verify", str(out)], trace=traced))
    shutil.rmtree(out, ignore_errors=True)
    return done


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 configs: dict = CONFIGS, reference=None) -> dict:
    """Run one workload for ``seconds``; returns the result and its samples."""
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(work)
        warm = runner.spawn([])
        if warm["problems"]:
            raise BenchmarkError("cannot start the program: " + "; ".join(warm["problems"]))
        commands, info = [], {}
        field = work / "field_run" / "field"
        if workload == "factor-paths":
            build = runner.spawn(["price-multi", "--config", configs["factor"],
                                  "--out", str(field.parent)])
            commands.append(build)
            info["field_build_s"] = build.get("wall_s")
            if build["problems"]:
                return _result(workload, trace, commands, [], info, reference)

        # iterations start only while the longest one so far still fits
        # in ``seconds``; a traced run needs one untraced and one traced
        iterations = []
        start = time.monotonic()
        longest = 0.0
        while True:
            traced = trace and len(iterations) % 2 == 1
            began = time.monotonic()
            done = _iteration(runner, configs, workload, len(iterations), seed,
                              traced, field, reference)
            longest = max(longest, time.monotonic() - began)
            iterations.append((traced, done))
            commands += done
            enough = len(iterations) >= (2 if trace else 1)
            if enough and time.monotonic() - start + longest > seconds:
                break
        info["measured_s"] = time.monotonic() - start
        return _result(workload, trace, commands, iterations, info, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _result(workload, trace, commands, iterations, info, reference) -> dict:
    # every iteration has the same inputs, traced or not: one result
    mains = [c for c in commands
             if c["command"] == [MAIN_COMMAND[workload]] and "content_hash" in c]
    hashes = {c["content_hash"] for c in mains}
    for c in mains:
        if c["content_hash"] != mains[0]["content_hash"]:
            c["problems"].append("content_hash differs from the first iteration's")
    failed = sum(1 for c in commands if c["problems"])
    samples = {name: [] for name in (*END_TO_END, "verify_s")}
    for traced, (main, *rest) in iterations:
        if traced:
            continue
        for c in (main, *rest):
            if "setup_s" in c:
                samples["setup_s"].append(c["setup_s"])
        if main["problems"]:
            continue
        samples["wall_s"].append(main["wall_s"])
        samples["peak_rss_mb"].append(main["peak_rss_mb"])
        for c in rest:
            if not c["problems"]:
                samples["verify_s"].append(c["wall_s"])

    if trace:
        metrics = _layer_metrics(iterations)
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics = {name: _median(samples[name]) for name in END_TO_END}
        units = END_TO_END
    n_paths = [c["n_paths"] for c in commands if c.get("n_paths")]
    if n_paths and samples["wall_s"]:
        info["paths_per_s"] = n_paths[0] / _median(samples["wall_s"])
    info.update(
        samples=samples,
        error_rate=failed / max(1, len(commands)),
        content_hashes=sorted(hashes),
        # information only: a change that reorders floating-point work
        # may change the hash while the probe values stay within tolerance
        content_hash_matches_reference=(
            reference is not None and reference["content_hash"] in hashes),
        problems=[c["problems"] for c in commands if c["problems"]],
        machine=machine_facts(),
    )
    return {
        "workload": workload,
        "info": info,
        "result": {
            "correct": failed == 0 and bool(iterations),
            "attempted": len(commands),
            "failed": failed,
            "metrics": {name: {"value": float(v), "unit": units[name]}
                        for name, v in metrics.items()},
        },
    }


def _layer_metrics(iterations) -> dict:
    untraced = [sum(c["wall_s"] for c in done) for traced, done in iterations
                if not traced and not any(c["problems"] for c in done)]
    per_iteration = []
    for traced, done in iterations:
        if not traced or any(c["problems"] for c in done):
            continue
        per_iteration.append(layer_metrics(
            [c["trace"] for c in done],
            traced_wall_s=sum(c["wall_s"] for c in done),
            untraced_wall_s=_median(untraced),
            evaluate_ns_per_point=done[0].get("evaluate_ns_per_point", 0.0)))
    if not per_iteration:
        return {}
    return {name: _median([m[name] for m in per_iteration])
            for name in per_iteration[0]}


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

def machine_facts() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), **versions,
            "threads": THREAD_ENV}


def print_report(run: dict, trace: bool) -> None:
    info, res = run["info"], run["result"]
    print(f"# {run['workload']}: {res['attempted']} commands, "
          f"{res['failed']} failed, error_rate {info['error_rate']:g}")
    if not trace:
        for name, unit in END_TO_END.items():
            vals = info["samples"][name]
            print(f"{name:<14} {res['metrics'][name]['value']:>12.6g} {unit:<4} "
                  f"median of n={len(vals)}: {' '.join(f'{v:.4g}' for v in vals)}")
        vals = info["samples"]["verify_s"]
        if vals:
            print(f"{'verify_s':<14} {_median(vals):>12.6g} s    "
                  f"median of n={len(vals)}: {' '.join(f'{v:.4g}' for v in vals)}")
        if "paths_per_s" in info:
            print(f"{'paths_per_s':<14} {info['paths_per_s']:>12.6g} 1/s  "
                  f"from the median wall_s")
    else:
        for name, m in res["metrics"].items():
            print(f"{name:<40} {m['value']:>14.6g} {m['unit']}")
    for problem in info["problems"]:
        print("problem:", problem, file=sys.stderr)
    print("info " + json.dumps({k: v for k, v in info.items() if k != "samples"},
                               sort_keys=True))


def write_reference(configs: dict) -> dict:
    """Probe values of the current program, for ``reference.json``."""
    work = ROOT / ".perfbench_work" / f"reference-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(work)
        ref = {"tolerance": 1e-9}
        for workload in WORKLOADS:
            out = work / workload
            field = work / "factor-chain" / "field"
            res = runner.spawn(_main_args(workload, configs, out, field, 0))
            if res["problems"]:
                raise BenchmarkError(f"{workload}: {res['problems']}")
            entry = {"content_hash": _read_json(out / "manifest.json")["content_hash"]}
            if workload == "factor-paths":
                entry["y0"] = _first_price(out / "paths.csv")
            else:
                entry["probes"] = {p.name: probe_lattice(p)
                                   for p in sorted(out.glob("value_surface*.csv"))}
            ref[workload] = entry
        return ref
    finally:
        shutil.rmtree(work, ignore_errors=True)


def reference_for(ref, workload: str):
    return None if ref is None else {**ref[workload], "tolerance": ref["tolerance"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help=f"rewrite {REFERENCE.name} from the current program")
    args = ap.parse_args(argv)
    try:
        if args.write_reference:
            ref = write_reference(CONFIGS)
            REFERENCE.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
            print(f"wrote {REFERENCE}")
            return 0
        ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace),
                               CONFIGS, reference_for(ref, name))
            print_report(run, bool(args.trace))
            results[name] = run["result"]
    except BenchmarkError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
