"""Batch command-line entry point.

Subcommands::

    carbon-fbsde price-multi    --config C --out D
    carbon-fbsde price-infinite --config C --out D
    carbon-fbsde simulate       --config C --field P --out D [--paths N] [--seed S]
    carbon-fbsde verify         ARTIFACT

Each command accepts only the flags it reads.  ``verify`` hashes each
artifact as it reads it and compares the sha256 its manifest records; a
bare grid file is checked against the manifest beside it.

Exit codes are a stable contract: 0 success, 2 configuration or domain
error, 3 solver or simulation failure, 4 invariant violation, 5
non-convergence (certificate still written), 6 artifact hash or
spec mismatch.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
import time
from contextlib import ExitStack
from functools import partial
from pathlib import Path

from . import __version__
from .config import RunPlan, load_config
from .errors import (ArtifactError, CarbonMarketError, ConfigError,
                     ConvergenceError, CoverageError, InvariantError,
                     SimulationError, SolverError, ValidationError)
from .gridio import (GridWriter, canonical_json, file_sha256, read_grid,
                     read_manifest, sha256_hex, start_slice_csv, write_grid)
from .infinite_period import certificate_doc, solve_infinite
from .montecarlo import (events_csv, jump_consistency_test, martingale_test,
                         paths_csv, simulate)
from .multi_period import (open_field_dir, read_period_grids, solve_periods,
                           write_field_manifest, write_period_grid)
from .pde_kernel import diagnostics

_EXIT_CODES = (
    (ConfigError, 2), (ValidationError, 2), (CoverageError, 2),
    (SolverError, 3), (SimulationError, 3),
    (InvariantError, 4),
    (ConvergenceError, 5),
    (ArtifactError, 6),
)


def _exit_code(exc: CarbonMarketError) -> int:
    for cls, code in _EXIT_CODES:
        if isinstance(exc, cls):
            return code
    return 1


def _write_manifest(out: Path, command: str, plan: RunPlan, seeds, artifacts: dict,
                    verification: dict, extra=None) -> dict:
    """``artifacts`` maps each path to its writer's digest, or None to hash it here."""
    entries = [{"path": rel, "sha256": digest or file_sha256(out / rel),
                "bytes": (out / rel).stat().st_size}
               for rel, digest in artifacts.items()]
    manifest = {
        "command": command,
        "config_hash": plan.config_hash,
        "label": plan.label,
        "code_version": __version__,
        "defaults_version": plan.resolved.get("defaults_version"),
        "seeds": list(seeds),
        "artifacts": entries,
        "verification": verification,
        "resolved_config": plan.resolved,
    }
    # content_hash covers only the reproducible core; timing and wall
    # clock come after so two identical runs agree on it
    manifest["content_hash"] = "sha256:" + sha256_hex(
        canonical_json(manifest).encode("utf-8"))
    if extra:
        manifest.update(extra)
    manifest["wall_clock_utc"] = datetime.datetime.now(
        datetime.timezone.utc).isoformat()
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8")
    return manifest


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _grid_report(grid, label: str) -> dict:
    d = diagnostics(grid, float(grid.meta.get("mono_l1", 1.0)))
    return {
        "grid": label,
        "passed": bool(d.passed),
        "max_range_violation": d.max_range_violation,
        "max_monotonicity_violation": d.max_monotonicity_violation,
        "terminal_monotonicity_defect": d.terminal_monotonicity_defect,
        "scheme_added_monotonicity": d.scheme_added_monotonicity,
        "lipschitz_excess": d.lipschitz_excess,
        "boundary_left": d.boundary_left,
        "boundary_right_residual": d.boundary_right_residual,
        "left_tail_mass": d.left_tail_mass,
        "notes": list(d.notes),
    }


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def cmd_price_multi(args) -> int:
    plan = load_config(args.config)
    if plan.horizon != "finite":
        raise ConfigError("price-multi needs a finite-horizon config")
    out = Path(args.out)
    field_dir = out / "field"
    field_dir.mkdir(parents=True, exist_ok=True)

    # each period's march writes its grid file slice by slice; the file is
    # finished (read back once, hashed and diagnosed) and the start slice
    # exported before the period before it is solved, so the command holds
    # about one slice; a period that fails leaves no grid file behind
    q = plan.spec.n_periods
    entries, reports = [None] * q, [None] * q
    solve_seconds = 0.0
    with ExitStack() as stack:
        writers = [stack.enter_context(GridWriter(
            field_dir / f"period_{k}.grid", scan=partial(_grid_report, label=f"period_{k}")))
            for k in range(1, q + 1)]
        t_start = time.monotonic()
        for k, grid in solve_periods(plan.spec, plan.solver, sinks=writers):
            solve_seconds += time.monotonic() - t_start
            entries[k - 1] = write_period_grid(writers[k - 1], field_dir, k)
            reports[k - 1] = writers[k - 1].scanned
            start_slice_csv(grid, out / f"value_surface_period_{k}.csv")
            del grid
            t_start = time.monotonic()
    write_field_manifest(plan.spec, entries, field_dir)

    artifacts = {f"field/{e['file']}": e["sha256"] for e in entries}
    artifacts["field/field_manifest.json"] = None
    artifacts.update(dict.fromkeys(
        f"value_surface_period_{k}.csv" for k in range(1, q + 1)))
    all_ok = all(r["passed"] for r in reports)
    _write_json(out / "diagnostics.json", {"reports": reports, "passed": all_ok})
    artifacts["diagnostics.json"] = None

    _write_manifest(out, "price-multi", plan, [], artifacts,
                    {"diagnostics_passed": all_ok},
                    extra={"solve_seconds": round(solve_seconds, 3)})
    print(f"price-multi: {q} periods solved in {solve_seconds:.1f}s -> {out}")
    if not all_ok:
        raise InvariantError("structural diagnostics failed; see diagnostics.json")
    return 0


def cmd_price_infinite(args) -> int:
    plan = load_config(args.config)
    if plan.horizon != "infinite":
        raise ConfigError("price-infinite needs an infinite-horizon config")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    spec = plan.spec
    t_start = time.monotonic()
    # the final re-solve writes w.grid slice by slice; finishing it reads
    # the file back once, hashed and diagnosed
    with GridWriter(out / "w.grid", scan=partial(_grid_report, label="w")) as writer:
        try:
            grid, cert = solve_infinite(
                spec.coefficients, spec.period_length, spec.cap_per_period,
                plan.solver, tol_l1=plan.infinite_opts.get("tol_l1"),
                max_iter=plan.infinite_opts.get("max_iter"), writer=writer,
            )
        except ConvergenceError as exc:
            cert_dict = getattr(exc, "certificate", None)
            if cert_dict is not None:
                _write_json(out / "picard_certificate.json", cert_dict)
            raise
        solve_seconds = time.monotonic() - t_start
        grid_digest = write_grid(writer, writer.path)
    report = writer.scanned
    start_slice_csv(grid, out / "value_surface.csv")
    _write_json(out / "picard_certificate.json", certificate_doc(cert))
    _write_json(out / "diagnostics.json", {"reports": [report], "passed": report["passed"]})

    artifacts = {"w.grid": grid_digest, "value_surface.csv": None,
                 "picard_certificate.json": None, "diagnostics.json": None}
    _write_manifest(out, "price-infinite", plan, [], artifacts,
                    {"diagnostics_passed": report["passed"],
                     "converged": cert.converged},
                    extra={"solve_seconds": round(solve_seconds, 3)})
    print(f"price-infinite: converged in {cert.iteration} sweeps "
          f"({solve_seconds:.1f}s), residual {cert.residual:.3g} -> {out}")
    if not report["passed"]:
        raise InvariantError("structural diagnostics failed; see diagnostics.json")
    return 0


def _recorded_sha256(path: Path, plan=None):
    """The sha256 that the manifest beside ``path`` records for it, if any.

    That is ``field_manifest.json`` in a field directory, else the run's
    ``manifest.json``; with a ``plan``, one that records another config
    is refused.
    """
    if (path.parent / "field_manifest.json").exists():
        _, entries = open_field_dir(path.parent)
        return next((e["sha256"] for e in entries if e["file"] == path.name), None)
    run_manifest = path.parent / "manifest.json"
    if not run_manifest.exists():
        return None
    recorded, entries = read_manifest(run_manifest, "artifacts", ("path", "sha256"))
    if plan is not None and recorded.get("config_hash") not in (None, plan.config_hash):
        raise ArtifactError(
            "field artifact was produced by a different config "
            f"(hash {str(recorded.get('config_hash'))[:12]}... vs "
            f"{plan.config_hash[:12]}...)"
        )
    return next((e["sha256"] for e in entries if e["path"] == path.name), None)


def _load_field_for_simulation(plan: RunPlan, field_path: Path):
    """Check a solved field against the config, refusing mismatched artifacts.

    A field directory comes back as a reader per period grid: ``simulate``
    streams each one in a hash-checked pass per block group.
    A bare grid is hash-checked against the manifest beside it while it is read.
    """
    if field_path.is_dir() and (field_path / "field_manifest.json").exists():
        manifest, entries = open_field_dir(field_path)
        _recorded_sha256(field_path, plan)
        if plan.horizon != "finite":
            raise ArtifactError("a field directory needs a finite-horizon config")
        if len(entries) != plan.spec.n_periods:
            raise ArtifactError(
                f"field has {len(entries)} periods, config wants {plan.spec.n_periods}"
            )
        if not abs(manifest["rate"] - plan.spec.coefficients.rate) <= 1e-12:  # NaN fails
            raise ArtifactError("field rate does not match the config rate")
        return read_period_grids(field_path, entries)
    if field_path.is_file():
        grid = read_grid(field_path, _recorded_sha256(field_path, plan))
        if plan.horizon != "infinite":
            raise ArtifactError("a bare grid artifact needs an infinite-horizon config")
        if not abs(grid.rate - plan.spec.coefficients.rate) <= 1e-12:  # NaN fails
            raise ArtifactError("grid rate does not match the config rate")
        return grid
    raise ArtifactError(f"{field_path}: no field artifact found")


def cmd_simulate(args) -> int:
    plan = load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    field = _load_field_for_simulation(plan, Path(args.field))

    sim = dict(plan.simulation)
    n_paths = args.paths if args.paths is not None else int(sim["n_paths"])
    seed = args.seed if args.seed is not None else int(sim["seed"])
    # the martingale report reads the start and the first period's midpoint,
    # so a configured snapshot list gets both
    t0, t1 = (plan.spec.period_bounds(1) if plan.horizon == "finite"
              else (0.0, plan.spec.period_length))
    t_mid = 0.5 * (t0 + t1)
    snapshot_times = sim.get("snapshot_times")
    if snapshot_times is not None:
        snapshot_times = sorted({*map(float, snapshot_times), t0, t_mid})

    t_start = time.monotonic()
    bundle = simulate(
        field, plan.spec, n_paths=n_paths,
        steps_per_period=int(sim["steps_per_period"]), seed=seed,
        p0=float(sim["p0"]), e0=float(sim["e0"]),
        snapshot_times=snapshot_times,
        keep_paths=int(sim["keep_paths"]),
        n_periods=int(sim["n_periods"]) if plan.horizon == "infinite" else None,
    )
    sim_seconds = time.monotonic() - t_start

    paths_csv(bundle, out / "paths.csv")
    events_csv(bundle, out / "events.csv")

    mart = martingale_test(bundle, bundle.rate, t0,
                           float(bundle.snapshot_times[
                               bundle.snapshot_index(t_mid)]))
    # without a noise source the paths coincide, SE is exactly zero and
    # the 3*SE band has no statistical content: report, do not gate
    mart_gates = plan.spec.coefficients.dim_p >= 1 and mart.se > 0.0
    jump = jump_consistency_test(bundle)
    reports = {
        "martingale": {
            "t1": mart.t1, "t2": mart.t2, "delta": mart.delta, "se": mart.se,
            "n_used": mart.n_used, "passed": mart.passed,
            "statistical": mart_gates,
        },
        "jump": {
            "margin_cells": jump.margin_cells,
            "above_residual": jump.above_residual,
            "below_residual": jump.below_residual,
            "n_above": jump.n_above, "n_below": jump.n_below, "n_at": jump.n_at,
        },
        "abort_fraction": bundle.abort_fraction,
    }
    _write_json(out / "simulation_report.json", reports)

    artifacts = dict.fromkeys(["paths.csv", "events.csv", "simulation_report.json"])
    _write_manifest(out, "simulate", plan, [seed], artifacts,
                    {"martingale_passed": mart.passed if mart_gates else None},
                    extra={"n_paths": n_paths,
                           "simulate_seconds": round(sim_seconds, 3)})
    print(f"simulate: {n_paths} paths in {sim_seconds:.1f}s, "
          f"martingale delta {mart.delta:.2e} (3SE {3 * mart.se:.2e}) -> {out}")
    if mart_gates and not mart.passed:
        raise InvariantError(
            f"martingale drift {mart.delta:.3g} exceeds 3*SE={3 * mart.se:.3g}"
        )
    return 0


def cmd_verify(args) -> int:
    """Re-run invariant suites against stored artifacts, no solving."""
    return _verify(Path(args.artifact))


def _scanned(path: Path, label: str, sha256=None) -> dict:
    """Diagnostics report of a grid file, from the pass that hash-checks it."""
    return read_grid(path, sha256, scan=partial(_grid_report, label=label))


def _verify(target: Path) -> int:
    if not target.exists():
        raise ConfigError(f"{target}: no such artifact")

    # each grid is read once, one slice at a time, into its hash check and
    # its diagnostics, so one slice is held at a time
    reports = []
    if target.is_file():
        reports.append(_scanned(target, target.name, _recorded_sha256(target)))
    else:
        run_manifest = target / "manifest.json"
        field_manifest = target / "field_manifest.json"
        if run_manifest.exists():
            _, entries = read_manifest(run_manifest, "artifacts", ("path", "sha256"))
            for entry in entries:
                fp = target / entry["path"]
                if not fp.exists():
                    raise ArtifactError(f"{fp}: listed in manifest but missing")
                if fp.suffix == ".grid":
                    reports.append(_scanned(fp, entry["path"], entry["sha256"]))
                else:
                    file_sha256(fp, entry["sha256"])
        elif field_manifest.exists():
            _, entries = open_field_dir(target)
            for i, entry in enumerate(entries):
                reports.append(_scanned(target / entry["file"], f"period_{i + 1}",
                                        entry["sha256"]))
        else:
            raise ConfigError(f"{target}: no manifest.json or field_manifest.json")

    if not reports:
        print("verify: no grid artifacts found; hashes checked only")
        return 0
    for r in reports:
        status = "ok" if r["passed"] else "FAIL"
        print(f"verify: {r['grid']}: {status} "
              f"(range {r['max_range_violation']:.2e}, "
              f"monotone {r['max_monotonicity_violation']:.2e})")
    if not all(r["passed"] for r in reports):
        raise InvariantError("stored grids violate structural invariants")
    print(f"verify: {len(reports)} grid(s) clean")
    return 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="carbon-fbsde",
        description="Allowance pricing in multi-period and rolling "
                    "cap-and-trade markets",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True,
                       help="JSON config path or preset:NAME")
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(fn=fn)
        return p

    command("price-multi", cmd_price_multi, "solve a finite multi-period market")
    command("price-infinite", cmd_price_infinite, "solve the rolling market")

    p = command("simulate", cmd_simulate, "simulate paths against a solved field")
    p.add_argument("--field", required=True,
                   help="field directory (finite) or w.grid file (infinite)")
    p.add_argument("--paths", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("verify", help="re-check stored artifacts")
    p.add_argument("artifact", help="manifest directory or .grid file")
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CarbonMarketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
