"""Outside trace of the carbon_fbsde pipeline, installed from the benchmark.

``Tracer.install`` replaces the module-namespace bindings that callers
actually look up (``cli.*``, the kernel calls made by ``multi_period``
and ``infinite_period``, the flux and lookup methods, hashing and
coefficient validation) with timing and counting wrappers.  Each call
records a span ``[name, start, end, parent]`` in memory; ``restore``
puts every original back.  The span name is the home module and
qualified name of the wrapped function, so ``cli.write_grid`` and
``multi_period.write_grid`` both record ``gridio.write_grid``; the
module part of the name is the layer.

The tracer keeps one call stack, so it assumes the traced program runs
on one thread.  The benchmark pins ``CARBON_FBSDE_THREADS=1``.
"""

from __future__ import annotations

import inspect
import os
import statistics
import time
from collections import defaultdict

LAYERS = ("cli", "config", "model", "pde_kernel", "multi_period",
          "infinite_period", "montecarlo", "gridio")


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def _targets():
    """(owner, attribute) pairs whose bindings the pipeline calls through."""
    from carbon_fbsde import (cli, config, gridio, infinite_period,
                              multi_period, pde_kernel)
    out = [(cli, name) for name, obj in sorted(vars(cli).items())
           if inspect.isfunction(obj) and obj.__module__.startswith("carbon_fbsde.")]
    out += [(multi_period, name) for name in
            ("solve_one_period", "write_grid", "read_grid", "file_sha256")]
    out += [(infinite_period, "solve_one_period"),
            (infinite_period, "picard_step"),
            (pde_kernel, "make_flux"),
            (pde_kernel.FluxModel, "interface"),
            (pde_kernel.ValueGrid, "at_start"),
            (gridio, "sha256_hex"),
            (config, "validate_coefficients")]
    return out


def _count_solve(counters, args, kwargs, grid):
    counters["steps"] += int(grid.meta["n_steps"])
    counters["stored_bytes"] += grid.values.nbytes


def _count_written(counters, args, kwargs, result):
    counters["written_bytes"] += os.path.getsize(args[1])


def _count_hashed_file(counters, args, kwargs, result):
    counters["hashed_bytes"] += os.path.getsize(args[0])


def _count_hashed_bytes(counters, args, kwargs, result):
    counters["hashed_bytes"] += len(args[0])


def _count_paths(counters, args, kwargs, bundle):
    counters["path_steps"] += bundle.n_paths * (len(bundle.times) - 1)
    counters["paths"] += bundle.n_paths
    counters["aborted"] += int(bundle.aborted.sum())


_COUNTERS = {
    "pde_kernel.solve_one_period": _count_solve,
    "gridio.write_grid": _count_written,
    "gridio.file_sha256": _count_hashed_file,
    "gridio.sha256_hex": _count_hashed_bytes,
    "montecarlo.simulate": _count_paths,
}


class Tracer:
    """Span and counter recorder for one traced process."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self._stack = []
        self._saved = []

    def _wrap(self, owner, attr):
        original = getattr(owner, attr)
        name = _span_name(original)
        count = _COUNTERS.get(name)
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> "Tracer":
        for owner, attr in _targets():
            self._wrap(owner, attr)
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


# ----------------------------------------------------------------------
# derived per-layer metrics
# ----------------------------------------------------------------------

def self_times(spans) -> list:
    """Span duration minus the time its direct children cover.

    Children of one parent never overlap because the trace is taken on
    one thread, so the covered time is the sum of their durations.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_us", "us"), ("_mb", "MB"),
                         ("_ns_per_point", "ns"), ("_per_path_step", "ns"),
                         ("_frac", "ratio"), ("_fraction", "ratio"),
                         ("_per_written", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num, den, scale=1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(traces, traced_wall_s: float, untraced_wall_s: float,
                  evaluate_ns_per_point: float = 0.0) -> dict:
    """Per-layer metrics of one workload iteration.

    ``traces`` holds the dumped trace of every command the iteration
    ran; ``traced_wall_s`` and ``untraced_wall_s`` are the summed CLI
    seconds of those commands with the trace on and off.  A layer that
    does no work on a workload reports 0 for its times, counts and the
    ratios built on them.
    """
    total = defaultdict(float)
    calls = defaultdict(int)
    durations = defaultdict(list)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    counters = defaultdict(int)
    for trace in traces:
        spans = trace["spans"]
        for (name, start, end, _), own in zip(spans, self_times(spans)):
            total[name] += end - start
            calls[name] += 1
            durations[name].append(end - start)
            layer_self[name.split(".", 1)[0]] += own
        for key, value in trace["counters"].items():
            counters[key] += value

    steps = counters["steps"]
    path_steps = counters["path_steps"]
    hashed_mb = counters["hashed_bytes"] / 1e6
    written_mb = counters["written_bytes"] / 1e6
    m = {
        "config.load_config_s": total["config.load_config"],
        "config.validate_coefficients_s": total["model.validate_coefficients"],
        "pde_kernel.solve_one_period_s": total["pde_kernel.solve_one_period"],
        "pde_kernel.solve_calls": calls["pde_kernel.solve_one_period"],
        "pde_kernel.steps": steps,
        "pde_kernel.step_ms": _ratio(total["pde_kernel.solve_one_period"], steps, 1e3),
        "pde_kernel.interface_s": total["pde_kernel.FluxModel.interface"],
        "pde_kernel.interface_calls": calls["pde_kernel.FluxModel.interface"],
        "pde_kernel.interface_p50_us":
            1e6 * _p50(durations["pde_kernel.FluxModel.interface"]),
        "pde_kernel.make_flux_s": total["pde_kernel.make_flux"],
        "pde_kernel.stored_mb": counters["stored_bytes"] / 1e6,
        "pde_kernel.diagnostics_s": total["pde_kernel.diagnostics"],
        "pde_kernel.evaluate_ns_per_point": evaluate_ns_per_point,
        "multi_period.solve_multi_period_s": total["multi_period.solve_multi_period"],
        "multi_period.link_at_start_s": total["pde_kernel.ValueGrid.at_start"],
        "multi_period.write_field_dir_s": total["multi_period.write_field_dir"],
        "multi_period.read_field_dir_s": total["multi_period.read_field_dir"],
        "infinite_period.sweeps": calls["infinite_period.picard_step"],
        "infinite_period.picard_step_p50_s":
            _p50(durations["infinite_period.picard_step"]),
        "infinite_period.solve_infinite_s": total["infinite_period.solve_infinite"],
        "montecarlo.simulate_s": total["montecarlo.simulate"],
        "montecarlo.path_steps": path_steps,
        "montecarlo.ns_per_path_step":
            _ratio(total["montecarlo.simulate"], path_steps, 1e9),
        "montecarlo.abort_fraction": _ratio(counters["aborted"], counters["paths"]),
        "montecarlo.paths_csv_s": total["montecarlo.paths_csv"],
        "montecarlo.events_csv_s": total["montecarlo.events_csv"],
        "montecarlo.tests_s": (total["montecarlo.martingale_test"]
                               + total["montecarlo.jump_consistency_test"]),
        "gridio.write_grid_s": total["gridio.write_grid"],
        "gridio.read_grid_s": total["gridio.read_grid"],
        "gridio.file_sha256_s": total["gridio.file_sha256"],
        "gridio.start_slice_csv_s": total["gridio.start_slice_csv"],
        "gridio.hashed_mb": hashed_mb,
        "gridio.written_grid_mb": written_mb,
        "gridio.hash_per_written": _ratio(hashed_mb, written_mb),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.accounted_frac"] = _ratio(sum(layer_self.values()), traced_wall_s)
    m["trace.overhead_frac"] = _ratio(traced_wall_s, untraced_wall_s) - 1.0
    return m
