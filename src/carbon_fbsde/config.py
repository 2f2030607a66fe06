"""Configuration ingestion: JSON tree -> market spec + solver plan.

The file format is a single JSON object.  Keys the CLI treats as a
stable contract:

    comment                 free text, read by nobody
    label                   free-form run name
    rate                    interest rate r
    horizon                 "finite" (default) | "infinite"
    periods                 finite: list of period end times T_1 < ... < T_q
    period_length           infinite: tau
    cap { kind, parameters }        the parameters of the kind, and no others
        kind "levels":      parameters.levels = [L_1, ..., L_q]
        kind "allocation":  parameters.allocations = [c_1, ..., c_q],
                            parameters.mode = "banking-borrowing-withdrawal"
                            (default) | "banking-withdrawal"
        kind "msr":         parameters c1, c2, kappa_low, kappa_high,
                            top_up, retain_fraction (two periods)
        kind "per-period":  parameters.allocation = lam (infinite horizon)
    coefficients { preset | expression, parameters }
        preset "no-factor":         mu = m0 - m2 y            (d = 0)
        preset "linear-abatement":  mu = m0 + m1 p - m2 y,
                                    dP = -kappa (P - p_ref) dt + sigma dW
        expression: { mu, drift, vol, dim_p, lipschitz_L, mono_l1, mono_l2 }
    terminal { kind, width }       kind "indicator" | "smoothed-indicator"
    grid { e_min, e_max, n_e, p_min, p_max, n_p, cfl_target, n_steps,
           viscosity, margin_factor }       all optional, and no others
                                            but the retired _RETIRED_GRID
    infinite { tol_l1, tol_rel, max_iter }  all optional, and no others
    simulation { n_paths, steps_per_period, seed, p0, e0, snapshot_times,
                 keep_paths, n_periods }    all optional, and no others

Every block is an object, and a key that neither the top level nor a
block lists above (``version`` and ``defaults_version`` of the resolved
tree besides) exits 2 naming its dotted path.  Anything omitted comes
from the versioned DEFAULTS table below, and the fully resolved tree
(plus its hash) is what runs and what the manifest records, so a
"default" run is reproducible across releases that bump the table.
"""

from __future__ import annotations

import ast
import copy
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError
from .gridio import canonical_json, sha256_hex
from .model import (CapFunction, CoefficientSet, MarketSpec, SampleBox,
                    make_cap_allocation, make_cap_msr, validate_coefficients)
from .pde_kernel import SolverConfig

__all__ = [
    "DEFAULTS",
    "RunPlan",
    "load_config",
    "build_plan",
    "preset_coefficients",
    "expression_coefficients",
    "BUNDLED_PRESETS",
    "bundled_preset",
]

# retired grid keys, each at the one value every run had: the defaults keep
# them so resolved configs and their hashes stay as they were, and a config
# may restate that value but set no other
_RETIRED_GRID = {"mollify_width": 0.0, "flux_scheme": "godunov"}
_GRID_KEYS = ("e_min", "e_max", "n_e", "p_min", "p_max", "n_p", "cfl_target",
              "n_steps", "viscosity", "margin_factor", *_RETIRED_GRID)
_INFINITE_KEYS = ("tol_l1", "tol_rel", "max_iter")
_SIMULATION_KEYS = ("n_paths", "steps_per_period", "seed", "p0", "e0", "snapshot_times",
                    "keep_paths", "n_periods")
_TOP_KEYS = ("version", "defaults_version", "comment", "label", "rate", "horizon",
             "periods", "period_length", "cap", "coefficients", "terminal", "grid",
             "infinite", "simulation")
_TERMINAL_KEYS = ("kind", "width")
_CAP_KEYS = ("kind", "parameters")
_MSR_KEYS = ("c1", "c2", "kappa_low", "kappa_high", "top_up", "retain_fraction")
# the keys of cap.parameters, per cap.kind of each horizon
_CAP_PARAMETERS = {
    "finite": {"levels": ("levels",), "allocation": ("allocations", "mode"),
               "msr": _MSR_KEYS},
    "infinite": {"per-period": ("allocation",)},
}
_COEFFICIENT_KEYS = ("preset", "parameters", "expression")
_EXPRESSION_KEYS = ("mu", "drift", "vol", "dim_p", "lipschitz_L", "mono_l1", "mono_l2")

DEFAULTS = {
    "version": 1,
    "label": "unnamed-run",
    "rate": 0.0,
    "horizon": "finite",
    "terminal": {"kind": "indicator", "width": 0.05},
    "grid": {
        "n_e": 400,
        "n_p": 97,
        "cfl_target": 0.9,
        "viscosity": 0.0,
        **_RETIRED_GRID,
        "margin_factor": 1.5,
    },
    "infinite": {"tol_rel": 1e-4},
    "simulation": {
        "n_paths": 10_000,
        "steps_per_period": 512,
        "seed": 0,
        "p0": 0.0,
        "e0": 0.0,
        "keep_paths": 100,
        "n_periods": 1,
    },
    "coefficients": {
        "no-factor": {"m0": 1.0, "m2": 1.0},
        "linear-abatement": {"m0": 1.4, "m1": 0.1, "m2": 1.0,
                             "kappa": 1.0, "sigma": 0.5, "p_ref": 0.0},
    },
}


# ----------------------------------------------------------------------
# scalars
# ----------------------------------------------------------------------

def _real(value, key: str) -> float:
    """``value`` as a finite float; another type (a bool, a string) or a
    non-finite number raises :class:`ConfigError` naming ``key``."""
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            x = float(value)
            if math.isfinite(x):
                return x
    except OverflowError:  # an integer beyond any float
        pass
    raise ConfigError(f"{key} must be a finite number, not {value!r}")


def _positive(value, key: str) -> float:
    """``value`` as a finite float above 0."""
    x = _real(value, key)
    if not x > 0.0:
        raise ConfigError(f"{key} must be positive, not {value!r}")
    return x


def _count(value, key: str, floor: Optional[int] = None) -> int:
    """``value`` as an int: a finite number with no fractional part, and
    at least ``floor`` when one is given."""
    x = _real(value, key)
    if not x.is_integer():
        raise ConfigError(f"{key} must be a whole number, not {value!r}")
    if floor is not None and x < floor:
        raise ConfigError(f"{key} must be at least {floor}, not {value!r}")
    return int(x)


def _block(value, name: str, keys: Optional[tuple] = None) -> dict:
    """``value`` as the object at the dotted path ``name`` (the config root
    when empty); any other JSON value raises naming ``name``, and so does a
    key of it outside ``keys`` when they are given, naming its own path."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name or 'config root'} must be an object, not {value!r}")
    for key in value if keys is not None else ():
        if key not in keys:
            raise ConfigError(f"{name + '.' if name else ''}{key} is not a "
                              f"{name or 'top-level'} key; the keys are {', '.join(keys)}")
    return value


def _reals(values, n: int, key: str) -> tuple:
    """A list of ``n`` finite numbers, as floats."""
    if not isinstance(values, list) or len(values) != n:
        raise ConfigError(f"{key} must list {n} values")
    return tuple(_real(v, f"{key}[{i}]") for i, v in enumerate(values))


# ----------------------------------------------------------------------
# coefficient construction
# ----------------------------------------------------------------------

def _lipschitz_envelope(l1: float, *candidates: float) -> float:
    """Smallest admissible regularity bound covering the candidates.

    When the envelope is set by ``1 / l1`` the validator's reciprocal
    check can land one ulp on the wrong side, so nudge upward until
    ``1 / L <= l1`` holds in floating point.
    """
    L = max(1.0, *candidates)
    while 1.0 / L > l1:
        L = math.nextafter(L, math.inf)
    return L


def preset_coefficients(name: str, params: dict, rate: float) -> CoefficientSet:
    base = DEFAULTS["coefficients"].get(name) if isinstance(name, str) else None
    if base is None:
        raise ConfigError(f"unknown coefficient preset '{name}'; "
                          f"have {sorted(DEFAULTS['coefficients'])}")
    unknown = set(params) - set(base)
    if unknown:
        raise ConfigError(f"preset '{name}' does not take {sorted(unknown)}")
    p = {k: _real(v, f"coefficients.parameters.{k}")
         for k, v in {**base, **params}.items()}
    m2 = p["m2"]
    if m2 <= 0:
        raise ConfigError("need m2 > 0: the emission rate must fall as the price rises")

    if name == "no-factor":
        m0 = p["m0"]
        L = _lipschitz_envelope(m2, m2, 1.0 / m2)
        return CoefficientSet(
            dim_p=0,
            emissions_rate=lambda _p, y: m0 - m2 * np.asarray(y, dtype=float),
            emissions_slope=m2,
            rate=rate, lipschitz_L=L, mono_l1=m2, mono_l2=m2,
            label=f"no-factor(m0={m0:g},m2={m2:g})",
        )

    m0, m1, kappa, sigma, p_ref = (p[k] for k in ("m0", "m1", "kappa", "sigma", "p_ref"))
    if sigma <= 0 or kappa < 0:
        raise ConfigError("need sigma > 0 and kappa >= 0")
    L = _lipschitz_envelope(m2, m2, 1.0 / m2, abs(m1), kappa, sigma)
    return CoefficientSet(
        dim_p=1,
        emissions_rate=lambda pp, y: (m0 + m1 * np.asarray(pp, dtype=float)
                                      - m2 * np.asarray(y, dtype=float)),
        emissions_slope=m2,
        drift=lambda pp: -kappa * (np.asarray(pp, dtype=float) - p_ref),
        vol=lambda pp: np.full_like(np.asarray(pp, dtype=float), sigma),
        ou_kappa=kappa, ou_sigma=sigma, ou_ref=p_ref,
        rate=rate, lipschitz_L=L, mono_l1=m2, mono_l2=m2,
        label=(f"linear-abatement(m0={m0:g},m1={m1:g},m2={m2:g},"
               f"kappa={kappa:g},sigma={sigma:g})"),
    )


_EXPR_FUNCS = {
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
    "sin": np.sin, "cos": np.cos, "tanh": np.tanh,
    "minimum": np.minimum, "maximum": np.maximum, "where": np.where,
}
_EXPR_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name, ast.Call,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd,
    ast.Compare, ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Load,
)


def _compile_expr(src: str, variables: tuple) -> callable:
    """Compile an arithmetic expression over the named variables.

    Only plain arithmetic, comparisons and a short list of numpy
    functions are allowed; names, attributes and anything else raise.
    """
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {src!r}: {exc}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, _EXPR_NODES):
            raise ConfigError(
                f"expression {src!r} uses {type(node).__name__}, which is not allowed"
            )
        if isinstance(node, ast.Name) and node.id not in variables \
                and node.id not in _EXPR_FUNCS:
            raise ConfigError(f"expression {src!r} references unknown name '{node.id}'")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _EXPR_FUNCS:
                raise ConfigError(f"expression {src!r} calls a non-whitelisted function")
            if node.keywords:
                raise ConfigError("keyword arguments are not allowed in expressions")
    code = compile(tree, "<config-expression>", "eval")

    def fn(**kw):
        env = dict(_EXPR_FUNCS)
        env.update(kw)
        return eval(code, {"__builtins__": {}}, env)  # noqa: S307 (AST-whitelisted)

    return fn


def expression_coefficients(expr: dict, rate: float) -> CoefficientSet:
    """Coefficients from config expressions; regularity must be declared."""
    for key in ("mu", "dim_p", "lipschitz_L", "mono_l1", "mono_l2"):
        if key not in expr:
            raise ConfigError(f"expression coefficients need '{key}'")
    dim_p = _count(expr["dim_p"], "coefficients.expression.dim_p")
    if dim_p not in (0, 1):
        raise ConfigError("expression coefficients support dim_p 0 or 1")
    mu_fn = _compile_expr(expr["mu"], ("p", "y"))

    def mu(p, y):
        return mu_fn(p=0.0 if p is None else p, y=y)

    drift = vol = None
    if dim_p == 1:
        if "drift" not in expr or "vol" not in expr:
            raise ConfigError("dim_p = 1 expressions need 'drift' and 'vol'")
        d_fn = _compile_expr(expr["drift"], ("p",))
        v_fn = _compile_expr(expr["vol"], ("p",))
        drift = lambda p: np.broadcast_to(
            np.asarray(d_fn(p=np.asarray(p, dtype=float)), dtype=float),
            np.shape(p)).copy() if np.ndim(p) else float(d_fn(p=float(p)))
        vol = lambda p: np.broadcast_to(
            np.asarray(v_fn(p=np.asarray(p, dtype=float)), dtype=float),
            np.shape(p)).copy() if np.ndim(p) else float(v_fn(p=float(p)))
    return CoefficientSet(
        dim_p=dim_p, emissions_rate=mu, rate=rate,
        **{k: _real(expr[k], f"coefficients.expression.{k}")
           for k in ("lipschitz_L", "mono_l1", "mono_l2")},
        drift=drift, vol=vol,
        label=f"expression({expr['mu']})",
    )


# ----------------------------------------------------------------------
# plan assembly
# ----------------------------------------------------------------------

@dataclass(eq=False)
class RunPlan:
    """Everything a CLI command needs, resolved and hashed."""

    label: str
    spec: MarketSpec
    solver: SolverConfig
    infinite_opts: dict
    simulation: dict
    resolved: dict
    config_hash: str

    @property
    def horizon(self) -> str:
        return self.spec.horizon


def _merge(base: dict, over: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in over.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def _build_caps(tree: dict, horizon: str, n_periods: int):
    cap = _block(tree["cap"], "cap", _CAP_KEYS) if "cap" in tree else {}
    if "kind" not in cap:
        raise ConfigError("config needs cap.kind")
    kind = cap["kind"]
    if horizon == "infinite" and kind != "per-period":
        raise ConfigError("infinite horizon needs cap.kind = 'per-period'")
    keys = _CAP_PARAMETERS[horizon].get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise ConfigError(f"unknown cap.kind {kind!r}")
    params = _block(cap["parameters"], "cap.parameters", keys) if "parameters" in cap else {}
    if horizon == "infinite":
        lam = params.get("allocation")
        if lam is None or _real(lam, "cap.parameters.allocation") <= 0:
            raise ConfigError("cap.parameters.allocation must be positive")
        return float(lam)
    if kind == "levels":
        levels = _reals(params.get("levels"), n_periods, "cap.parameters.levels")
        return tuple(CapFunction.constant(v) for v in levels)
    if kind == "allocation":
        allocs = _reals(params.get("allocations"), n_periods, "cap.parameters.allocations")
        mode = params.get("mode", "banking-borrowing-withdrawal")
        return make_cap_allocation(list(allocs), mode=mode)
    if kind == "msr":
        if n_periods != 2:
            raise ConfigError("the msr cap rule is defined for two periods")
        missing = [k for k in _MSR_KEYS if k not in params]
        if missing:
            raise ConfigError(f"cap.parameters missing {missing}")
        return make_cap_msr(*(_real(params[k], f"cap.parameters.{k}") for k in _MSR_KEYS))


def _auto_e_grid(spec_levels, speed: float, horizon_T: float,
                 grid: dict, explicit: dict, align: Optional[float]):
    """Fill e_min / e_max / n_e, honouring explicit values.

    The default box runs from one safety margin below the lowest of
    {0, cap levels} to one margin above the highest level, margin =
    margin_factor * horizon * peak emission speed.  With ``align`` set
    (the rolling allocation), the cell width is snapped so the
    allocation is a whole number of cells and lands on a cell edge.
    ``grid`` is the block merged with the defaults; ``explicit`` is the
    block as the config wrote it, which decides whether the box is ours
    to snap.
    """
    margin = _real(grid["margin_factor"], "grid.margin_factor") * horizon_T * speed
    lo_lvl = min([0.0] + list(spec_levels))
    hi_lvl = max([0.0] + list(spec_levels))
    e_min = _real(grid["e_min"], "grid.e_min") if "e_min" in grid else lo_lvl - margin
    e_max = _real(grid["e_max"], "grid.e_max") if "e_max" in grid else hi_lvl + margin
    n_e = _count(grid["n_e"], "grid.n_e")
    if e_max <= e_min:
        raise ConfigError("grid.e_max must exceed grid.e_min")
    if align is not None:
        de0 = (e_max - e_min) / n_e
        cells = max(1, round(align / de0))
        de = align / cells
        e_min_new = math.floor(e_min / de) * de
        n_e_new = int(math.ceil((e_max - e_min_new) / de - 1e-9))
        e_max_new = e_min_new + n_e_new * de
        if "e_min" in explicit or "e_max" in explicit or "n_e" in explicit:
            # explicit grids must already be aligned; fix silently only
            # when we chose the box ourselves
            js = align / ((e_max - e_min) / n_e)
            cut = (align - e_min) / ((e_max - e_min) / n_e)
            if abs(js - round(js)) > 1e-9 or abs(cut - round(cut)) > 1e-9:
                raise ConfigError(
                    f"explicit grid is not aligned with the allocation "
                    f"{align:g}: it must be a whole number of cells wide and "
                    f"start on a cell edge (suggested: e_min={e_min_new:g}, "
                    f"e_max={e_max_new:g}, n_e={n_e_new})"
                )
        else:
            e_min, e_max, n_e = e_min_new, e_max_new, n_e_new
    return float(e_min), float(e_max), int(n_e)


def build_plan(tree: dict) -> RunPlan:
    """Resolve a raw config tree against the defaults into a RunPlan."""
    _block(tree, "", _TOP_KEYS)
    if not isinstance(tree.get("comment", ""), str):
        raise ConfigError(f"comment must be text, not {tree['comment']!r}")
    resolved = _merge({k: v for k, v in DEFAULTS.items() if k != "coefficients"},
                      tree)
    rate = _real(resolved["rate"], "rate")
    horizon = resolved["horizon"]
    if horizon not in ("finite", "infinite"):
        raise ConfigError(f"horizon must be finite or infinite, not {horizon!r}")

    if not resolved.get("coefficients"):
        raise ConfigError("config needs a coefficients block")
    coeff_cfg = _block(resolved["coefficients"], "coefficients", _COEFFICIENT_KEYS)
    if "preset" in coeff_cfg:
        params = (_block(coeff_cfg["parameters"], "coefficients.parameters")
                  if "parameters" in coeff_cfg else {})
        coeffs = preset_coefficients(coeff_cfg["preset"], params, rate)
    elif "expression" in coeff_cfg:
        coeffs = expression_coefficients(
            _block(coeff_cfg["expression"], "coefficients.expression", _EXPRESSION_KEYS),
            rate)
    else:
        raise ConfigError("coefficients needs 'preset' or 'expression'")

    term = _block(resolved["terminal"], "terminal", _TERMINAL_KEYS)
    sim = _block(resolved["simulation"], "simulation", _SIMULATION_KEYS)
    inf_opts = dict(_block(resolved["infinite"], "infinite", _INFINITE_KEYS))
    if term["kind"] not in ("indicator", "smoothed-indicator"):
        raise ConfigError(f"unknown terminal.kind {term['kind']!r}")
    width = _real(term.get("width", 0.0), "terminal.width")

    # -- market spec ---------------------------------------------------
    if horizon == "finite":
        ends = tree.get("periods")
        if not ends or not isinstance(ends, list):
            raise ConfigError("finite horizon needs a 'periods' list of end times")
        ends = _reals(ends, len(ends), "periods")
        if any(b <= a for a, b in zip((0.0,) + ends[:-1], ends)):
            raise ConfigError("period end times must be strictly increasing from 0")
        caps = _build_caps(resolved, horizon, len(ends))
        spec = MarketSpec(coefficients=coeffs, horizon="finite",
                          period_ends=ends, caps=caps,
                          terminal_kind=term["kind"], terminal_width=width,
                          label=resolved["label"])
        lam_align = None
        horizon_T = ends[-1]
        period_max = max(b - a for a, b in zip((0.0,) + ends[:-1], ends))
    else:
        tau = tree.get("period_length")
        if not tau or _real(tau, "period_length") <= 0:
            raise ConfigError("infinite horizon needs a positive period_length")
        tau = float(tau)
        lam_align = _build_caps(resolved, horizon, 0)
        spec = MarketSpec(coefficients=coeffs, horizon="infinite",
                          period_length=tau, cap_per_period=lam_align,
                          terminal_kind=term["kind"], terminal_width=width,
                          label=resolved["label"])
        horizon_T = tau
        period_max = tau

    # -- solver grid ---------------------------------------------------
    grid = _block(resolved["grid"], "grid", _GRID_KEYS)
    for key, value in _RETIRED_GRID.items():
        if grid[key] != value or isinstance(grid[key], bool):
            raise ConfigError(f"grid.{key} is retired and may only be {value!r}, "
                              f"not {grid[key]!r}")
    if coeffs.dim_p == 1:
        if "p_min" in grid and "p_max" in grid:
            p_min, p_max = (_real(grid[k], f"grid.{k}") for k in ("p_min", "p_max"))
        else:
            # the box holds the whole simulated horizon, which for a
            # rolling market is ``n_periods`` periods
            n_roll = 1 if horizon == "finite" else sim["n_periods"]
            if not (isinstance(n_roll, int) and n_roll >= 1):
                raise ConfigError("simulation.n_periods must be a positive integer")
            reach = coeffs.factor_reach(_real(sim["p0"], "simulation.p0"), n_roll * horizon_T,
                                        np.linspace(-10, 10, 41))
            p_min, p_max = -reach, reach
        n_p = _count(grid["n_p"], "grid.n_p")
        speed = coeffs.peak_speed(np.linspace(p_min, p_max, 257))
        box = SampleBox(p_low=[p_min], p_high=[p_max])
    else:
        p_min = p_max = n_p = None
        speed = coeffs.peak_speed()
        box = SampleBox()
    # regularity is checked on the factor range the solver will use
    violations = validate_coefficients(coeffs, box)
    if violations:
        raise ConfigError(
            "coefficients fail their declared regularity: " + "; ".join(violations))

    if horizon == "finite":
        probe = np.linspace(-speed * horizon_T, speed * horizon_T, 513)
        levels = []
        for cap in spec.caps:
            lv = np.asarray(cap.level(probe), dtype=float)
            levels.extend([float(lv.min()), float(lv.max())])
    else:
        levels = [lam_align]
    e_min, e_max, n_e = _auto_e_grid(levels, speed, horizon_T, grid,
                                     tree.get("grid", {}), lam_align)

    try:
        solver = SolverConfig(
            e_min=e_min, e_max=e_max, n_e=n_e,
            p_min=p_min, p_max=p_max, n_p=n_p,
            cfl_target=_real(grid["cfl_target"], "grid.cfl_target"),
            n_steps=(None if grid.get("n_steps") is None
                     else _count(grid["n_steps"], "grid.n_steps")),
            viscosity=_real(grid["viscosity"], "grid.viscosity"),
        )
    except Exception as exc:
        raise ConfigError(f"bad grid block: {exc}") from exc

    resolved["grid"] = {**grid, "e_min": e_min, "e_max": e_max, "n_e": n_e}
    if p_min is not None:
        resolved["grid"].update(p_min=p_min, p_max=p_max, n_p=n_p)
    resolved.setdefault("defaults_version", DEFAULTS["version"])

    for key in ("tol_l1", "tol_rel"):
        if key in inf_opts:
            inf_opts[key] = _positive(inf_opts[key], f"infinite.{key}")
    if "tol_l1" not in inf_opts:
        inf_opts["tol_l1"] = inf_opts.get("tol_rel", 1e-4) * (e_max - e_min)
    if "max_iter" in inf_opts:
        inf_opts["max_iter"] = _count(inf_opts["max_iter"], "infinite.max_iter", floor=1)
    sim = dict(sim)
    for key in ("n_paths", "steps_per_period", "seed", "keep_paths", "n_periods"):
        _count(sim[key], f"simulation.{key}")
    for key in ("p0", "e0"):
        _real(sim[key], f"simulation.{key}")
    times, key = sim.get("snapshot_times"), "simulation.snapshot_times"
    if times is not None and (not isinstance(times, list) or not times):
        raise ConfigError(f"{key} must be a non-empty list of times, not {times!r}")
    t_end = horizon_T * (1 if horizon == "finite" else sim["n_periods"])
    for i, t in enumerate(times or ()):
        if not 0.0 <= _real(t, f"{key}[{i}]") <= t_end:
            raise ConfigError(f"{key}[{i}] = {t!r} lies outside the simulated "
                              f"horizon [0, {t_end:g}]")

    return RunPlan(
        label=resolved["label"], spec=spec, solver=solver,
        infinite_opts=inf_opts, simulation=sim, resolved=resolved,
        config_hash=sha256_hex(canonical_json(resolved).encode("utf-8")),
    )


def load_config(path) -> RunPlan:
    """Read a JSON config file (or 'preset:NAME') into a RunPlan."""
    text = str(path)
    if text.startswith("preset:"):
        return build_plan(bundled_preset(text[len("preset:"):]))
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {p} does not exist")
    try:
        tree = json.loads(p.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{p}: not valid JSON: {exc}") from exc
    return build_plan(tree)


# ----------------------------------------------------------------------
# bundled presets
# ----------------------------------------------------------------------

BUNDLED_PRESETS = {
    # Coefficient parameters keep the zero-price emission rate above the
    # full-abatement capacity (m0 > m2 plus the price tilt over the
    # factor box), so the flux minimiser sits outside [0, 1] and the
    # schemes run in the purely upwind regime.
    "burgers": {
        "label": "burgers-one-period",
        "rate": 0.0,
        "periods": [1.0],
        "cap": {"kind": "levels", "parameters": {"levels": [0.0]}},
        "coefficients": {"preset": "no-factor", "parameters": {"m0": 1.2, "m2": 1.0}},
        "terminal": {"kind": "indicator", "width": 0.0},
        "grid": {"e_min": -2.0, "e_max": 2.0, "n_e": 400},
        "simulation": {"n_paths": 1, "e0": 0.5},
    },
    "two-period-msr": {
        "label": "two-period-msr",
        "rate": 0.05,
        "periods": [1.0, 2.0],
        "cap": {"kind": "msr", "parameters": {
            "c1": 0.6, "c2": 0.6, "kappa_low": 0.18, "kappa_high": 0.72,
            "top_up": 0.12, "retain_fraction": 0.88,
        }},
        "coefficients": {"preset": "no-factor", "parameters": {"m0": 1.2, "m2": 1.0}},
        "terminal": {"kind": "indicator", "width": 0.0},
        "grid": {"n_e": 240},
        "simulation": {"n_paths": 2000, "e0": 0.0},
    },
    # The generous first-period allocation leaves the first date
    # non-binding (paths clear the cap from below, and the price keeps
    # real dispersion for statistical checks); the total budget is what
    # binds.  Tightening allocations[0] below the forced-emissions floor
    # m0 - m2 flips the market into certain over-emission at the first
    # date instead.
    "two-period-factor": {
        "label": "two-period-factor",
        "rate": 0.05,
        "periods": [1.0, 2.0],
        "cap": {"kind": "allocation", "parameters": {
            "allocations": [1.2, 0.6], "mode": "banking-withdrawal"}},
        "coefficients": {"preset": "linear-abatement", "parameters": {
            "m0": 1.4, "m1": 0.1, "m2": 1.0, "kappa": 1.0, "sigma": 0.5}},
        "terminal": {"kind": "indicator", "width": 0.0},
        "grid": {"e_min": -0.7, "e_max": 4.0, "n_e": 640,
                 "p_min": -3.0, "p_max": 3.0, "n_p": 65},
        "simulation": {"n_paths": 20_000, "steps_per_period": 256},
    },
    "rolling-r005": {
        "label": "rolling-r005",
        "rate": 0.05,
        "horizon": "infinite",
        "period_length": 1.0,
        "cap": {"kind": "per-period", "parameters": {"allocation": 1.0}},
        "coefficients": {"preset": "no-factor", "parameters": {"m0": 1.0, "m2": 1.0}},
        "grid": {"n_e": 400},
        "simulation": {"n_paths": 1000, "n_periods": 2},
    },
}


def bundled_preset(name: str) -> dict:
    if name not in BUNDLED_PRESETS:
        raise ConfigError(f"unknown bundled preset '{name}'; "
                          f"have {sorted(BUNDLED_PRESETS)}")
    return copy.deepcopy(BUNDLED_PRESETS[name])
