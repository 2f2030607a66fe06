"""Allowance pricing in cap-and-trade markets.

The package solves the degenerate pricing equation of an emissions
market as a scalar conservation law (monotone finite-volume schemes in
the cumulative-emissions variable, optional exogenous price factor),
chains period solves through their compliance conditions, iterates the
rolling market to its stationary field, and simulates the resulting
price and emissions paths against a solved field.
"""

__version__ = "0.1.0"

from .errors import (ArtifactError, CarbonMarketError, ConfigError,
                     ConvergenceError, CoverageError, InvariantError,
                     SimulationError, SolverError, ValidationError)
from .model import (CapFunction, CoefficientSet, MarketSpec, SampleBox,
                    TerminalSurface, indicator_terminal, make_cap_allocation,
                    make_cap_msr, smoothed_indicator, validate_coefficients)
from .pde_kernel import (KernelDiagnostics, SolverConfig, ValueGrid,
                         diagnostics, evaluate, solve_one_period)
from .multi_period import solve_periods
from .infinite_period import PicardState, picard_step, solve_infinite
from .montecarlo import (JumpReport, MartingaleReport, PathBundle,
                         jump_consistency_test, martingale_test, simulate)
from .gridio import read_grid, write_grid
from .config import RunPlan, build_plan, bundled_preset, load_config

__all__ = [
    "__version__",
    "ArtifactError", "CarbonMarketError", "ConfigError", "ConvergenceError",
    "CoverageError", "InvariantError", "SimulationError", "SolverError",
    "ValidationError",
    "CapFunction", "CoefficientSet", "MarketSpec", "SampleBox",
    "TerminalSurface", "indicator_terminal", "make_cap_allocation",
    "make_cap_msr", "smoothed_indicator", "validate_coefficients",
    "KernelDiagnostics", "SolverConfig", "ValueGrid", "diagnostics",
    "evaluate", "solve_one_period",
    "solve_periods",
    "PicardState", "picard_step", "solve_infinite",
    "JumpReport", "MartingaleReport", "PathBundle", "jump_consistency_test",
    "martingale_test", "simulate",
    "read_grid", "write_grid",
    "RunPlan", "build_plan", "bundled_preset", "load_config",
]
