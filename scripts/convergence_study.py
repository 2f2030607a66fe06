"""Refinement ladder for the transport kernel against the closed form.

Solves the driftless quadratic-flux case (emission rate -y, zero
discounting, sharp indicator at 0) on nested grids and prints the
grid-L1 and nodewise sup errors at the period start, plus the empirical
order between consecutive levels.  Monotone first-order schemes sit
around order 0.8..1 on rarefactions, which is what this measures.

Usage: python scripts/convergence_study.py [--levels 4] [--base 100]
"""

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from carbon_fbsde.model import CapFunction, CoefficientSet, indicator_terminal
from carbon_fbsde.pde_kernel import SolverConfig, solve_one_period

# the closed-form references live with the tests, outside the package
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracle import burgers_rarefaction, verify_burgers_form  # noqa: E402


def burgers_coefficients() -> CoefficientSet:
    return CoefficientSet(
        dim_p=0,
        emissions_rate=lambda p, y: -np.asarray(y, dtype=float),
        emissions_antiderivative=lambda p, y: -0.5 * np.asarray(y, dtype=float) ** 2,
        rate=0.0,
        lipschitz_L=1.0,
        mono_l1=1.0,
        mono_l2=1.0,
        label="quadratic-flux",
    )


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--levels", type=int, default=4)
    ap.add_argument("--base", type=int, default=100, help="cells at the coarsest level")
    args = ap.parse_args()

    coeffs = burgers_coefficients()
    c = verify_burgers_form(coeffs)
    ref = burgers_rarefaction(c, 0.0, 1.0)
    term = indicator_terminal(CapFunction.constant(0.0))

    rows = []
    for lvl in range(args.levels):
        n_e = args.base * 2 ** lvl
        cfg = SolverConfig(e_min=-1.0, e_max=1.0, n_e=n_e, cfl_target=0.9)
        t0 = time.monotonic()
        grid = solve_one_period(coeffs, term, 0.0, 1.0, cfg)
        wall = time.monotonic() - t0
        e = grid.e_nodes
        de = e[1] - e[0]
        err = grid.values[0] - ref(0.0, e)
        rows.append((n_e, float(np.abs(err).sum() * de),
                     float(np.abs(err).max()), wall))

    print(f"{'cells':>7} {'L1':>10} {'order':>6} {'sup':>10} {'order':>6} {'sec':>6}")
    for i, (n_e, l1, sup, wall) in enumerate(rows):
        if i == 0:
            print(f"{n_e:7d} {l1:10.3e} {'-':>6} {sup:10.3e} {'-':>6} {wall:6.2f}")
        else:
            p_l1 = math.log2(rows[i - 1][1] / l1)
            p_sup = math.log2(rows[i - 1][2] / sup)
            print(f"{n_e:7d} {l1:10.3e} {p_l1:6.2f} {sup:10.3e} {p_sup:6.2f} {wall:6.2f}")


if __name__ == "__main__":
    main()
