"""Robustness of the PDE-based policy versus the regression baseline.

Both solvers are trained on the nominal liquidation problem, then their
frozen feedback policies are evaluated (no retraining) on problems whose
initial inventory distribution has been shifted.  The PDE sweep produces
an adjoint that is accurate on the whole grid, so its policy transfers;
the least-squares regression baseline only fits the adjoint where the
training particles happened to be, and degrades sharply off distribution.

Run time is a few minutes for the full sweep.
"""

import numpy as np

from mfcontrol import (
    PortfolioParams,
    estimate_cost,
    portfolio_grid,
    portfolio_problem,
)
from mfcontrol.nag import run

EVAL_SEED = 1_000_003


def frozen_cost(problem, policy, grid):
    return estimate_cost(problem, policy, 10_000, grid.time_steps, EVAL_SEED)[0]


def main():
    nominal = portfolio_problem()
    grid = portfolio_grid()

    print("training both solvers on the nominal problem (Q0 ~ U(1, 2))")
    pde = run(nominal, grid, iterations=8, num_particles=10_000, seed=0)
    reg = run(nominal, grid, iterations=8, num_particles=10_000, seed=0, method="emreg")
    print(f"  nominal values: PDE {pde.records[-1].cost:.4f}, "
          f"regression {reg.records[-1].cost:.4f}")

    print("\nevaluating the frozen policies on shifted initial inventories")
    print("  (q_lo, q_hi)   J_pde gap   J_regression gap")
    for q_lo, q_hi in [(0.8, 1.8), (0.5, 2.5), (0.5, 3.0)]:
        shifted = portfolio_problem(PortfolioParams(q_lo=q_lo, q_hi=q_hi))
        ref = run(shifted, grid, iterations=8, num_particles=10_000, seed=0)
        j_ref = ref.records[-1].cost
        gap_pde = abs(frozen_cost(shifted, pde.policy, grid) - j_ref) / abs(j_ref)
        gap_reg = abs(frozen_cost(shifted, reg.policy, grid) - j_ref) / abs(j_ref)
        print(f"  ({q_lo:.1f}, {q_hi:.1f})     {gap_pde:8.2%}   {gap_reg:10.1%}")


if __name__ == "__main__":
    main()
