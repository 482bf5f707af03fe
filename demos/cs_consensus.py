"""Consensus control of a two-dimensional Cucker-Smale crowd.

Each agent carries a (position, velocity) pair, aligns its velocity with
the crowd through a communication kernel, and pays a quadratic price for
control effort and for deviating from the mean velocity.  With kernel
exponent beta = 0 the alignment is all-to-all and the problem is linear
quadratic, so a Riccati equation gives the exact feedback law to compare
against.  With beta = 10 the kernel is strongly local and no closed form
exists; there the accelerated iteration is compared with its unaccelerated
counterpart.

The beta = 0 part takes about half a minute; pass --beta10 to also run
the heavier nonlocal comparison (several minutes).
"""

import sys

import numpy as np

from mfcontrol import (
    CuckerSmaleParams,
    cs2d_grid,
    cs2d_problem,
    solve_cs_riccati,
)
from mfcontrol.nag import run


def beta0_vs_riccati():
    problem = cs2d_problem()
    grid = cs2d_grid()
    print("beta = 0: all-to-all alignment, LQ structure (40 iterations)")
    report = run(problem, grid, iterations=40, num_particles=10_000, seed=0)

    gaps = np.abs(report.costs - report.records[-1].cost)
    ms = np.arange(3, 16)
    slope = np.polyfit(ms, np.log(gaps[3:16]), 1)[0]
    print(f"cost gap decays geometrically: ratio per iteration {np.exp(slope):.3f}")

    sol = solve_cs_riccati()
    coords = grid.node_coords()
    mask = (
        (coords[:, 0] >= 1.0) & (coords[:, 0] <= 2.0)
        & (coords[:, 1] >= 1.0) & (coords[:, 1] <= 2.0)
    )
    # the consensus velocity equals the initial mean velocity 1.5
    exact = -sol.gain(0.0) * (coords[mask, 1] - 1.5)
    got = report.policy.slice_flat(0)[mask, 0]
    rel = np.linalg.norm(got - exact) / np.linalg.norm(exact)
    print(f"policy at t = 0 vs Riccati feedback (bulk of the domain): "
          f"{rel:.2%} relative l2 error")


def beta10_acceleration():
    params = CuckerSmaleParams(beta=10.0)
    problem = cs2d_problem(params, kernel_subsample=500)
    grid = cs2d_grid(params)
    print("\nbeta = 10: local alignment kernel, momentum vs plain iteration")
    common = dict(num_particles=5_000, seed=0)
    fast = run(problem, grid, iterations=10, **common)
    plain = run(problem, grid, iterations=10, method="ipde", **common)
    print("  m    J accelerated    J plain")
    for m in range(11):
        print(f"  {m:2d}   {fast.records[m].cost: .6f}      "
              f"{plain.records[m].cost: .6f}")


def main():
    beta0_vs_riccati()
    if "--beta10" in sys.argv[1:]:
        beta10_acceleration()
    else:
        print("\n(pass --beta10 for the nonlocal-kernel comparison)")


if __name__ == "__main__":
    main()
