"""Micro-benchmarks of the two hottest kernels of a portfolio solve.

pytest-benchmark times each call; the rounds are few, so the file runs in
well under three seconds.  `pytest tests/test_microbench.py` prints the
timing table; end-to-end numbers come from `perfbench/run.py`.
"""

import numpy as np
import pytest

from mfcontrol import (
    PolicyField,
    build_operator,
    multilinear_eval,
    portfolio_grid,
    portfolio_problem,
    simulate,
)

pytest.importorskip("pytest_benchmark")


def test_multilinear_eval_10k_points(benchmark):
    grid = portfolio_grid()
    rng = np.random.default_rng(0)
    values = rng.standard_normal(grid.nodes + (1,))
    x = rng.uniform(grid.lo, grid.hi, (10_000, grid.state_dim))
    out = benchmark.pedantic(
        multilinear_eval, args=(grid, values, x), rounds=20, iterations=5, warmup_rounds=1
    )
    assert out.shape == (10_000, 1)


def test_build_operator_portfolio_slice(benchmark):
    problem, grid = portfolio_problem(), portfolio_grid()
    rng = np.random.default_rng(1)
    policy = PolicyField(grid, rng.standard_normal((grid.time_steps + 1,) + grid.nodes + (1,)))
    ensemble = simulate(problem, policy, 1000, grid.time_steps, 0)
    op = benchmark.pedantic(
        build_operator, args=(problem, policy, ensemble, grid, 10),
        rounds=20, iterations=5, warmup_rounds=1,
    )
    assert op.system.nnz == 9804
