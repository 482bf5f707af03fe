"""End-to-end acceptance suite: one test per headline criterion.

Each test finishes by printing a single `[PASS] criterion N: ...` line
(visible under `pytest -s`); an assertion failure marks the criterion as
failed.  Heavy runs are shared through module-scoped fixtures.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mfcontrol import (
    CuckerSmaleParams,
    GridField,
    PortfolioParams,
    affine_fit_check,
    backward_sweep,
    cs2d_grid,
    cs2d_problem,
    estimate_cost,
    gradient_field,
    portfolio_grid,
    portfolio_problem,
    simulate,
    solve_cs_riccati,
)
from mfcontrol.experiments import sparsity_report
from mfcontrol.nag import run


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _passed(line):
    print(f"[PASS] {line}")


# ---------------------------------------------------------------------------
# shared heavy runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def portfolio_lq_run():
    prob = portfolio_problem()
    grid = portfolio_grid()
    tic = time.perf_counter()
    rep = run(prob, grid, iterations=20, num_particles=10_000, seed=0)
    return rep, time.perf_counter() - tic


@pytest.fixture(scope="module")
def cs_beta0_run():
    prob = cs2d_problem()
    grid = cs2d_grid()
    rep = run(prob, grid, iterations=40, num_particles=10_000, seed=0)
    return rep


def _geometric_ratio(costs, ref, lo, hi):
    gaps = np.abs(np.asarray(costs) - ref)
    ms = np.arange(lo, hi + 1)
    gaps = gaps[lo : hi + 1]
    keep = gaps > 0
    slope = np.polyfit(ms[keep], np.log(gaps[keep]), 1)[0]
    return float(np.exp(slope))


# ---------------------------------------------------------------------------
# criterion 1: portfolio LQ value convergence
# ---------------------------------------------------------------------------


def test_criterion_1_portfolio_value_converges_fast(portfolio_lq_run):
    rep, elapsed = portfolio_lq_run
    j5, j20 = rep.records[5].cost, rep.records[20].cost
    rel = abs(j5 - j20) / abs(j20)
    assert rel < 0.01, rel
    assert elapsed < 120.0, elapsed
    _passed(
        f"criterion 1: |J(5) - J(20)|/|J(20)| = {rel:.2%} < 1% "
        f"in {elapsed:.0f}s"
    )


# ---------------------------------------------------------------------------
# criterion 2: portfolio LQ policy is affine in the inventory
# ---------------------------------------------------------------------------


def test_criterion_2_portfolio_policy_is_affine(portfolio_lq_run):
    rep, _ = portfolio_lq_run
    grid = rep.policy.grid
    coords = grid.node_coords()
    # away from the outer boundary layer of the truncated box
    mask = (
        (coords[:, 0] >= 0.0) & (coords[:, 0] <= 4.0)
        & (coords[:, 1] >= 0.5) & (coords[:, 1] <= 2.5)
    )
    fit_q = affine_fit_check(rep.policy, slice_var=1, mask=mask)
    worst = fit_q.residuals.max()
    assert worst <= 0.02, worst
    # and essentially independent of the price coordinate
    fit_s = affine_fit_check(rep.policy, slice_var=0, mask=mask)
    assert np.abs(fit_s.slopes).max() <= 0.02
    _passed(
        f"criterion 2: affine-in-inventory fit residual {worst:.2%} <= 2% per slice"
    )


# ---------------------------------------------------------------------------
# criterion 3: consensus control, beta = 0 (LQ benchmark)
# ---------------------------------------------------------------------------


def test_criterion_3_cs_rate_and_riccati_match(cs_beta0_run):
    rep = cs_beta0_run
    ratio = _geometric_ratio(rep.costs, rep.records[-1].cost, 3, 15)
    assert 0.45 <= ratio <= 0.70, ratio

    sol = solve_cs_riccati()
    grid = rep.policy.grid
    coords = grid.node_coords()
    mask = (
        (coords[:, 0] >= 1.0) & (coords[:, 0] <= 2.0)
        & (coords[:, 1] >= 1.0) & (coords[:, 1] <= 2.0)
    )
    # consensus velocity equals the initial mixture mean
    exact = -sol.gain(0.0) * (coords[mask, 1] - 1.5)
    got = rep.policy.slice_flat(0)[mask, 0]
    rel_l2 = np.linalg.norm(got - exact) / np.linalg.norm(exact)
    assert rel_l2 <= 0.05, rel_l2
    _passed(
        f"criterion 3: cost decay ratio {ratio:.3f} in [0.45, 0.70]; "
        f"policy vs Riccati feedback {rel_l2:.2%} <= 5% rel L2"
    )


# ---------------------------------------------------------------------------
# criterion 4: consensus control, beta = 10 (momentum acceleration)
# ---------------------------------------------------------------------------


def test_criterion_4_cs_beta10_momentum_accelerates():
    params = CuckerSmaleParams(beta=10.0)
    prob = cs2d_problem(params, kernel_subsample=500)
    grid = cs2d_grid(params)
    common = dict(num_particles=5_000, seed=0)
    fast = run(prob, grid, iterations=10, **common)
    plain = run(prob, grid, iterations=10, method="ipde", **common)
    ratio = _geometric_ratio(fast.costs, fast.records[-1].cost, 1, 6)
    assert ratio <= 0.70, ratio
    assert fast.records[10].cost <= plain.records[10].cost
    _passed(
        f"criterion 4: decay ratio {ratio:.3f} <= 0.70 and "
        f"J_fipde(10) = {fast.records[10].cost:.4f} <= "
        f"J_ipde(10) = {plain.records[10].cost:.4f}"
    )


# ---------------------------------------------------------------------------
# criterion 5: nonsmooth execution cost induces sparse controls
# ---------------------------------------------------------------------------


def test_criterion_5_l1_cost_sparsifies_policy():
    prob = portfolio_problem(PortfolioParams(k2=1.0))
    grid = portfolio_grid()
    rep = run(prob, grid, iterations=8, num_particles=10_000, seed=0)
    fractions = sparsity_report(rep.policy)
    m = grid.time_steps
    assert fractions[0] > 0.0
    assert fractions[m - 1] > fractions[0]
    # zero fraction grows towards the terminal time
    assert np.polyfit(np.arange(m), fractions[:m], 1)[0] > 0
    j4, j8 = rep.records[4].cost, rep.records[8].cost
    stab = abs(j4 - j8) / abs(j8)
    assert stab <= 0.02, stab
    _passed(
        f"criterion 5: exact-zero fraction {fractions[0]:.2f} -> "
        f"{fractions[m - 1]:.2f} increasing; value stable after 4 "
        f"iterations ({stab:.2%})"
    )


# ---------------------------------------------------------------------------
# criterion 6: robustness of the PDE policy vs the regression baseline
# ---------------------------------------------------------------------------


def test_criterion_6_robustness_separation():
    prob = portfolio_problem()
    grid = portfolio_grid()
    pde = run(prob, grid, iterations=8, num_particles=10_000, seed=0)
    reg = run(prob, grid, iterations=8, num_particles=10_000, seed=0, method="emreg")

    perturbed = portfolio_problem(PortfolioParams(q_lo=0.5, q_hi=2.5))

    def frozen_cost(policy):
        return estimate_cost(perturbed, policy, 10_000, grid.time_steps, 1_000_003)[0]

    ref = run(perturbed, grid, iterations=8, num_particles=10_000, seed=0)
    j_ref = ref.records[-1].cost
    gap_pde = abs(frozen_cost(pde.policy) - j_ref) / abs(j_ref)
    gap_reg = abs(frozen_cost(reg.policy) - j_ref) / abs(j_ref)
    assert gap_pde <= 0.05, gap_pde
    assert gap_reg >= 4.0 * gap_pde, (gap_pde, gap_reg)
    _passed(
        f"criterion 6: frozen-policy gaps on Q0 ~ U(0.5, 2.5): "
        f"PDE {gap_pde:.2%} <= 5%, regression {gap_reg:.1%} "
        f">= 4x the PDE gap"
    )


# ---------------------------------------------------------------------------
# criterion 7: property battery
# ---------------------------------------------------------------------------


class _FrozenControls:
    """Open-loop control table indexed by (time step, particle)."""

    def __init__(self, grid, table):
        self.grid = grid
        self.table = table
        self.components = table.shape[-1]

    def eval_slice(self, j, x):
        return self.table[j]


def _per_particle_cost(problem, policy, ensemble):
    M = ensemble.time_steps
    dt = problem.horizon / M
    total = np.zeros(ensemble.num_particles)
    for j in range(M):
        a = policy.eval_slice(j, ensemble.states[j])
        assert ensemble.mean_a[j].tobytes() == a.mean(axis=0).tobytes()
        total += problem.running_cost(j * dt, ensemble.states[j], a, ensemble.measure(j)) * dt
    total += problem.terminal_cost(ensemble.states[M], ensemble.measure(M))
    return total


def _directional_derivative_error(problem, grid, policy_base, N=50_000, seed=77, eps=1e-3):
    """Relative gap between the assembled gradient paired with a direction
    and the central-difference derivative of the cost along the matching
    open-loop control perturbation (matched noise on both sides)."""
    M, dt = grid.time_steps, grid.dt
    coords = grid.node_coords()
    lo, hi = np.array(grid.lo), np.array(grid.hi)
    u = (coords - lo) / (hi - lo)
    direction_base = (
        np.sin(np.pi * u[:, 0]) * np.sin(np.pi * u[:, 1])
        + 0.3 * np.sin(2 * np.pi * u[:, 0]) * np.sin(np.pi * u[:, 1])
    )
    shape = (M + 1,) + grid.nodes + (1,)
    pol_vals, dir_vals = np.empty(shape), np.empty(shape)
    for j, t in enumerate(grid.times):
        pol_vals[j] = (0.5 * (1 + 0.3 * np.cos(2 * t)) * policy_base(u)).reshape(grid.nodes + (1,))
        dir_vals[j] = ((1 + 0.5 * np.sin(2 * t)) * direction_base).reshape(grid.nodes + (1,))
    psi = GridField(grid, pol_vals)
    delta = GridField(grid, dir_vals)

    ens = simulate(problem, psi, N, M, seed)
    adjoint = backward_sweep(problem, psi, ens)
    grad = gradient_field(problem, psi, adjoint)

    controls = np.stack([psi.eval_slice(j, ens.states[j]) for j in range(M + 1)])
    moves = np.stack([delta.eval_slice(j, ens.states[j]) for j in range(M + 1)])

    def cost_at(step):
        table = _FrozenControls(grid, controls + step * moves)
        return _per_particle_cost(problem, table, simulate(problem, table, N, M, seed)).mean()

    fd = (cost_at(eps) - cost_at(-eps)) / (2 * eps)
    pairing = sum(
        np.mean(np.sum(grad.eval_slice(j, ens.states[j]) * moves[j], axis=1)) * dt
        for j in range(M)
    )
    return abs(pairing - fd) / abs(fd)


def test_criterion_7a_gradient_matches_monte_carlo_derivative():
    err_pf = _directional_derivative_error(
        portfolio_problem(),
        portfolio_grid(cells=100, time_steps=100),
        lambda u: np.sin(np.pi * u[:, 0]) * np.sin(np.pi * u[:, 1]),
    )
    assert err_pf <= 0.05, err_pf
    err_cs = _directional_derivative_error(
        cs2d_problem(),
        cs2d_grid(cells=100, time_steps=100),
        lambda u: np.sin(np.pi * u[:, 1]),
    )
    assert err_cs <= 0.05, err_cs
    _passed(
        f"criterion 7: gradient vs MC directional derivative: "
        f"portfolio {err_pf:.2%}, consensus {err_cs:.2%} (<= 5%)"
    )


def test_criterion_7b_thread_count_reproducibility(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "problem = portfolio\ngrid.cells = 10\ngrid.time_steps = 10\n"
        "particles = 500\niterations = 3\n"
    )

    def run_with_threads(threads, out):
        # BLAS threads: the pool the line solve's matmul and inverses run on
        env = dict(os.environ, PYTHONPATH=SRC,
                   OMP_NUM_THREADS=str(threads), OPENBLAS_NUM_THREADS=str(threads))
        subprocess.run(
            [sys.executable, "-m", "mfcontrol.cli", "run", str(cfg), "--output", str(out)],
            capture_output=True, env=env, check=True,
        )
        return (out / "policy_phi.csv").read_bytes()

    assert run_with_threads(1, tmp_path / "a") == run_with_threads(2, tmp_path / "b")
    _passed("criterion 7: run artifacts byte-identical across thread counts")


def test_criterion_7c_structural_property_battery():
    # the fine-grained property tests live next to their modules; this
    # exercises the battery end to end on freshly assembled objects
    from test_fdsolver import (
        test_m_matrix_inverse_nonnegativity,
        test_manufactured_solution_convergence_order,
        test_stencil_nonnegative_off_diagonal_on_models,
        test_zero_source_sweep_obeys_maximum_principle,
    )
    from test_prox import test_prox_matches_grid_search
    from test_riccati import A0_REFERENCE

    from mfcontrol.prox import ProxSpec

    test_stencil_nonnegative_off_diagonal_on_models()
    test_m_matrix_inverse_nonnegativity()
    test_zero_source_sweep_obeys_maximum_principle()
    test_manufactured_solution_convergence_order()
    test_prox_matches_grid_search(ProxSpec.l1(0.7))

    sol = solve_cs_riccati()
    assert sol.residual() <= 1e-6
    assert sol.a[-1] == 2.0
    assert abs(sol.a[0] - A0_REFERENCE) <= 1e-12
    _passed(
        "criterion 7: monotone stencils, maximum principle, prox optimality, "
        "FD convergence order and Riccati accuracy all hold"
    )
