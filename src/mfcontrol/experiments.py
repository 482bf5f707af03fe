"""Configuration-driven experiments and their file artifacts.

Everything here consumes a :class:`~mfcontrol.config.RunConfig` and writes
plain CSV/JSON artifacts: convergence reports, final policy fields, the
robustness sweep over perturbed initial inventory laws and per-slice
sparsity statistics of a policy.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace as dc_replace
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import nag
from .config import RunConfig
from .fdsolver import backward_sweep
from .grids import PolicyField, field_from_csv, field_to_csv
from .particles import estimate_cost, simulate
from .problems import portfolio_problem


def max_workers() -> int:
    """Worker cap from the MFCONTROL_THREADS environment variable."""
    raw = os.environ.get("MFCONTROL_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        return os.cpu_count() or 1
    return max(1, n)


def _load_initial_policy(config: RunConfig) -> Optional[PolicyField]:
    if config.initial_policy is None:
        return None
    return field_from_csv(config.initial_policy, policy=True)


def execute_run(config: RunConfig) -> nag.RunReport:
    """Run the configured method and return its report (no files written)."""
    problem, grid = config.build()
    return nag.run(
        problem, grid,
        iterations=config.iterations,
        tau=config.tau,
        num_particles=config.particles,
        seed=config.seed,
        eval_seed=config.eval_seed,
        method=config.method,
        kernel_subsample=config.kernel_subsample,
        initial_policy=_load_initial_policy(config),
        momentum_cap=config.momentum_cap,
    )


def write_artifacts(config: RunConfig, report: nag.RunReport, out_dir: Path) -> List[Path]:
    """Write report.csv, report.json and the final policy CSVs."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    report.settings["config"] = config.to_items()
    csv_path = out_dir / "report.csv"
    report.to_csv(csv_path)
    written.append(csv_path)
    json_path = out_dir / "report.json"
    report.to_json(json_path)
    written.append(json_path)
    if report.policy is not None:
        p = out_dir / "policy_phi.csv"
        field_to_csv(report.policy, p)
        written.append(p)
    if report.lookahead is not None:
        p = out_dir / "policy_psi.csv"
        field_to_csv(report.lookahead, p)
        written.append(p)
    return written


def _write_dumps(config: RunConfig, report: nag.RunReport, out_dir: Path) -> None:
    problem, grid = config.build()
    policy = report.lookahead if report.lookahead is not None else report.policy
    if config.dump_adjoint:
        ensemble = simulate(problem, policy, config.particles, grid.time_steps, config.seed)
        adjoint = backward_sweep(
            problem, policy, ensemble, grid, kernel_subsample=config.kernel_subsample
        )
        field_to_csv(adjoint.u, out_dir / "adjoint_u.csv")
    if config.dump_trajectories:
        ensemble = simulate(problem, policy, config.particles, grid.time_steps, config.seed)
        keep = min(100, ensemble.num_particles)
        with open(out_dir / "trajectories.csv", "w") as fh:
            cols = ["t", "particle"] + [f"x{i+1}" for i in range(problem.state_dim)]
            fh.write(",".join(cols) + "\n")
            for j, t in enumerate(grid.times):
                for l in range(keep):
                    coords = ",".join(f"{v:.17g}" for v in ensemble.states[j, l])
                    fh.write(f"{t:.17g},{l},{coords}\n")


def run_experiment(config: RunConfig) -> int:
    """Execute a configured run and write its artifacts; returns an exit code.

    0 on success.  On an iteration failure the partial report is still
    written and 1 is returned.
    """
    out_dir = Path(config.output)
    try:
        report = execute_run(config)
    except nag.SolverError as exc:
        write_artifacts(config, exc.partial_report, out_dir)
        print(f"error: {exc}")
        return 1
    write_artifacts(config, report, out_dir)
    _write_dumps(config, report, out_dir)
    return 0


# ---------------------------------------------------------------------------
# robustness sweep (portfolio initial-law perturbations)
# ---------------------------------------------------------------------------


@dataclass
class SweepResult:
    """Costs and gaps of a frozen policy on a lattice of initial laws."""

    q_min_values: np.ndarray  # (S1,)
    q_max_values: np.ndarray  # (S2,)
    policy_cost: np.ndarray  # (S1, S2) cost of the frozen policy
    reference_cost: np.ndarray  # (S1, S2) cost of a freshly trained policy
    abs_gap: np.ndarray  # (S1, S2)
    rel_gap: np.ndarray  # (S1, S2)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("q_min,q_max,J_policy,J_ref,abs_gap,rel_gap\n")
            for i, qmin in enumerate(self.q_min_values):
                for j, qmax in enumerate(self.q_max_values):
                    fh.write(
                        f"{qmin:.17g},{qmax:.17g},"
                        f"{self.policy_cost[i, j]:.17g},"
                        f"{self.reference_cost[i, j]:.17g},"
                        f"{self.abs_gap[i, j]:.17g},"
                        f"{self.rel_gap[i, j]:.17g}\n"
                    )


def _perturbed_config(config: RunConfig, q_min: float, q_max: float) -> RunConfig:
    overrides = dict(config.problem_overrides)
    overrides["q_lo"] = float(q_min)
    overrides["q_hi"] = float(q_max)
    return dc_replace(config, problem_overrides=overrides)


def _sweep_cell(config: RunConfig, policy: PolicyField, q_min: float, q_max: float):
    """(frozen-policy cost, fresh-reference cost) on one perturbed law."""
    cell_cfg = _perturbed_config(config, q_min, q_max)
    problem, grid = cell_cfg.build()
    ens = simulate(problem, policy, cell_cfg.particles, grid.time_steps, cell_cfg.eval_seed)
    j_policy, _ = estimate_cost(problem, policy, ens)

    # the reference is always a freshly trained PDE-based policy on the
    # perturbed law, regardless of which method produced the frozen policy
    ref = nag.run(
        problem, grid,
        iterations=cell_cfg.sweep_iterations, tau=cell_cfg.tau,
        num_particles=cell_cfg.particles, seed=cell_cfg.seed,
        eval_seed=cell_cfg.eval_seed, method="fipde",
        kernel_subsample=cell_cfg.kernel_subsample,
    )
    return j_policy, ref.records[-1].cost


def robustness_sweep(
    config: RunConfig,
    policy: PolicyField,
    q_min_values: Optional[Sequence[float]] = None,
    q_max_values: Optional[Sequence[float]] = None,
) -> SweepResult:
    """Evaluate a frozen policy over a lattice of perturbed initial laws.

    For each lattice cell the initial inventory law is U(q_min, q_max), the
    frozen policy is evaluated by simulation, and the reference cost is a
    freshly trained PDE-based policy at that law.  Cells run as independent
    jobs; results are assembled in a fixed order so the output is
    schedule-independent.
    """
    if config.problem != "portfolio":
        raise ValueError("the robustness sweep perturbs the portfolio inventory law")
    if q_min_values is None:
        q_min_values = np.linspace(*config.sweep_q_min, config.sweep_steps)
    if q_max_values is None:
        q_max_values = np.linspace(*config.sweep_q_max, config.sweep_steps)
    q_min_values = np.asarray(q_min_values, dtype=float)
    q_max_values = np.asarray(q_max_values, dtype=float)

    cells = [(i, j) for i in range(len(q_min_values)) for j in range(len(q_max_values))]
    policy_cost = np.empty((len(q_min_values), len(q_max_values)))
    reference_cost = np.empty_like(policy_cost)

    def work(cell):
        i, j = cell
        return cell, _sweep_cell(config, policy, q_min_values[i], q_max_values[j])

    workers = min(max_workers(), len(cells))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, cells))
    else:
        results = [work(c) for c in cells]
    for (i, j), (jp, jr) in results:
        policy_cost[i, j] = jp
        reference_cost[i, j] = jr

    abs_gap = np.abs(policy_cost - reference_cost)
    denom = np.abs(reference_cost)
    rel_gap = abs_gap / np.where(denom > 0, denom, 1.0)
    return SweepResult(
        q_min_values=q_min_values,
        q_max_values=q_max_values,
        policy_cost=policy_cost,
        reference_cost=reference_cost,
        abs_gap=abs_gap,
        rel_gap=rel_gap,
    )


# ---------------------------------------------------------------------------
# sparsity diagnostics
# ---------------------------------------------------------------------------


def sparsity_report(policy: PolicyField, threshold: float = 0.0) -> np.ndarray:
    """Fraction of grid nodes with |policy| <= threshold, per time slice.

    The proximal step produces exact zeros under an l1 cost, so the default
    threshold of zero counts genuinely switched-off controls.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    flat = np.abs(policy.values).max(axis=-1)
    flat = flat.reshape(flat.shape[0], -1)
    return (flat <= threshold).mean(axis=1)


def sparsity_to_csv(times: np.ndarray, fractions: np.ndarray, path) -> None:
    """Write (t, zero_fraction) rows to a path or an open text stream."""

    def emit(fh):
        fh.write("t,zero_fraction\n")
        for t, frac in zip(times, fractions):
            fh.write(f"{t:.17g},{frac:.17g}\n")

    if hasattr(path, "write"):
        emit(path)
    else:
        with open(path, "w") as fh:
            emit(fh)
