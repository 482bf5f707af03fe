"""Interacting-particle realization of the controlled state law.

The state law under a feedback policy is realized by an Euler-Maruyama
particle system whose coefficients see the empirical measure of the current
slice (states paired with evaluated controls).  Costs are estimated by
Monte Carlo with left-rectangle time quadrature on the same Euler grid.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np

from .grids import PolicyField, SpaceTimeGrid
from .measures import EmpiricalMeasure
from .problem import MfcProblem
from .prox import ell_value

_CHUNK = 4096  # fixed reduction chunk so results are schedule-independent
# share of particle-steps outside the policy grid's box, per dimension, above
# which simulate warns: the clamped interpolation makes the policy and the
# adjoint constant out there
_OUT_OF_BOX_WARN = 0.01


@dataclass
class ParticleEnsemble:
    """N particle paths on the Euler grid with per-step control evaluations,
    and the policy they were simulated under (a reference, not a copy)."""

    states: np.ndarray  # (M+1, N, d)
    controls: np.ndarray  # (M+1, N, k)
    dt: float
    seed: int
    policy: PolicyField

    @property
    def num_particles(self) -> int:
        return self.states.shape[1]

    @property
    def time_steps(self) -> int:
        return self.states.shape[0] - 1

    def measure(self, j: int) -> EmpiricalMeasure:
        return EmpiricalMeasure(self.states[j], self.controls[j])


def _noise_streams(seed: int):
    init_seq, noise_seq = np.random.SeedSequence(seed).spawn(2)
    return (
        np.random.Generator(np.random.Philox(init_seq)),
        np.random.Generator(np.random.Philox(noise_seq)),
    )


def simulate(
    problem: MfcProblem,
    policy: PolicyField,
    N: int,
    M: int,
    seed: int,
) -> ParticleEnsemble:
    """Forward Euler-Maruyama interacting-particle system under `policy`.

    The Brownian increments are drawn upfront from a counter-based (Philox)
    stream in a fixed (step, particle, component) layout, so the ensemble is
    bitwise reproducible for a given (seed, N, M) regardless of scheduling.

    Memory: the states, the controls and the upfront noise of all steps are
    held at once, (M+1)·N·d + (M+1)·N·k + M·N·n doubles, that is
    O(M·N·(d + k + n)); about 16 MB for the portfolio model at M = 50,
    N = 10 000.  A need above the machine's physical memory raises
    MemoryError before anything is allocated.

    Warns when more than _OUT_OF_BOX_WARN of the particle-steps lie outside
    the policy grid's box in some dimension.
    """
    if N < 1 or M < 1:
        raise ValueError("need N >= 1 and M >= 1")
    if policy.grid.time_steps != M:
        raise ValueError("policy grid must carry the same Euler partition as M")
    if abs(policy.grid.horizon - problem.horizon) > 1e-12:
        raise ValueError("policy grid horizon differs from the problem horizon")
    if policy.components != problem.control_dim:
        raise ValueError("policy component count differs from the control dimension")

    d, k, n = problem.state_dim, problem.control_dim, problem.noise_dim
    _check_memory(8 * ((M + 1) * N * (d + k) + M * N * n), N, M)
    dt = problem.horizon / M
    rng_init, rng_noise = _noise_streams(seed)

    states = np.empty((M + 1, N, d))
    controls = np.empty((M + 1, N, k))
    states[0] = problem.initial_sampler(N, rng_init)
    if states[0].shape != (N, d):
        raise ValueError("initial sampler returned a wrong shape")
    dW = rng_noise.standard_normal((M, N, n)) * np.sqrt(dt)

    for j in range(M):
        t = j * dt
        x = states[j]
        a = policy.eval_slice(j, x)
        controls[j] = a
        eta = EmpiricalMeasure(x, a)
        b = problem.drift(t, x, a, eta)
        sig = problem.diffusion(t, x, a, eta)
        nxt = x + b * dt + np.einsum("pir,pr->pi", sig, dW[j])
        if not np.all(np.isfinite(nxt)):
            l = int(np.argwhere(~np.isfinite(nxt).all(axis=1))[0][0])
            raise FloatingPointError(
                f"non-finite state at step {j + 1}, particle {l}; "
                "check drift/diffusion growth or the time step"
            )
        states[j + 1] = nxt
    controls[M] = policy.eval_slice(M, states[M])
    _warn_out_of_box(states, policy.grid)
    return ParticleEnsemble(
        states=states, controls=controls, dt=dt, seed=seed, policy=policy
    )


def _check_memory(need: int, N: int, M: int) -> None:
    """Raise MemoryError if `need` bytes exceed the physical memory."""
    try:
        total = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError):  # no sysconf on this platform
        return
    if 0 < total < need:
        raise MemoryError(
            f"simulate needs {need / 2**20:.0f} MiB for N={N} particles and "
            f"M={M} steps, 8*((M+1)*N*(d+k) + M*N*n) bytes, more than the "
            f"{total / 2**20:.0f} MiB of physical memory"
        )


def _warn_out_of_box(states: np.ndarray, grid: SpaceTimeGrid) -> None:
    """Warn per dimension when too many particle-steps leave the grid box."""
    lo, hi = np.array(grid.lo), np.array(grid.hi)
    # over the steps first, which numpy reduces as contiguous rows: about
    # 1.8 ms on a (51, 10 000, 2) ensemble, against 4.7 ms for the
    # (51·10 000, 2) array along axis 0
    low = states.min(axis=0).min(axis=0)
    high = states.max(axis=0).max(axis=0)
    for i in np.flatnonzero((low < lo) | (high > hi)):
        col = states[..., i]
        frac = np.count_nonzero((col < lo[i]) | (col > hi[i])) / col.size
        if frac > _OUT_OF_BOX_WARN:
            warnings.warn(
                f"{frac:.1%} of the particle-steps lie outside the grid box "
                f"[{lo[i]}, {hi[i]}] in dimension {i}; the policy and the "
                "adjoint are clamped to constants there",
                RuntimeWarning,
                stacklevel=3,
            )


def estimate_cost(
    problem: MfcProblem,
    policy: PolicyField,
    ensemble: ParticleEnsemble,
) -> tuple[float, float]:
    """Monte-Carlo cost of the policy on the ensemble: (mean, standard error).

    Per-particle cost: sum_{j<M} [f(t_j, X_j, a_j, mu_j) + ell(a_j)] dt
    plus g(X_M, mu_M).
    """
    M = ensemble.time_steps
    N = ensemble.num_particles
    dt = ensemble.dt
    total = np.zeros(N)
    for j in range(M):
        eta = ensemble.measure(j)
        f = problem.running_cost(j * dt, ensemble.states[j], ensemble.controls[j], eta)
        total += (f + ell_value(problem.nonsmooth_cost, ensemble.controls[j])) * dt
    mu_T = ensemble.measure(M)
    total += problem.terminal_cost(ensemble.states[M], mu_T)
    mean = _chunked_mean(total)
    std_err = float(total.std(ddof=1) / np.sqrt(N)) if N > 1 else 0.0
    return float(mean), std_err


def _chunked_mean(vals: np.ndarray) -> np.ndarray:
    n = vals.shape[0]
    acc = np.zeros(vals.shape[1:])
    for lo in range(0, n, _CHUNK):
        acc += vals[lo : lo + _CHUNK].sum(axis=0)
    return acc / n
