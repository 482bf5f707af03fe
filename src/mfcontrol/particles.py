"""Interacting-particle realization of the controlled state law.

The state law under a feedback policy is realized by an Euler-Maruyama
particle system whose coefficients see the empirical measure of the current
slice (states paired with evaluated controls).  Costs are estimated by
Monte Carlo with left-rectangle time quadrature on the same Euler grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import PolicyField
from .measures import EmpiricalMeasure
from .problem import MfcProblem
from .prox import ell_value

_CHUNK = 4096  # fixed reduction chunk so results are schedule-independent


@dataclass
class ParticleEnsemble:
    """N particle paths on the Euler grid with per-step control evaluations."""

    states: np.ndarray  # (M+1, N, d)
    controls: np.ndarray  # (M+1, N, k)
    dt: float
    seed: int

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
    N = 10 000.
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
    return ParticleEnsemble(states=states, controls=controls, dt=dt, seed=seed)


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
