"""Interacting-particle realization of the controlled state law.

The state law under a feedback policy is realized by an Euler-Maruyama
particle system whose coefficients see the empirical measure of the current
slice: its states and the mean of their controls.  Costs are estimated by
Monte Carlo with left-rectangle time quadrature on the same Euler grid.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .grids import PolicyField
from .measures import EmpiricalMeasure
from .problem import MfcProblem
from .prox import ell_value

_CHUNK = 4096  # fixed reduction chunk so results are schedule-independent
# share of particle-steps outside the policy grid's box, per dimension, above
# which the particle loop warns: the clamped interpolation makes the policy
# and the adjoint constant out there
_OUT_OF_BOX_WARN = 0.01


@dataclass
class ParticleEnsemble:
    """N particle paths on the Euler grid and the mean of each step's controls.

    kernel_subsample is the atom cap of the problem that simulated them;
    the law of each step, measure(j), carries it.
    """

    states: np.ndarray  # (M+1, N, d)
    mean_a: np.ndarray  # (M+1, k)
    kernel_subsample: Optional[int] = None

    @property
    def num_particles(self) -> int:
        return self.states.shape[1]

    @property
    def time_steps(self) -> int:
        return self.states.shape[0] - 1

    def measure(self, j: int) -> EmpiricalMeasure:
        return EmpiricalMeasure(self.states[j], self.mean_a[j], self.kernel_subsample)


class BoundAdjoint:
    """Base of the adjoint fields: the particle law an adjoint was solved on.

    Each gradient is linearised at one law, so an adjoint carries the
    training `ensemble`, with the atom cap it was simulated under; the
    subclasses declare it as a field.
    """

    ensemble: ParticleEnsemble

    def kernel_atoms(self, j: int) -> EmpiricalMeasure:
        """The atoms that the measure kernels average over at slice j: the
        law of slice j, every stride-th atom under its kernel_subsample."""
        return self.ensemble.measure(j).strided()


def _noise_streams(seed: int):
    init_seq, noise_seq = np.random.SeedSequence(seed).spawn(2)
    return (
        np.random.Generator(np.random.Philox(init_seq)),
        np.random.Generator(np.random.Philox(noise_seq)),
    )


def _check_inputs(problem: MfcProblem, policy: PolicyField, N: int, M: int) -> None:
    """Raise ValueError unless `policy` fits the problem and the Euler grid."""
    if N < 1 or M < 1:
        raise ValueError("need N >= 1 and M >= 1")
    if policy.grid.time_steps != M:
        raise ValueError("policy grid must carry the same Euler partition as M")
    if abs(policy.grid.horizon - problem.horizon) > 1e-12:
        raise ValueError("policy grid horizon differs from the problem horizon")
    if policy.components != problem.control_dim:
        raise ValueError("policy component count differs from the control dimension")


def _euler(
    problem: MfcProblem,
    policy: PolicyField,
    N: int,
    M: int,
    seed: int,
) -> Iterator[tuple[int, np.ndarray, EmpiricalMeasure]]:
    """Euler-Maruyama steps of the interacting-particle system under `policy`.

    Yields (j, a, eta) for j = 0..M: the (N, k) policy controls at the
    states and the empirical measure of the step, whose eta.x holds the
    (N, d) states at t_j and eta.mean_a the mean of a, with the problem's
    kernel_subsample; the drift and sigma of the step see the same measure.
    Each step's arrays are new, so a consumer may keep them, but must not
    write to them.  The Brownian increments are drawn one step at a time,
    an (N, n) block per step from a counter-based (Philox) stream: the same
    numbers, bit for bit, as one (M, N, n) draw, so the paths are
    reproducible for a given (seed, N, M) regardless of scheduling.  Only
    one step is held, O(N·(d + k + n)) doubles.

    Each step reads sigma once, as the (d, n) matrix diffusion(t, eta); a
    wrong shape at j = 0 raises ValueError.  State i gains the noise
    sum_r sigma[i, r] dW[:, r], summed in r order from +0.0, which is the
    order of the per-particle contraction einsum("pir,pr->pi") for n <= 2;
    for n >= 3 numpy's einsum may group the sum differently.

    A non-finite state raises FloatingPointError naming the step and the
    first particle that holds one.  When exhausted, warns if more than
    _OUT_OF_BOX_WARN of the particle-steps lie outside the policy grid's box
    in some dimension; the warning points at the caller of the function that
    iterates this one.
    """
    d, n, cap = problem.state_dim, problem.noise_dim, problem.kernel_subsample
    dt = problem.horizon / M
    sqrt_dt = np.sqrt(dt)
    rng_init, rng_noise = _noise_streams(seed)
    x = np.ascontiguousarray(problem.initial_sampler(N, rng_init), dtype=float)
    if x.shape != (N, d):
        raise ValueError("initial sampler returned a wrong shape")
    lo, hi = policy.grid.lo, policy.grid.hi
    outside = [0] * d
    noise = np.empty(N)

    for j in range(M + 1):
        # out-of-box tally and finite check from the extrema of each column,
        # about 20 us per column at N = 10 000, and a per-point mask only
        # where a column leaves the box; NaN and inf reach the extrema.  An
        # (N, d) broadcast compare took 0.2-0.35 ms per step, and
        # x.min(axis=0) 0.25 ms, since their inner loops have length d
        for i in range(d):
            col = x[:, i]
            col_min, col_max = col.min(), col.max()
            if not (np.isfinite(col_min) and np.isfinite(col_max)):
                l = int(np.argwhere(~np.isfinite(x).all(axis=1))[0][0])
                hint = (
                    "check the initial sampler" if j == 0
                    else "check drift/diffusion growth or the time step"
                )
                raise FloatingPointError(f"non-finite state at step {j}, particle {l}; {hint}")
            if col_min < lo[i] or col_max > hi[i]:
                outside[i] += int(np.count_nonzero((col < lo[i]) | (col > hi[i])))
        a = policy.eval_slice(j, x)
        eta = EmpiricalMeasure(x, a.mean(axis=0), cap)
        yield j, a, eta
        if j == M:
            break
        b = problem.drift(j * dt, x, a, eta)
        sig = np.asarray(problem.diffusion(j * dt, eta))
        if j == 0 and sig.shape != (d, n):
            raise ValueError(f"diffusion returned shape {sig.shape}, not (d, n) = {(d, n)}")
        dW = rng_noise.standard_normal((N, n))
        dW *= sqrt_dt
        nxt = b * dt
        nxt += x
        # one (N,) column at a time: at N = 10 000 an (N, 1) by (d,)
        # broadcast took 100 us and the (N, d, n) sigma with its einsum
        # 120 us, against 7 us for two column products
        for i in range(d):
            np.multiply(dW[:, 0], sig[i, 0], out=noise)
            for r in range(1, n):
                noise += dW[:, r] * sig[i, r]
            # the per-particle einsum summed from +0.0, which turns a noise
            # of -0.0 into +0.0; so does this
            noise += 0.0
            nxt[:, i] += noise
        x = nxt

    for i in range(d):
        frac = outside[i] / ((M + 1) * N)
        if frac > _OUT_OF_BOX_WARN:
            warnings.warn(
                f"{frac:.1%} of the particle-steps lie outside the grid box "
                f"[{lo[i]}, {hi[i]}] in dimension {i}; the policy and the "
                "adjoint are clamped to constants there",
                RuntimeWarning,
                stacklevel=3,
            )


def simulate(
    problem: MfcProblem,
    policy: PolicyField,
    N: int,
    M: int,
    seed: int,
) -> ParticleEnsemble:
    """Forward Euler-Maruyama interacting-particle system under `policy`.

    Records every step of the particle loop (see _euler) and the problem's
    kernel_subsample: the paths are bitwise reproducible for a given
    (seed, N, M) regardless of scheduling.
    sigma is the (d, n) matrix diffusion(t, eta), and a wrong shape raises
    ValueError; a non-finite state raises FloatingPointError naming its
    step and particle.

    Memory: the states and the control means of all steps, plus one step's
    noise, (M+1)·(N·d + k) + N·n doubles, that is O(M·N·d); about 8 MB for
    the portfolio model at M = 50, N = 10 000.  A reader that needs the
    controls re-evaluates the policy at the states, as `simulate` did.  A
    need above the machine's physical memory raises MemoryError before
    anything is allocated.

    Warns when more than _OUT_OF_BOX_WARN of the particle-steps lie outside
    the policy grid's box in some dimension.
    """
    _check_inputs(problem, policy, N, M)
    d, k, n = problem.state_dim, problem.control_dim, problem.noise_dim
    _check_memory(8 * ((M + 1) * (N * d + k) + N * n), N, M)
    states = np.empty((M + 1, N, d))
    mean_a = np.empty((M + 1, k))
    for j, _, eta in _euler(problem, policy, N, M, seed):
        states[j] = eta.x
        mean_a[j] = eta.mean_a
    return ParticleEnsemble(states, mean_a, problem.kernel_subsample)


def _check_memory(need: int, N: int, M: int) -> None:
    """Raise MemoryError if `need` bytes exceed the physical memory."""
    try:
        total = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError):  # no sysconf on this platform
        return
    if 0 < total < need:
        raise MemoryError(
            f"simulate needs {need / 2**20:.0f} MiB for N={N} particles and "
            f"M={M} steps, 8*((M+1)*(N*d+k) + N*n) bytes, more than the "
            f"{total / 2**20:.0f} MiB of physical memory"
        )


def estimate_cost(
    problem: MfcProblem,
    policy: PolicyField,
    N: int,
    M: int,
    seed: int,
) -> tuple[float, float]:
    """Monte-Carlo cost of the policy: (mean, standard error).

    Runs the particle loop of `simulate` with the same arguments and sums
    the per-particle cost
    sum_{j<M} [f(t_j, X_j, a_j, mu_j) + ell(a_j)] dt + g(X_M, mu_M)
    as it goes, keeping no paths: O(N·(d + k + n)) memory.  The result is
    bitwise the cost of the ensemble that `simulate` would return.  Warns
    as `simulate` does when particles leave the policy grid's box.
    """
    _check_inputs(problem, policy, N, M)
    dt = problem.horizon / M
    total = np.zeros(N)
    for j, a, eta in _euler(problem, policy, N, M, seed):
        if j < M:
            f = problem.running_cost(j * dt, eta.x, a, eta)
            total += (f + ell_value(problem.nonsmooth_cost, a)) * dt
        else:
            total += problem.terminal_cost(eta.x, eta)
    mean = _chunked_mean(total)
    std_err = float(total.std(ddof=1) / np.sqrt(N)) if N > 1 else 0.0
    return float(mean), std_err


def _chunked_mean(vals: np.ndarray) -> np.ndarray:
    n = vals.shape[0]
    acc = np.zeros(vals.shape[1:])
    for lo in range(0, n, _CHUNK):
        acc += vals[lo : lo + _CHUNK].sum(axis=0)
    return acc / n
