"""Abstract mean-field control problem: coefficients and their derivatives.

A problem bundles the drift b, diffusion sigma, running cost f and terminal
cost g together with every partial derivative the gradient machinery
consumes.  All callbacks are pure, and all but sigma are batched over a
leading point axis; measure arguments are always finite
:class:`~mfcontrol.measures.EmpiricalMeasure` instances, and measure
derivatives are supplied analytically as
:class:`~mfcontrol.measures.MeasureKernel` kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from .measures import EmpiricalMeasure, MeasureKernel, check_kernel_subsample
from .prox import ProxSpec


@dataclass
class MfcProblem:
    """Coefficient functions and derivatives of a McKean-Vlasov control problem.

    Shape conventions (P = batch of points, L = measure atoms):
      drift(t, x(P,d), a(P,k), eta) -> (P,d)
      diffusion(t, eta) -> (d,n), the one sigma of every point at time t;
        sigma sigma^T must be diagonal
      running_cost(t, x, a, eta) -> (P,)
      terminal_cost(x, mu) -> (P,)
      dx_drift -> (P,d,d) with [p,i,l] = d b_i / d x_l;  da_drift -> (P,d,k)
      dx_running -> (P,d);  da_running -> (P,k);  dx_terminal -> (P,d)
    The measure derivatives of the drift are MeasureKernels with the
    carrier/evaluation convention, kernel values of shape (d,d) for
    mu_drift and (d,k) for nu_drift; the costs' measure dependence enters
    only through their pointwise derivatives under the law.  The adjoint
    solver holds the terminal data on the boundary of its truncated box.

    eta, the law of a slice, holds its states eta.x and the mean eta.mean_a
    of their controls: the coefficients read the action law through it.

    kernel_subsample caps every interaction sum at every stride-th atom
    (EmpiricalMeasure.strided; None keeps all); a cap that is neither None
    nor an integer >= 1 raises ValueError (measures.check_kernel_subsample).
    simulate records it on the ParticleEnsemble, whose measures carry it as
    their own kernel_subsample: the coefficients sum over eta.strided(), and
    the adjoints' kernel atoms come from the same law, so a problem made
    with dataclasses.replace subsamples at its new cap everywhere.
    """

    state_dim: int
    control_dim: int
    noise_dim: int
    horizon: float
    drift: Callable
    diffusion: Callable
    running_cost: Callable
    terminal_cost: Callable
    dx_drift: Callable
    da_drift: Callable
    dx_running: Callable
    da_running: Callable
    dx_terminal: Callable
    mu_drift: MeasureKernel
    nu_drift: MeasureKernel
    initial_sampler: Callable[[int, np.random.Generator], np.ndarray]
    nonsmooth_cost: ProxSpec = field(default_factory=ProxSpec.none)
    name: str = "problem"
    kernel_subsample: Optional[int] = None
    # not fields: perfbench/run.py reads them when it traces the callbacks
    dx_diffusion = da_diffusion = boundary_values = None

    def __post_init__(self) -> None:
        for attr in ("state_dim", "control_dim", "noise_dim"):
            if getattr(self, attr) < 1:
                raise ValueError(f"{attr} must be a positive integer")
        if not 0 < self.horizon < np.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon!r}")
        check_kernel_subsample(self.kernel_subsample)

    def hamiltonian_derivative(
        self, wrt: str, t: float, x, a, U, adjoint, j: int
    ) -> np.ndarray:
        """x- or a-derivative of the Hamiltonian b.u + f at the points (x, a).

        The adjoint source (wrt="x", shape (P, d)) and the control gradient
        (wrt="a", shape (P, k)) are the same linearisation; only the drift
        and cost derivatives and the drift's measure kernel differ.  U (P, d)
        holds the adjoint at the points.  `adjoint` is its field, bound to
        the particle law it was solved on (particles.BoundAdjoint): the
        coefficients see the law of slice j, and the kernel averages over
        adjoint.kernel_atoms(j).  Terms: (d b)^T U, d f and the drift kernel
        contracted against the adjoint over the kernel atoms (a constant
        kernel needs only adjoint.kernel_mean(j), a zero one adds nothing).
        sigma depends on neither x nor a, so it adds no term.
        (d b)^T U is summed one (P,) column product at a time, from +0.0 in
        order of i: bit for bit einsum's sum for d <= 2, but for d = 3 the
        two can differ in the last bit.
        """
        if wrt == "x":
            db, df, kernel = self.dx_drift, self.dx_running, self.mu_drift
        elif wrt == "a":
            db, df, kernel = self.da_drift, self.da_running, self.nu_drift
        else:
            raise ValueError(f"wrt must be 'x' or 'a', got {wrt!r}")
        eta = adjoint.ensemble.measure(j)
        Jb = np.asarray(db(t, x, a, eta))  # (P, d, d) or (P, d, k)
        out = np.zeros((Jb.shape[0], Jb.shape[2]))
        term = np.empty(Jb.shape[0])
        for l in range(out.shape[1]):
            for i in range(Jb.shape[1]):
                np.multiply(Jb[:, i, l], U[:, i], out=term)
                out[:, l] += term
        out += np.asarray(df(t, x, a, eta))

        if kernel.const is not None:
            out += kernel.const_contract(adjoint.kernel_mean(j))
        elif not kernel.is_zero:
            atoms = adjoint.kernel_atoms(j)
            w = adjoint.u_at_points(j, atoms.x)
            out += kernel.mean_contract(t, atoms, x, a, weights=w)
        return out

    def terminal_derivative(self, x, adjoint) -> np.ndarray:
        """Terminal data of the adjoint at the points x, shape (P, d): dx g
        under the adjoint's terminal law."""
        M = adjoint.ensemble.time_steps
        return np.asarray(self.dx_terminal(x, adjoint.ensemble.measure(M)), dtype=float)


def check_finite_source(src: np.ndarray, j: int, point: str) -> None:
    """Raise FloatingPointError if the adjoint source of slice j, one row
    per point, holds a non-finite entry; the message names the slice and
    the first such row as `point` ("node" or "particle") and its index."""
    if not np.all(np.isfinite(src)):
        p = int(np.argwhere(~np.isfinite(src).all(axis=1))[0][0])
        raise FloatingPointError(f"non-finite adjoint source at slice {j}, {point} {p}")


@dataclass
class DerivativeReport:
    """Worst-case relative errors of the pointwise derivatives, per callback."""

    max_rel_error: Dict[str, float]
    flagged: Dict[str, float]
    tolerance: float

    @property
    def ok(self) -> bool:
        return not self.flagged


def _central_diff(fn, arg, i, step):
    hi = arg.copy()
    lo = arg.copy()
    hi[:, i] += step
    lo[:, i] -= step
    return (np.asarray(fn(hi)) - np.asarray(fn(lo))) / (2.0 * step)


def validate_derivatives(
    problem: MfcProblem,
    samples: int = 100,
    step: float = 1e-5,
    seed: int = 0,
    tolerance: float = 1e-4,
) -> DerivativeReport:
    """Check every declared pointwise derivative against central differences.

    Random points (x, a) are drawn around the initial law and checked at
    four of the random times, spread over the horizon: the earliest, the
    latest and two between.  The measure
    argument is held fixed while x or a is perturbed, so only pointwise
    derivatives are exercised.  sigma takes no x or a, so it has none to
    check.  The error of each output component is relative to its largest
    magnitude over the samples, so scaling a coefficient scales no error
    away; a component that is zero at every sample is checked by its
    absolute error.  Returns the worst relative error per derivative and
    flags any exceeding `tolerance`.
    """
    if not 0 < step <= 1e-3:
        raise ValueError("finite-difference step must lie in (0, 1e-3]")
    rng = np.random.Generator(np.random.Philox(seed))
    d, k = problem.state_dim, problem.control_dim

    xs = problem.initial_sampler(samples, rng) + 0.5 * rng.standard_normal((samples, d))
    aa = rng.standard_normal((samples, k))
    ts = rng.uniform(0.0, problem.horizon, samples)
    times = np.unique(np.sort(ts)[np.linspace(0, samples - 1, 4).round().astype(int)])
    meas = EmpiricalMeasure(
        problem.initial_sampler(64, rng), rng.standard_normal((64, k)).mean(axis=0),
        problem.kernel_subsample,
    )

    def _check(name, base, deriv, wrt):
        worst = 0.0
        for t in times:
            x0, a0 = xs.copy(), aa.copy()

            def base_at(arg):
                if wrt == "x":
                    return base(t, arg, a0, meas)
                return base(t, x0, arg, meas)

            D = np.asarray(deriv(t, x0, a0, meas))
            if not np.all(np.isfinite(D)):
                raise ValueError(f"non-finite value from {name} at t={t}")
            arg = x0 if wrt == "x" else a0
            for i in range(arg.shape[1]):
                fd = _central_diff(base_at, arg, i, step)
                if not np.all(np.isfinite(fd)):
                    raise ValueError(f"non-finite value from base of {name} at t={t}")
                exact = D[..., i] if D.ndim == fd.ndim + 1 else D[:, i]
                scale = np.abs(exact).max(axis=0)
                rel = np.abs(exact - fd) / np.where(scale > 0, scale, 1.0)
                worst = max(worst, float(rel.max()))
        return worst

    errors: Dict[str, float] = {}
    errors["dx_drift"] = _check("dx_drift", problem.drift, problem.dx_drift, "x")
    errors["da_drift"] = _check("da_drift", problem.drift, problem.da_drift, "a")
    errors["dx_running"] = _check("dx_running", problem.running_cost, problem.dx_running, "x")
    errors["da_running"] = _check("da_running", problem.running_cost, problem.da_running, "a")

    # terminal cost has no (t, a) arguments
    def g_base(t, x, a, m):
        return problem.terminal_cost(x, m)

    def g_deriv(t, x, a, m):
        return problem.dx_terminal(x, m)

    errors["dx_terminal"] = _check("dx_terminal", g_base, g_deriv, "x")

    flagged = {name: err for name, err in errors.items() if err > tolerance}
    return DerivativeReport(max_rel_error=errors, flagged=flagged, tolerance=tolerance)
