"""Abstract mean-field control problem: coefficients and their derivatives.

A problem bundles the drift b, diffusion sigma, running cost f and terminal
cost g together with every partial derivative the gradient machinery
consumes.  All callbacks are batched over a leading point axis and pure;
measure arguments are always finite :class:`~mfcontrol.measures.EmpiricalMeasure`
instances, and measure derivatives are supplied analytically as
:class:`~mfcontrol.measures.MeasureKernel` kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from .measures import EmpiricalMeasure, MeasureKernel
from .prox import ProxSpec


@dataclass
class MfcProblem:
    """Coefficient functions and derivatives of a McKean-Vlasov control problem.

    Shape conventions (P = batch of points, L = measure atoms):
      drift(t, x(P,d), a(P,k), eta) -> (P,d)
      diffusion(t, x, a, eta) -> (P,d,n), independent of x and a, with
        sigma sigma^T diagonal
      running_cost(t, x, a, eta) -> (P,)
      terminal_cost(x, mu) -> (P,)
      dx_drift -> (P,d,d) with [p,i,l] = d b_i / d x_l;  da_drift -> (P,d,k)
      dx_running -> (P,d);  da_running -> (P,k);  dx_terminal -> (P,d)
    Measure kernels follow the carrier/evaluation convention of MeasureKernel
    with out_shape (d,d) for mu_drift, (d,k) for nu_drift, (d,) for
    mu_running / mu_terminal and (k,) for nu_running.  The adjoint solver
    holds the terminal data on the boundary of its truncated box.
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
    mu_running: MeasureKernel
    nu_running: MeasureKernel
    mu_terminal: MeasureKernel
    initial_sampler: Callable[[int, np.random.Generator], np.ndarray]
    nonsmooth_cost: ProxSpec = field(default_factory=ProxSpec.none)
    name: str = "problem"
    # not fields: perfbench/run.py reads them when it traces the callbacks
    dx_diffusion = da_diffusion = boundary_values = None

    def __post_init__(self) -> None:
        for attr in ("state_dim", "control_dim", "noise_dim"):
            if getattr(self, attr) < 1:
                raise ValueError(f"{attr} must be a positive integer")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")

    def diffusion_matrix(self, t: float, x, a, eta, check: bool = False) -> np.ndarray:
        """sigma at time t as one (d, n) matrix, read at the first point of (x, a).

        sigma may depend on t and the measure only.  With `check` it is also
        read at the last point, and ValueError is raised if the two differ.
        """
        sig = np.asarray(self.diffusion(t, x[:1], a[:1], eta))[0]
        if check:
            last = np.asarray(self.diffusion(t, x[-1:], a[-1:], eta))[0]
            if not np.array_equal(sig, last, equal_nan=True):
                raise ValueError(
                    f"diffusion differs between the first and the last of "
                    f"{len(x)} points at t={t}; sigma may depend on t and the "
                    "measure, not on x or a"
                )
        return sig

    def hamiltonian_derivative(
        self, wrt: str, t: float, x, a, eta: EmpiricalMeasure, U, adjoint, j: int,
        kernel_subsample: Optional[int] = None,
    ) -> np.ndarray:
        """x- or a-derivative of the Hamiltonian b.u + f at the points (x, a).

        The adjoint source (wrt="x", shape (P, d)) and the control gradient
        (wrt="a", shape (P, k)) are the same linearisation; only the drift
        and cost derivatives and the two measure kernels differ.  U (P, d)
        holds the adjoint at the points, `adjoint` is its field with slice j
        (u_at_points / mean_at), and eta is the points' law.  Terms:
        (d b)^T U, d f, the drift kernel contracted against the adjoint over
        the atoms (a constant kernel needs only the adjoint's mean there) and
        the cost kernel's carrier mean.  Both kernels average over
        eta.strided(kernel_subsample), the one place on these paths where the
        interaction is subsampled.  sigma depends on neither x nor a, so it
        adds no term.  (d b)^T U is summed one (P,) column product at a time,
        from +0.0 in order of i: bit for bit einsum's sum for d <= 2, but for
        d = 3 the two can differ in the last bit.
        """
        if wrt == "x":
            db, df = self.dx_drift, self.dx_running
            drift_kernel, cost_kernel = self.mu_drift, self.mu_running
        elif wrt == "a":
            db, df = self.da_drift, self.da_running
            drift_kernel, cost_kernel = self.nu_drift, self.nu_running
        else:
            raise ValueError(f"wrt must be 'x' or 'a', got {wrt!r}")
        Jb = np.asarray(db(t, x, a, eta))  # (P, d, d) or (P, d, k)
        out = np.zeros((Jb.shape[0], Jb.shape[2]))
        term = np.empty(Jb.shape[0])
        for l in range(out.shape[1]):
            for i in range(Jb.shape[1]):
                np.multiply(Jb[:, i, l], U[:, i], out=term)
                out[:, l] += term
        out += np.asarray(df(t, x, a, eta))

        eta_k = eta.strided(kernel_subsample)
        if drift_kernel.const is not None:
            out += drift_kernel.const_contract(adjoint.mean_at(j, eta_k.x))
        elif not drift_kernel.is_zero:
            w = adjoint.u_at_points(j, eta_k.x)
            out += drift_kernel.mean_contract(t, eta_k, x, a, weights=w)
        if not cost_kernel.is_zero:
            out += cost_kernel.mean_contract(t, eta_k, x, a)
        return out

    def terminal_derivative(
        self, x, mu_T: EmpiricalMeasure, kernel_subsample: Optional[int] = None
    ) -> np.ndarray:
        """Terminal data of the adjoint at the points x, shape (P, d): dx g
        plus the mu_terminal mean over mu_T.strided(kernel_subsample)."""
        h = np.asarray(self.dx_terminal(x, mu_T), dtype=float)
        return h + self.mu_terminal.mean_contract(
            self.horizon, mu_T.strided(kernel_subsample), x, None
        )


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

    Random points (t, x, a) are drawn around the initial law; the measure
    argument is held fixed while x or a is perturbed, so only pointwise
    derivatives are exercised.  The x- and a-differences of sigma are
    checked against zero under the names dx_diffusion and da_diffusion,
    since the solver assumes sigma independent of both.  Returns the worst
    relative error per derivative and flags any exceeding `tolerance`.
    """
    if not 0 < step <= 1e-3:
        raise ValueError("finite-difference step must lie in (0, 1e-3]")
    rng = np.random.Generator(np.random.Philox(seed))
    d, k = problem.state_dim, problem.control_dim

    xs = problem.initial_sampler(samples, rng) + 0.5 * rng.standard_normal((samples, d))
    aa = rng.standard_normal((samples, k))
    ts = rng.uniform(0.0, problem.horizon, samples)
    meas = EmpiricalMeasure(
        problem.initial_sampler(64, rng), rng.standard_normal((64, k))
    )

    def _check(name, base, deriv, wrt):
        worst = 0.0
        for t in np.unique(ts)[:4]:
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
                rel = np.abs(exact - fd) / (1.0 + np.abs(exact))
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

    # the solver takes sigma independent of x and a: its derivatives must be 0
    def zero_derivative(wrt):
        def deriv(t, x, a, m):
            arg = x if wrt == "x" else a
            return np.zeros(np.shape(problem.diffusion(t, x, a, m)) + (arg.shape[1],))

        return deriv

    errors["dx_diffusion"] = _check("dx_diffusion", problem.diffusion, zero_derivative("x"), "x")
    errors["da_diffusion"] = _check("da_diffusion", problem.diffusion, zero_derivative("a"), "a")

    flagged = {name: err for name, err in errors.items() if err > tolerance}
    return DerivativeReport(max_rel_error=errors, flagged=flagged, tolerance=tolerance)
