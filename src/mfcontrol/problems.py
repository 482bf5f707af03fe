"""Concrete mean-field control problems.

Two model families are provided:

* optimal portfolio liquidation with trade crowding: linear dynamics where
  the asset price drifts with the population-average trading speed, a
  quadratic (optionally plus l1) execution cost and a terminal liquidation
  value;
* consensus control of a two-dimensional stochastic Cucker-Smale model:
  position/velocity dynamics with a nonlocal velocity-alignment kernel and
  a cost penalizing velocity dispersion around the population mean.

Each factory returns an :class:`~mfcontrol.problem.MfcProblem` with all
derivative callbacks and measure kernels filled in, plus a default
space-time grid matching the model's truncated computational domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .grids import SpaceTimeGrid
from .measures import MeasureKernel
from .problem import MfcProblem
from .prox import ProxSpec


# ---------------------------------------------------------------------------
# portfolio liquidation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PortfolioParams:
    """Model constants of the liquidation problem; defaults follow the
    standard benchmark configuration."""

    horizon: float = 1.0
    s0: float = 2.0
    lam: float = 0.5
    sigma: float = 0.7
    gamma: float = 0.5
    k1: float = 1.0
    k2: float = 0.0
    q_lo: float = 1.0
    q_hi: float = 2.0
    domain_lo: Tuple[float, float] = (-2.0, 0.0)
    domain_hi: Tuple[float, float] = (6.0, 4.0)


def portfolio_problem(
    params: PortfolioParams = PortfolioParams(), kernel_subsample: Optional[int] = None
) -> MfcProblem:
    """Liquidation problem with state (price S, inventory Q) and scalar
    trading speed.

    Dynamics: dS = lam * E[a] dt + sigma dW, dQ = a dt.  Cost:
    integral of a*S + Q^2 + k1*a^2 + k2*|a| minus the terminal liquidation
    value Q_T (S_T - gamma Q_T).  kernel_subsample: see MfcProblem.
    """
    p = params
    sig_const = np.array([[p.sigma], [0.0]])
    sig_const.flags.writeable = False

    def drift(t, x, a, eta):
        out = np.empty_like(x)
        out[:, 0] = p.lam * eta.mean_a[0]
        out[:, 1] = a[:, 0]
        return out

    def diffusion(t, eta):
        return sig_const

    def running_cost(t, x, a, eta):
        return a[:, 0] * x[:, 0] + x[:, 1] ** 2 + p.k1 * a[:, 0] ** 2

    def terminal_cost(x, mu):
        return -x[:, 1] * (x[:, 0] - p.gamma * x[:, 1])

    def dx_drift(t, x, a, eta):
        return np.zeros((x.shape[0], 2, 2))

    def da_drift(t, x, a, eta):
        out = np.zeros((x.shape[0], 2, 1))
        out[:, 1, 0] = 1.0
        return out

    def dx_running(t, x, a, eta):
        return np.stack([a[:, 0], 2.0 * x[:, 1]], axis=1)

    def da_running(t, x, a, eta):
        return (x[:, 0] + 2.0 * p.k1 * a[:, 0])[:, None]

    def dx_terminal(x, mu):
        return np.stack([-x[:, 1], -x[:, 0] + 2.0 * p.gamma * x[:, 1]], axis=1)

    def initial_sampler(n, rng):
        out = np.empty((n, 2))
        out[:, 0] = p.s0
        out[:, 1] = rng.uniform(p.q_lo, p.q_hi, n)
        return out

    nonsmooth = ProxSpec.l1(p.k2) if p.k2 > 0 else ProxSpec.none()
    return MfcProblem(
        state_dim=2,
        control_dim=1,
        noise_dim=1,
        horizon=p.horizon,
        drift=drift,
        diffusion=diffusion,
        running_cost=running_cost,
        terminal_cost=terminal_cost,
        dx_drift=dx_drift,
        da_drift=da_drift,
        dx_running=dx_running,
        da_running=da_running,
        dx_terminal=dx_terminal,
        mu_drift=MeasureKernel.zero(),
        nu_drift=MeasureKernel.constant([[p.lam], [0.0]]),
        initial_sampler=initial_sampler,
        nonsmooth_cost=nonsmooth,
        name="portfolio",
        kernel_subsample=kernel_subsample,
    )


def portfolio_grid(
    params: PortfolioParams = PortfolioParams(),
    cells: int = 50,
    time_steps: int = 50,
) -> SpaceTimeGrid:
    """Default grid: `cells` uniform cells per dimension on the truncated box."""
    return SpaceTimeGrid(
        horizon=params.horizon,
        time_steps=time_steps,
        lo=params.domain_lo,
        hi=params.domain_hi,
        nodes=(cells + 1, cells + 1),
    )


# ---------------------------------------------------------------------------
# two-dimensional Cucker-Smale consensus control
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CuckerSmaleParams:
    """Constants of the 2D (position, velocity) Cucker-Smale control problem."""

    horizon: float = 1.0
    K: float = 1.0
    beta: float = 0.0
    sigma: float = 0.1
    gamma1: float = 0.1
    gamma2: float = 0.0
    mix_means: Tuple[Tuple[float, float], Tuple[float, float]] = (
        (1.2, 1.8),
        (1.8, 1.2),
    )
    mix_std: float = 0.1
    domain_lo: Tuple[float, float] = (0.0, 0.0)
    domain_hi: Tuple[float, float] = (5.0, 4.0)


def _inv_pow(base: np.ndarray, beta: float, consume: bool = False) -> np.ndarray:
    """base**(-beta) with an in-place squaring fast path for integer beta.

    With consume=True the input buffer may be overwritten, avoiding large
    temporaries on the hot pairwise-interaction path.
    """
    if beta == 0:
        return np.ones_like(base)
    if float(beta).is_integer() and 0 < beta <= 64:
        e = int(beta)
        fac = np.divide(1.0, base, out=base if consume else None)
        acc = None
        while True:
            if e & 1:
                if acc is None:
                    acc = fac if e == 1 else fac.copy()
                else:
                    acc *= fac
            e >>= 1
            if e == 0:
                return acc
            fac *= fac
    return base ** (-beta)


# rows per block of the pairwise kernel sums: 64 x 500 atoms is 256 KB per
# temporary; on a 2-vCPU Xeon 32-64 rows ran fastest, 256 rows 30 % slower
_KERNEL_BLOCK = 64

# piecewise Chebyshev interpolation of the kernel sums in x (see
# _kernel_sums): first-kind nodes per panel, in ascending order, with their
# barycentric weights (-1)^j sin(theta_j); panel width at most
# min(_CHEB_MAX_WIDTH, 1 / sqrt(q + 1)); points per block of the evaluation,
# which bounds its temporaries to (_CHEB_BLOCK, _CHEB_N)
_CHEB_N = 20
_CHEB_THETA = (2 * np.arange(_CHEB_N) + 1) * np.pi / (2 * _CHEB_N)
_CHEB_T = -np.cos(_CHEB_THETA)
_CHEB_W = (-1.0) ** np.arange(_CHEB_N) * np.sin(_CHEB_THETA)
_CHEB_MAX_WIDTH = 0.5
_CHEB_BLOCK = 512


def _cheb_nodes(lo: float, hi: float, q: float) -> np.ndarray:
    """Chebyshev nodes (panels, _CHEB_N) of equal panels covering [lo, hi]."""
    width = min(_CHEB_MAX_WIDTH, 1.0 / np.sqrt(q + 1.0))
    panels = max(1, int(np.ceil((hi - lo) / width)))
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    return (edges[:-1] + half)[:, None] + half[:, None] * _CHEB_T


def _direct_sums(
    x: np.ndarray, atoms: np.ndarray, R: np.ndarray, q: float, dx_moment: bool
) -> np.ndarray:
    """The kernel sums at every point of x, in blocks of _KERNEL_BLOCK rows
    (which keeps the (block, L) temporaries in cache), with one matrix
    product per block."""
    out = np.empty((x.size, R.shape[1]))
    for lo in range(0, x.size, _KERNEL_BLOCK):
        dx = x[lo : lo + _KERNEL_BLOCK, None] - atoms
        w = np.multiply(dx, dx)
        w += 1.0
        w = _inv_pow(w, q, consume=True)
        if dx_moment:
            w *= dx
        np.matmul(w, R, out=out[lo : lo + _KERNEL_BLOCK])
    return out


def _kernel_sums(
    x: np.ndarray,
    atoms: np.ndarray,
    R: np.ndarray,
    q: float,
    dx_moment: bool = False,
) -> np.ndarray:
    """Row sums W @ R, or (dx * W) @ R with dx_moment, at the points x.

    W[p, l] = (1 + dx^2)^-q with dx = x[p] - atoms[l]; R has shape (L, r)
    and the result (P, r).  Rows are evaluated once per distinct value of x
    and mapped back to the points (a row gather with take, which gives the
    bits of fancy indexing in a tenth of its time on (P, 2) arrays).

    When there are no more distinct values than interpolation nodes (51 on
    a 51 x 51 node lattice, or clouds with repeated x), every distinct
    value is summed directly over the atoms.  Otherwise [min x, max x] is
    cut into equal panels of width at most min(0.5, 1/sqrt(q + 1)); the
    sums are evaluated directly at _CHEB_N = 20 first-kind Chebyshev nodes
    per panel and interpolated to the points with the barycentric formula
    (a point exactly on a node takes that node's value).

    Error bound: each sum is analytic in x off x'_l +- i.  On the strip
    |Im z| <= b < 1, |1 + z^2| >= 1 - b^2, and b = 1/sqrt(q + 1) gives
    (1 - b^2)^-q <= e.  A panel of half-width a <= b/2 maps this strip onto
    the Bernstein ellipse with rho - 1/rho = 2b/a >= 4, rho >= 2 + sqrt(5).
    ATAP Thm 8.2 (Trefethen), whose aliasing argument holds for first-kind
    nodes too, bounds the degree n - 1 interpolant by
    |f - p| <= 4 M rho^-(n-1) / (rho - 1) <= 1.6e-12 M at n = 20, with
    M <= e sum_l |R_l| for the plain sums (times max |x - x'_l| + 1 for
    the dx moment).  Seen on random clouds, q in [0, 100]: within 3.3e-14
    of the largest |result|.
    """
    ux, inverse = np.unique(x, return_inverse=True)
    nodes = _cheb_nodes(ux[0], ux[-1], q)
    if ux.size <= nodes.size:
        return _direct_sums(ux, atoms, R, q, dx_moment).take(inverse, axis=0)

    xs = nodes.ravel()
    fs = _direct_sums(xs, atoms, R, q, dx_moment)
    panels, r = nodes.shape[0], R.shape[1]
    # the node values with a column of ones: one product with the weights
    # w_j / (x - x_j) gives numerator and denominator of the formula
    f1 = np.concatenate([fs, np.ones((xs.size, 1))], axis=1).reshape(panels, _CHEB_N, r + 1)
    panel = np.minimum(
        ((ux - ux[0]) * (panels / (ux[-1] - ux[0]))).astype(np.int64), panels - 1
    )
    starts = np.searchsorted(panel, np.arange(panels + 1))
    out = np.empty((ux.size, r))
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(panels):
            for s in range(starts[k], starts[k + 1], _CHEB_BLOCK):
                e = min(s + _CHEB_BLOCK, starts[k + 1])
                c = np.subtract(ux[s:e, None], nodes[k])
                np.divide(_CHEB_W, c, out=c)
                pq = c @ f1[k]
                np.divide(pq[:, :r], pq[:, r:], out=out[s:e])
    j = np.minimum(np.searchsorted(xs, ux), xs.size - 1)
    on = xs[j] == ux
    out[on] = fs[j[on]]
    return out.take(inverse, axis=0)


def cs2d_problem(
    params: CuckerSmaleParams = CuckerSmaleParams(), kernel_subsample: Optional[int] = None
) -> MfcProblem:
    """Cucker-Smale model with state (x, v), scalar control acting on v.

    Dynamics: dx = v dt, dv = (E[kappa(x, v, x', v')] + a) dt + sigma dW with
    alignment kernel kappa = K (v' - v) / (1 + (x - x')^2)^beta.  Cost:
    integral of (v - E[v])^2 + gamma1 a^2 + gamma2 |a| plus terminal
    (v_T - E[v_T])^2.  The drift and dx_drift sum the alignment over
    eta.strided(), under the law's own cap; kernel_subsample: see MfcProblem.

    The dispersion costs carry no measure kernel: the L-derivative of
    (v - E[v])^2 is -2 (v - E[v]) in the v-direction, at any atom, and the
    adjoint averages it over v under the law, where it vanishes.
    """
    p = params
    sig_const = np.array([[0.0], [p.sigma]])
    sig_const.flags.writeable = False

    def _align(x, v, eta):
        """E[kappa] at points (x, v) = (K/L) (A - v B), A = sum w v', B = sum w."""
        etas = eta.strided()
        if p.beta == 0:
            return p.K * (etas.x[:, 1].mean() - v)
        R = np.column_stack([etas.x[:, 1], np.ones(etas.size)])
        AB = _kernel_sums(x, etas.x[:, 0], R, p.beta)
        return (p.K / etas.size) * (AB[:, 0] - v * AB[:, 1])

    def _atom_grad(x, v, atoms, u1):
        """Weighted atom average of the gradient of kappa in the atom (x', v'):
        mean_l u1_l (d/dx', d/dv') kappa(x, v, x'_l, v'_l) at the points."""
        L = atoms.shape[0]
        R = np.column_stack([u1 * atoms[:, 1], u1])
        # sum_l u1 dx w' (v' - v) with w' = (1 + dx^2)^(-beta-1), dx = x - x'
        S = _kernel_sums(x, atoms[:, 0], R, p.beta + 1.0, dx_moment=True)
        g_x = (2.0 * p.beta * p.K / L) * (S[:, 0] - v * S[:, 1])
        g_v = (p.K / L) * _kernel_sums(x, atoms[:, 0], R[:, 1:], p.beta)[:, 0]
        return g_x, g_v

    def drift(t, x, a, eta):
        out = np.empty_like(x)
        out[:, 0] = x[:, 1]
        out[:, 1] = _align(x[:, 0], x[:, 1], eta) + a[:, 0]
        return out

    def diffusion(t, eta):
        return sig_const

    def running_cost(t, x, a, eta):
        vbar = eta.x[:, 1].mean()
        return (x[:, 1] - vbar) ** 2 + p.gamma1 * a[:, 0] ** 2

    def terminal_cost(x, mu):
        vbar = mu.x[:, 1].mean()
        return (x[:, 1] - vbar) ** 2

    def dx_drift(t, x, a, eta):
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 1] = 1.0
        etas = eta.strided()
        if p.beta == 0:
            out[:, 1, 1] = -p.K
            return out
        # kappa depends on x - x' and v' - v only, so its gradient in the
        # state is minus its gradient in the atom
        g_x, g_v = _atom_grad(x[:, 0], x[:, 1], etas.x, np.ones(etas.size))
        out[:, 1, 0] = -g_x
        out[:, 1, 1] = -g_v
        return out

    def da_drift(t, x, a, eta):
        out = np.zeros((x.shape[0], 2, 1))
        out[:, 1, 0] = 1.0
        return out

    def dx_running(t, x, a, eta):
        vbar = eta.x[:, 1].mean()
        out = np.zeros_like(x)
        out[:, 1] = 2.0 * (x[:, 1] - vbar)
        return out

    def da_running(t, x, a, eta):
        return 2.0 * p.gamma1 * a

    def dx_terminal(x, mu):
        vbar = mu.x[:, 1].mean()
        out = np.zeros_like(x)
        out[:, 1] = 2.0 * (x[:, 1] - vbar)
        return out

    # measure derivative of the alignment term in the v-drift: the kernel
    # value at (carrier c, evaluation y) is the gradient of
    # kappa(c_x, c_v, y_x, y_v) in the evaluation point
    if p.beta == 0:
        mu_drift = MeasureKernel.constant([[0.0, 0.0], [0.0, p.K]])
    else:

        def mu_drift_contract(t, measure, ex, ea, weights):
            # only the v-row of the kernel is nonzero, so the weights enter
            # through their v-component; the gradient of kappa in the atom
            # keeps its value when state and atom swap places
            g_x, g_v = _atom_grad(ex[:, 0], ex[:, 1], measure.x, weights[:, 1])
            return np.column_stack([g_x, g_v])

        mu_drift = MeasureKernel(contract_fn=mu_drift_contract)

    def initial_sampler(n, rng):
        comp = rng.random(n) < 0.5
        means = np.where(
            comp[:, None], np.array(p.mix_means[0]), np.array(p.mix_means[1])
        )
        return means + p.mix_std * rng.standard_normal((n, 2))

    nonsmooth = ProxSpec.l1(p.gamma2) if p.gamma2 > 0 else ProxSpec.none()
    return MfcProblem(
        state_dim=2,
        control_dim=1,
        noise_dim=1,
        horizon=p.horizon,
        drift=drift,
        diffusion=diffusion,
        running_cost=running_cost,
        terminal_cost=terminal_cost,
        dx_drift=dx_drift,
        da_drift=da_drift,
        dx_running=dx_running,
        da_running=da_running,
        dx_terminal=dx_terminal,
        mu_drift=mu_drift,
        nu_drift=MeasureKernel.zero(),
        initial_sampler=initial_sampler,
        nonsmooth_cost=nonsmooth,
        name="cucker-smale-2d",
        kernel_subsample=kernel_subsample,
    )


def cs2d_grid(
    params: CuckerSmaleParams = CuckerSmaleParams(),
    cells: int = 50,
    time_steps: int = 50,
) -> SpaceTimeGrid:
    """Default grid: `cells` uniform cells per dimension on the truncated box."""
    return SpaceTimeGrid(
        horizon=params.horizon,
        time_steps=time_steps,
        lo=params.domain_lo,
        hi=params.domain_hi,
        nodes=(cells + 1, cells + 1),
    )
