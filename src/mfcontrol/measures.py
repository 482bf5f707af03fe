"""Empirical measures of the state law and measure-derivative kernels.

The state law is always a uniform atomic measure on a finite particle
cloud, and the action law enters only through its mean.  Derivatives of
coefficients with respect to a measure argument enter the adjoint source
and the control gradient only through particle averages of kernel functions
``kernel(carrier point)(evaluation point)``, contracted against values of
the adjoint field at the carrier points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


def check_kernel_subsample(cap) -> None:
    """Raise ValueError unless the atom cap is None or an integer >= 1."""
    if cap is not None and not (isinstance(cap, (int, np.integer)) and cap >= 1):
        raise ValueError(f"kernel_subsample must be None or a positive integer, got {cap!r}")


@dataclass
class EmpiricalMeasure:
    """Uniform atomic measure on N states x in R^d, with mean_a in R^k, the
    mean of the controls there: no coefficient reads more of the action law.

    kernel_subsample is the atom cap of the interaction sums over this law
    (MfcProblem.kernel_subsample, None keeps all): the coefficients that
    sum over the atoms sum over strided().  A cap that is neither None nor
    an integer >= 1 raises ValueError when the measure is built.
    """

    x: np.ndarray  # (N, d)
    mean_a: np.ndarray  # (k,)
    kernel_subsample: Optional[int] = None

    def __post_init__(self) -> None:
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.mean_a = np.asarray(self.mean_a, dtype=float)
        if self.x.shape[0] < 1:
            raise ValueError("empirical measure needs at least one atom")
        check_kernel_subsample(self.kernel_subsample)

    @property
    def size(self) -> int:
        return self.x.shape[0]

    def stride(self) -> int:
        """Step of the subsample kept by strided(): ceil(N/kernel_subsample),
        or 1 when every atom is kept."""
        cap = self.kernel_subsample
        if cap is None or self.size <= cap:
            return 1
        return int(np.ceil(self.size / cap))

    def strided(self) -> "EmpiricalMeasure":
        """Deterministic uniform subsample under the law's own cap (every
        stride()-th atom), with the full law's mean_a and cap.

        Per-atom arrays such as adjoint values at the atoms are subsampled
        alongside as ``values[::measure.stride()]``.
        """
        step = self.stride()
        if step == 1:
            return self
        return EmpiricalMeasure(self.x[::step], self.mean_a, self.kernel_subsample)


@dataclass
class MeasureKernel:
    """Kernel representation of a measure derivative (L-derivative).

    The kernel value at (carrier, evaluation) is an array whose leading axis
    indexes the coefficient component at the carrier and whose trailing
    axes index derivative directions at the evaluation point: (d, d) for the
    drift's state kernel, (d, k) for its action kernel.  At most one of the
    two representations is populated:

    * ``const``       -- kernel independent of carrier and evaluation point,
      contracted by :meth:`const_contract`;
    * ``contract_fn`` -- full dependence in contracted form, signature
      ``(t, measure, eval_x, eval_a, weights)``, returning what
      :meth:`mean_contract` returns for the same arguments.

    A kernel with no representation is identically zero.
    """

    const: Optional[np.ndarray] = None
    contract_fn: Optional[Callable] = None
    # not a field: perfbench/run.py reads it to count pairwise evaluations
    pair_fn = None

    @classmethod
    def zero(cls) -> "MeasureKernel":
        return cls()

    @classmethod
    def constant(cls, value) -> "MeasureKernel":
        return cls(const=np.asarray(value, dtype=float))

    @property
    def is_zero(self) -> bool:
        return self.const is None and self.contract_fn is None

    def const_contract(self, mean_weights: np.ndarray) -> np.ndarray:
        """A constant kernel contracted against the carrier mean of the
        weights, shape const.shape[mean_weights.ndim:], the same at every
        evaluation point."""
        return np.tensordot(mean_weights, self.const, axes=mean_weights.ndim)

    def mean_contract(
        self,
        t: float,
        measure: EmpiricalMeasure,
        eval_x: np.ndarray,
        eval_a: Optional[np.ndarray],
        weights: np.ndarray,
    ) -> np.ndarray:
        """Particle average of a ``contract_fn`` kernel, contracted against
        carrier weights.

        With ``weights`` of shape (L, *S[:r]), S the shape of a kernel
        value, the leading r axes of the kernel are contracted against the
        weights before averaging over carriers; the result has shape
        (P, *S[r:]).  A constant or zero kernel raises ValueError:
        const_contract serves the first, and the second adds nothing.
        """
        if self.contract_fn is None:
            raise ValueError("mean_contract serves contract_fn kernels only")
        return np.asarray(self.contract_fn(t, measure, eval_x, eval_a, weights))
