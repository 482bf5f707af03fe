"""Empirical measures on state-control space and measure-derivative kernels.

Laws of the state/control pair are always represented as uniform atomic
measures on a finite particle cloud.  Derivatives of coefficients with
respect to a measure argument enter the adjoint source and the control
gradient only through particle averages of kernel functions
``kernel(carrier point)(evaluation point)``, contracted against values of
the adjoint field at the carrier points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


@dataclass
class EmpiricalMeasure:
    """Uniform atomic measure on N pairs (x, a) in R^d x R^k."""

    x: np.ndarray  # (N, d)
    a: np.ndarray  # (N, k)

    def __post_init__(self) -> None:
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.a = np.atleast_2d(np.asarray(self.a, dtype=float))
        if self.x.shape[0] != self.a.shape[0]:
            raise ValueError("state and control atoms must have equal counts")
        if self.x.shape[0] < 1:
            raise ValueError("empirical measure needs at least one atom")

    @property
    def size(self) -> int:
        return self.x.shape[0]

    @property
    def mean_a(self) -> np.ndarray:
        return self.a.mean(axis=0)

    def stride(self, max_atoms: Optional[int]) -> int:
        """Step of the subsample kept by strided(max_atoms): ceil(N/max_atoms),
        or 1 when every atom is kept.  A cap below 1 raises ValueError."""
        if max_atoms is not None and max_atoms < 1:
            raise ValueError(f"subsample cap must be a positive atom count, got {max_atoms!r}")
        if max_atoms is None or self.size <= max_atoms:
            return 1
        return int(np.ceil(self.size / max_atoms))

    def strided(self, max_atoms: Optional[int]) -> "EmpiricalMeasure":
        """Deterministic uniform subsample (every stride(max_atoms)-th atom).

        Per-atom arrays such as adjoint values at the atoms are subsampled
        alongside as ``values[::measure.stride(max_atoms)]``.
        """
        step = self.stride(max_atoms)
        if step == 1:
            return self
        return EmpiricalMeasure(self.x[::step], self.a[::step])


@dataclass
class MeasureKernel:
    """Kernel representation of a measure derivative (L-derivative).

    The kernel value at (carrier, evaluation) has shape ``out_shape``; the
    leading axis of ``out_shape`` indexes the coefficient component at the
    carrier, trailing axes index derivative directions at the evaluation
    point.  At most one of the three representations is populated:

    * ``const``       -- kernel independent of carrier and evaluation point;
    * ``carrier_fn``  -- depends on the carrier only,
      signature ``(t, cx, ca, measure) -> (L, *out_shape)``;
    * ``contract_fn`` -- full dependence in contracted form, signature
      ``(t, measure, eval_x, eval_a, weights)``, returning what
      :meth:`mean_contract` returns for the same arguments.

    A kernel with no representation is identically zero.
    """

    out_shape: tuple
    const: Optional[np.ndarray] = None
    carrier_fn: Optional[Callable] = None
    contract_fn: Optional[Callable] = None
    # not a field: perfbench/run.py reads it to count pairwise evaluations
    pair_fn = None

    @classmethod
    def zero(cls, out_shape: tuple) -> "MeasureKernel":
        return cls(out_shape=tuple(out_shape))

    @classmethod
    def constant(cls, value) -> "MeasureKernel":
        arr = np.asarray(value, dtype=float)
        return cls(out_shape=arr.shape, const=arr)

    @property
    def is_zero(self) -> bool:
        return (
            self.const is None
            and self.carrier_fn is None
            and self.contract_fn is None
        )

    def const_contract(self, mean_weights: np.ndarray) -> np.ndarray:
        """A constant kernel contracted against the carrier mean of the
        weights, shape out_shape[mean_weights.ndim:]: the value that
        mean_contract returns at every evaluation point."""
        return np.tensordot(mean_weights, self.const, axes=mean_weights.ndim)

    def mean_contract(
        self,
        t: float,
        measure: EmpiricalMeasure,
        eval_x: np.ndarray,
        eval_a: Optional[np.ndarray],
        weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Particle average of the kernel, contracted against carrier weights.

        With ``weights`` of shape (L, *out_shape[:r]) the leading r axes of
        the kernel are contracted against the weights before averaging over
        carriers; the result has shape (P, *out_shape[r:]).  Without weights
        the plain carrier average (P, *out_shape) is returned.
        """
        P = eval_x.shape[0]
        L = measure.size
        if self.is_zero:
            tail = self.out_shape if weights is None else self.out_shape[weights.ndim - 1 :]
            return np.zeros((P,) + tail)

        if self.const is not None:
            if weights is None:
                return np.broadcast_to(self.const, (P,) + self.out_shape).copy()
            contracted = self.const_contract(weights.mean(axis=0))
            return np.broadcast_to(contracted, (P,) + contracted.shape).copy()

        if self.carrier_fn is not None:
            K = np.asarray(self.carrier_fn(t, measure.x, measure.a, measure))
            K = np.broadcast_to(K, (L,) + self.out_shape)
            if weights is None:
                avg = K.mean(axis=0)
            else:
                avg = _contract_carrier(K, weights)
            return np.broadcast_to(avg, (P,) + avg.shape).copy()

        return np.asarray(self.contract_fn(t, measure, eval_x, eval_a, weights))


def _contract_carrier(K: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """mean_l sum over leading kernel axes of weights[l] * K[l]."""
    naxes = weights.ndim - 1
    letters = "ijk"[:naxes]
    rest = "mn"[: K.ndim - 1 - naxes]
    expr = f"l{letters},l{letters}{rest}->{rest}"
    return np.einsum(expr, weights, K) / K.shape[0]

