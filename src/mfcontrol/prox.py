"""Pointwise proximal maps of the nonsmooth control cost.

Supported costs: none (prox = identity) and a weighted l1 norm
(prox = componentwise soft-thresholding).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KIND_NONE = "none"
KIND_L1 = "l1"


@dataclass(frozen=True)
class ProxSpec:
    """Parametrization of the nonsmooth cost term applied to controls."""

    kind: str = KIND_NONE
    kappa: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (KIND_NONE, KIND_L1):
            raise ValueError(f"unknown nonsmooth cost kind: {self.kind!r}")
        if self.kind == KIND_L1 and self.kappa < 0:
            raise ValueError("l1 weight must be nonnegative")

    @classmethod
    def none(cls) -> "ProxSpec":
        return cls(KIND_NONE)

    @classmethod
    def l1(cls, kappa: float) -> "ProxSpec":
        return cls(KIND_L1, kappa=float(kappa))


def prox_apply(spec: ProxSpec, tau: float, a: np.ndarray) -> np.ndarray:
    """Exact componentwise minimizer of 0.5|z - a|^2 + tau * ell(z).

    Soft-thresholding returns exact zeros inside the threshold (including at
    the threshold itself, where both closed forms agree).
    """
    if tau <= 0:
        raise ValueError("prox stepsize must be positive")
    a = np.asarray(a, dtype=float)
    if spec.kind == KIND_NONE:
        return a.copy()
    thr = tau * spec.kappa
    return np.sign(a) * np.maximum(np.abs(a) - thr, 0.0)


def ell_value(spec: ProxSpec, a: np.ndarray) -> np.ndarray:
    """Value of ell along the trailing (component) axis of a."""
    a = np.asarray(a, dtype=float)
    if spec.kind == KIND_NONE:
        return np.zeros(a.shape[:-1])
    return spec.kappa * np.abs(a).sum(axis=-1)
