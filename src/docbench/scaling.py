"""Compound scaling arithmetic for the convolutional model family.

Depth, width and input resolution are scaled jointly by fixed bases raised
to a single coefficient phi.  The bases are meant to satisfy
alpha * beta^2 * gamma^2 ~= 2 so that each +1 in phi roughly doubles cost;
specs that miss that constraint are flagged with a warning, not rejected.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

CONSTRAINT_TARGET = 2.0
CONSTRAINT_TOLERANCE = 0.05


@dataclass(frozen=True)
class ScalingSpec:
    alpha: float  # depth base
    beta: float   # width base
    gamma: float  # resolution base
    phi: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            if getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.phi < 0:
            raise ValueError(f"phi must be >= 0, got {self.phi}")

    @property
    def constraint_residual(self) -> float:
        return abs(self.alpha * self.beta ** 2 * self.gamma ** 2 - CONSTRAINT_TARGET)


@dataclass(frozen=True)
class ScaledDims:
    width_mult: float
    depth_mult: float
    resolution_mult: float
    input_size: int


def round_to_even(value: float) -> int:
    """Nearest multiple of 2; keeps downscaling stages integral longer."""
    return max(2, 2 * round(value / 2.0))


def compound_scale(spec: ScalingSpec, base_input_size: int = 224) -> ScaledDims:
    """Expand a scaling spec into concrete multipliers and an input size."""
    if spec.constraint_residual > CONSTRAINT_TOLERANCE:
        warnings.warn(
            f"scaling bases miss alpha*beta^2*gamma^2 ~= {CONSTRAINT_TARGET} "
            f"(residual {spec.constraint_residual:.4f})", stacklevel=2)
    resolution = spec.gamma ** spec.phi
    # width takes beta: like resolution, it enters cost squared
    return ScaledDims(width_mult=spec.beta ** spec.phi,
                      depth_mult=spec.alpha ** spec.phi, resolution_mult=resolution,
                      input_size=round_to_even(base_input_size * resolution))
