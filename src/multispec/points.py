"""Points on the Riemann sphere in homogeneous coordinates.

A point is stored as a pair (x, y), never both zero, normalized so that
max(|x|, |y|) == 1. The affine value is x/y; (1, 0) is the point at
infinity. All distance computations use the chordal metric, which is
what makes orbits through infinity unremarkable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ProjectivePoint:
    x: complex
    y: complex

    def __post_init__(self):
        scale = max(abs(self.x), abs(self.y))
        # each coordinate is tested: max() passes over a nan in second place
        if scale == 0.0 or not (cmath.isfinite(self.x) and cmath.isfinite(self.y)):
            raise ValueError("projective point needs a finite nonzero representative")
        if scale != 1.0:
            object.__setattr__(self, "x", self.x / scale)
            object.__setattr__(self, "y", self.y / scale)

    @classmethod
    def from_affine(cls, z: complex) -> "ProjectivePoint":
        return cls(complex(z), 1.0 + 0.0j)

    @classmethod
    def infinity(cls) -> "ProjectivePoint":
        return cls(1.0 + 0.0j, 0.0j)

    @property
    def is_infinite(self) -> bool:
        return self.y == 0

    @property
    def affine(self) -> complex:
        """Affine representative x/y; raises on the point at infinity."""
        if self.y == 0:
            raise ValueError("point at infinity has no affine representative")
        return self.x / self.y

    def chordal(self, other: "ProjectivePoint") -> float:
        """Chordal distance, valued in [0, 1] for normalized representatives."""
        num = abs(self.x * other.y - other.x * self.y)
        den = math.sqrt(
            (abs(self.x) ** 2 + abs(self.y) ** 2)
            * (abs(other.x) ** 2 + abs(other.y) ** 2)
        )
        return num / den

    def __str__(self) -> str:
        if self.is_infinite:
            return "inf"
        z = self.affine
        return f"{z.real:.12g}{z.imag:+.12g}i"


def as_point(value) -> ProjectivePoint:
    """Coerce a complex number, float, or ProjectivePoint to a point."""
    if isinstance(value, ProjectivePoint):
        return value
    if isinstance(value, (int, float, complex)):
        z = complex(value)
        if cmath.isinf(z):
            return ProjectivePoint.infinity()
        return ProjectivePoint.from_affine(z)
    raise TypeError(f"cannot interpret {value!r} as a point on the sphere")
