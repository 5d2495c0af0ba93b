"""Generators for the named map families used throughout the suite.

* the quadratic normal form (z^2 + a*z)/(b*z + 1) with prescribed fixed
  multipliers at 0 and infinity, and its inverse from the level-1
  elementary symmetric values;
* the degree-4 duplication map on the x-line of a short Weierstrass
  curve (the flexible family whose spectrum is constant across curve
  parameters);
* composition pairs h1 o h2 / h2 o h1 sharing a spectrum, with the
  intertwining witness;
* power maps and seeded random maps for censuses.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateParameters, MultispecError, NotRealizable, SingularCurve
from .poly import (
    MobiusTransform,
    RationalMap,
    _check_budget,
    compose,
    make_map,
)
from .rootfind import roots

MILNOR_DEGENERACY_TOL = 1e-9
# the inversion path must flag the all-parabolic locus even though cube-root
# rounding spreads the triple multiplier by ~eps**(1/3) ~ 6e-6, which moves
# the pair products off 1 by ~1e-5; a factor-10 margin on top of that
INVERT_DEGENERACY_TOL = 1e-4
MILNOR_CONSTRAINT_TOL = 1e-6
CURVE_DISCRIMINANT_TOL = 1e-9
RANDOM_MAP_RESULTANT_MIN = 1e-6


# ---------------------------------------------------------------------------
# Quadratic normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MilnorPoint:
    """Level-1 elementary symmetric values of a quadratic's three multipliers."""

    sigma1: complex
    sigma2: complex
    sigma3: complex

    @property
    def constraint_residual(self) -> float:
        """Distance from the realizability relation sigma3 = sigma1 - 2."""
        return abs(self.sigma3 - (self.sigma1 - 2.0))


def third_multiplier(lam1: complex, lam2: complex) -> complex:
    """The remaining fixed-point multiplier of the quadratic normal form."""
    return (2.0 - lam1 - lam2) / (1.0 - lam1 * lam2)


def milnor_quadratic(lam1: complex, lam2: complex) -> RationalMap:
    """(z^2 + lam1*z)/(lam2*z + 1): fixed points 0 and infinity with the
    given multipliers. Breaks down when lam1*lam2 = 1."""
    lam1, lam2 = complex(lam1), complex(lam2)
    if abs(lam1 * lam2 - 1.0) <= MILNOR_DEGENERACY_TOL:
        raise DegenerateParameters(
            f"lam1*lam2 = {lam1 * lam2} too close to 1; the normal form degenerates"
        )
    return make_map([0.0, lam1, 1.0], [1.0, lam2])


def invert_sigma(point: MilnorPoint) -> RationalMap:
    """A quadratic whose level-1 spectrum is the given point.

    The three multipliers are the roots of the cubic with those
    elementary symmetric values; among the pairs with product != 1 the
    one farthest from the degeneracy is fed to the normal form.
    """
    if point.constraint_residual > MILNOR_CONSTRAINT_TOL * max(1.0, abs(point.sigma1)):
        raise NotRealizable(
            f"sigma3 - (sigma1 - 2) = {point.sigma3 - point.sigma1 + 2.0}; "
            "no quadratic attains this level-1 spectrum"
        )
    cubic = np.array([-point.sigma3, point.sigma2, -point.sigma1, 1.0], dtype=complex)
    lams = roots(cubic).affine_values(expand=True)
    best = None
    best_sep = -1.0
    for i in range(3):
        for j in range(i + 1, 3):
            sep = abs(lams[i] * lams[j] - 1.0)
            if sep > best_sep:
                best_sep = sep
                best = (lams[i], lams[j])
    if best is None or best_sep <= INVERT_DEGENERACY_TOL:
        raise DegenerateParameters(
            "every multiplier pair has product 1 at working precision"
        )
    return milnor_quadratic(*best)


# ---------------------------------------------------------------------------
# Flexible family: duplication on a short Weierstrass curve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LattesParams:
    """Coefficients of y^2 = x^3 + a*x + b with nonzero discriminant."""

    a: complex
    b: complex

    def __post_init__(self):
        if abs(self.discriminant) <= CURVE_DISCRIMINANT_TOL:
            raise SingularCurve(f"discriminant {self.discriminant} vanishes")

    @property
    def discriminant(self) -> complex:
        return -16.0 * (4.0 * self.a**3 + 27.0 * self.b**2)


def lattes_mult2(params: LattesParams | tuple) -> RationalMap:
    """x-coordinate duplication map of y^2 = x^3 + a*x + b, degree 4."""
    if not isinstance(params, LattesParams):
        params = LattesParams(*params)
    a, b = params.a, params.b
    num = [a * a, -8.0 * b, -2.0 * a, 0.0, 1.0]
    den = [4.0 * b, 4.0 * a, 0.0, 4.0]
    return make_map(num, den)


def weierstrass_double_x(params: LattesParams, x: complex, y: complex) -> complex:
    """x(2P) by the chord-tangent rule; the independent duplication oracle."""
    if y == 0:
        raise ZeroDivisionError("2-torsion point: the tangent is vertical")
    slope = (3.0 * x * x + params.a) / (2.0 * y)
    return slope * slope - 2.0 * x


def random_curve_point(params: LattesParams, rng: np.random.Generator) -> tuple[complex, complex]:
    """A point (x, y) on the curve with y bounded away from 2-torsion."""
    while True:
        x = _disk_sample(rng, radius=2.0)
        y = cmath.sqrt(x**3 + params.a * x + params.b)
        if abs(y) > 1e-3:
            return x, y


# ---------------------------------------------------------------------------
# Composition pairs, power maps, random maps
# ---------------------------------------------------------------------------

class ElementaryPair(NamedTuple):
    f: RationalMap
    g: RationalMap
    witness: RationalMap  # h2, satisfying witness o f = g o witness


def _as_map(h) -> RationalMap:
    if isinstance(h, RationalMap):
        return h
    return make_map(h, [1.0])


def elementary_transform(h1, h2) -> ElementaryPair:
    """The pair f = h1 o h2, g = h2 o h1 and the witness h2.

    The two maps share their multiplier spectrum; the witness intertwines
    them: h2 o f = g o h2.
    """
    m1, m2 = _as_map(h1), _as_map(h2)
    return ElementaryPair(compose(m1, m2), compose(m2, m1), m2)


def power_map(d: int) -> RationalMap:
    """z^d for d >= 2."""
    if d < 2:
        raise ValueError("power maps here start at degree 2")
    num = [0.0] * d + [1.0]
    return make_map(num, [1.0])


def _disk_sample(rng: np.random.Generator, radius: float = 1.0) -> complex:
    r = radius * np.sqrt(rng.uniform())
    theta = rng.uniform(0.0, 2.0 * np.pi)
    return complex(r * np.cos(theta), r * np.sin(theta))


def random_map(d: int, seed: int) -> RationalMap:
    """Seeded random degree-d map, coefficients uniform on the unit disk.

    Uses numpy's default generator (PCG64). Candidates are rejected until
    construction succeeds and the resultant is safely nonzero, so the
    same seed always denotes the same map.
    """
    if d < 2:
        raise ValueError("degree must be >= 2")
    # refused here: the loop below would take BudgetExceeded for a rejected candidate
    _check_budget(d, 1)
    rng = np.random.default_rng(seed)
    while True:
        num = [_disk_sample(rng) for _ in range(d + 1)]
        den = [_disk_sample(rng) for _ in range(d + 1)]
        try:
            f = make_map(num, den)
        except MultispecError:  # a rejected candidate; a bug still propagates
            continue
        if f.degree != d:
            continue
        if f.log_resultant > math.log(RANDOM_MAP_RESULTANT_MIN):
            return f


def random_mobius(seed: int) -> MobiusTransform:
    """Seeded random coordinate change with determinant bounded below."""
    rng = np.random.default_rng(seed)
    while True:
        entries = [_disk_sample(rng) for _ in range(4)]
        det = entries[0] * entries[3] - entries[1] * entries[2]
        if abs(det) > 0.1:
            return MobiusTransform(*entries)
