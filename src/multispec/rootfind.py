"""Simultaneous complex root finding with multiplicity clustering.

The solver is the Aberth-Ehrlich iteration: all approximations move at
once, each repelled by the others, which converges cubically for simple
roots from a generic start. Starting points sit on a circle of Fujiwara
radius, rotated by a fixed irrational angle so that symmetric inputs
(power maps, cyclotomic-like factors) cannot stall the iteration.

Approximations are polished with Newton steps, then merged into
multiplicity clusters: a k-fold root is resolvable in double precision
only to about eps**(1/k), so nearby approximations are reported as one
location (their centroid, which is substantially more accurate) with
summed multiplicity.

Everything here is deterministic: same input, same output, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import NoConvergence
from .points import ProjectivePoint

_EPS = float(np.finfo(float).eps)
# fixed irrational rotation for the starting circle
_START_ANGLE = 0.4810348602198763


MAX_ITER = 500  # Aberth sweeps
CLUSTER_RADIUS = 1e-7  # relative distance merged into one multiple root
NEWTON_STEPS = 8  # polish steps per root and per cluster


@dataclass(frozen=True)
class Root:
    location: ProjectivePoint
    multiplicity: int
    residual: float


@dataclass(frozen=True)
class RootSet:
    roots: tuple[Root, ...]

    @property
    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.roots)

    def affine_values(self, expand: bool = False) -> list[complex]:
        """Finite root locations; with expand=True, repeated per multiplicity."""
        out = []
        for r in self.roots:
            if r.location.is_infinite:
                continue
            out.extend([r.location.affine] * (r.multiplicity if expand else 1))
        return out

    @property
    def infinity_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.roots if r.location.is_infinite)


def _trim_leading(coeffs: np.ndarray) -> np.ndarray:
    """Drop exactly-zero top coefficients."""
    end = len(coeffs)
    while end > 1 and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


def _initial_points(c: np.ndarray) -> np.ndarray:
    """Starting approximations from the Newton polygon of the coefficients.

    Points go on circles whose radii come from the slopes of the upper
    convex hull of (k, log |c_k|): each hull edge of horizontal length L
    contributes L starts at модулus (|c_k1|/|c_k2|)^(1/L). A single
    Fujiwara circle stalls badly when the root moduli span many orders
    of magnitude (tiny leading coefficients put one root astronomically
    far out); the polygon puts every start on the right ring from the
    beginning.
    """
    m = len(c) - 1
    pts = [(k, math.log(abs(c[k]))) for k in range(m + 1) if c[k] != 0]
    # upper convex hull, left to right
    hull: list[tuple[int, float]] = []
    for k, y in pts:
        while len(hull) >= 2:
            (k1, y1), (k2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (k - k2) <= (y - y2) * (k2 - k1):
                hull.pop()
            else:
                break
        hull.append((k, y))
    starts = np.empty(m, dtype=complex)
    pos = 0
    for (k1, y1), (k2, y2) in zip(hull, hull[1:]):
        count = k2 - k1
        radius = math.exp((y1 - y2) / count)
        ring = pos / max(1, m)  # deterministic per-ring phase stagger
        angles = 2.0 * np.pi * (np.arange(count) / count + ring) + _START_ANGLE
        starts[pos : pos + count] = radius * np.exp(1j * angles)
        pos += count
    return starts


def _newton_correction(c, crev, dc, dcrev, z, scale):
    """Vectorized p(z)/p'(z) plus chart-relative residuals |p(z)|/scale.

    Large arguments are routed through the reversed polynomial so that
    high-degree evaluation never overflows.
    """
    m = len(c) - 1
    z = np.asarray(z)
    out = np.empty_like(z)
    res = np.empty(len(z), dtype=float)
    inner = np.abs(z) <= 1.0
    if np.any(inner):
        zi = z[inner]
        pv = npoly.polyval(zi, c)
        dv = npoly.polyval(zi, dc)
        dv = np.where(dv == 0, _EPS, dv)
        out[inner] = pv / dv
        res[inner] = np.abs(pv) / scale
    if np.any(~inner):
        zo = z[~inner]
        u = 1.0 / zo
        pv = npoly.polyval(u, crev)
        du = npoly.polyval(u, dcrev)
        denom = m * pv - u * du
        denom = np.where(denom == 0, _EPS, denom)
        out[~inner] = zo * pv / denom
        res[~inner] = np.abs(pv) / scale
    return out, res


def _relative_residuals(c, crev, z, scale):
    """|p(z)| measured against the polynomial's scale at the point's chart."""
    z = np.asarray(z)
    res = np.empty(len(z), dtype=float)
    inner = np.abs(z) <= 1.0
    if np.any(inner):
        res[inner] = np.abs(npoly.polyval(z[inner], c)) / scale
    if np.any(~inner):
        res[~inner] = np.abs(npoly.polyval(1.0 / z[~inner], crev)) / scale
    return res


def _aberth(c: np.ndarray, residual_tol: float) -> np.ndarray:
    """Approximate all roots of c (ascending coeffs, c[0] != 0, deg >= 1)."""
    m = len(c) - 1
    if m == 1:
        return np.array([-c[0] / c[1]])
    crev = c[::-1].copy()
    dc = npoly.polyder(c)
    dcrev = npoly.polyder(crev)
    scale = float(np.max(np.abs(c)))

    z = _initial_points(c)

    # a root counts as settled when its step is at rounding scale or its
    # residual has reached the double-precision floor (multiple roots
    # never satisfy the step criterion alone)
    floor = 8.0 * m * _EPS
    done = np.zeros(m, dtype=bool)
    for _ in range(MAX_ITER):
        w, res = _newton_correction(c, crev, dc, dcrev, z, scale)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        repulsion = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - w * repulsion
        denom = np.where(denom == 0, _EPS, denom)
        step = w / denom
        step = np.where(done, 0.0, step)
        z = z - step
        done = done | (np.abs(step) <= 4.0 * _EPS * (1.0 + np.abs(z))) | (res <= floor)
        if np.all(done):
            break

    # per-root Newton polish
    for _ in range(NEWTON_STEPS):
        w, res = _newton_correction(c, crev, dc, dcrev, z, scale)
        z = z - w
        if np.all(res <= 0.01 * residual_tol):
            break
    return z


def _cluster(values: np.ndarray, radius: float) -> list[tuple[complex, int]]:
    """Greedy merge of approximations within the multiple-root resolution."""
    m = len(values)
    if m > 1:
        # fast path: nothing is anywhere near anything else
        diff = np.abs(values[:, None] - values[None, :])
        np.fill_diagonal(diff, np.inf)
        scale = np.maximum(1.0, np.abs(values))
        limit = radius * np.maximum(scale[:, None], scale[None, :])
        if not np.any(diff <= limit):
            order = np.lexsort((values.imag, values.real))
            return [(complex(values[i]), 1) for i in order]
    order = np.lexsort((values.imag, values.real))
    remaining = [values[i] for i in order]
    clusters: list[list[complex]] = []
    for v in remaining:
        placed = False
        for cl in clusters:
            center = sum(cl) / len(cl)
            if abs(v - center) <= radius * max(1.0, abs(v), abs(center)):
                cl.append(v)
                placed = True
                break
        if not placed:
            clusters.append([v])
    return [(sum(cl) / len(cl), len(cl)) for cl in clusters]


def roots(p, residual_tol: float = 1e-10) -> RootSet:
    """All affine roots of p with multiplicities and relative residuals.

    Raises NoConvergence when the polished, clustered roots do not meet
    the residual tolerance; a partial answer would poison every
    computation layered on top of this one. With residual_tol=inf there
    is no gate.
    """
    coeffs = np.asarray(getattr(p, "coeffs", p), dtype=complex)
    coeffs = _trim_leading(coeffs)
    m = len(coeffs) - 1
    if m < 1:
        raise ValueError("root finding needs degree >= 1")
    scale = float(np.max(np.abs(coeffs)))
    if scale == 0.0:
        raise ValueError("zero polynomial has no well-defined roots")

    # peel exact roots at the origin
    zero_mult = 0
    while coeffs[zero_mult] == 0:
        zero_mult += 1
    core = coeffs[zero_mult:]

    found: list[tuple[complex, int]] = []
    if zero_mult:
        found.append((0j, zero_mult))
    if len(core) > 1:
        approx = _aberth(core, residual_tol)
        clusters = _cluster(approx, CLUSTER_RADIUS)
        crev_core = core[::-1].copy()
        dc_core = npoly.polyder(core)
        dcrev_core = npoly.polyder(crev_core)
        core_scale = float(np.max(np.abs(core)))
        for center, mult in clusters:
            if mult > 1:
                # modified Newton x -= mult * p/p' restores quadratic
                # convergence at an mult-fold root; the plain iteration
                # leaves the cluster centroid ~eps**(1/mult) off.  Keep
                # the refined point only while the residual improves.
                zc = np.array([center])
                best = center
                best_res = float(
                    _relative_residuals(core, crev_core, zc, core_scale)[0]
                )
                for _ in range(NEWTON_STEPS):
                    w, _ = _newton_correction(core, crev_core, dc_core, dcrev_core, zc, core_scale)
                    zc = zc - mult * w
                    res = float(
                        _relative_residuals(core, crev_core, zc, core_scale)[0]
                    )
                    if res <= best_res:
                        best, best_res = complex(zc[0]), res
                center = best
            found.append((center, mult))

    crev = coeffs[::-1].copy()
    centers = np.array([c for c, _ in found], dtype=complex)
    residuals = _relative_residuals(coeffs, crev, centers, scale)
    worst = float(residuals.max()) if len(residuals) else 0.0
    if worst > residual_tol:
        raise NoConvergence("root finder missed the residual tolerance", worst)
    out = [
        Root(ProjectivePoint.from_affine(center), mult, float(res))
        for (center, mult), res in zip(found, residuals)
    ]
    out.sort(key=lambda r: (r.location.x.real, r.location.x.imag))
    return RootSet(tuple(out))


def binary_form_roots(form, degree: int | None = None, residual_tol: float = 1e-10) -> RootSet:
    """Projective roots of a homogeneous form, infinity included.

    The form is given by its dehomogenized coefficient array (ascending);
    `degree` is its formal degree, defaulting to len(form) - 1. Only
    exactly-zero leading coefficients contribute to the multiplicity of
    the root at infinity: a tiny leading coefficient may belong to a
    polynomial whose roots are all moderate (coefficient mass piles up
    in the middle), so no perceived smallness justifies dropping it.
    """
    coeffs = np.asarray(getattr(form, "coeffs", form), dtype=complex)
    if degree is None:
        degree = len(coeffs) - 1
    if len(coeffs) - 1 > degree:
        raise ValueError("coefficient array longer than the formal degree allows")
    scale = float(np.max(np.abs(coeffs)))
    if scale == 0.0:
        raise ValueError("the zero form has no root set")

    affine = _trim_leading(coeffs)
    deficit = degree - (len(affine) - 1)

    parts: list[Root] = []
    if len(affine) > 1:
        parts.extend(roots(affine, residual_tol).roots)
    if deficit > 0:
        parts.append(Root(ProjectivePoint.infinity(), deficit, 0.0))
    return RootSet(tuple(parts))
