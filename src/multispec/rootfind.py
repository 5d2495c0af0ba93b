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

from .errors import NoConvergence
from .points import ProjectivePoint

_EPS = float(np.finfo(float).eps)
# fixed irrational rotation for the starting circle
_START_ANGLE = 0.4810348602198763


MAX_ITER = 500  # Aberth sweeps
CLUSTER_RADIUS = 1e-7  # relative distance merged into one multiple root
NEWTON_STEPS = 8  # polish steps per root and per cluster
# a polynomial whose largest coefficient is past this is brought to unit
# scale by a power of two: its roots stay, |p|/scale and p/p' keep their
# bits, and a chart value times a large argument, or times the degree,
# no longer overflows. Ordinary inputs are never scaled.
_SCALE_LIMIT = 2.0**512
# elements in one scratch block (3 MiB of complex): a level's pairwise
# arrays go in row blocks of this size, and a Horner slab past it is
# gathered in coefficient chunks of this size
BLOCK_ELEMENTS = 3 * 2**16


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
    contributes L starts at modulus (|c_k1|/|c_k2|)^(1/L). A single
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


def _block_rows(width: int) -> int:
    """Rows of `width` elements in one BLOCK_ELEMENTS block (at least one)."""
    return BLOCK_ELEMENTS // width if 0 < width <= BLOCK_ELEMENTS else 1


def _chart_horner(table: np.ndarray, t: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """All rows of a [coefficient, row, chart] table at chart variables t.

    `outer` marks the points in chart 1. The slab is gathered points last
    and contiguous, in coefficient chunks of at most BLOCK_ELEMENTS, top
    first; a slab under the budget is one chunk. Horner keeps polyval's
    exact operation order (t * 0 term included), so zero-padded rows keep
    their bits, and chunking moves none.
    """
    charts = outer.astype(np.intp)
    chunk = _block_rows(table.shape[1] * len(t))
    vals = None
    for hi in range(len(table), 0, -chunk):
        slab = np.take(table[max(0, hi - chunk) : hi], charts, axis=-1)
        for j in range(len(slab) - 1, -1, -1):
            vals = slab[j] + (t * 0 if vals is None else vals * t)
        del slab  # freed before the next chunk is gathered
    return vals


def _repulsion(z: np.ndarray, zl: np.ndarray, live: np.ndarray) -> np.ndarray:
    """The Aberth sum of 1/(z[i] - z[j]) over j != i, for each row i in `live` (zl = z[live]).

    Rows go in blocks of _block_rows; each row still sums all len(z) terms
    in one pass, in index order, so the blocks move no bit.
    """
    step = _block_rows(len(z))
    out = np.empty(len(live), dtype=complex)
    for lo in range(0, len(live), step):
        diff = zl[lo : lo + step, None] - z[None, :]
        diff[np.arange(len(diff)), live[lo : lo + step]] = np.inf
        # np.sum's own reduction, written into the block's rows
        np.add.reduce(np.divide(1.0, diff, out=diff), axis=1, out=out[lo : lo + step])
        del diff  # freed before the next block is formed
    return out


def _form_partials(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The partials (dX, dY) of the binary form sum c_k X^k Y^(m-k).

    This is numpy's polynomial derivative arithmetic, unit pre-multiply
    included: the multiply fixes the sign of zero parts (the term of a
    -0-0j coefficient comes out +0+0j), so dX and the reversed dY are the
    derivatives of c and c[::-1] as numpy gives them, to the bit.
    """
    m = len(c) - 1
    unit = c * 1
    return unit[1:] * np.arange(1, m + 1), unit[:-1] * np.arange(m, 0, -1)


def _chart_table(*charts) -> np.ndarray:
    """The _chart_horner table of each chart's ascending rows; short rows get zero tops."""
    length = max(len(row) for rows in charts for row in rows)
    table = np.zeros((length, len(charts[0]), len(charts)), dtype=complex)
    for k, rows in enumerate(charts):
        for i, row in enumerate(rows):
            table[: len(row), i, k] = row
    return table


def _newton_table(c: np.ndarray) -> np.ndarray:
    """The _chart_horner table of p and p' in both charts (p' is dX, then reversed dY)."""
    dx, dy = _form_partials(c)
    return _chart_table([c, dx], [c[::-1], dy[::-1]])


def _newton_correction(table, z, scale):
    """Vectorized p(z)/p'(z) plus chart-relative residuals |p(z)|/scale.

    Large arguments are evaluated through the reversed polynomial at
    u = 1/z so that high-degree evaluation never overflows.
    """
    m = len(table) - 1
    inner = np.abs(z) <= 1.0
    outer = ~inner
    u = np.divide(1.0, z, out=z.copy(), where=outer)
    pv, dv = _chart_horner(table, u, outer)
    # outside: p(z)/p'(z) = z * prev(u) / (m * prev(u) - u * prev'(u))
    num = np.where(inner, pv, z * pv)
    denom = np.where(inner, dv, m * pv - u * dv)
    denom = np.where(denom == 0, _EPS, denom)
    return num / denom, np.abs(pv) / scale


def _residuals(c: np.ndarray, z: np.ndarray, scale: float) -> np.ndarray:
    """The residuals of _newton_correction, to the bit, from p alone.

    p' is never formed: m * c_k can overflow where p itself does not.
    """
    outer = ~(np.abs(z) <= 1.0)
    u = np.divide(1.0, z, out=z.copy(), where=outer)
    return np.abs(_chart_horner(_chart_table([c], [c[::-1]]), u, outer)[0]) / scale


def _aberth(table: np.ndarray, residual_tol: float) -> np.ndarray:
    """Approximate all roots of the _newton_table's p (p(0) != 0, deg >= 1)."""
    c = table[:, 0, 0]
    m = len(c) - 1
    if m == 1:
        return np.array([-c[0] / c[1]])
    scale = float(np.max(np.abs(c)))

    z = _initial_points(c)

    # a root counts as settled when its step is at rounding scale or its
    # residual has reached the double-precision floor (multiple roots
    # never satisfy the step criterion alone)
    floor = 8.0 * m * _EPS
    done = np.zeros(m, dtype=bool)
    for _ in range(MAX_ITER):
        # settled roots stay put; each live row still sums over all m roots
        live = np.flatnonzero(~done)
        zl = z[live]
        w, res = _newton_correction(table, zl, scale)
        denom = 1.0 - w * _repulsion(z, zl, live)
        denom = np.where(denom == 0, _EPS, denom)
        step = w / denom
        zl = zl - step
        z[live] = zl
        if not np.all(np.isfinite(zl)):
            return z  # it enters every repulsion sum: stop, and roots refuses it
        done[live] = (np.abs(step) <= 4.0 * _EPS * (1.0 + np.abs(zl))) | (res <= floor)
        if np.all(done):
            break

    # per-root Newton polish
    for _ in range(NEWTON_STEPS):
        w, res = _newton_correction(table, z, scale)
        z = z - w
        if np.all(res <= 0.01 * residual_tol):
            break
    return z


def _has_near_pair(values: np.ndarray, radius: float) -> bool:
    """Whether two approximations lie within the relative cluster radius, in row blocks."""
    m = len(values)
    scale = np.maximum(1.0, np.abs(values))
    step = _block_rows(m)
    for lo in range(0, m, step):
        diff = np.abs(values[lo : lo + step, None] - values[None, :])
        diff.reshape(-1)[lo :: m + 1] = np.inf  # the block's share of the diagonal
        if np.any(diff <= radius * np.maximum(scale[lo : lo + step, None], scale[None, :])):
            return True
        del diff  # freed before the next block is formed
    return False


def _cluster(values: np.ndarray, radius: float) -> list[tuple[complex, int]]:
    """Greedy merge of approximations within the multiple-root resolution."""
    order = np.lexsort((values.imag, values.real))
    # fast path: nothing is anywhere near anything else
    if len(values) > 1 and not _has_near_pair(values, radius):
        return [(complex(values[i]), 1) for i in order]
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
    coeffs = _trim_leading(np.asarray(p, dtype=complex))
    m = len(coeffs) - 1
    if m < 1:
        raise ValueError("root finding needs degree >= 1")
    scale = float(np.max(np.abs(coeffs)))
    if scale > _SCALE_LIMIT:
        coeffs = coeffs * math.ldexp(1.0, -math.frexp(scale)[1])
        scale = float(np.max(np.abs(coeffs)))

    # peel exact roots at the origin
    zero_mult = 0
    while coeffs[zero_mult] == 0:
        zero_mult += 1
    core = coeffs[zero_mult:]

    found: list[tuple[complex, int]] = []
    if zero_mult:
        found.append((0j, zero_mult))
    if len(core) > 1:
        core_table = _newton_table(core)
        approx = _aberth(core_table, residual_tol)
        if not np.all(np.isfinite(approx)):
            raise NoConvergence("root finder left a non-finite approximation", math.inf)
        clusters = _cluster(approx, CLUSTER_RADIUS)
        core_scale = float(np.max(np.abs(core)))
        for center, mult in clusters:
            if mult > 1:
                # modified Newton x -= mult * p/p' restores quadratic
                # convergence at an mult-fold root; the plain iteration
                # leaves the cluster centroid ~eps**(1/mult) off.  Keep
                # the refined point only while the residual improves,
                # and stop at the first trial past the double range (a
                # non-finite step makes one).
                zc = np.array([center])
                best = center
                with np.errstate(over="ignore", invalid="ignore"):
                    w, res = _newton_correction(core_table, zc, core_scale)
                    best_res = float(res[0])
                    for _ in range(NEWTON_STEPS):
                        zc = zc - mult * w
                        if not np.isfinite(zc[0]):
                            break
                        w, res = _newton_correction(core_table, zc, core_scale)
                        if res[0] <= best_res:
                            best, best_res = complex(zc[0]), float(res[0])
                center = best
            found.append((center, mult))

    centers = np.array([c for c, _ in found], dtype=complex)
    residuals = _residuals(coeffs, centers, scale)
    worst = float(residuals.max()) if len(residuals) else 0.0
    if worst > residual_tol:
        raise NoConvergence("root finder missed the residual tolerance", worst)
    out = [
        Root(ProjectivePoint.from_affine(center), mult, float(res))
        for (center, mult), res in zip(found, residuals)
    ]
    out.sort(key=lambda r: (r.location.x.real, r.location.x.imag))
    return RootSet(tuple(out))


def binary_form_roots(form, degree: int, residual_tol: float = 1e-10) -> RootSet:
    """Projective roots of a homogeneous form, infinity included.

    The form is given by its dehomogenized coefficient array (ascending);
    `degree` is its formal degree. Only exactly-zero leading coefficients
    contribute to the multiplicity of the root at infinity: a tiny
    leading coefficient may belong to a polynomial whose roots are all
    moderate (coefficient mass piles up in the middle), so no perceived
    smallness justifies dropping it.
    """
    coeffs = np.asarray(form, dtype=complex)
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
