"""Periodic points, multipliers, and the multiplier spectrum.

For a degree-d map f, the n-th level data lives on the d^n + 1 fixed
points of f^n (multiplicity included): their multipliers, the
elementary symmetric values of that multiset, and the nonnegative
"length" variant built from the multiplier moduli. Levels stack into a
spectrum record that can be compared, fingerprinted for catalog lookup,
and mined for the superattracting-cycle structure of the map.

Two independent routes to the same numbers keep the engine honest: the
production pipeline extracts periodic points with the simultaneous root
finder and differentiates along orbits, while the oracle route builds
the companion matrix of the fixed-point polynomial and takes traces of
powers of the derivative operator in the quotient algebra, with no root
extraction anywhere.
"""

from __future__ import annotations

import cmath
import math
import struct
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (
    BudgetExceeded,
    InconsistentZeroCounts,
    NoConvergence,
    NonFiniteSpectrum,
    ParabolicPresent,
    ShapeMismatch,
    SingularReduction,
)
from .points import ProjectivePoint
from .poly import (
    DEFAULT_MAX_ROOTS,
    RationalMap,
    _OrbitDifferentials,
    compose,
    iterate,
    substitute_forms,
)
from .rootfind import binary_form_roots

ZERO_TAIL_REL_TOL = 1e-6
PARABOLIC_GUARD = 1e-6
ORACLE_MAX_POINTS = 200
DEFAULT_QUANTUM = 1e-6

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fnv64(data: bytes) -> int:
    """64-bit FNV-1a; spectrum fingerprints and catalog ids are stored with it."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


# ---------------------------------------------------------------------------
# Data records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodicPoint:
    location: ProjectivePoint
    multiplicity: int
    multiplier: complex


@dataclass(frozen=True)
class PeriodicPointSet:
    period: int
    points: tuple[PeriodicPoint, ...]

    @property
    def total_multiplicity(self) -> int:
        return sum(p.multiplicity for p in self.points)

    def multipliers(self) -> list[complex]:
        """The multiplier multiset, one entry per unit of multiplicity."""
        out: list[complex] = []
        for p in self.points:
            out.extend([p.multiplier] * p.multiplicity)
        return out


@dataclass(frozen=True)
class MultiplierSpectrum:
    degree: int
    max_period: int
    levels: tuple[tuple[complex, ...], ...]


@dataclass(frozen=True)
class LengthSpectrum:
    degree: int
    max_period: int
    levels: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class SpectrumFingerprint:
    digest: int  # unsigned 64-bit
    quantum: float

    @property
    def hex_digest(self) -> str:
        return f"{self.digest:016x}"


@dataclass(frozen=True)
class DisjointType:
    periods: tuple[int, ...]  # ascending multiset of exact cycle periods
    complete: bool  # True when the cycle count reaches 2d - 2


# ---------------------------------------------------------------------------
# Periodic points and spectra
# ---------------------------------------------------------------------------

def _fixed_form_of(g: RationalMap) -> np.ndarray:
    """Coefficients of Y*P - X*Q for the map g, formal degree deg(g) + 1."""
    m = g.degree
    out = np.zeros(m + 2, dtype=complex)
    out[: m + 1] += g.p
    out[1:] -= g.q
    scale = float(np.max(np.abs(out)))
    if scale > 0:
        out = out / scale
    return out


def fixed_point_form(f: RationalMap, n: int, max_roots: int = DEFAULT_MAX_ROOTS) -> np.ndarray:
    """The degree d^n + 1 form whose projective roots are the f^n-fixed points."""
    return _fixed_form_of(iterate(f, n, max_roots))


def _functional_aberth_polish(engine: _OrbitDifferentials, n: int, approx: list[complex],
                              held: list[tuple[complex, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Joint polish of the simple affine periodic points.

    Simultaneous Ehrlich-Aberth iteration whose Newton ratio comes from
    the orbit recursion. Mutual repulsion keeps approximations from
    collapsing onto one root when the form-based starting points are
    poor; `held` lists clustered (multiple) roots that stay fixed but
    still repel with their multiplicity. Returns the polished points and
    their functional residuals.
    """
    z = np.array(approx, dtype=complex)
    m = len(z)
    if m == 0:
        return z, np.zeros(0)
    # herding a fully garbage seed set takes a couple of sweeps per point
    max_iter = max(200, 2 * m)
    target = 1e-13
    frozen = np.zeros(m, dtype=bool)
    res_all = np.full(m, np.inf)
    best_worst = math.inf
    most_frozen = 0
    since_improve = 0
    for _ in range(max_iter):
        active = ~frozen
        ratios_a, res_a = engine.newton_data(n, z[active])
        res_all[active] = res_a
        ratios = np.zeros(m, dtype=complex)
        ratios[active] = ratios_a
        # freeze on the target, or once a point bounces at its own
        # conditioning floor (tiny Newton ratio, decent residual)
        floor = (np.abs(ratios) <= 1e-12 * (1.0 + np.abs(z))) & (res_all <= 1e-9)
        frozen = frozen | (res_all <= target) | floor
        nfrozen = int(np.count_nonzero(frozen))
        if nfrozen == m:
            break
        # converged sets plateau at their conditioning limit (which for
        # deep levels sits orders of magnitude above the freeze target);
        # once everything is at least decent and nothing improves any
        # more, further sweeps are wasted. While any point is still far
        # out, keep herding to the hard cap regardless.
        worst = float(res_all[~frozen].max())
        if worst < 0.6 * best_worst or nfrozen > most_frozen:
            best_worst = min(best_worst, worst)
            most_frozen = max(most_frozen, nfrozen)
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= 60 and best_worst <= 1e-6:
                break
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        repulsion = np.sum(1.0 / diff, axis=1)
        for w, mult in held:
            gap = z - w
            gap = np.where(gap == 0, 1e-30, gap)
            repulsion = repulsion + mult / gap
        denom = 1.0 - ratios * repulsion
        denom = np.where(denom == 0, 1.0, denom)
        step = ratios / denom
        # cap the step so a point cannot tunnel across the periodic set
        cap = 0.25 * (1.0 + np.abs(z))
        mag = np.abs(step)
        step = np.where(mag > cap, step * (cap / np.where(mag == 0, 1.0, mag)), step)
        z = z - np.where(frozen, 0.0, step)
    active = ~frozen
    if np.any(active):
        _, res_a = engine.newton_data(n, z[active])
        res_all[active] = res_a
    # once each point owns its basin, a few plain Newton steps recover
    # whatever margin the stall exit or the floor freeze left on the table
    for _ in range(3):
        live = res_all > 1e-12
        if not np.any(live):
            break
        ratios_l, res_l = engine.newton_data(n, z[live])
        trial = z[live] - ratios_l
        _, res_t = engine.newton_data(n, trial)
        improved = res_t < res_l
        zl = z[live]
        zl[improved] = trial[improved]
        z[live] = zl
        rl = res_all[live]
        rl[improved] = res_t[improved]
        res_all[live] = rl
    return z, res_all


# post-polish functional gate: points worse than this are garbage
_FUNCTIONAL_GATE = 1e-7


def _chordal_matrix(z: np.ndarray) -> np.ndarray:
    """Pairwise chordal distances of affine points."""
    w = 1.0 / np.sqrt(1.0 + np.abs(z) ** 2)
    d = np.abs(z[:, None] - z[None, :])
    return d * w[:, None] * w[None, :]


def _periodic_points_from(f: RationalMap, g: RationalMap, n: int) -> PeriodicPointSet:
    form = _fixed_form_of(g)
    # Root extraction here only seeds the functional polish, which
    # re-verifies every simple point against f^n(z) = z itself, so it runs
    # with no residual gate: the root finder's default tolerance is
    # unreachable for fixed-point forms of deep iterates whose coefficient
    # mass concentrates (their values sit below evaluation noise near the
    # periodic points), and an occasional unconverged seed is repaired by
    # the polish rather than reported.
    rs = binary_form_roots(form, g.degree + 1, residual_tol=math.inf)
    engine = _OrbitDifferentials(f)

    inf_roots = [r for r in rs.roots if r.location.is_infinite]
    seeds: list[complex] = []
    held: list[tuple[complex, int]] = []
    for r in rs.roots:
        if r.location.is_infinite:
            continue
        z = r.location.affine
        if r.multiplicity == 1:
            seeds.append(z)
            continue
        # a genuine multiple root of the fixed-point form is parabolic
        # (multiplier exactly 1); anything else is distinct roots the
        # cluster radius glued together, so split them back into seeds
        # and let the repulsion pull them apart
        lam = engine.multipliers(n, [r.location])[0]
        if abs(lam - 1.0) <= 1e-3:
            held.append((z, r.multiplicity))
        else:
            spread = 1e-4 * (1.0 + abs(z))
            for j in range(r.multiplicity):
                angle = 2.0 * math.pi * j / r.multiplicity + 0.7390851332151607
                seeds.append(z + spread * complex(math.cos(angle), math.sin(angle)))

    locations: list[ProjectivePoint] = []
    if seeds:
        seed_arr = np.array(seeds, dtype=complex)
        _, res_seed = engine.newton_data(n, seed_arr)
        polished, res_new = _functional_aberth_polish(engine, n, seeds, held)
        keep_new = res_new <= res_seed
        final = np.where(keep_new, polished, seed_arr)
        res_final = np.where(keep_new, res_new, res_seed)
        worst = float(res_final.max()) if len(final) else 0.0
        if worst > _FUNCTIONAL_GATE:
            raise NoConvergence(
                f"periodic point of level {n} failed functional verification",
                worst,
            )
        # two supposedly distinct points this close mean a root was lost
        # somewhere: refuse to emit a silently wrong spectrum
        if len(final) > 1:
            dm = _chordal_matrix(final)
            np.fill_diagonal(dm, np.inf)
            closest = float(dm.min())
            if closest < 1e-9:
                raise NoConvergence(
                    f"level-{n} periodic points collided after polish", closest
                )
        locations = [ProjectivePoint.from_affine(z) for z in final]

    all_points: list[tuple[ProjectivePoint, int]] = [(loc, 1) for loc in locations]
    all_points.extend((ProjectivePoint.from_affine(z), mult) for z, mult in held)
    all_points.extend((r.location, r.multiplicity) for r in inf_roots)
    lams = engine.multipliers(n, [loc for loc, _ in all_points])
    pts = [PeriodicPoint(loc, mult, complex(lam))
           for (loc, mult), lam in zip(all_points, lams)]
    pps = PeriodicPointSet(n, tuple(pts))
    expected = f.degree**n + 1
    if pps.total_multiplicity != expected:
        raise AssertionError(
            f"periodic point count {pps.total_multiplicity} != {expected}; "
            "root multiplicity accounting is broken"
        )
    return pps


def periodic_points(f: RationalMap, n: int,
                    max_roots: int = DEFAULT_MAX_ROOTS) -> PeriodicPointSet:
    """All d^n + 1 fixed points of f^n with multiplicities and multipliers."""
    g = iterate(f, n, max_roots)
    return _periodic_points_from(f, g, n)


def elementary_symmetric(values) -> list[complex]:
    """e_1 .. e_N of a multiset, by incremental product expansion."""
    vals = np.asarray(list(values), dtype=complex)
    n = len(vals)
    e = np.zeros(n + 1, dtype=complex)
    e[0] = 1.0
    for v in vals:
        e[1:] = e[1:] + v * e[:-1]
    return [complex(x) for x in e[1:]]


def spectrum_level(f: RationalMap, n: int,
                   max_roots: int = DEFAULT_MAX_ROOTS) -> tuple[complex, ...]:
    """Elementary symmetric values of the level-n multiplier multiset."""
    pps = periodic_points(f, n, max_roots)
    return tuple(elementary_symmetric(pps.multipliers()))


def periodic_point_levels(f: RationalMap, max_period: int,
                          max_roots: int = DEFAULT_MAX_ROOTS) -> list[PeriodicPointSet]:
    """Periodic point sets for every level 1..max_period.

    One composition chain serves all levels, so this is much cheaper
    than calling periodic_points per level.
    """
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    if f.degree**max_period + 1 > max_roots:
        raise BudgetExceeded(
            f"level {max_period} needs {f.degree ** max_period + 1} points; cap is {max_roots}"
        )
    out = []
    g = f
    for n in range(1, max_period + 1):
        out.append(_periodic_points_from(f, g, n))
        if n < max_period:
            g = compose(f, g)
    return out


def _multiplier_spectrum(degree: int, data: list[PeriodicPointSet]) -> MultiplierSpectrum:
    levels = tuple(tuple(elementary_symmetric(pps.multipliers())) for pps in data)
    return MultiplierSpectrum(degree, len(data), levels)


def _length_spectrum(degree: int, data: list[PeriodicPointSet]) -> LengthSpectrum:
    levels = tuple(
        tuple(x.real for x in elementary_symmetric([abs(l) for l in pps.multipliers()]))
        for pps in data
    )
    return LengthSpectrum(degree, len(data), levels)


def spectrum(f: RationalMap, max_period: int,
             max_roots: int = DEFAULT_MAX_ROOTS) -> MultiplierSpectrum:
    """Levels 1..max_period of the multiplier spectrum."""
    return _multiplier_spectrum(f.degree, periodic_point_levels(f, max_period, max_roots))


def length_spectrum(f: RationalMap, max_period: int,
                    max_roots: int = DEFAULT_MAX_ROOTS) -> LengthSpectrum:
    """Same construction applied to the multiplier moduli."""
    return _length_spectrum(f.degree, periodic_point_levels(f, max_period, max_roots))


# ---------------------------------------------------------------------------
# The companion-trace oracle
# ---------------------------------------------------------------------------

def _mult_matrix(vector: np.ndarray, monic: np.ndarray) -> np.ndarray:
    """Matrix of multiplication by `vector` in C[z]/(monic)."""
    m = len(monic) - 1
    cur = np.zeros(m, dtype=complex)
    cur[: len(vector)] = vector
    cols = []
    for _ in range(m):
        cols.append(cur)
        top = cur[m - 1]
        nxt = np.empty(m, dtype=complex)
        nxt[0] = 0.0
        nxt[1:] = cur[: m - 1]
        nxt = nxt - top * monic[:m]
        cur = nxt
    return np.stack(cols, axis=1)


_ORACLE_DTYPE = np.clongdouble if np.finfo(np.clongdouble).precision > 15 else np.complex128


def _iterate_forms_extended(f: RationalMap, n: int):
    """Forms of f^n computed in the widest complex dtype.

    The oracle reads the iterate through its coefficients, where the
    problem conditioning amplifies every rounding error; recomputing the
    composition chain in extended precision keeps the oracle's own error
    below the comparison tolerances.
    """
    base_p = f.p.astype(_ORACLE_DTYPE)
    base_q = f.q.astype(_ORACLE_DTYPE)
    p, q = base_p, base_q
    for _ in range(n - 1):
        new_p, new_q = substitute_forms(base_p, base_q, p, q)
        scale = max(float(np.max(np.abs(new_p))), float(np.max(np.abs(new_q))))
        p, q = new_p / scale, new_q / scale
    return p, q


def power_sums_oracle(f: RationalMap, n: int, kmax: int,
                      max_points: int = ORACLE_MAX_POINTS) -> list[complex]:
    """Power sums of the level-n multipliers, computed without root extraction.

    The derivative of f^n is evaluated on the companion matrix of the
    monic affine fixed-point polynomial, working in the quotient algebra;
    power sums are traces of powers of that operator. A fixed point at
    infinity contributes through the chart derivative separately.

    Raises SingularReduction when the derivative's denominator is not
    invertible modulo the fixed-point polynomial; callers fall back to
    the root pipeline.
    """
    total = f.degree**n + 1
    if total > max_points:
        raise BudgetExceeded(f"oracle supports up to {max_points} points, got {total}")
    gp, gq = _iterate_forms_extended(f, n)
    m = len(gp) - 1
    form = np.zeros(m + 2, dtype=_ORACLE_DTYPE)
    form[: m + 1] += gp
    form[1:] -= gq
    end = len(form)
    while end > 1 and form[end - 1] == 0:
        end -= 1
    affine = form[:end]
    deg_affine = len(affine) - 1
    deficit = (m + 1) - deg_affine

    sums = np.zeros(kmax, dtype=_ORACLE_DTYPE)
    if deficit > 0:
        # the multiplier at infinity through the chart map w = 1/z
        wp = gq[::-1]
        wq = gp[::-1]
        nv = wp[0]
        dv = wq[0]
        ndv = wp[1] if m >= 1 else 0.0
        ddv = wq[1] if m >= 1 else 0.0
        if dv == 0:
            raise SingularReduction("chart derivative at infinity is 0/0")
        lam_inf = (ndv * dv - nv * ddv) / (dv * dv)
        for k in range(1, kmax + 1):
            sums[k - 1] += deficit * lam_inf**k

    if deg_affine >= 1:
        monic = affine / affine[-1]
        num = npoly.polysub(
            np.convolve(npoly.polyder(gp), gq),
            np.convolve(gp, npoly.polyder(gq)),
        )
        den = np.convolve(gq, gq)
        num_red = _poly_mod(num, monic)
        den_red = _poly_mod(den, monic)
        ma = _mult_matrix(num_red, monic)
        mb = _mult_matrix(den_red, monic)
        if _rcond_estimate(mb.astype(complex)) <= 1e-12:
            raise SingularReduction(
                "derivative denominator not invertible modulo the fixed-point polynomial"
            )
        x = _solve_extended(mb, ma)
        power = np.eye(deg_affine, dtype=x.dtype)
        for k in range(1, kmax + 1):
            power = power @ x
            sums[k - 1] += np.trace(power)
    # hand back the extended scalars: converting power sums to elementary
    # values cancels many orders of magnitude, and a float64 round trip
    # here would throw those digits away before the cancellation happens
    return list(sums)


def _solve_extended(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """b^{-1} a by Gaussian elimination in the widest complex dtype."""
    m = b.astype(_ORACLE_DTYPE)
    rhs = a.astype(_ORACLE_DTYPE)
    n = len(m)
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(m[col:, col])))
        if m[pivot, col] == 0:
            raise SingularReduction("exactly singular reduction matrix")
        if pivot != col:
            m[[col, pivot]] = m[[pivot, col]]
            rhs[[col, pivot]] = rhs[[pivot, col]]
        factors = m[col + 1 :, col] / m[col, col]
        m[col + 1 :] -= factors[:, None] * m[col]
        rhs[col + 1 :] -= factors[:, None] * rhs[col]
    for col in range(n - 1, -1, -1):
        rhs[col] = (rhs[col] - m[col, col + 1 :] @ rhs[col + 1 :]) / m[col, col]
    return rhs


def _poly_mod(a: np.ndarray, monic: np.ndarray) -> np.ndarray:
    if len(a) < len(monic):
        return np.asarray(a, dtype=complex)
    _, rem = npoly.polydiv(np.asarray(a, dtype=complex), np.asarray(monic, dtype=complex))
    return np.atleast_1d(rem)


def _rcond_estimate(mat: np.ndarray) -> float:
    try:
        cond = np.linalg.cond(mat)
    except np.linalg.LinAlgError:
        return 0.0
    if not math.isfinite(cond) or cond == 0:
        return 0.0
    return 1.0 / float(cond)


def newton_to_elementary(powersums) -> list[complex]:
    """Elementary symmetric values from power sums via Newton's identities.

    The alternating recursion cancels heavily when the value spread is
    wide (p_k grows like the largest value to the k-th power while e_k
    stays moderate), so the arithmetic runs in the widest complex dtype
    and only the result is narrowed.
    """
    p = np.asarray(list(powersums), dtype=_ORACLE_DTYPE)
    e = np.zeros(len(p) + 1, dtype=_ORACLE_DTYPE)
    e[0] = 1.0
    for k in range(1, len(p) + 1):
        acc = _ORACLE_DTYPE(0.0)
        for j in range(1, k + 1):
            acc += (-1) ** (j - 1) * e[k - j] * p[j - 1]
        e[k] = acc / k
    return [complex(v) for v in e[1:]]


# ---------------------------------------------------------------------------
# Self-tests and comparison
# ---------------------------------------------------------------------------

def fixed_point_index_sum(pps: PeriodicPointSet) -> complex:
    """Sum of multiplicity/(1 - multiplier); equals 1 for genuine map levels."""
    total = 0.0 + 0.0j
    for p in pps.points:
        if abs(p.multiplier - 1.0) <= PARABOLIC_GUARD:
            raise ParabolicPresent(
                f"multiplier {p.multiplier} within {PARABOLIC_GUARD} of 1"
            )
        total += p.multiplicity / (1.0 - p.multiplier)
    return total


def compare_spectra(a: MultiplierSpectrum, b: MultiplierSpectrum,
                    tol: float = 1e-8) -> tuple[bool, float]:
    """Scaled sup-distance between spectra; equal iff distance <= tol.
    An inf or nan entry has no distance and raises NonFiniteSpectrum."""
    if a.degree != b.degree or a.max_period != b.max_period:
        raise ShapeMismatch(
            f"cannot compare (d={a.degree}, n={a.max_period}) "
            f"with (d={b.degree}, n={b.max_period})"
        )
    dist = 0.0
    for la, lb in zip(a.levels, b.levels):
        for ea, eb in zip(la, lb):
            if not (cmath.isfinite(ea) and cmath.isfinite(eb)):
                raise NonFiniteSpectrum(f"cannot compare spectrum entries {ea} and {eb}")
            dist = max(dist, abs(ea - eb) / max(1.0, abs(ea), abs(eb)))
    return dist <= tol, dist


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------

# cell boundaries sit at an irrational offset so that the integer and
# dyadic ratios structured spectra actually produce can never land on one
_GRID_PHASE = 0.3819660112501051


def _quantize_entry(e: complex, quantum: float) -> tuple[int, int, int]:
    """Relative quantization: grid step = quantum * 2**round(log2 |e|).

    The power-of-two magnitude scale keeps the grid identical for values
    that agree to much better than the quantum, while still preserving
    magnitude information at relative resolution `quantum`.
    """
    if not cmath.isfinite(e):
        raise NonFiniteSpectrum(f"cannot quantize spectrum entry {e}")
    mag = abs(e)
    exp2 = int(round(math.log2(mag))) if mag > 1.0 else 0
    step = quantum * 2.0**exp2
    return (
        int(math.floor(e.real / step + _GRID_PHASE)),
        int(math.floor(e.imag / step + _GRID_PHASE)),
        exp2,
    )


def quantized_levels(s: MultiplierSpectrum, quantum: float = DEFAULT_QUANTUM):
    """Grid-snapped (re, im) values per level, as stored in the catalog."""
    out = []
    for level in s.levels:
        snapped = []
        for e in level:
            qre, qim, exp2 = _quantize_entry(e, quantum)
            step = quantum * 2.0**exp2
            snapped.append((qre * step, qim * step))
        out.append(snapped)
    return out


def fingerprint(s: MultiplierSpectrum, quantum: float = DEFAULT_QUANTUM) -> SpectrumFingerprint:
    """Stable 64-bit FNV-1a digest of the quantized spectrum."""
    if quantum <= 0:
        raise ValueError("quantum must be positive")
    data = b"".join(struct.pack("<qqq", *_quantize_entry(e, quantum))
                    for level in s.levels for e in level)
    return SpectrumFingerprint(_fnv64(data), quantum)


# ---------------------------------------------------------------------------
# Disjoint-type recovery from the spectrum alone
# ---------------------------------------------------------------------------

def zero_multiplier_count(level) -> int:
    """Number of vanishing multipliers read off the elementary values.

    If exactly z multipliers vanish, the top z elementary symmetric
    values vanish and the next one does not, so z is the length of the
    maximal vanishing tail.
    """
    entries = [complex(e) for e in level]
    scale = max(1.0, max(abs(e) for e in entries))
    count = 0
    for e in reversed(entries):
        if abs(e) <= ZERO_TAIL_REL_TOL * scale:
            count += 1
        else:
            break
    return count


def disjoint_type_from_spectrum(s: MultiplierSpectrum, d: int | None = None) -> DisjointType:
    """Recover superattracting-cycle periods from zero-multiplier counts.

    A cycle of exact period p contributes p vanishing multipliers at
    every level it divides, so the level counts z_n satisfy
    z_n = sum over p | n of p * c_p; the cycle counts c_p are solved
    greedily level by level. Raises InconsistentZeroCounts when some
    level admits no nonnegative integer solution.
    """
    degree = d if d is not None else s.degree
    counts: dict[int, int] = {}
    for n, level in enumerate(s.levels, start=1):
        z_n = zero_multiplier_count(level)
        rem = z_n - sum(p * c for p, c in counts.items() if n % p == 0)
        if rem < 0 or rem % n != 0:
            raise InconsistentZeroCounts(n, rem)
        counts[n] = rem // n
    periods: list[int] = []
    for p in sorted(counts):
        periods.extend([p] * counts[p])
    return DisjointType(tuple(periods), complete=(len(periods) == 2 * degree - 2))
