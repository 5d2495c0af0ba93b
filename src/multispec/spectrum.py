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
from dataclasses import dataclass, replace

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
    RationalMap,
    _OrbitDifferentials,
    _check_budget,
    compose,
    iterate,
)
from .rootfind import _block_rows, _repulsion, _trim_leading, binary_form_roots

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

def _fixed_form(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Coefficients of Y*P - X*Q, one formal degree above the pair, in its dtype."""
    out = np.zeros(len(p) + 1, dtype=np.result_type(p, q))
    out[:-1] += p
    out[1:] -= q
    return out


def _fixed_form_of(g: RationalMap) -> np.ndarray:
    """The fixed form of g, scaled to unit largest coefficient."""
    out = _fixed_form(g.p, g.q)
    scale = float(np.max(np.abs(out)))
    if scale > 0:
        out = out / scale
    return out


def fixed_point_form(f: RationalMap, n: int) -> np.ndarray:
    """The degree d^n + 1 form whose projective roots are the f^n-fixed points."""
    return _fixed_form_of(iterate(f, n))


def _functional_aberth_polish(engine: _OrbitDifferentials, n: int, approx: list[complex],
                              held: list[tuple[complex, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Joint polish of the simple affine periodic points.

    Simultaneous Ehrlich-Aberth iteration whose Newton ratio comes from
    the orbit recursion. Mutual repulsion keeps approximations from
    collapsing onto one root when the form-based starting points are
    poor; `held` lists clustered (multiple) roots that stay fixed but
    still repel with their multiplicity. The first sweep checks the seeds:
    per point the polish returns the better of seed and polished value,
    with that value's functional residual.
    """
    z = np.array(approx, dtype=complex)
    m = len(z)
    # herding a fully garbage seed set takes a couple of sweeps per point
    max_iter = max(200, 2 * m)
    target = 1e-13
    frozen = np.zeros(m, dtype=bool)
    res_all = np.full(m, np.inf)
    best_worst = math.inf
    most_frozen = 0
    since_improve = 0
    for sweep in range(max_iter):
        active = ~frozen
        ratios_a, res_a = engine.newton_data(n, z[active])
        res_all[active] = res_a
        if sweep == 0:
            seed_z, seed_res = z.copy(), res_all.copy()
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
        # only unfrozen rows move; each still sums over all m points
        live = np.flatnonzero(~frozen)
        zl = z[live]
        repulsion = _repulsion(z, zl, live)
        for w, mult in held:
            gap = zl - w
            gap = np.where(gap == 0, 1e-30, gap)
            repulsion = repulsion + mult / gap
        denom = 1.0 - ratios[live] * repulsion
        denom = np.where(denom == 0, 1.0, denom)
        step = ratios[live] / denom
        # cap the step so a point cannot tunnel across the periodic set
        cap = 0.25 * (1.0 + np.abs(zl))
        mag = np.abs(step)
        step = np.where(mag > cap, step * (cap / np.where(mag == 0, 1.0, mag)), step)
        z[live] = zl - step
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
    keep = res_all <= seed_res
    return np.where(keep, z, seed_z), np.where(keep, res_all, seed_res)


# post-polish functional gate: points worse than this are garbage
_FUNCTIONAL_GATE = 1e-7


def _closest_pair(z: np.ndarray) -> float:
    """The smallest chordal distance between two of the affine points z, in row blocks."""
    m = len(z)
    w = 1.0 / np.sqrt(1.0 + np.abs(z) ** 2)
    step = _block_rows(m)
    mins = []
    for lo in range(0, m, step):
        d = np.abs(z[lo : lo + step, None] - z[None, :])
        d *= w[lo : lo + step, None]
        d *= w[None, :]
        d.reshape(-1)[lo :: m + 1] = np.inf  # the block's share of the diagonal
        mins.append(d.min())
        del d  # freed before the next block is formed
    return float(np.min(mins))  # np.min, not min(): a nan propagates from any block


def _periodic_points_from(engine: _OrbitDifferentials, g: RationalMap, n: int) -> PeriodicPointSet:
    """The level-n periodic points of engine's map, seeded from g = f^n."""
    form = _fixed_form_of(g)
    # Root extraction here only seeds the functional polish, which
    # re-verifies every simple point against f^n(z) = z itself, so it runs
    # with no residual gate: the root finder's default tolerance is
    # unreachable for fixed-point forms of deep iterates whose coefficient
    # mass concentrates (their values sit below evaluation noise near the
    # periodic points), and an occasional unconverged seed is repaired by
    # the polish rather than reported.
    rs = binary_form_roots(form, g.degree + 1, residual_tol=math.inf)

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
        final, res_final = _functional_aberth_polish(engine, n, seeds, held)
        worst = float(res_final.max())
        if worst > _FUNCTIONAL_GATE:
            raise NoConvergence(
                f"periodic point of level {n} failed functional verification",
                worst,
            )
        # two supposedly distinct points this close mean a root was lost
        # somewhere: refuse to emit a silently wrong spectrum
        if len(final) > 1:
            closest = _closest_pair(final)
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
    expected = engine.degree**n + 1
    if pps.total_multiplicity != expected:
        raise AssertionError(
            f"periodic point count {pps.total_multiplicity} != {expected}; "
            "root multiplicity accounting is broken"
        )
    return pps


def periodic_points(f: RationalMap, n: int) -> PeriodicPointSet:
    """All d^n + 1 fixed points of f^n with multiplicities and multipliers."""
    return _periodic_points_from(_OrbitDifferentials(f), iterate(f, n), n)


def elementary_symmetric(values) -> list[complex]:
    """e_1 .. e_N of a multiset, by incremental product expansion."""
    vals = np.asarray(list(values), dtype=complex)
    n = len(vals)
    e = np.zeros(n + 1, dtype=complex)
    e[0] = 1.0
    for v in vals:
        e[1:] = e[1:] + v * e[:-1]
    return [complex(x) for x in e[1:]]


def spectrum_level(f: RationalMap, n: int) -> tuple[complex, ...]:
    """Elementary symmetric values of the level-n multiplier multiset."""
    pps = periodic_points(f, n)
    return tuple(elementary_symmetric(pps.multipliers()))


def periodic_point_levels(f: RationalMap, max_period: int) -> list[PeriodicPointSet]:
    """Periodic point sets for every level 1..max_period.

    One composition chain and one orbit engine serve all levels, so this
    is much cheaper than calling periodic_points per level.
    """
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    _check_budget(f.degree, max_period)
    engine = _OrbitDifferentials(f)
    out = []
    g = f
    for n in range(1, max_period + 1):
        out.append(_periodic_points_from(engine, g, n))
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


def spectrum(f: RationalMap, max_period: int) -> MultiplierSpectrum:
    """Levels 1..max_period of the multiplier spectrum."""
    return _multiplier_spectrum(f.degree, periodic_point_levels(f, max_period))


def length_spectrum(f: RationalMap, max_period: int) -> LengthSpectrum:
    """Same construction applied to the multiplier moduli."""
    return _length_spectrum(f.degree, periodic_point_levels(f, max_period))


# ---------------------------------------------------------------------------
# The companion-trace oracle
# ---------------------------------------------------------------------------

def _mult_matrix(vector: np.ndarray, monic: np.ndarray) -> np.ndarray:
    """Matrix of multiplication by `vector` in C[z]/(monic)."""
    m = len(monic) - 1
    cur = np.zeros(m, dtype=monic.dtype)
    cur[: len(vector)] = vector
    cols = []
    for _ in range(m):
        cols.append(cur)
        top = cur[m - 1]
        nxt = np.empty(m, dtype=monic.dtype)
        nxt[0] = 0.0
        nxt[1:] = cur[: m - 1]
        nxt = nxt - top * monic[:m]
        cur = nxt
    return np.stack(cols, axis=1)


_ORACLE_DTYPE = np.clongdouble if np.finfo(np.clongdouble).precision > 15 else np.complex128


def power_sums_oracle(f: RationalMap, n: int, kmax: int) -> list[complex]:
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
    if total > ORACLE_MAX_POINTS:
        raise BudgetExceeded(f"oracle supports up to {ORACLE_MAX_POINTS} points, got {total}")
    # the oracle reads f^n through its coefficients, where conditioning
    # amplifies every rounding error, so the chain runs on a copy of f in the
    # widest dtype; its measured log-resultant lets compose check the law
    g = iterate(replace(f, p=f.p.astype(_ORACLE_DTYPE), q=f.q.astype(_ORACLE_DTYPE)), n)
    gp, gq = g.p, g.q
    affine = _trim_leading(_fixed_form(gp, gq))
    deg_affine = len(affine) - 1
    deficit = (g.degree + 1) - deg_affine

    sums = np.zeros(kmax, dtype=_ORACLE_DTYPE)
    if deficit > 0:
        # the multiplier at infinity through the chart map w = 1/z, whose
        # forms are (Q, P) reversed: value and slope at w = 0 sit on top
        nv, ndv = gq[-1], gq[-2]
        dv, ddv = gp[-1], gp[-2]
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
        # polydiv keeps the extended dtype, and a shorter dividend is its own remainder
        ma = _mult_matrix(npoly.polydiv(num, monic)[1], monic)
        mb = _mult_matrix(npoly.polydiv(den, monic)[1], monic)
        if _rcond_estimate(mb) <= 1e-12:
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


def _rcond_estimate(mat: np.ndarray) -> float:
    """1/cond of mat narrowed to complex128; 0 where that is singular (cond
    is inf), where LAPACK fails, or where it is not finite (a non-finite
    matrix never reaches LAPACK, which prints about it)."""
    with np.errstate(over="ignore"):
        mat = mat.astype(complex)
    if not np.all(np.isfinite(mat)):
        return 0.0
    try:
        return 1.0 / float(np.linalg.cond(mat))
    except np.linalg.LinAlgError:
        return 0.0


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


def _entry_scale(refusal: str, *entries: complex) -> float:
    """The entry rule of every spectrum reader.

    An inf or nan entry e raises NonFiniteSpectrum, with the reader's
    `refusal` formatted from the entries and e. Otherwise the result is
    an exact power-of-two scale under which the entries' moduli and
    pairwise differences are finite: 0.25 once a component reaches
    2**1022, else 1.0. Scaling is exact, so readers answer as the plain
    formulas do wherever those are finite.
    """
    scale = 1.0
    for e in entries:
        if not cmath.isfinite(e):
            raise NonFiniteSpectrum(refusal.format(*entries, entry=e))
        if abs(e.real) >= 2.0**1022 or abs(e.imag) >= 2.0**1022:
            scale = 0.25
    return scale


def compare_spectra(a: MultiplierSpectrum, b: MultiplierSpectrum,
                    tol: float = 1e-8) -> tuple[bool, float]:
    """Scaled sup-distance between spectra; equal iff distance <= tol.
    An inf or nan entry has no distance and raises NonFiniteSpectrum."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be non-negative and finite, got {tol}")
    if a.degree != b.degree or a.max_period != b.max_period:
        raise ShapeMismatch(
            f"cannot compare (d={a.degree}, n={a.max_period}) "
            f"with (d={b.degree}, n={b.max_period})"
        )
    dist = 0.0
    for la, lb in zip(a.levels, b.levels):
        for ea, eb in zip(la, lb):
            s = _entry_scale("cannot compare spectrum entries {} and {}", ea, eb)
            ea, eb = ea * s, eb * s
            dist = max(dist, abs(ea - eb) / max(s, abs(ea), abs(eb)))
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
    magnitude information at relative resolution `quantum`. The exponent
    stops at 1023, and there is no cell (ValueError) where the step, the
    entry in steps or its grid value is not finite.
    """
    scale = _entry_scale("cannot quantize spectrum entry {}", e)
    mag = abs(e * scale)
    exp2 = min(1023, round(math.log2(mag) - math.log2(scale))) if mag > scale else 0
    step = quantum * 2.0**exp2
    x, y = e.real / step, e.imag / step
    if math.isfinite(step) and math.isfinite(x) and math.isfinite(y):
        qre, qim = math.floor(x + _GRID_PHASE), math.floor(y + _GRID_PHASE)
        if math.isfinite(max(abs(qre), abs(qim)) * step):
            return qre, qim, exp2
    raise _no_cell(e, quantum)


def _no_cell(e: complex, quantum: float) -> ValueError:
    return ValueError(f"spectrum entry {e} has no grid cell at quantum {quantum!r}")


def _quantized(s: MultiplierSpectrum, quantum: float) -> list[list[tuple[int, int, int]]]:
    """_quantize_entry of every entry, per level, for a checked quantum."""
    if not 0 < quantum < math.inf:
        raise ValueError(f"quantum must be positive and finite, got {quantum}")
    return [[_quantize_entry(e, quantum) for e in level] for level in s.levels]


def quantized_levels(s: MultiplierSpectrum, quantum: float = DEFAULT_QUANTUM):
    """Grid-snapped (re, im) values per level, as stored in the catalog."""
    out = []
    for level in _quantized(s, quantum):
        snapped = []
        for qre, qim, exp2 in level:
            step = quantum * 2.0**exp2
            snapped.append((qre * step, qim * step))
        out.append(snapped)
    return out


def fingerprint(s: MultiplierSpectrum, quantum: float = DEFAULT_QUANTUM) -> SpectrumFingerprint:
    """Stable 64-bit FNV-1a digest of the quantized spectrum."""
    packed = []
    for level, cells in zip(s.levels, _quantized(s, quantum)):
        for e, cell in zip(level, cells):
            if not all(-(2**63) <= c < 2**63 for c in cell):  # packed as int64
                raise _no_cell(e, quantum)
            packed.append(struct.pack("<qqq", *cell))
    return SpectrumFingerprint(_fnv64(b"".join(packed)), quantum)


# ---------------------------------------------------------------------------
# Disjoint-type recovery from the spectrum alone
# ---------------------------------------------------------------------------

def zero_multiplier_count(level) -> int:
    """Number of vanishing multipliers read off the elementary values.

    If exactly z multipliers vanish, the top z elementary symmetric
    values vanish and the next one does not, so z is the length of the
    maximal vanishing tail. An inf or nan entry raises NonFiniteSpectrum.
    """
    entries = [complex(e) for e in level]
    scale = _entry_scale("cannot count zero multipliers in a level holding {entry}", *entries)
    moduli = [abs(e * scale) for e in entries]
    tail = ZERO_TAIL_REL_TOL * max(scale, max(moduli))
    return next((i for i, m in enumerate(reversed(moduli)) if m > tail), len(moduli))


def disjoint_type_from_spectrum(s: MultiplierSpectrum) -> DisjointType:
    """Recover superattracting-cycle periods from zero-multiplier counts.

    A cycle of exact period p contributes p vanishing multipliers at
    every level it divides, so the level counts z_n satisfy
    z_n = sum over p | n of p * c_p; the cycle counts c_p are solved
    greedily level by level. Raises NonFiniteSpectrum when a level holds
    an inf or nan entry, and InconsistentZeroCounts when some level
    admits no nonnegative integer solution.
    """
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
    return DisjointType(tuple(periods), complete=(len(periods) == 2 * s.degree - 2))
