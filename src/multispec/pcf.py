"""Critical-orbit analysis and the disjoint-type classification.

Each critical point's forward orbit is followed in homogeneous
coordinates until it settles into a cycle (or the step budget runs out).
The classification distinguishes orbits that land exactly on a cycle
from orbits that merely converge toward one: a superattracting basin
pulls every nearby orbit onto the cycle at machine precision within a
few steps, so the telltale of true preperiodicity is a distance history
that jumps straight from far to rounding-level without ever pausing in
between. Detection is budget-bounded and never claims non-finiteness,
only non-detection.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import SpectraDiffer
from .points import ProjectivePoint
from .poly import (
    Polynomial,
    RationalMap,
    _as_coeff_array,
    _eval_form,
    critical_data,
    orbit,
    orbit_multiplier,
    substitute_forms,
)
from .spectrum import DisjointType, compare_spectra, spectrum

SUPERATTRACTING_TOL = 1e-8
CYCLE_DETECT_TOL = 1e-9
CYCLE_MATCH_TOL = 1e-6
EXACT_LANDING_TOL = 1e-9
APPROACH_BAND_TOL = 1e-3
EXACT_WITNESS_TOL = 1e-9
SAMPLED_WITNESS_TOL = 1e-8
SAMPLED_WITNESS_POINTS = 50
_SAMPLED_WITNESS_SEED = 0x5EED5


@dataclass(frozen=True)
class CycleRecord:
    representative: ProjectivePoint
    exact_period: int
    multiplier: complex
    contains_critical: bool

    @property
    def is_superattracting(self) -> bool:
        return abs(self.multiplier) < SUPERATTRACTING_TOL


class OrbitFate(enum.Enum):
    LANDED = "landed"          # joined a cycle without a gradual approach
    CONVERGING = "converging"  # approaching a cycle but not on it
    WANDERING = "wandering"    # no cycle detected within the budget


@dataclass(frozen=True)
class OrbitEvidence:
    critical_point: ProjectivePoint
    fate: OrbitFate
    cycle: CycleRecord | None
    steps: int


class Classification(enum.Enum):
    DISJOINT_TYPE = "disjoint_type"
    PCF_NOT_DISJOINT = "pcf_not_disjoint"
    NOT_PCF_WITHIN_BUDGET = "not_pcf_within_budget"


@dataclass(frozen=True)
class ClassificationResult:
    status: Classification
    disjoint_type: DisjointType | None
    cycles: tuple[CycleRecord, ...]
    evidence: tuple[OrbitEvidence, ...]


def _detect_tail_cycle(points: list[ProjectivePoint], max_period: int):
    """Smallest period p <= max_period of the orbit's tail, or None."""
    m = len(points)
    for p in range(1, max_period + 1):
        if m < 2 * p + 1:
            break
        window_ok = all(
            points[m - 1 - j].chordal(points[m - 1 - j - p]) < CYCLE_DETECT_TOL
            for j in range(p + 1)
        )
        if window_ok:
            return points[m - p : m]
    return None


def _analyze_orbit(f: RationalMap, start: ProjectivePoint, max_period: int,
                   budget: int) -> tuple[OrbitFate, list[ProjectivePoint] | None, int]:
    points = orbit(f, start, budget)
    cycle = _detect_tail_cycle(points, max_period)
    if cycle is None:
        return OrbitFate.WANDERING, None, budget
    dists = [min(pt.chordal(c) for c in cycle) for pt in points]
    landing = next((k for k, d in enumerate(dists) if d <= EXACT_LANDING_TOL), None)
    if landing is None:
        return OrbitFate.CONVERGING, cycle, budget
    for k in range(landing):
        if EXACT_LANDING_TOL < dists[k] <= APPROACH_BAND_TOL:
            return OrbitFate.CONVERGING, cycle, landing
    return OrbitFate.LANDED, cycle, landing


def _same_cycle(a: list[ProjectivePoint], b: list[ProjectivePoint]) -> bool:
    if len(a) != len(b):
        return False
    return all(min(p.chordal(q) for q in b) < CYCLE_MATCH_TOL for p in a)


def detect_superattracting_cycles(f: RationalMap, max_period: int,
                                  tol: float = SUPERATTRACTING_TOL) -> list[CycleRecord]:
    """Superattracting cycles of period <= max_period reached by critical orbits."""
    records, _ = _critical_orbit_survey(f, max_period)
    return [r for r in records if r is not None and abs(r.multiplier) < tol]


def _critical_orbit_survey(f: RationalMap, max_period: int):
    budget = 4 * max_period + 50
    crit = critical_data(f)
    crit_points = [c.location for c in crit.points]

    found_cycles: list[list[ProjectivePoint]] = []
    cycle_records: list[CycleRecord] = []
    evidence: list[OrbitEvidence] = []

    for c in crit_points:
        fate, cycle, steps = _analyze_orbit(f, c, max_period, budget)
        record = None
        if cycle is not None:
            for idx, known in enumerate(found_cycles):
                if _same_cycle(cycle, known):
                    record = cycle_records[idx]
                    break
            else:
                period = len(cycle)
                lam = orbit_multiplier(f, cycle[0], period)
                contains = any(
                    min(cp.chordal(pt) for pt in cycle) < CYCLE_MATCH_TOL
                    for cp in crit_points
                )
                record = CycleRecord(cycle[0], period, lam, contains)
                found_cycles.append(cycle)
                cycle_records.append(record)
        evidence.append(OrbitEvidence(c, fate, record, steps))
    return cycle_records, evidence


def classify_disjoint_type(f: RationalMap, max_period: int = 4) -> ClassificationResult:
    """Hyperbolic-PCF-of-disjoint-type detection from critical orbits.

    Requires exactly 2d-2 distinct superattracting cycles, each holding a
    critical point, with every critical orbit landing exactly. A budget
    or detection miss yields NOT_PCF_WITHIN_BUDGET, never a claim of
    non-finiteness.
    """
    cycle_records, evidence = _critical_orbit_survey(f, max_period)
    need = 2 * f.degree - 2

    all_landed = all(ev.fate is OrbitFate.LANDED for ev in evidence)
    if not all_landed:
        return ClassificationResult(
            Classification.NOT_PCF_WITHIN_BUDGET, None,
            tuple(cycle_records), tuple(evidence),
        )
    supers = [r for r in cycle_records if r.is_superattracting]
    landed_super = all(
        ev.cycle is not None and ev.cycle.is_superattracting for ev in evidence
    )
    if landed_super and len(supers) == need and all(r.contains_critical for r in supers):
        periods = tuple(sorted(r.exact_period for r in supers))
        return ClassificationResult(
            Classification.DISJOINT_TYPE,
            DisjointType(periods, complete=True),
            tuple(cycle_records), tuple(evidence),
        )
    return ClassificationResult(
        Classification.PCF_NOT_DISJOINT, None,
        tuple(cycle_records), tuple(evidence),
    )


# ---------------------------------------------------------------------------
# Intertwining witnesses
# ---------------------------------------------------------------------------

def _as_form_pair(h) -> tuple[np.ndarray, np.ndarray, int]:
    if isinstance(h, RationalMap):
        return h.p, h.q, h.degree
    coeffs = h.coeffs if isinstance(h, Polynomial) else _as_coeff_array(h)
    deg = len(coeffs) - 1
    den = np.zeros(deg + 1, dtype=complex)
    den[0] = 1.0
    return np.asarray(coeffs, dtype=complex), den, deg


def semiconjugacy_check(f: RationalMap, g: RationalMap, h,
                        mode: str = "exact") -> bool:
    """Does h intertwine f and g, i.e. h o f = g o h?

    The graph of such an h is a curve invariant under the product map,
    which is the computable witness that f and g are intertwined. Exact
    mode compares the composed coefficient pairs up to one global scalar;
    sampled mode evaluates both sides at seeded points on the sphere.
    """
    hp, hq, hd = _as_form_pair(h)
    if hd < 1:
        raise ValueError("witness must have degree >= 1")
    left = substitute_forms(hp, hq, f.p, f.q)    # h o f
    right = substitute_forms(g.p, g.q, hp, hq)   # g o h

    if mode == "exact":
        lvec = np.concatenate(left)
        rvec = np.concatenate(right)
        lvec = lvec / np.max(np.abs(lvec))
        rvec = rvec / np.max(np.abs(rvec))
        idx = int(np.argmax(np.abs(lvec)))
        if rvec[idx] == 0:
            return False
        phase = lvec[idx] / rvec[idx]
        return bool(np.max(np.abs(lvec - phase * rvec)) <= EXACT_WITNESS_TOL)
    if mode == "sampled":
        rng = np.random.default_rng(_SAMPLED_WITNESS_SEED)
        for _ in range(SAMPLED_WITNESS_POINTS):
            r = 2.0 * math.sqrt(rng.uniform())
            theta = rng.uniform(0.0, 2.0 * math.pi)
            z = ProjectivePoint.from_affine(complex(r * math.cos(theta), r * math.sin(theta)))
            a = ProjectivePoint(_eval_form(left[0], z), _eval_form(left[1], z))
            b = ProjectivePoint(_eval_form(right[0], z), _eval_form(right[1], z))
            if a.chordal(b) > SAMPLED_WITNESS_TOL:
                return False
        return True
    raise ValueError(f"unknown mode {mode!r}; use 'exact' or 'sampled'")


# ---------------------------------------------------------------------------
# Spectrum / classifier cross-check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConsistencyReport:
    f_result: ClassificationResult
    g_result: ClassificationResult
    spectra_distance: float
    applicable: bool  # True when f is of disjoint type
    consistent: bool


def cross_spectrum_pcf_consistency(f: RationalMap, g: RationalMap,
                                   max_period: int,
                                   tol: float = 1e-8) -> ConsistencyReport:
    """Check that spectrum equality transports the disjoint-type status.

    Precondition: f and g have equal spectra at the tolerance (otherwise
    SpectraDiffer). When f is classified disjoint-type, g must come out
    disjoint-type with the same periods; any violation is flagged as a
    numerical inconsistency, never silently passed.
    """
    equal, dist = compare_spectra(spectrum(f, max_period), spectrum(g, max_period), tol)
    if not equal:
        raise SpectraDiffer(dist)
    cf = classify_disjoint_type(f, max_period)
    cg = classify_disjoint_type(g, max_period)
    applicable = cf.status is Classification.DISJOINT_TYPE
    consistent = True
    if applicable:
        consistent = (
            cg.status is Classification.DISJOINT_TYPE
            and cf.disjoint_type == cg.disjoint_type
        )
    return ConsistencyReport(cf, cg, dist, applicable, consistent)
