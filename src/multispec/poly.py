"""Binary forms, rational maps, and their calculus.

A degree-d rational map is stored as a pair of homogeneous degree-d
forms (P, Q) in (X, Y), each kept as the ascending coefficient array of
its dehomogenization: entry k is the coefficient of X^k Y^(d-k).  After
every algebraic operation the pair is rescaled so the largest
coefficient has modulus 1; without that, iteration grows coefficients
doubly exponentially and double precision dies within a few levels.

Degeneracy control has two regimes. At construction from user input the
resultant of the normalized pair is simply required to exceed a fixed
threshold. Under composition no fixed threshold can work: the resultant
of a legitimate iterate decays double-exponentially (measured: the
third iterate of a mild degree-4 polynomial already has log-resultant
-2639). Composition instead exploits the exact law

    Res(F o G) = Res(F)**deg(G) * Res(G)**(deg F)**2

to predict the composed log-resultant from the factors'; a measured
value that disagrees means the arithmetic actually lost the digits, and
only then is the composition rejected.

Derivatives are taken in charts: the affine chart z for points with
|z| <= 1 and the chart w = 1/z otherwise, so evaluation arguments never
leave the closed unit disk.  At a fixed point the chart derivative is
the multiplier and does not depend on the chart.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import parser
from .errors import BudgetExceeded, DegenerateMap, DegenerateTransform, DegreeTooLow, IndeterminateDerivative
from .points import ProjectivePoint, as_point
from .rootfind import binary_form_roots, roots

EPS_DEGENERATE = 1e-12
LOG_EPS_DEGENERATE = math.log(EPS_DEGENERATE)
# tolerated |measured - predicted| drift of the composed log-resultant,
# and the |log Res| range in which the comparison is numerically meaningful
RESULTANT_LAW_SLACK = 2.0
RESULTANT_LAW_RANGE = 150.0
GCD_CLUSTER_RADIUS = 1e-9
COEFF_TRIM_REL = 1e-12
VALUE_CLUSTER_TOL = 1e-6
DEFAULT_MAX_ROOTS = 2000


# ---------------------------------------------------------------------------
# Polynomials in one affine variable
# ---------------------------------------------------------------------------

class Polynomial:
    """Immutable polynomial with ascending complex coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if arr.ndim != 1 or len(arr) == 0:
            raise ValueError("need a one-dimensional, nonempty coefficient sequence")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ValueError("coefficients must be finite")
        end = len(arr)
        while end > 1 and arr[end - 1] == 0:
            end -= 1
        self._coeffs = tuple(complex(v) for v in arr[:end])

    @classmethod
    def from_roots(cls, root_values, leading: complex = 1.0) -> "Polynomial":
        return cls(leading * npoly.polyfromroots(list(root_values)))

    @property
    def coeffs(self) -> np.ndarray:
        return np.array(self._coeffs, dtype=complex)

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self._coeffs) == 1 and self._coeffs[0] == 0

    def __call__(self, z: complex) -> complex:
        return complex(npoly.polyval(z, self.coeffs))

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial([0])
        return Polynomial(npoly.polyder(self.coeffs))

    def __add__(self, other):
        other = _as_poly(other)
        return Polynomial(npoly.polyadd(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_poly(other)
        return Polynomial(npoly.polysub(self.coeffs, other.coeffs))

    def __rsub__(self, other):
        return _as_poly(other) - self

    def __mul__(self, other):
        other = _as_poly(other)
        return Polynomial(np.convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __neg__(self):
        return Polynomial(-self.coeffs)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("only nonnegative powers")
        out = Polynomial([1])
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        return f"Polynomial({parser.format_polynomial(self.coeffs)})"


def _as_poly(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, float, complex)):
        return Polynomial([value])
    return Polynomial(value)


def _as_coeff_array(value) -> np.ndarray:
    if isinstance(value, Polynomial):
        return value.coeffs
    if isinstance(value, (int, float, complex)):
        return np.array([value], dtype=complex)
    return np.atleast_1d(np.asarray(value, dtype=complex))


# ---------------------------------------------------------------------------
# Forms and the Sylvester degeneracy test
# ---------------------------------------------------------------------------

def _pad(arr: np.ndarray, length: int) -> np.ndarray:
    out = np.zeros(length, dtype=complex)
    out[: len(arr)] = arr
    return out


def _true_degree(arr: np.ndarray, rel_tol: float = COEFF_TRIM_REL) -> int:
    scale = float(np.max(np.abs(arr)))
    if scale == 0.0:
        return 0
    end = len(arr)
    while end > 1 and abs(arr[end - 1]) <= rel_tol * scale:
        end -= 1
    return end - 1


def sylvester_matrix(p, q, degree: int) -> np.ndarray:
    """Sylvester matrix of two forms of the given common formal degree."""
    p = _pad(_as_coeff_array(p), degree + 1)[::-1]
    q = _pad(_as_coeff_array(q), degree + 1)[::-1]
    size = 2 * degree
    s = np.zeros((size, size), dtype=complex)
    for i in range(degree):
        s[i, i : i + degree + 1] = p
        s[degree + i, i : i + degree + 1] = q
    return s


def sylvester_resultant(p, q, degree: int) -> complex:
    """Exact resultant via the Sylvester determinant (small degrees only)."""
    return complex(np.linalg.det(sylvester_matrix(p, q, degree)))


def _log_resultant(p: np.ndarray, q: np.ndarray, degree: int) -> float:
    """log |Res(P, Q)|, through an LU factorization so it never underflows."""
    _, logabs = np.linalg.slogdet(sylvester_matrix(p, q, degree))
    return float(logabs)


# ---------------------------------------------------------------------------
# Rational maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RationalMap:
    p: np.ndarray  # numerator form, ascending, length degree + 1
    q: np.ndarray  # denominator form
    degree: int
    log_resultant: float  # log |Res| of the normalized pair

    def evaluate(self, point) -> ProjectivePoint:
        pt = as_point(point)
        x = _eval_form(self.p, pt)
        y = _eval_form(self.q, pt)
        try:
            return ProjectivePoint(x, y)
        except ValueError:
            raise DegenerateMap("map evaluation collapsed to 0/0") from None

    def __call__(self, point) -> ProjectivePoint:
        return self.evaluate(point)

    def __repr__(self):
        return f"RationalMap({parser.format_map(self)})"


def _eval_form(c: np.ndarray, pt: ProjectivePoint) -> complex:
    m = len(c) - 1
    if abs(pt.x) <= abs(pt.y):
        return complex(npoly.polyval(pt.x / pt.y, c) * pt.y**m)
    return complex(npoly.polyval(pt.y / pt.x, c[::-1]) * pt.x**m)


def _finalize(p: np.ndarray, q: np.ndarray, degree: int,
              predicted_log_res: float | None = None) -> RationalMap:
    """Pad, normalize, freeze, and run the degeneracy gate.

    With no prediction (construction from raw coefficients) the gate is
    the fixed threshold |Res| > EPS_DEGENERATE on the normalized pair.
    With a prediction (composition) the gate is agreement with the
    resultant composition law, which stays meaningful at any depth.
    """
    p = _pad(np.asarray(p, dtype=complex), degree + 1)
    q = _pad(np.asarray(q, dtype=complex), degree + 1)
    scale = max(float(np.max(np.abs(p))), float(np.max(np.abs(q))))
    if scale == 0.0:
        raise DegenerateMap("both forms vanish identically")
    if not math.isfinite(scale):
        raise DegenerateMap("non-finite coefficients")
    p = p / scale
    q = q / scale
    measured = _log_resultant(p, q, degree)
    if predicted_log_res is None:
        if measured <= LOG_EPS_DEGENERATE:
            raise DegenerateMap(
                f"normalized degree-{degree} pair has |resultant| <= {EPS_DEGENERATE}"
            )
    else:
        expected = predicted_log_res - 2.0 * degree * math.log(scale)
        if not math.isfinite(measured):
            raise DegenerateMap(
                "composition produced an exactly singular form pair"
            )
        # Res is an exponentially ill-conditioned functional of the
        # coefficients: eps-level coefficient rounding legitimately moves
        # log|Res| by O(|log Res|) once the latter is large. The law is
        # only a meaningful consistency check while |log Res| is modest;
        # beyond that, precision exhaustion is caught downstream by the
        # root-stage residual gates.
        if abs(expected) <= RESULTANT_LAW_RANGE and \
                abs(measured - expected) > RESULTANT_LAW_SLACK:
            raise DegenerateMap(
                "numeric cancellation in composition: log-resultant "
                f"{measured:.3f} vs predicted {expected:.3f}"
            )
    p.flags.writeable = False
    q.flags.writeable = False
    return RationalMap(p, q, degree, measured)


def _approximate_gcd_reduce(num: np.ndarray, den: np.ndarray):
    """Remove common roots (within GCD_CLUSTER_RADIUS) from the pair.

    Returns the original arrays untouched when nothing cancels, so exact
    user input stays exact.
    """
    dn, dd = _true_degree(num), _true_degree(den)
    if dn < 1 or dd < 1:
        return num, den
    num_roots = list(roots(num[: dn + 1]).roots)
    den_roots = list(roots(den[: dd + 1]).roots)
    num_mult = [r.multiplicity for r in num_roots]
    den_mult = [r.multiplicity for r in den_roots]
    cancelled = False
    for i, rn in enumerate(num_roots):
        for j, rd in enumerate(den_roots):
            if den_mult[j] == 0 or num_mult[i] == 0:
                continue
            a, b = rn.location.affine, rd.location.affine
            if abs(a - b) <= GCD_CLUSTER_RADIUS * max(1.0, abs(a), abs(b)):
                drop = min(num_mult[i], den_mult[j])
                num_mult[i] -= drop
                den_mult[j] -= drop
                cancelled = True
    if not cancelled:
        return num, den

    def rebuild(root_list, mults, original, true_deg):
        surviving = []
        for r, m in zip(root_list, mults):
            surviving.extend([r.location.affine] * m)
        lead = original[true_deg]
        return lead * npoly.polyfromroots(surviving) if surviving else np.array([lead])

    return rebuild(num_roots, num_mult, num, dn), rebuild(den_roots, den_mult, den, dd)


def make_map(num, den) -> RationalMap:
    """Construct a rational map from numerator and denominator.

    Common factors are cancelled numerically (approximate common roots
    within GCD_CLUSTER_RADIUS) before the pair is homogenized, jointly
    normalized, and checked for degeneracy.
    """
    num = _as_coeff_array(num)
    den = _as_coeff_array(den)
    if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den))):
        raise ValueError("coefficients must be finite")
    if float(np.max(np.abs(den))) == 0.0:
        raise DegenerateMap("denominator is identically zero")
    if float(np.max(np.abs(num))) == 0.0:
        raise DegenerateMap("numerator is identically zero")
    num = num[: _true_degree(num) + 1]
    den = den[: _true_degree(den) + 1]
    num, den = _approximate_gcd_reduce(num, den)
    degree = max(_true_degree(num), _true_degree(den))
    if degree < 2:
        raise DegreeTooLow(f"effective degree {degree} after reduction; need >= 2")
    return _finalize(num, den, degree)


def rational_map_from_text(text: str) -> RationalMap:
    """Parse expression text and build the map it denotes."""
    tree = parser.parse_map(text)
    num, den = parser.expression_to_fraction(tree)
    return make_map(num, den)


# ---------------------------------------------------------------------------
# Composition, iteration, conjugation
# ---------------------------------------------------------------------------

def substitute_forms(outer_p, outer_q, inner_p, inner_q):
    """Substitute the inner form pair into the outer one.

    Arrays are dehomogenized coefficient vectors; the outer pair must be
    at full formal length. Returns the raw, unnormalized composed pair,
    computed in the widest complex dtype among the inputs (at least
    complex128).
    """
    forms = [np.asarray(c) for c in (outer_p, outer_q, inner_p, inner_q)]
    dtype = np.result_type(*forms, complex)
    outer_p, outer_q, inner_p, inner_q = (c.astype(dtype, copy=False) for c in forms)
    m = len(outer_p) - 1
    g = len(inner_p) - 1
    # powers inner_p^k and inner_q^(m-k)
    p_pows = [np.array([1], dtype=dtype)]
    q_pows = [np.array([1], dtype=dtype)]
    for _ in range(m):
        p_pows.append(np.convolve(p_pows[-1], inner_p))
        q_pows.append(np.convolve(q_pows[-1], inner_q))
    size = m * g + 1
    new_p = np.zeros(size, dtype=dtype)
    new_q = np.zeros(size, dtype=dtype)
    for k in range(m + 1):
        mixed = np.convolve(p_pows[k], q_pows[m - k])
        new_p[: len(mixed)] += outer_p[k] * mixed
        new_q[: len(mixed)] += outer_q[k] * mixed
    return new_p, new_q


def _composed_log_res(outer_deg: int, outer_log: float,
                      inner_deg: int, inner_log: float) -> float:
    # Res(F o G) = Res(F)**deg(G) * Res(G)**(deg F)**2
    return inner_deg * outer_log + outer_deg**2 * inner_log


def compose(f: RationalMap, g: RationalMap) -> RationalMap:
    """f after g; degree multiplies."""
    new_p, new_q = substitute_forms(f.p, f.q, g.p, g.q)
    predicted = _composed_log_res(f.degree, f.log_resultant, g.degree, g.log_resultant)
    return _finalize(new_p, new_q, f.degree * g.degree, predicted)


def iterate(f: RationalMap, n: int, max_roots: int = DEFAULT_MAX_ROOTS) -> RationalMap:
    """The n-th iterate as a rational map of degree d**n."""
    if n < 1:
        raise ValueError("iteration count must be >= 1")
    if f.degree**n + 1 > max_roots:
        raise BudgetExceeded(
            f"degree {f.degree}^{n} needs {f.degree ** n + 1} periodic points; cap is {max_roots}"
        )
    out = f
    for _ in range(n - 1):
        out = compose(f, out)
    return out


@dataclass(frozen=True)
class MobiusTransform:
    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        entries = (self.a, self.b, self.c, self.d)
        scale = max(abs(v) for v in entries)
        if scale == 0 or not math.isfinite(scale):
            raise DegenerateTransform("all entries vanish or are non-finite")
        if scale != 1.0:
            for name, v in zip("abcd", entries):
                object.__setattr__(self, name, complex(v) / scale)
        det = self.a * self.d - self.b * self.c
        if abs(det) <= 1e-14:
            raise DegenerateTransform(f"determinant {abs(det):.3e} below 1e-14")

    def inverse(self) -> "MobiusTransform":
        return MobiusTransform(self.d, -self.b, -self.c, self.a)

    def apply(self, point) -> ProjectivePoint:
        pt = as_point(point)
        return ProjectivePoint(self.a * pt.x + self.b * pt.y, self.c * pt.x + self.d * pt.y)

    @property
    def form_pair(self) -> tuple[np.ndarray, np.ndarray]:
        # degree-1 forms aX + bY and cX + dY, ascending in the affine variable
        return (
            np.array([self.b, self.a], dtype=complex),
            np.array([self.d, self.c], dtype=complex),
        )

    @property
    def log_resultant(self) -> float:
        return math.log(abs(self.a * self.d - self.b * self.c))


def conjugate(f: RationalMap, phi: MobiusTransform) -> RationalMap:
    """phi o f o phi^{-1}; same degree, different representative."""
    inv = phi.inverse()
    inv_p, inv_q = inv.form_pair
    mid_p, mid_q = substitute_forms(f.p, f.q, inv_p, inv_q)
    predicted = _composed_log_res(f.degree, f.log_resultant, 1, inv.log_resultant)
    mid = _finalize(mid_p, mid_q, f.degree, predicted)
    phi_p, phi_q = phi.form_pair
    new_p, new_q = substitute_forms(phi_p, phi_q, mid.p, mid.q)
    predicted = _composed_log_res(1, phi.log_resultant, f.degree, mid.log_resultant)
    return _finalize(new_p, new_q, f.degree, predicted)


# ---------------------------------------------------------------------------
# Chart-covariant differentiation
# ---------------------------------------------------------------------------

class _OrbitDifferentials:
    """The one walk of orbits in charts: f and its differential advanced
    together in homogeneous coordinates, many points per vectorized step.

    Each step evaluates f in the chart of the current point (z where
    |z| <= 1, w = 1/z otherwise), so every polynomial argument stays in
    the closed unit disk and orbits through infinity need no special
    treatment.
    """

    def __init__(self, f: RationalMap):
        self.degree = f.degree
        # degree-d forms and their degree-(d-1) partials, stacked so one
        # polyval call per chart evaluates a whole group
        self.forms = np.column_stack([f.p, f.q])
        self.forms_rev = self.forms[::-1].copy()
        self.partials = np.column_stack([
            _form_partial_x(f.p), _form_partial_y(f.p),
            _form_partial_x(f.q), _form_partial_y(f.q),
        ])
        self.partials_rev = self.partials[::-1].copy()

    def _step_values(self, x: np.ndarray, y: np.ndarray):
        """(P, Q, P_X, P_Y, Q_X, Q_Y) at all points, chart per point."""
        d = self.degree
        inner = np.abs(x) <= np.abs(y)
        outer = ~inner
        vals = np.empty((6, len(x)), dtype=complex)
        xi, yi = x[inner], y[inner]
        u = np.where(yi == 0, 0.0, xi / np.where(yi == 0, 1.0, yi))
        vals[0:2, inner] = npoly.polyval(u, self.forms) * yi**d
        vals[2:6, inner] = npoly.polyval(u, self.partials) * yi ** (d - 1)
        xo, yo = x[outer], y[outer]
        w = yo / xo
        vals[0:2, outer] = npoly.polyval(w, self.forms_rev) * xo**d
        vals[2:6, outer] = npoly.polyval(w, self.partials_rev) * xo ** (d - 1)
        return vals

    def newton_data(self, n: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per point: F(z)/F'(z) of the level-n fixed-point polynomial, and
        the chordal residual between f^n(z) and z.

        The orbit step and its z-derivative share one renormalization, so
        the Newton ratio comes out at full precision even where the
        iterate's monomial coefficients are numerically flat. Non-finite
        cases come back as ratio 0 with residual inf.
        """
        z = np.asarray(z, dtype=complex)
        x = z.copy()
        y = np.ones_like(x)
        dx = np.ones_like(x)
        dy = np.zeros_like(x)
        for _ in range(n):
            pv, qv, vpx, vpy, vqx, vqy = self._step_values(x, y)
            dx, dy = vpx * dx + vpy * dy, vqx * dx + vqy * dy
            x, y = pv, qv
            s = np.maximum(np.abs(x), np.abs(y))
            s = np.where((s == 0) | ~np.isfinite(s), 1.0, s)
            x, y, dx, dy = x / s, y / s, dx / s, dy / s
        num = x - z * y
        den = dx - y - z * dy
        bad = (den == 0) | ~np.isfinite(num) | ~np.isfinite(den)
        ratio = np.where(bad, 0.0, num / np.where(bad, 1.0, den))
        # chordal distance between (x, y) and (z, 1)
        residual = np.abs(x - y * z) / np.sqrt(
            (np.abs(x) ** 2 + np.abs(y) ** 2) * (np.abs(z) ** 2 + 1.0)
        )
        residual = np.where(np.isfinite(residual), residual, np.inf)
        return ratio, residual

    def multipliers(self, n: int, points) -> np.ndarray:
        """Derivative of f^n at each point, from its chart back to its chart.

        The chain rule runs per step: each factor is the derivative from
        the source chart to the image chart, the image chart is chosen
        from the renormalized image and serves as the next step's source,
        and the last step closes in the start chart, so at a point fixed
        by f^n the chart changes telescope away and the value is the
        multiplier. Per-step factors keep small multipliers at full
        relative accuracy; a difference of end-of-orbit values would
        bury a superattracting multiplier near 1e-46 under rounding near
        1e-15. The value is inf where the closing image lies on the start
        chart's pole, and nan where the orbit collapses to 0/0.
        """
        x = np.array([p.x for p in points], dtype=complex)
        y = np.array([p.y for p in points], dtype=complex)
        start_z = np.abs(x) <= np.abs(y)
        src_z = start_z
        lam = np.ones(len(x), dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(n):
                pv, qv, vpx, vpy, vqx, vqy = self._step_values(x, y)
                # (a, b): derivative of (P, Q) along the source chart coordinate
                a = np.where(src_z, y * vpx, x * vpy)
                b = np.where(src_z, y * vqx, x * vqy)
                s = np.maximum(np.abs(pv), np.abs(qv))
                s = np.where((s == 0) | ~np.isfinite(s), 1.0, s)
                x, y = pv / s, qv / s
                dst_z = start_z if i == n - 1 else np.abs(x) <= np.abs(y)
                num = np.where(dst_z, a * qv - pv * b, b * pv - qv * a)
                den = np.where(dst_z, qv, pv)
                lam = lam * (num / (den * den))
                src_z = dst_z
            if n >= 1:
                other = np.where(src_z, pv, qv)
                lam = np.where(den != 0, lam, np.where(other != 0, np.inf, np.nan))
        return lam


def orbit(f: RationalMap, start, steps: int) -> list[ProjectivePoint]:
    """start, f(start), ..., f^steps(start) in projective coordinates."""
    pts = [as_point(start)]
    for _ in range(steps):
        pts.append(f.evaluate(pts[-1]))
    return pts


def orbit_multiplier(f: RationalMap, start, n: int) -> complex:
    """Multiplier of f^n at a point fixed by f^n: chain rule over the orbit.

    The last step closes the loop in the starting point's chart, so the
    chart transitions telescope away exactly. The value is inf where f^n
    sends the point to the pole of that chart.
    """
    lam = complex(_OrbitDifferentials(f).multipliers(n, [as_point(start)])[0])
    if cmath.isnan(lam):
        raise DegenerateMap("map evaluation collapsed to 0/0")
    return lam


def derivative_at(f: RationalMap, point) -> complex:
    """Chart-covariant derivative of f at a point.

    The chart (z for |z| <= 1, w = 1/z otherwise) is applied on both
    sides, so at a fixed point the value is the multiplier.
    """
    try:
        return orbit_multiplier(f, point, 1)
    except DegenerateMap:
        raise IndeterminateDerivative("0/0 in both charts at this point") from None


# ---------------------------------------------------------------------------
# Critical points and values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalPoint:
    location: ProjectivePoint
    multiplicity: int
    value: ProjectivePoint


@dataclass(frozen=True)
class CriticalData:
    degree: int
    points: tuple[CriticalPoint, ...]
    distinct_value_count: int

    @property
    def total_multiplicity(self) -> int:
        return sum(p.multiplicity for p in self.points)


def _form_partial_x(c: np.ndarray) -> np.ndarray:
    m = len(c) - 1
    return np.array([(j + 1) * c[j + 1] for j in range(m)], dtype=complex)


def _form_partial_y(c: np.ndarray) -> np.ndarray:
    m = len(c) - 1
    return np.array([(m - j) * c[j] for j in range(m)], dtype=complex)


def critical_data(f: RationalMap) -> CriticalData:
    """Critical points (Wronskian roots, multiplicity included) and values."""
    w = np.convolve(_form_partial_x(f.p), _form_partial_y(f.q)) - np.convolve(
        _form_partial_y(f.p), _form_partial_x(f.q)
    )
    scale = float(np.max(np.abs(w)))
    if scale > 0:
        w = w / scale
    rs = binary_form_roots(w, 2 * f.degree - 2)
    records = []
    for r in rs.roots:
        records.append(CriticalPoint(r.location, r.multiplicity, f.evaluate(r.location)))
    distinct = _count_distinct([rec.value for rec in records])
    return CriticalData(f.degree, tuple(records), distinct)


def _count_distinct(points, tol: float = VALUE_CLUSTER_TOL) -> int:
    reps: list[ProjectivePoint] = []
    for pt in points:
        if all(pt.chordal(r) > tol for r in reps):
            reps.append(pt)
    return len(reps)


def is_simple(f: RationalMap) -> bool:
    """True when f has the maximal number 2d-2 of distinct critical values."""
    return critical_data(f).distinct_value_count == 2 * f.degree - 2
