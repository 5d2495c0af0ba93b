import dataclasses
import hashlib
import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from multispec import (
    BudgetExceeded,
    DegenerateMap,
    DegenerateTransform,
    DegreeTooLow,
    LattesParams,
    MobiusTransform,
    NumericFailure,
    PrecisionExhausted,
    ProjectivePoint,
    compose,
    conjugate,
    critical_data,
    derivative_at,
    is_simple,
    iterate,
    lattes_mult2,
    make_map,
    milnor_quadratic,
    power_map,
    random_map,
    random_mobius,
    rational_map_from_text,
    sylvester_resultant,
)
from multispec import poly
from multispec.points import as_point
from multispec.poly import _OrbitDifferentials


def coeffs_match(f, g, tol=1e-10):
    a = np.concatenate([f.p, f.q])
    b = np.concatenate([g.p, g.q])
    idx = int(np.argmax(np.abs(a)))
    phase = a[idx] / b[idx]
    return float(np.max(np.abs(b * phase - a))) <= tol


class TestMakeMap:
    def test_power_map_exact(self):
        f = make_map([0, 0, 1], [1])
        assert f.degree == 2
        assert list(f.p) == [0, 0, 1]
        assert list(f.q) == [1, 0, 0]

    def test_common_factor_reduces_then_degree_too_low(self):
        with pytest.raises(DegreeTooLow):
            make_map([0, 1, 1], [1, 1])  # (z^2+z)/(z+1) -> z

    def test_common_root_radius_boundary(self):
        # (z^2+z)/(z+1+eps): the roots -1 and -1-eps cancel only within 1e-9
        assert make_map([0, 1, 1], [1 + 1e-7, 1]).degree == 2
        with pytest.raises(DegreeTooLow):
            make_map([0, 1, 1], [1 + 1e-11, 1])

    def test_newton_map_shape_resultant_nonzero(self):
        # oracle: the Sylvester determinant itself
        f = make_map([0, -1, 0, 1], [-1, 0, 3])
        res = sylvester_resultant(f.p, f.q, f.degree)
        assert abs(res) > 1e-12

    def test_denominator_collapse_is_degenerate(self):
        with pytest.raises(DegenerateMap):
            make_map([0, 0, 1], [1e-14, 1e-15])

    def test_zero_numerator_rejected(self):
        with pytest.raises(DegenerateMap):
            make_map([0], [1, 0, 1])

    def test_zero_denominator_rejected(self):
        with pytest.raises(DegenerateMap, match="denominator is identically zero"):
            make_map([0, 0, 1], [0, 0])

    @pytest.mark.parametrize("num, den", [
        ([0, 0, math.nan], [1]), ([0, 0, 1], [math.inf, 1]), ([complex(0, math.nan), 0, 1], [1]),
    ])
    def test_non_finite_coefficients_rejected(self, num, den):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            make_map(num, den)

    def test_budget_refused_before_root_finding(self, monkeypatch):
        # no level of a degree-2000 map fits MAX_POINTS, so neither the
        # common-factor root finder nor the Sylvester matrix may run
        def never(*args):
            raise AssertionError("ran past the point budget")

        monkeypatch.setattr(poly, "roots", never)
        monkeypatch.setattr(poly, "_log_resultant", never)
        with pytest.raises(BudgetExceeded, match="level 1 needs 2601 points"):
            rational_map_from_text("z^2600+1")
        with pytest.raises(BudgetExceeded, match="level 1 needs 2601 points"):
            make_map([1.0] * 2601, [1.0, 2.0])
        # trailing zeros are trimmed first: a degree-2 pair padded past the cap
        with pytest.raises(AssertionError, match="past the point budget"):
            make_map([0, 0, 1] + [0] * 3000, [1, 3])
        # degree 1999 is inside the cap and reaches the root finder
        with pytest.raises(AssertionError, match="past the point budget"):
            make_map([1.0] * 2000, [1.0, 2.0])
        with pytest.raises(BudgetExceeded, match="level 1 needs 2001 points"):
            make_map([1.0] * 2001, [1.0, 2.0])

    def test_forms_are_read_only(self):
        f = random_map(2, 1)
        wide = dataclasses.replace(f, p=f.p.astype(np.clongdouble), q=f.q.astype(np.clongdouble))
        for g in (f, wide, MobiusTransform(1, 2, 0, 1)._map, compose(f, f)):
            for form in (g.p, g.q):
                assert not form.flags.writeable
                with pytest.raises(ValueError):
                    form[0] = 0


def _slogdet(p, q, degree):
    return float(np.linalg.slogdet(poly.sylvester_matrix(p, q, degree))[1])


def _monomial(degree, k, c):
    form = np.zeros(degree + 1, dtype=complex)
    form[k] = c
    return form


class TestLogResultant:
    # a form with one nonzero coefficient takes the closed form; the
    # oracle is the Sylvester determinant it replaces
    general = np.array([0.3 - 0.2j, -1.1, 0.4j, 2.0, 0.05 + 0.7j, -0.6])  # q_0 != q_5

    @pytest.mark.parametrize("k", [0, 2, 5], ids=["k=0", "middle", "k=D"])
    @pytest.mark.parametrize("c", [0.7, 0.6 - 0.45j], ids=["real", "complex"])
    def test_one_monomial_form_matches_slogdet(self, k, c):
        mono = _monomial(5, k, c)
        for p, q in ((mono, self.general), (self.general, mono)):
            assert poly._log_resultant(p, q, 5) == pytest.approx(_slogdet(p, q, 5), abs=1e-9)

    @pytest.mark.parametrize("kp, kq", [(4, 0), (0, 4), (1, 0)])
    def test_two_monomial_forms_match_slogdet(self, kp, kq):
        p, q = _monomial(4, kp, 0.5j), _monomial(4, kq, -0.25)
        expected = _slogdet(p, q, 4)
        assert poly._log_resultant(p, q, 4) == pytest.approx(expected, abs=1e-9)

    def test_oracle_dtype_forms_match_slogdet(self):
        from multispec.spectrum import _ORACLE_DTYPE

        # the companion-trace oracle composes in the widest complex dtype
        for f, n in ((rational_map_from_text("z^3"), 3), (rational_map_from_text("z^2+1"), 2)):
            g = iterate(dataclasses.replace(
                f, p=f.p.astype(_ORACLE_DTYPE), q=f.q.astype(_ORACLE_DTYPE)), n)
            assert g.p.dtype == _ORACLE_DTYPE
            measured = poly._log_resultant(g.p, g.q, g.degree)
            assert measured == pytest.approx(_slogdet(g.p, g.q, g.degree), abs=1e-9)
        wide = _monomial(5, 2, 0.6 - 0.45j).astype(_ORACLE_DTYPE)
        narrow = self.general.astype(_ORACLE_DTYPE)
        assert poly._log_resultant(wide, narrow, 5) == pytest.approx(
            _slogdet(wide, narrow, 5), abs=1e-9)

    @pytest.mark.parametrize("p, q", [
        ([0, 0, 1, 0], [0, 1, 2, 3]),    # X^2 Y and q_0 = 0: both vanish at z = 0
        ([2, 0, 0, 0], [1, 2, 3, 0]),    # Y^3 and q_3 = 0: both vanish at z = inf
        ([0, 1, 0, 0], [0, 0, 1j, 0]),   # X Y^2 against X^2 Y
        ([0, 2, 3, 1], [0, 0, 0, 1]),    # the monomial second: X^3 and p_0 = 0
    ])
    def test_shared_root_is_minus_infinity_as_in_slogdet(self, p, q):
        p, q = np.array(p, dtype=complex), np.array(q, dtype=complex)
        assert _slogdet(p, q, 3) == -math.inf
        assert poly._log_resultant(p, q, 3) == -math.inf

    def test_power_maps_form_no_sylvester_matrix(self, monkeypatch):
        def never(*args):
            raise AssertionError("formed a Sylvester matrix")

        monkeypatch.setattr(poly, "sylvester_matrix", never)
        h = compose(power_map(44), power_map(44))
        assert h.degree == 1936 and h.log_resultant == 0.0
        g = rational_map_from_text("z^1999+1")
        assert g.degree == 1999 and g.log_resultant == 0.0


class TestCompose:
    def test_power_maps(self):
        f = make_map([0, 0, 1], [1])       # z^2
        g = make_map([0, 0, 0, 1], [1])    # z^3
        h = compose(f, g)
        assert h.degree == 6
        assert coeffs_match(h, make_map([0] * 6 + [1], [1]), 1e-14)

    def test_budget_refused_before_substitution(self, monkeypatch):
        f = make_map([0] * 50 + [1], [1])

        def never(*args):
            raise AssertionError("ran past the point budget")

        for name in ("substitute_forms", "roots", "_log_resultant"):
            monkeypatch.setattr(poly, name, never)
        with pytest.raises(BudgetExceeded, match="level 1 needs 2501 points"):
            compose(f, f)

    def test_shifted_square(self):
        f = rational_map_from_text("z^2+1")
        g = rational_map_from_text("z^2")
        h = compose(f, g)
        assert coeffs_match(h, rational_map_from_text("z^4+1"), 1e-14)

    def test_random_pair_pointwise_identity(self):
        # oracle: evaluate f(g(x)) directly at sample points
        f = random_map(2, 21)
        g = random_map(2, 22)
        h = compose(f, g)
        rng = np.random.default_rng(23)
        for _ in range(20):
            x = ProjectivePoint.from_affine(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
            direct = f.evaluate(g.evaluate(x))
            assert h.evaluate(x).chordal(direct) < 1e-10
        assert h.degree == 4

    @pytest.mark.parametrize("measured, message", [
        (-math.inf, "exactly singular form pair"),
        (poly.RESULTANT_LAW_RANGE, "numeric cancellation in composition"),
    ], ids=["singular", "law-broken"])
    def test_past_double_precision_is_typed(self, monkeypatch, measured, message):
        f = rational_map_from_text("z^2+1")
        # only the composition measures the bad resultant; the law predicts about -5.5
        monkeypatch.setattr(poly, "_log_resultant", lambda p, q, degree: measured)
        with pytest.raises(PrecisionExhausted, match=message) as exc:
            compose(f, f)
        # existing handlers of either base still catch it
        assert isinstance(exc.value, DegenerateMap) and isinstance(exc.value, NumericFailure)

    def test_resultant_past_the_law_range_is_the_laws_value(self, monkeypatch):
        f = random_map(2, 1)
        g = iterate(f, 3)
        p, q = poly.substitute_forms(f.p, f.q, g.p, g.q)
        scale = float(np.max(np.abs(np.concatenate([p, q]))))
        law = 8 * f.log_resultant + 4 * g.log_resultant - 2 * 16 * math.log(scale)
        assert law < -poly.RESULTANT_LAW_RANGE

        def never(*args):
            raise AssertionError("measured a resultant the law does not compare")

        monkeypatch.setattr(poly, "_log_resultant", never)
        h = compose(f, g)
        assert h.degree == 16 and h.log_resultant == pytest.approx(law, rel=1e-12)

    def test_resultant_inside_the_law_range_is_measured(self, monkeypatch):
        f = rational_map_from_text("z^2+1")
        measured = []
        log_resultant = poly._log_resultant

        def recording(p, q, degree):
            measured.append(log_resultant(p, q, degree))
            return measured[-1]

        monkeypatch.setattr(poly, "_log_resultant", recording)
        h = compose(f, f)
        # the pair (X^4 + 2X^2Y^2 + 2Y^4, Y^4) scaled by 1/2 has Res (1/2)^4 * (1/2)^4
        assert measured == [h.log_resultant]
        assert h.log_resultant == pytest.approx(math.log(1 / 256), abs=1e-9)

    def test_forms_vanishing_at_one_end_are_refused(self):
        # both constant terms of the degree-1024 iterate underflow to zero
        with pytest.raises(PrecisionExhausted, match="exactly singular form pair"):
            iterate(random_map(2, 11), 10)

    @pytest.mark.skipif(np.finfo(np.clongdouble).precision <= 15,
                        reason="needs a complex dtype wider than complex128")
    def test_wide_forms_are_refused_by_their_double_ends(self, monkeypatch):
        # nonzero in the wide dtype, zero once read in complex128 as the
        # Sylvester matrix reads them
        f = random_map(2, 1)
        wide = dataclasses.replace(f, p=f.p.astype(np.clongdouble), q=f.q.astype(np.clongdouble))
        deep = iterate(wide, 3)
        tiny = np.ldexp(np.longdouble(1), -1100)
        p = np.array([tiny] + [0] * 15 + [1], dtype=np.clongdouble)
        q = np.array([tiny, 1] + [0] * 15, dtype=np.clongdouble)
        monkeypatch.setattr(poly, "substitute_forms", lambda *args: (p, q))
        with pytest.raises(PrecisionExhausted, match="exactly singular form pair"):
            compose(wide, deep)

    @pytest.mark.parametrize("p, q, message", [
        ([0] * 5, [0] * 5, "both forms vanish identically"),
        ([1, 0, math.inf, 0, 1], [1] * 5, "non-finite coefficients"),
        ([1, 0, 0, 0, 1], [1, math.nan, 0, 0, 0], "non-finite coefficients"),
    ], ids=["zero", "inf", "nan-in-q"])
    def test_degenerate_composed_forms_are_refused(self, monkeypatch, p, q, message):
        f = rational_map_from_text("z^2+1")
        forms = (np.array(p, dtype=complex), np.array(q, dtype=complex))
        monkeypatch.setattr(poly, "substitute_forms", lambda *args: forms)
        with pytest.raises(DegenerateMap, match=message):
            compose(f, f)


class TestIterate:
    def test_power_tower(self):
        f = make_map([0, 0, 1], [1])
        assert coeffs_match(iterate(f, 3), make_map([0] * 8 + [1], [1]), 1e-14)

    def test_identity_case(self):
        f = random_map(2, 5)
        assert iterate(f, 1) is f

    def test_against_compose_oracle(self):
        f = milnor_quadratic(3, 5)
        assert coeffs_match(iterate(f, 2), compose(f, f), 1e-12)

    def test_budget(self):
        f = make_map([0, 0, 1], [1])
        with pytest.raises(BudgetExceeded):
            iterate(f, 11)  # 2^11 + 1 > 2000

    def test_count_below_one_rejected(self):
        with pytest.raises(ValueError, match="iteration count"):
            iterate(make_map([0, 0, 1], [1]), 0)


class TestConjugate:
    def test_power_map_inversion_symmetry(self):
        f = make_map([0, 0, 1], [1])
        phi = MobiusTransform(0, 1, 1, 0)  # z -> 1/z
        assert coeffs_match(conjugate(f, phi), f, 1e-14)

    def test_scaling(self):
        f = make_map([0, 0, 1], [1])
        phi = MobiusTransform(2, 0, 0, 1)  # z -> 2z
        assert coeffs_match(conjugate(f, phi), rational_map_from_text("z^2/2"), 1e-14)

    def test_inverse_round_trip(self):
        for seed in range(8):
            f = random_map(2 + seed % 3, 600 + seed)
            phi = random_mobius(700 + seed)
            back = conjugate(conjugate(f, phi), phi.inverse())
            assert coeffs_match(back, f, 1e-10)

    def test_degenerate_transform_rejected(self):
        with pytest.raises(DegenerateTransform):
            MobiusTransform(1, 2, 2, 4)

    def test_zero_transform_rejected(self):
        with pytest.raises(DegenerateTransform, match="vanish"):
            MobiusTransform(0, 0, 0, 0)

    @pytest.mark.parametrize("slot", range(4))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan), complex(-math.inf, 0)])
    def test_non_finite_entry_rejected(self, slot, bad):
        # max() of the moduli passes over a nan anywhere but first
        entries = [1, 0, 0, 1]
        entries[slot] = bad
        with pytest.raises(DegenerateTransform, match="non-finite"):
            MobiusTransform(*entries)

    @pytest.mark.parametrize("d, digest", [
        (2, "81e85da1c078a3ebb377e51e592a247283f360435e7e11afc437455fcd3c0364"),
        (3, "3765cbb2753232d1142786caaf39f0175f9b3c142aacb2fd0901cd324e1d01bc"),
        (4, "91e206036510d7b77c5ec471fbc5025e2cd0defaefac11d6b321089663a72ce6"),
    ])
    def test_conjugate_bits_are_pinned(self, d, digest):
        # sha256 of the p, q and log_resultant bytes of five conjugates
        h = hashlib.sha256()
        for seed in range(5):
            g = conjugate(random_map(d, seed), random_mobius(1000 + seed))
            h.update(g.p.tobytes() + g.q.tobytes() + repr(g.log_resultant).encode())
        assert h.hexdigest() == digest


@pytest.mark.parametrize("x, y", [
    (1.0, float("nan")), (float("nan"), 1.0),
    (1.0, complex(0.0, float("nan"))), (complex(float("nan"), 0.0), 1.0),
    (1.0, float("inf")), (float("inf"), 1.0),
])
def test_projective_point_needs_finite_coordinates(x, y):
    # a nan second coordinate once passed, since max(1.0, nan) is 1.0
    with pytest.raises(ValueError):
        ProjectivePoint(x, y)


def test_as_point_coercions():
    assert as_point(math.inf) == ProjectivePoint.infinity()
    assert as_point(complex(0, -math.inf)).is_infinite
    assert as_point(2) == ProjectivePoint.from_affine(2)
    with pytest.raises(TypeError, match="cannot interpret"):
        as_point("0.5")


class TestDerivative:
    def test_square_at_one(self):
        f = make_map([0, 0, 1], [1])
        assert derivative_at(f, 1.0) == pytest.approx(2.0)

    def test_square_at_infinity(self):
        f = make_map([0, 0, 1], [1])
        assert derivative_at(f, ProjectivePoint.infinity()) == pytest.approx(0.0)

    def test_milnor_normal_form_fixed_multipliers(self):
        f = milnor_quadratic(3, 5)
        assert derivative_at(f, 0.0) == pytest.approx(3.0)
        assert derivative_at(f, ProjectivePoint.infinity()) == pytest.approx(5.0)

    def test_pole_is_infinite(self):
        f = rational_map_from_text("(z^2+1)/(z-1)")
        assert derivative_at(f, 1.0) == complex(np.inf, 0.0)

    def test_outer_chart_away_from_fixed_points(self):
        # |z| > 1: the derivative of w -> 1/f(1/w), i.e. f'(z) / (f(z)^2 w^2)
        f = rational_map_from_text("(z^2+1)/(z-1)")
        z = 3 + 1j
        fz = (z**2 + 1) / (z - 1)
        dfz = (2 * z * (z - 1) - (z**2 + 1)) / (z - 1) ** 2
        expected = dfz / (fz**2 * (1 / z) ** 2)
        assert abs(derivative_at(f, z) - expected) <= 1e-14 * abs(expected)


class TestCriticalData:
    def test_square(self):
        cd = critical_data(make_map([0, 0, 1], [1]))
        assert cd.total_multiplicity == 2
        assert cd.distinct_value_count == 2
        locs = {str(c.location) for c in cd.points}
        assert locs == {"0+0i", "inf"}

    def test_shifted_square(self):
        cd = critical_data(rational_map_from_text("z^2+z"))
        affine = [c for c in cd.points if not c.location.is_infinite]
        assert len(affine) == 1
        assert affine[0].location.affine == pytest.approx(-0.5)
        assert affine[0].value.affine == pytest.approx(-0.25)

    def test_composed_square_not_simple(self):
        f = rational_map_from_text("(z^2+1)^2")
        cd = critical_data(f)
        assert cd.total_multiplicity == 6
        assert cd.distinct_value_count == 3
        assert not is_simple(f)

    def test_distinct_values_cluster_within_1e_6(self):
        # chordal distance 1e-4 keeps two values apart, 1e-8 merges them
        assert poly._count_distinct([ProjectivePoint.from_affine(0j),
                                     ProjectivePoint.from_affine(1e-4)]) == 2
        assert poly._count_distinct([ProjectivePoint.from_affine(0j),
                                     ProjectivePoint.from_affine(1e-8)]) == 1

    def test_power_maps_not_simple_above_two(self):
        assert is_simple(make_map([0, 0, 1], [1]))
        assert not is_simple(make_map([0, 0, 0, 1], [1]))

    def test_riemann_hurwitz_totals(self):
        for seed in range(10):
            d = 2 + seed % 3
            f = random_map(d, 800 + seed)
            assert critical_data(f).total_multiplicity == 2 * d - 2

    def test_random_cubics_mostly_simple(self):
        simple = sum(1 for seed in range(100) if is_simple(random_map(3, 40_000 + seed)))
        assert simple >= 99

    # sha256 of the reprs of (location, multiplicity, value), recorded with
    # numpy 2.4.6 on x86-64: the Wronskian's partials must keep every bit
    @pytest.mark.parametrize("make, expected", [
        (lambda: rational_map_from_text("z^2-1"),
         "53dc14066c6470ff7001d1b2a0502c34b95a57d16e38ead2f7156bcf7242e1c1"),
        (lambda: rational_map_from_text("1/z^2"),
         "45c5dc1bf82207c11a98608861b11beb24b239abc525450bf9cc7b545bb154ca"),
        (lambda: lattes_mult2(LattesParams(-1, 0)),
         "20df321efdd53e9631c7a99d6312b0847786df02ee8a1fc7866fc6dc207f275f"),
        (lambda: random_map(3, 7),
         "41ce8904fe0643ea8ab352f5e3fdada9043f73899ad750dde54617255775fe3e"),
    ], ids=["z^2-1", "1/z^2", "lattes", "random-cubic"])
    def test_critical_point_bits_are_pinned(self, make, expected):
        points = critical_data(make()).points
        reprs = [(repr(p.location), p.multiplicity, repr(p.value)) for p in points]
        assert hashlib.sha256(repr(reprs).encode()).hexdigest() == expected


def test_iterate_semigroup_property():
    # iterate(f, a+b) == compose(iterate(f,a), iterate(f,b)) within 1e-10,
    # for d^(a+b) <= 256
    cases = [(2, 900, 2, 3), (2, 901, 3, 5), (3, 902, 2, 3), (4, 903, 1, 3)]
    for d, seed, a, b in cases:
        f = random_map(d, seed)
        assert d ** (a + b) <= 256
        lhs = iterate(f, a + b)
        rhs = compose(iterate(f, a), iterate(f, b))
        assert coeffs_match(lhs, rhs, 1e-10)


def _partial_x(c):
    m = len(c) - 1
    return np.array([(j + 1) * c[j + 1] for j in range(m)], dtype=complex)


def _partial_y(c):
    m = len(c) - 1
    return np.array([(m - j) * c[j] for j in range(m)], dtype=complex)


def _polyval_step_values(f, x, y):
    """Reference: the six step values from one polyval call per group and chart,
    with the partials written out term by term."""
    d = f.degree
    forms = np.column_stack([f.p, f.q])
    partials = np.column_stack([_partial_x(f.p), _partial_y(f.p),
                                _partial_x(f.q), _partial_y(f.q)])
    inner = np.abs(x) <= np.abs(y)
    outer = ~inner
    vals = np.empty((6, len(x)), dtype=complex)
    xi, yi = x[inner], y[inner]
    u = np.where(yi == 0, 0.0, xi / np.where(yi == 0, 1.0, yi))
    vals[0:2, inner] = npoly.polyval(u, forms) * yi**d
    vals[2:6, inner] = npoly.polyval(u, partials) * yi ** (d - 1)
    xo, yo = x[outer], y[outer]
    w = yo / xo
    vals[0:2, outer] = npoly.polyval(w, forms[::-1].copy()) * xo**d
    vals[2:6, outer] = npoly.polyval(w, partials[::-1].copy()) * xo ** (d - 1)
    return vals


class _PolyvalEngine(_OrbitDifferentials):
    def __init__(self, f):
        super().__init__(f)
        self.f = f

    def _step_values(self, x, y):
        return _polyval_step_values(self.f, x, y)


def _sample_points(rng, count):
    """Random (x, y) pairs plus chart edges: zeros, ties, signed zeros, inf, nan."""
    x = rng.normal(size=count) + 1j * rng.normal(size=count)
    y = rng.normal(size=count) + 1j * rng.normal(size=count)
    inf, nan = np.inf, np.nan
    edge = [(0, 1), (1, 0), (0, 0), (1 + 1j, 1 - 1j), (-1j, 1), (2, -2),
            (complex(-0.0, 0.0), 1), (complex(0.0, -0.0), complex(-0.0, -0.0)),
            (1, complex(-0.0, 0.0)), (-0.0, -0.0), (inf, 1), (1, inf),
            (inf, inf), (complex(0, inf), 1), (nan, 1), (1, nan),
            (complex(1, nan), 1), (nan, nan)]
    ex, ey = (np.array(v, dtype=complex) for v in zip(*edge))
    return np.concatenate([x, ex]), np.concatenate([y, ey])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_fused_step_values_match_polyval_bit_for_bit(d):
    rng = np.random.default_rng(60 + d)
    f = random_map(d, 70 + d)
    x, y = _sample_points(rng, 200)
    with np.errstate(all="ignore"):
        got = _OrbitDifferentials(f)._step_values(x, y)
        want = _polyval_step_values(f, x, y)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 3, 5])
def test_orbit_engine_matches_polyval_engine_bit_for_bit(d, n):
    f = random_map(d, 80 + d)
    rng = np.random.default_rng(90 + d)
    z = 2.0 * (rng.normal(size=60) + 1j * rng.normal(size=60))
    z[:3] = [0.0, 1.0, -1j]
    points = [ProjectivePoint.from_affine(v) for v in z] + [ProjectivePoint.infinity()]
    fused, reference = _OrbitDifferentials(f), _PolyvalEngine(f)
    with np.errstate(all="ignore"):
        for got, want in zip(fused.newton_data(n, z), reference.newton_data(n, z)):
            assert got.tobytes() == want.tobytes()
        assert fused.multipliers(n, points).tobytes() == reference.multipliers(n, points).tobytes()
