import importlib

import numpy as np
import pytest

from multispec import (
    BudgetExceeded,
    DegenerateMap,
    DegenerateParameters,
    LattesParams,
    MilnorPoint,
    NotRealizable,
    SingularCurve,
    compare_spectra,
    compose,
    derivative_at,
    elementary_transform,
    invert_sigma,
    lattes_mult2,
    milnor_quadratic,
    periodic_points,
    power_map,
    random_map,
    spectrum,
    spectrum_level,
    sylvester_resultant,
    third_multiplier,
    weierstrass_double_x,
)
from multispec.families import random_curve_point
from multispec.parser import format_map
from multispec.points import ProjectivePoint, as_point

families_module = importlib.import_module("multispec.families")


class TestMilnor:
    def test_pure_square(self):
        f = milnor_quadratic(0, 0)
        assert format_map(f) == "z^2"

    def test_prescribed_multipliers(self):
        f = milnor_quadratic(3, 5)
        assert derivative_at(f, 0.0) == pytest.approx(3.0)
        assert derivative_at(f, ProjectivePoint.infinity()) == pytest.approx(5.0)
        assert third_multiplier(3, 5) == pytest.approx(3 / 7)
        lams = sorted(abs(l) for l in periodic_points(f, 1).multipliers())
        assert lams == pytest.approx([3 / 7, 3, 5])

    def test_third_multiplier_example(self):
        assert third_multiplier(-2, 0) == pytest.approx(4.0)

    def test_degenerate_parameters(self):
        with pytest.raises(DegenerateParameters):
            milnor_quadratic(2, 0.5)

    def test_sigma_constraint_on_random_quadratics(self):
        for seed in range(50):
            f = random_map(2, 52_000 + seed)
            point = MilnorPoint(*spectrum_level(f, 1))
            assert point.constraint_residual <= 1e-8


class TestInvertSigma:
    def test_recovers_pure_square_class(self):
        m = invert_sigma(MilnorPoint(2, 0, 0))
        lams = sorted(abs(l) for l in periodic_points(m, 1).multipliers())
        assert lams == pytest.approx([0, 0, 2], abs=1e-9)

    def test_round_trip(self):
        for seed in range(25):
            f = random_map(2, 53_000 + seed)
            sigma = spectrum_level(f, 1)
            try:
                g = invert_sigma(MilnorPoint(*sigma))
            except DegenerateParameters:
                continue
            back = spectrum_level(g, 1)
            for a, b in zip(sigma, back):
                assert abs(a - b) / max(1, abs(a), abs(b)) <= 1e-8

    def test_not_realizable(self):
        with pytest.raises(NotRealizable):
            invert_sigma(MilnorPoint(0, 0, 0))


class TestLattes:
    def test_duplication_formula_written_out(self):
        f = lattes_mult2((-1, 0))
        # (x^4 + 2x^2 + 1)/(4x^3 - 4x), jointly normalized by 4
        assert np.allclose(f.p, [0.25, 0, 0.5, 0, 0.25])
        assert np.allclose(f.q, [0, -1, 0, 1, 0])

    def test_duplication_identity_against_group_law(self):
        params = LattesParams(1, 0)
        f = lattes_mult2(params)
        rng = np.random.default_rng(17)
        for _ in range(20):
            x, y = random_curve_point(params, rng)
            doubled = weierstrass_double_x(params, x, y)
            assert f.evaluate(x).chordal(as_point(doubled)) < 1e-9

    def test_flexible_family_shares_spectrum(self):
        a = spectrum(lattes_mult2((1, 0)), 2)
        b = spectrum(lattes_mult2((0, 1)), 2)
        equal, dist = compare_spectra(a, b, 1e-7)
        assert equal, dist

    def test_singular_curve(self):
        with pytest.raises(SingularCurve):
            LattesParams(0, 0)


class TestElementaryTransform:
    def test_spec_pair(self):
        pair = elementary_transform([1, 0, 1], [0, 0, 1])
        assert format_map(pair.f) == "z^4+1"
        assert format_map(pair.g) == "z^4+2*z^2+1"
        assert format_map(pair.witness) == "z^2"

    def test_witness_identity_coefficientwise(self):
        # h2 o f == g o h2 by associativity of composition
        pair = elementary_transform(random_map(2, 61), random_map(2, 62))
        left = compose(pair.witness, pair.f)
        right = compose(pair.g, pair.witness)
        a = np.concatenate([left.p, left.q])
        b = np.concatenate([right.p, right.q])
        idx = int(np.argmax(np.abs(a)))
        phase = a[idx] / b[idx]
        assert np.max(np.abs(b * phase - a)) < 1e-10

    def test_spectra_agree(self):
        pair = elementary_transform(random_map(2, 63), random_map(2, 64))
        equal, dist = compare_spectra(spectrum(pair.f, 3), spectrum(pair.g, 3))
        assert equal, dist

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            elementary_transform(power_map(50), power_map(50))


class TestPowerAndRandom:
    def test_power_maps(self):
        assert format_map(power_map(2)) == "z^2"
        assert format_map(power_map(3)) == "z^3"
        with pytest.raises(ValueError):
            power_map(1)

    def test_power_spectrum_structure(self):
        # level n of z^d: multipliers {0, 0} plus d^n at the d^n - 1 roots of unity
        d, n = 3, 2
        pps = periodic_points(power_map(d), n)
        lams = sorted(abs(l) for l in pps.multipliers())
        assert lams[:2] == pytest.approx([0, 0])
        assert lams[2:] == pytest.approx([d**n] * (d**n - 1))

    def test_random_map_deterministic(self):
        a = random_map(3, 1234)
        b = random_map(3, 1234)
        assert np.array_equal(a.p, b.p) and np.array_equal(a.q, b.q)

    @staticmethod
    def _first_candidate_raises(monkeypatch, error):
        real = families_module.make_map
        calls = []

        def make_map(num, den):
            calls.append(num)
            if len(calls) == 1:
                raise error
            return real(num, den)

        monkeypatch.setattr(families_module, "make_map", make_map)
        return calls

    def test_random_map_retries_a_rejected_candidate(self, monkeypatch):
        calls = self._first_candidate_raises(monkeypatch, DegenerateMap("rejected"))
        assert random_map(2, 5).degree == 2 and len(calls) >= 2

    def test_random_map_does_not_swallow_a_bug(self, monkeypatch):
        # only a MultispecError rejects a candidate; anything else propagates
        self._first_candidate_raises(monkeypatch, TypeError("a bug"))
        with pytest.raises(TypeError, match="a bug"):
            random_map(2, 5)

    def test_random_map_degree_guards(self, monkeypatch):
        with pytest.raises(ValueError, match="degree must be >= 2"):
            random_map(1, 0)

        def never(*args):
            raise AssertionError("ran past the point budget")

        # refused before the candidate loop, which would take the refusal
        # for a rejected candidate and draw forever
        monkeypatch.setattr(families_module, "make_map", never)
        with pytest.raises(BudgetExceeded, match="level 1 needs 2601 points"):
            random_map(2600, 0)

    def test_random_maps_valid(self):
        for seed in range(100):
            f = random_map(2, 70_000 + seed)
            assert f.degree == 2
            assert abs(sylvester_resultant(f.p, f.q, 2)) > 1e-6
