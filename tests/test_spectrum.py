import numpy as np
import pytest

from multispec import (
    BudgetExceeded,
    InconsistentZeroCounts,
    MultiplierSpectrum,
    NonFiniteSpectrum,
    ParabolicPresent,
    ShapeMismatch,
    compare_spectra,
    compose,
    conjugate,
    disjoint_type_from_spectrum,
    elementary_symmetric,
    elementary_transform,
    fingerprint,
    fixed_point_form,
    fixed_point_index_sum,
    length_spectrum,
    make_map,
    milnor_quadratic,
    newton_to_elementary,
    orbit_multiplier,
    periodic_points,
    power_map,
    power_sums_oracle,
    quantized_levels,
    random_map,
    random_mobius,
    rational_map_from_text,
    spectrum,
    spectrum_level,
    zero_multiplier_count,
)
from multispec.rootfind import binary_form_roots


def close(seq, expected, tol=1e-10):
    return all(abs(a - b) <= tol for a, b in zip(seq, expected)) and len(seq) == len(expected)


class TestFixedPointForm:
    def test_square_level1_roots(self):
        form = fixed_point_form(power_map(2), 1)
        rs = binary_form_roots(form, 3)
        assert rs.infinity_multiplicity == 1
        assert sorted(z.real for z in rs.affine_values()) == pytest.approx([0, 1])

    def test_square_level2_roots(self):
        form = fixed_point_form(power_map(2), 2)
        rs = binary_form_roots(form, 5)
        assert rs.total_multiplicity == 5
        assert rs.infinity_multiplicity == 1

    def test_degree(self):
        f = random_map(3, 1)
        assert len(fixed_point_form(f, 2)) == 3**2 + 2


class TestPeriodicPoints:
    def test_square_level1(self):
        pps = periodic_points(power_map(2), 1)
        got = {(str(p.location), round(abs(p.multiplier), 9)) for p in pps.points}
        assert got == {("0+0i", 0.0), ("1+0i", 2.0), ("inf", 0.0)}

    def test_cubic_level1(self):
        pps = periodic_points(power_map(3), 1)
        lams = sorted(abs(l) for l in pps.multipliers())
        assert lams == pytest.approx([0, 0, 3, 3])

    def test_basilica_level2_contains_superattracting_cycle(self):
        # oracle: the orbit 0 -> -1 -> 0 computed by hand; multiplier
        # f'(0) * f'(-1) = 0
        f = rational_map_from_text("z^2-1")
        pps = periodic_points(f, 2)
        locs = {round(p.location.affine.real, 6) for p in pps.points
                if not p.location.is_infinite}
        assert 0.0 in locs and -1.0 in locs
        at_zero = next(p for p in pps.points
                       if not p.location.is_infinite and abs(p.location.affine) < 1e-9)
        assert abs(at_zero.multiplier) < 1e-12
        # the fixed points of f carry squared multipliers: (1 +/- sqrt5)^2
        sq = sorted(abs(p.multiplier) for p in pps.points)[-2:]
        expected = sorted([abs(1 - 5**0.5) ** 2, (1 + 5**0.5) ** 2])
        assert sq == pytest.approx(expected, rel=1e-9)

    def test_count_law_sample(self):
        for d, n, seed in ((2, 4, 11), (3, 3, 12), (4, 2, 13)):
            pps = periodic_points(random_map(d, seed), n)
            assert pps.total_multiplicity == d**n + 1

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            periodic_points(power_map(2), 12)


class TestOrbitMultipliers:
    def test_unit_circle_cycles(self):
        # every repelling level-7 point of z^2 lies on |z| = 1, where the
        # chart choice is a coin toss between rounding-equal moduli
        pps = periodic_points(power_map(2), 7)
        repelling = [p.multiplier for p in pps.points if abs(p.multiplier) > 1]
        assert len(repelling) == 127
        assert max(abs(lam - 128) for lam in repelling) <= 1e-9

    def test_superattracting_relative_accuracy(self):
        f = conjugate(rational_map_from_text("z^2-1"), random_mobius(99))
        pps = periodic_points(f, 3)
        assert min(abs(p.multiplier) for p in pps.points) < 1e-30

    def test_cycle_through_infinity(self):
        f = rational_map_from_text("1/z^2")
        assert orbit_multiplier(f, 0, 2) == 0
        at_infinity = [p for p in periodic_points(f, 2).points if p.location.is_infinite]
        assert len(at_infinity) == 1 and at_infinity[0].multiplier == 0


class TestSpectrumGoldens:
    def test_square_level1(self):
        assert close(spectrum_level(power_map(2), 1), [2, 0, 0])

    def test_square_level2(self):
        assert close(spectrum_level(power_map(2), 2), [12, 48, 64, 0, 0])

    def test_cubic_level1(self):
        assert close(spectrum_level(power_map(3), 1), [6, 9, 0, 0])

    def test_square_vs_shifted(self):
        # S_1(z^2 + 0.1) from the quadratic formula: multipliers 1 +/- sqrt(0.6)
        # and 0, so e = (2, 0.4, 0); distance from (2, 0, 0) is 0.4
        a = spectrum(power_map(2), 1)
        b = spectrum(rational_map_from_text("z^2+0.1"), 1)
        assert close(b.levels[0], [2, 0.4, 0], tol=1e-10)
        equal, dist = compare_spectra(a, b)
        assert not equal
        assert dist == pytest.approx(0.4, rel=1e-9)


class TestElementarySymmetric:
    def test_small(self):
        assert close(elementary_symmetric([0, 0, 2]), [2, 0, 0])
        assert close(elementary_symmetric([1, 1, 1]), [3, 3, 1])

    def test_newton_identities_roundtrip(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(size=7) + 1j * rng.normal(size=7)
        p = [sum(v**k for v in vals) for k in range(1, 8)]
        assert close(newton_to_elementary(p), elementary_symmetric(vals), tol=1e-9)


class TestNewtonToElementary:
    def test_goldens(self):
        assert close(newton_to_elementary([2, 4, 8]), [2, 0, 0])
        assert close(newton_to_elementary([0, 0]), [0, 0])
        assert close(newton_to_elementary([3, 3, 3]), [3, 3, 1])


class TestOracle:
    def test_square(self):
        assert close(power_sums_oracle(power_map(2), 1, 2), [2, 4])

    def test_cubic(self):
        assert close(power_sums_oracle(power_map(3), 1, 2), [6, 18])

    def test_matches_root_pipeline(self):
        for seed in range(8):
            f = random_map(2, 2300 + seed)
            for n in (1, 2):
                count = 2**n + 1
                e_oracle = newton_to_elementary(power_sums_oracle(f, n, count))
                e_roots = spectrum_level(f, n)
                for a, b in zip(e_oracle, e_roots):
                    assert abs(a - b) / max(1, abs(a), abs(b)) < 1e-8

    @pytest.mark.parametrize("d,n,seed", [
        (3, 1, 2401), (3, 2, 2402), (4, 1, 2403), (4, 2, 2404), (2, 5, 2405),
    ])
    def test_matches_root_pipeline_up_to_65_points(self, d, n, seed):
        # either the oracle agrees entrywise, or it refuses through its
        # documented precondition error (the quotient-algebra matrices
        # inherit the fixed form's conditioning and become unsolvable for
        # wild spectra at larger point counts) and the root pipeline
        # stands alone
        from multispec import SingularReduction

        f = random_map(d, seed)
        count = d**n + 1
        assert count <= 65
        try:
            e_oracle = newton_to_elementary(power_sums_oracle(f, n, count))
        except SingularReduction:
            return
        e_roots = spectrum_level(f, n)
        for a, b in zip(e_oracle, e_roots):
            assert abs(a - b) / max(1, abs(a), abs(b)) < 1e-8

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            power_sums_oracle(power_map(2), 9, 3)


class TestIndexSum:
    def test_square(self):
        assert fixed_point_index_sum(periodic_points(power_map(2), 1)) == pytest.approx(1.0)

    def test_milnor_formula(self):
        # 1/(1-3) + 1/(1-5) + 1/(1-3/7) = 1
        pps = periodic_points(milnor_quadratic(3, 5), 1)
        assert fixed_point_index_sum(pps) == pytest.approx(1.0, abs=1e-12)

    def test_parabolic_guard(self):
        # z/(1+z) + z^2-ish parabolic at 0... easier: z^2 + 1/4 has lambda = 1
        f = rational_map_from_text("z^2+0.25")
        with pytest.raises(ParabolicPresent):
            fixed_point_index_sum(periodic_points(f, 1))

    def test_random_background(self):
        done = 0
        seed = 0
        while done < 12:
            f = random_map(2 + seed % 2, 31_000 + seed)
            seed += 1
            try:
                for n in (1, 2):
                    total = fixed_point_index_sum(periodic_points(f, n))
                    assert abs(total - 1) < 1e-7
            except ParabolicPresent:
                continue
            done += 1


class TestCompare:
    def test_identical(self):
        s = spectrum(power_map(2), 2)
        assert compare_spectra(s, s) == (True, 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            compare_spectra(spectrum(power_map(2), 1), spectrum(power_map(3), 1))

    def test_elementary_pair_equal_at_level3(self):
        pair = elementary_transform([1, 0, 1], [0, 0, 1])
        equal, dist = compare_spectra(spectrum(pair.f, 3), spectrum(pair.g, 3))
        assert equal and dist <= 1e-8

    def test_conjugation_invariance(self):
        f = random_map(2, 81)
        phi = random_mobius(82)
        equal, dist = compare_spectra(spectrum(f, 3), spectrum(conjugate(f, phi), 3))
        assert equal and dist <= 1e-8

    @pytest.mark.parametrize("bad", [complex("inf"), complex("nan"), complex(5, float("inf"))])
    def test_non_finite_entry_raises(self, bad):
        # max(dist, nan) keeps dist, so skipping these would call them equal
        finite = MultiplierSpectrum(2, 1, ((1 + 0j, 5 + 0j, 0j),))
        broken = MultiplierSpectrum(2, 1, ((1 + 0j, bad, 0j),))
        for a, b in ((finite, broken), (broken, finite), (broken, broken)):
            with pytest.raises(NonFiniteSpectrum):
                compare_spectra(a, b)


class TestLengthSpectrum:
    def test_square(self):
        ls = length_spectrum(power_map(2), 1)
        assert close(ls.levels[0], [2, 0, 0])

    def test_nonnegative_and_distinct_from_spectrum(self):
        # multipliers {-2, 0, 4}: S_1 = (2, -8, 0) but L_1 = (6, 8, 0)
        f = milnor_quadratic(-2, 0)
        assert close(spectrum_level(f, 1), [2, -8, 0], tol=1e-9)
        assert close(length_spectrum(f, 1).levels[0], [6, 8, 0], tol=1e-9)

    def test_equal_spectra_give_equal_lengths(self):
        # checked on both kinds of generated coincidence pairs
        pairs = [elementary_transform([1, 0, 1], [0, 0, 1])[:2]]
        for seed in (911, 912):
            f = random_map(2, seed)
            pairs.append((f, conjugate(f, random_mobius(seed + 50))))
        for f, g in pairs:
            equal, _ = compare_spectra(spectrum(f, 2), spectrum(g, 2))
            assert equal
            la = length_spectrum(f, 2)
            lb = length_spectrum(g, 2)
            for xa, xb in zip(la.levels, lb.levels):
                for a, b in zip(xa, xb):
                    assert abs(a - b) / max(1, abs(a), abs(b)) < 1e-8


class TestFingerprint:
    def test_deterministic(self):
        s = spectrum(power_map(2), 2)
        assert fingerprint(s).digest == fingerprint(s).digest

    def test_small_perturbations_collapse(self):
        s = spectrum(power_map(2), 1)
        wiggled = MultiplierSpectrum(
            s.degree, s.max_period,
            tuple(tuple(e + 1e-9 for e in level) for level in s.levels),
        )
        assert fingerprint(s).digest == fingerprint(wiggled).digest

    def test_different_maps_differ(self):
        a = fingerprint(spectrum(power_map(2), 1))
        b = fingerprint(spectrum(power_map(3), 1))
        assert a.digest != b.digest

    def test_magnitude_is_not_discarded(self):
        # same phase, different modulus must not collide
        a = MultiplierSpectrum(2, 1, ((8.43 + 0j, 0j, 0j),))
        b = MultiplierSpectrum(2, 1, ((8.44 + 0j, 0j, 0j),))
        assert fingerprint(a).digest != fingerprint(b).digest

    @pytest.mark.parametrize("bad", [complex("inf"), complex("nan"), complex(0, float("-inf"))])
    def test_non_finite_entry_raises(self, bad):
        s = MultiplierSpectrum(2, 1, ((1 + 0j, bad, 0j),))
        with pytest.raises(NonFiniteSpectrum):
            fingerprint(s)
        with pytest.raises(NonFiniteSpectrum):
            quantized_levels(s)

    def test_quantum_validation(self):
        with pytest.raises(ValueError):
            fingerprint(spectrum(power_map(2), 1), quantum=0.0)

    @pytest.mark.parametrize("text, max_period, digest", [
        ("z^2-1", 2, "9e0103ecfc2fa174"),
        ("z^4+1", 3, "a08ab888abba5d49"),
        ("(z^2+1)^2", 3, "a08ab888abba5d49"),
    ])
    def test_digest_is_pinned(self, text, max_period, digest):
        # digests are stored in v1 catalogs; a change here orphans every store
        s = spectrum(rational_map_from_text(text), max_period)
        assert fingerprint(s).hex_digest == digest


class TestDisjointTypeFromSpectrum:
    def test_square(self):
        t = disjoint_type_from_spectrum(spectrum(power_map(2), 2))
        assert t.periods == (1, 1) and t.complete

    def test_basilica(self):
        t = disjoint_type_from_spectrum(spectrum(rational_map_from_text("z^2-1"), 2))
        assert t.periods == (1, 2) and t.complete

    def test_cubic_power_incomplete(self):
        t = disjoint_type_from_spectrum(spectrum(power_map(3), 2))
        assert t.periods == (1, 1) and not t.complete

    def test_zero_tail_counting(self):
        assert zero_multiplier_count([2, 0, 0]) == 2
        assert zero_multiplier_count([6, 9, 0, 0]) == 2
        assert zero_multiplier_count([1, 1, 1]) == 0

    def test_inconsistent_counts_raise(self):
        bogus = MultiplierSpectrum(2, 2, ((1 + 0j, 1 + 0j, 0j), (1 + 0j,) * 5))
        with pytest.raises(InconsistentZeroCounts):
            disjoint_type_from_spectrum(bogus)


def test_spectrum_matches_levels():
    f = random_map(2, 3)
    s = spectrum(f, 2)
    assert close(s.levels[0], spectrum_level(f, 1), tol=1e-12)
    assert close(s.levels[1], spectrum_level(f, 2), tol=1e-12)
    assert s.degree == 2 and s.max_period == 2
