import pytest

from multispec import (
    Classification,
    DisjointType,
    SpectraDiffer,
    classify_disjoint_type,
    conjugate,
    cross_spectrum_pcf_consistency,
    detect_superattracting_cycles,
    disjoint_type_from_spectrum,
    elementary_transform,
    lattes_mult2,
    orbit,
    power_map,
    random_map,
    random_mobius,
    rational_map_from_text,
    semiconjugacy_check,
    spectrum,
    zero_multiplier_count,
)


class TestDetection:
    def test_square_two_fixed_cycles(self):
        cycles = detect_superattracting_cycles(power_map(2), 3)
        assert sorted(c.exact_period for c in cycles) == [1, 1]
        assert all(c.contains_critical for c in cycles)
        assert all(abs(c.multiplier) < 1e-10 for c in cycles)

    def test_basilica_period_two(self):
        # orbit oracle: 0 -> -1 -> 0 under z^2 - 1
        f = rational_map_from_text("z^2-1")
        pts = orbit(f, 0.0, 2)
        assert pts[1].affine == pytest.approx(-1.0)
        assert pts[2].affine == pytest.approx(0.0)
        cycles = detect_superattracting_cycles(f, 4)
        assert sorted(c.exact_period for c in cycles) == [1, 2]

    def test_escaping_critical_orbit_detects_nothing_new(self):
        # z^2 + 1: the finite critical orbit 0 -> 1 -> 2 -> 5 -> ... only
        # converges to the superattracting fixed point at infinity
        f = rational_map_from_text("z^2+1")
        cycles = detect_superattracting_cycles(f, 4)
        assert len(cycles) == 1
        assert cycles[0].representative.is_infinite

    def test_exact_period_minimality(self):
        f = rational_map_from_text("z^2-1")
        for record in detect_superattracting_cycles(f, 4):
            p = record.exact_period
            for q in range(1, p):
                if p % q == 0:
                    moved = orbit(f, record.representative, q)[-1]
                    assert moved.chordal(record.representative) > 1e-6


class TestClassification:
    def test_square(self):
        result = classify_disjoint_type(power_map(2))
        assert result.status is Classification.DISJOINT_TYPE
        assert result.disjoint_type == DisjointType((1, 1), complete=True)

    def test_basilica(self):
        result = classify_disjoint_type(rational_map_from_text("z^2-1"), 4)
        assert result.status is Classification.DISJOINT_TYPE
        assert result.disjoint_type == DisjointType((1, 2), complete=True)

    def test_cubic_power_not_disjoint(self):
        result = classify_disjoint_type(power_map(3))
        assert result.status is Classification.PCF_NOT_DISJOINT

    def test_escaping_orbit_not_certified(self):
        result = classify_disjoint_type(rational_map_from_text("z^2+1"))
        assert result.status is Classification.NOT_PCF_WITHIN_BUDGET

    def test_lattes_not_certified(self):
        # repelling landings escape numerically; the budget answer stays honest
        result = classify_disjoint_type(lattes_mult2((1, 0)))
        assert result.status is not Classification.DISJOINT_TYPE

    def test_exact_landing_on_repelling_point(self):
        # 0 -> -2 -> 2 -> 2 lands exactly on a repelling fixed point: a
        # finite critical orbit without a superattracting home
        result = classify_disjoint_type(rational_map_from_text("z^2-2"), 4)
        assert result.status is Classification.PCF_NOT_DISJOINT
        from multispec.pcf import OrbitFate

        assert all(ev.fate is OrbitFate.LANDED for ev in result.evidence)

    def test_conjugacy_invariance(self):
        for seed, text in ((1, "z^2"), (2, "z^2-1")):
            f = rational_map_from_text(text)
            g = conjugate(f, random_mobius(880 + seed))
            a = classify_disjoint_type(f, 4)
            b = classify_disjoint_type(g, 4)
            assert a.status is b.status
            assert a.disjoint_type == b.disjoint_type

    def test_zero_count_agreement(self):
        # if the classifier says type n-bar, level-n zero counts must equal
        # the sum of periods dividing n
        f = rational_map_from_text("z^2-1")
        result = classify_disjoint_type(f, 4)
        periods = result.disjoint_type.periods
        s = spectrum(f, 2)
        for n, level in enumerate(s.levels, start=1):
            expected = sum(p for p in periods if n % p == 0)
            assert zero_multiplier_count(level) == expected
        assert disjoint_type_from_spectrum(s) == result.disjoint_type


class TestSemiconjugacy:
    def test_spec_pair_witness(self):
        pair = elementary_transform([1, 0, 1], [0, 0, 1])
        assert semiconjugacy_check(pair.f, pair.g, pair.witness, "exact")
        assert semiconjugacy_check(pair.f, pair.g, pair.witness, "sampled")

    def test_identity_witness(self):
        f = power_map(2)
        assert semiconjugacy_check(f, f, [0, 1], "exact")

    def test_witness_degree_ignores_zero_top_coefficients(self):
        f = random_map(2, 1)
        assert semiconjugacy_check(f, f, [0, 1, 0], "exact")
        assert semiconjugacy_check(f, f, [0, 1, 0], "sampled")
        with pytest.raises(ValueError, match="witness must have degree >= 1"):
            semiconjugacy_check(power_map(2), power_map(2), [0, 0])

    def test_different_maps_fail(self):
        assert not semiconjugacy_check(
            power_map(2), rational_map_from_text("z^2+1"), [0, 1], "exact"
        )

    def test_random_pairs_have_witnesses(self):
        for seed in range(10):
            pair = elementary_transform(random_map(2, 660 + seed), random_map(2, 770 + seed))
            assert semiconjugacy_check(pair.f, pair.g, pair.witness, "exact")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            semiconjugacy_check(power_map(2), power_map(2), [0, 1], "psychic")


class TestCrossConsistency:
    def test_self(self):
        report = cross_spectrum_pcf_consistency(power_map(2), power_map(2), 2)
        assert report.applicable and report.consistent

    def test_conjugate_coincidence_pair(self):
        f = rational_map_from_text("z^2-1")
        g = conjugate(f, random_mobius(99))
        report = cross_spectrum_pcf_consistency(f, g, 3)
        assert report.applicable and report.consistent
        assert report.f_result.disjoint_type == DisjointType((1, 2), complete=True)

    def test_elementary_pair_not_applicable_but_passes(self):
        pair = elementary_transform(random_map(2, 1001), random_map(2, 2001))
        report = cross_spectrum_pcf_consistency(pair.f, pair.g, 3)
        assert not report.applicable
        assert report.consistent

    def test_spectra_differ(self):
        with pytest.raises(SpectraDiffer):
            cross_spectrum_pcf_consistency(
                power_map(2), rational_map_from_text("z^2+1"), 2
            )
