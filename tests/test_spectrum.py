import hashlib
import importlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from multispec import (
    BudgetExceeded,
    InconsistentZeroCounts,
    MultiplierSpectrum,
    NoConvergence,
    NonFiniteSpectrum,
    ParabolicPresent,
    PrecisionExhausted,
    ProjectivePoint,
    Root,
    RootSet,
    ShapeMismatch,
    SingularReduction,
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
    periodic_point_levels,
    periodic_points,
    poly,
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
from multispec import rootfind
from multispec.poly import _OrbitDifferentials
from multispec.rootfind import binary_form_roots

# the package attribute `multispec.spectrum` is the function, not the module
spectrum_module = importlib.import_module("multispec.spectrum")

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

    @pytest.mark.parametrize("d, n", [(2, 10), (3, 6), (4, 5), (6, 4), (12, 3), (44, 2)])
    def test_power_map_reference_at_the_budget_edge(self, d, n):
        # f^n = z^N, N = d^n, fixes 0 and inf with multiplier 0 and each
        # (N-1)-th root of unity zeta with multiplier N * zeta^(N-1)
        big = d**n
        zeta = np.exp(2j * np.pi * np.arange(big - 1) / (big - 1))
        table = dict(enumerate(big * zeta ** (big - 1)))
        pps = periodic_points(power_map(d), n)
        assert all(p.multiplicity == 1 for p in pps.points)
        ends = [p for p in pps.points if p.location.is_infinite or p.location.affine == 0]
        assert len(ends) == 2 and all(p.multiplier == 0 for p in ends)
        for p in pps.points:
            if p in ends:
                continue
            z = p.location.affine
            j = round(np.angle(z) / (2 * np.pi) * (big - 1)) % (big - 1)
            assert abs(z - zeta[j]) <= 1e-9
            assert abs(p.multiplier - table.pop(j)) <= 1e-9 * big
        assert not table

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            periodic_points(power_map(2), 12)

    def test_levels_need_a_period(self):
        with pytest.raises(ValueError, match="max_period must be >= 1"):
            periodic_point_levels(power_map(2), 0)


# sha256 of the reprs of (location, multiplicity, multiplier), recorded with
# numpy 2.4.6 on x86-64: the Aberth polish must keep every bit
@pytest.mark.parametrize("make, n, held, expected", [
    # level 4 holds the parabolic fixed point 1/2 as a double root; at level
    # 5 its two seeds are polished apart instead
    (lambda: rational_map_from_text("z^2+0.25"), 4, 1,
     "386e686aaede14b743608db781fd22567b60ffa6763b12aad57ae2cca21f7854"),
    (lambda: rational_map_from_text("z^2+0.25"), 5, 0,
     "c6ce7ff128d296eac826d983eda336f06b4c92d9de76525aa3eb91c5e1d8fcfc"),
    (lambda: random_map(2, 11), 7, 0,
     "1b5617c124ca51159905d9123daa96e31ea31137ca897ec74fe977fc41ec6486"),
], ids=["parabolic-4", "parabolic-5", "random-7"])
def test_periodic_point_bits_are_pinned(make, n, held, expected):
    points = periodic_points(make(), n).points
    assert sum(p.multiplicity > 1 for p in points) == held
    reprs = [(repr(p.location), p.multiplicity, repr(p.multiplier)) for p in points]
    assert hashlib.sha256(repr(reprs).encode()).hexdigest() == expected


def _point_reprs(levels):
    return [[(repr(p.location), p.multiplicity, repr(p.multiplier)) for p in pps.points]
            for pps in levels]


def _glue_closest_pair(find):
    """binary_form_roots with its two closest simple roots glued into one double root."""
    def glued(form, degree, residual_tol):
        rs = find(form, degree, residual_tol=residual_tol)
        finite = [r for r in rs.roots if not r.location.is_infinite]
        _, a, b = min(((abs(a.location.affine - b.location.affine), a, b)
                       for i, a in enumerate(finite) for b in finite[:i]), key=lambda t: t[0])
        mid = (a.location.affine + b.location.affine) / 2
        kept = tuple(r for r in rs.roots if r is not a and r is not b)
        return RootSet(kept + (Root(ProjectivePoint.from_affine(mid), 2, 0.0),))
    return glued


class TestBlockBudget:
    """The level path's scratch arrays go in blocks of rootfind.BLOCK_ELEMENTS;
    each row still sums its terms in the same order, so no bit moves."""

    @pytest.mark.parametrize("budget", [5, 1000])
    @pytest.mark.parametrize("make, top", [
        (lambda: rational_map_from_text("z^2+0.25"), 4),  # level 4 holds a cluster
        (lambda: random_map(2, 11), 7),
    ], ids=["parabolic", "random"])
    def test_small_blocks_keep_every_bit(self, monkeypatch, budget, make, top):
        want = _point_reprs(periodic_point_levels(make(), top))
        monkeypatch.setattr(rootfind, "BLOCK_ELEMENTS", budget)
        assert _point_reprs(periodic_point_levels(make(), top)) == want

    @pytest.mark.parametrize("budget", [5, 1000])
    def test_small_blocks_keep_the_split_cluster(self, monkeypatch, budget):
        # the split case of TestPolishSafetyPaths: a glued non-parabolic pair
        # is split back into seeds and polished apart
        monkeypatch.setattr(spectrum_module, "binary_form_roots",
                            _glue_closest_pair(spectrum_module.binary_form_roots))
        want = _point_reprs([periodic_points(random_map(2, 11), 3)])
        monkeypatch.setattr(rootfind, "BLOCK_ELEMENTS", budget)
        assert _point_reprs([periodic_points(random_map(2, 11), 3)]) == want

    def test_level_scratch_stays_within_a_few_blocks(self):
        # 730 points: a whole pairwise matrix is 8.5 MB of complex, and the
        # level once held 25 MiB of such scratch at its peak
        f = random_map(3, 1)
        engine, g = _OrbitDifferentials(f), poly.iterate(f, 6)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            spectrum_module._periodic_points_from(engine, g, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 2 * rootfind.BLOCK_ELEMENTS * np.dtype(complex).itemsize

    def test_closest_pair_is_the_smallest_chordal_distance(self, monkeypatch):
        z = np.array([0.0, 1.0, 1.0 + 1e-3j, -2.0, 1e8, 3j])
        w = 1.0 / np.sqrt(1.0 + np.abs(z) ** 2)
        want = min(abs(a - b) * w[i] * w[j] for i, a in enumerate(z)
                   for j, b in enumerate(z) if i != j)
        monkeypatch.setattr(rootfind, "BLOCK_ELEMENTS", 7)
        assert spectrum_module._closest_pair(z) == pytest.approx(want, rel=1e-15)


class TestPolishSafetyPaths:
    """Paths of the level computation that ordinary maps never take."""

    def test_functional_gate_refuses(self, monkeypatch):
        monkeypatch.setattr(spectrum_module, "_FUNCTIONAL_GATE", 0.0)
        with pytest.raises(NoConvergence, match="failed functional verification"):
            periodic_points(random_map(2, 1), 3)

    def test_functional_gate_refuses_a_residual_of_1e_5(self, monkeypatch):
        # one point left at 1e-5, past the 1e-7 gate: a gate looser by 10^4 passes it
        polish = spectrum_module._functional_aberth_polish

        def one_loose_point(engine, n, approx, held):
            z, res = polish(engine, n, approx, held)
            res[0] = 1e-5
            return z, res

        monkeypatch.setattr(spectrum_module, "_functional_aberth_polish", one_loose_point)
        with pytest.raises(NoConvergence, match="level 3 failed functional verification"):
            periodic_points(random_map(2, 1), 3)

    def test_collided_points_refused(self, monkeypatch):
        polish = spectrum_module._functional_aberth_polish

        def collapsing(engine, n, approx, held):
            z, _ = polish(engine, n, approx, held)
            z[1] = z[0]
            return z, np.zeros(len(z))

        monkeypatch.setattr(spectrum_module, "_functional_aberth_polish", collapsing)
        with pytest.raises(NoConvergence, match="collided"):
            periodic_points(random_map(2, 1), 3)

    def test_non_parabolic_cluster_is_split(self, monkeypatch):
        # glue the two closest simple roots into one double root: its
        # multiplier is far from 1, so the level must split it back into
        # two seeds and polish them apart onto the true points
        f = random_map(2, 11)
        want = periodic_points(f, 3).points
        find = spectrum_module.binary_form_roots

        def glued(form, degree, residual_tol):
            rs = find(form, degree, residual_tol=residual_tol)
            finite = [r for r in rs.roots if not r.location.is_infinite]
            gap, a, b = min(((abs(a.location.affine - b.location.affine), a, b)
                             for i, a in enumerate(finite) for b in finite[:i]),
                            key=lambda t: t[0])
            assert gap > 1e-3 and a.multiplicity == b.multiplicity == 1
            mid = (a.location.affine + b.location.affine) / 2
            kept = tuple(r for r in rs.roots if r is not a and r is not b)
            return RootSet(kept + (Root(ProjectivePoint.from_affine(mid), 2, 0.0),))

        monkeypatch.setattr(spectrum_module, "binary_form_roots", glued)
        got = periodic_points(f, 3).points
        assert all(p.multiplicity == 1 for p in got)

        def finite(pts):
            return sorted((p.location.affine for p in pts if not p.location.is_infinite),
                          key=lambda z: (z.real, z.imag))

        assert finite(got) == pytest.approx(finite(want), abs=1e-12)

    def test_held_cluster_repels_seeds(self):
        # level 2 of z^2+1/4: the parabolic 1/2 is held as a double root,
        # and seeds started next to it must be pushed off to the period-2
        # cycle -1/2 +- i instead of collapsing onto 1/2
        engine = _OrbitDifferentials(rational_map_from_text("z^2+0.25"))
        z, res = spectrum_module._functional_aberth_polish(
            engine, 2, [0.5 + 0.05j, 0.5 - 0.05j], [(0.5, 2)])
        assert sorted(z, key=lambda w: w.imag) == pytest.approx([-0.5 - 1j, -0.5 + 1j])
        assert res.max() <= 1e-13

    def test_polish_never_leaves_a_point_worse_than_its_seed(self, monkeypatch):
        # an engine that pushes one seed off and reports a worse residual
        # anywhere near it than at the seed itself: the polish can only
        # worsen that point, so the level must emit the seed, and the
        # polish must hand back the seed's own residual with it
        f = random_map(2, 11)
        form = fixed_point_form(f, 3)
        rs = binary_form_roots(form, 9, residual_tol=math.inf)
        seeds = [r.location.affine for r in rs.roots if not r.location.is_infinite]
        target = seeds[0]

        class Worsening(_OrbitDifferentials):
            def newton_data(self, n, z):
                ratio, res = super().newton_data(n, z)
                at = z == target
                near = (np.abs(z - target) <= 1e-3) & ~at
                ratio = np.where(at, 1e-6, ratio)
                res = np.where(at, 1e-9, np.where(near, 1e-8, res))
                return ratio, res

        z, res = spectrum_module._functional_aberth_polish(Worsening(f), 3, seeds, [])
        assert z[0] == target and res[0] == 1e-9
        assert res[1:].max() <= 1e-12

        monkeypatch.setattr(spectrum_module, "_OrbitDifferentials", Worsening)
        emitted = [p.location for p in periodic_points(f, 3).points]
        assert ProjectivePoint.from_affine(target) in emitted


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

    def test_matches_50_digit_reference(self):
        # reference: the pipeline's level-3 points, Newton-refined on
        # f^3(z) = z at 50 digits, and their multipliers' power sums. The
        # quotient-algebra reduction in double precision was off by 4e-8
        # here; in the extended dtype it stays near 2e-10.
        mpmath = pytest.importorskip("mpmath")
        n, kmax = 3, 4
        with mpmath.workdps(50):
            for seed in range(1, 6):
                f = random_map(2, seed)
                p = [mpmath.mpc(complex(c)) for c in f.p[::-1]]
                q = [mpmath.mpc(complex(c)) for c in f.q[::-1]]

                def orbit(z):
                    w, lam = z, mpmath.mpc(1)
                    for _ in range(n):
                        pv, dp = mpmath.polyval(p, w, derivative=True)
                        qv, dq = mpmath.polyval(q, w, derivative=True)
                        lam *= (dp * qv - pv * dq) / qv**2
                        w = pv / qv
                    return w, lam

                points = periodic_points(f, n).points
                assert all(pt.multiplicity == 1 and not pt.location.is_infinite
                           for pt in points)
                zs = []
                for pt in points:
                    z = mpmath.mpc(pt.location.affine)
                    for _ in range(6):
                        w, lam = orbit(z)
                        z -= (w - z) / (lam - 1)
                    zs.append(z)
                assert min(abs(a - b) for i, a in enumerate(zs) for b in zs[:i]) > 1e-6
                lams = [orbit(z)[1] for z in zs]
                got = power_sums_oracle(f, n, kmax)
                for k in range(1, kmax + 1):
                    ref = mpmath.fsum(lam**k for lam in lams)
                    assert abs(mpmath.mpc(complex(got[k - 1])) - ref) <= 1e-9 * abs(ref)

    def test_chain_is_checked_by_the_resultant_law(self, monkeypatch):
        # f^n comes from compose, which measures each iterate's resultant
        f = rational_map_from_text("z^2+1")
        monkeypatch.setattr(poly, "_log_resultant", lambda p, q, degree: -math.inf)
        with pytest.raises(PrecisionExhausted):
            power_sums_oracle(f, 2, 3)

    @pytest.mark.skipif(np.finfo(np.clongdouble).precision != 18,
                        reason="reprs recorded in the 80-bit extended dtype")
    def test_power_sums_are_pinned(self):
        # sha256 of the reprs of the extended power sums; z^2+0.25 adds a
        # fixed point at infinity
        cases = [(random_map(2, 13001), 1), (random_map(2, 13001), 2),
                 (random_map(3, 13001), 1), (rational_map_from_text("z^2+0.25"), 1)]
        sums = [power_sums_oracle(f, n, 3) for f, n in cases]
        got = hashlib.sha256(repr(sums).encode()).hexdigest()
        assert got == "a0dd831e230db5acbef21c1b86b249ccd890671ac20ed24d33fb15b07fa90a81"

    def test_reduction_past_double_range_is_singular_and_silent(self, capfd):
        # entries of the extended reduction matrix past the double range
        # used to turn inf in a narrowing cast (a RuntimeWarning) and reach
        # LAPACK, which printed DLASCL complaints on stdout
        f = random_map(2, 13058)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularReduction, match="not invertible modulo"):
                power_sums_oracle(f, 7, 3)
        assert capfd.readouterr() == ("", "")

    def test_both_forms_vanishing_at_infinity_is_singular(self):
        # a hand-built pair with P and Q both of degree below 2: infinity is
        # fixed, and its chart derivative is 0/0
        f = poly.RationalMap(np.array([1, 1, 0], dtype=complex),
                             np.array([1, 0, 0], dtype=complex), 2, 0.0)
        with pytest.raises(SingularReduction, match="0/0"):
            power_sums_oracle(f, 1, 2)

    def test_exactly_singular_reduction_is_refused(self):
        # power_sums_oracle's rcond check comes first; the solver itself
        # still never divides by an exactly zero pivot
        b = np.array([[1, 2], [2, 4]], dtype=complex)
        with pytest.raises(SingularReduction, match="exactly singular"):
            spectrum_module._solve_extended(b, np.eye(2))

    def test_singular_matrix_has_zero_rcond(self):
        # np.linalg.cond reads inf here, and 1/inf is the estimate
        assert spectrum_module._rcond_estimate(np.zeros((3, 3), dtype=complex)) == 0.0

    def test_lapack_failure_reads_as_singular(self, monkeypatch):
        def failing(mat):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "cond", failing)
        with pytest.raises(SingularReduction, match="not invertible modulo"):
            power_sums_oracle(random_map(2, 1), 1, 2)


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

    def test_parabolic_guard_boundary(self):
        # the guard is 1e-6 wide: 1e-4 from 1 is summed, 1e-7 from 1 is refused
        def level(multiplier):
            point = spectrum_module.PeriodicPoint(ProjectivePoint.from_affine(0j), 1, multiplier)
            return spectrum_module.PeriodicPointSet(1, (point,))

        assert fixed_point_index_sum(level(1 + 1e-4)) == pytest.approx(-1e4)
        with pytest.raises(ParabolicPresent):
            fixed_point_index_sum(level(1 + 1e-7))

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

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-8])
    def test_tol_is_checked(self, tol):
        # an unchecked inf called these two equal, and nan called them different
        a = spectrum(power_map(2), 1)
        b = spectrum(rational_map_from_text("z^2+1"), 1)
        with pytest.raises(ValueError):
            compare_spectra(a, b, tol)

    def test_zero_tol_is_exact_equality(self):
        s = spectrum(power_map(2), 1)
        assert compare_spectra(s, s, 0.0) == (True, 0.0)


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
        s = spectrum(power_map(2), 1)
        for quantum in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                fingerprint(s, quantum=quantum)

    @pytest.mark.parametrize("quantum", [0.0, -1.0, float("inf"), float("nan")])
    def test_quantized_levels_checks_its_quantum(self, quantum):
        # unchecked, 0 divided by zero, inf gave nan cells, -1 a negative grid
        s = spectrum(power_map(2), 1)
        with pytest.raises(ValueError):
            quantized_levels(s, quantum)
        with pytest.raises(ValueError):
            fingerprint(s, quantum)

    @pytest.mark.parametrize("text, max_period, quantum, digest", [
        ("z^2-1", 2, 1e-6, "c77b9ee192ef0098856af6fd71adab36e6cb8318f07f68ec8d1017af09c7ebaf"),
        ("z^4+1", 3, 1e-6, "0fb856f065d4089ff444f10486e07f148000a8658add8d3292584fad4aca826d"),
        ("z^4+1", 3, 1e-3, "d9e34389366be42792eaf474655a6a67c42eca0279185ebda7a53ad7e5ef9449"),
    ])
    def test_quantized_levels_are_pinned(self, text, max_period, quantum, digest):
        # the catalog stores these values; sha256 of their repr
        s = spectrum(rational_map_from_text(text), max_period)
        got = hashlib.sha256(repr(quantized_levels(s, quantum)).encode()).hexdigest()
        assert got == digest

    @pytest.mark.parametrize("text, max_period, digest", [
        ("z^2-1", 2, "9e0103ecfc2fa174"),
        ("z^4+1", 3, "a08ab888abba5d49"),
        ("(z^2+1)^2", 3, "a08ab888abba5d49"),
    ])
    def test_digest_is_pinned(self, text, max_period, digest):
        # digests are stored in v1 catalogs; a change here orphans every store
        s = spectrum(rational_map_from_text(text), max_period)
        assert fingerprint(s).hex_digest == digest

    def test_quantum_too_fine_for_an_entry(self):
        s = spectrum(rational_map_from_text("z^2+1"), 2)
        assert fingerprint(s, 1e-18).digest == 9218259196401260504
        # a cell index past int64 cannot be packed
        with pytest.raises(ValueError, match=r"entry \(2\+0j\) has no grid cell at quantum 1e-19"):
            fingerprint(s, 1e-19)
        # the grid values themselves are unbounded Python ints, so they stand
        got = hashlib.sha256(repr(quantized_levels(s, 1e-19)).encode()).hexdigest()
        assert got == "5daa34acb8c211aaa4c78a64026fe1a95d438ca22421f5be5cbb244f23036a3d"
        # here entry / step is inf
        with pytest.raises(ValueError, match=r"entry \(2\+0j\) has no grid cell at quantum 1e-320"):
            quantized_levels(s, 1e-320)


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

    def test_zero_tail_tolerance_boundary(self):
        # relative tolerance 1e-6: 1e-4 is a value, 1e-7 a vanishing one
        assert zero_multiplier_count([1.0, 1e-4]) == 0
        assert zero_multiplier_count([1.0, 1e-7]) == 1

    def test_inconsistent_counts_raise(self):
        bogus = MultiplierSpectrum(2, 2, ((1 + 0j, 1 + 0j, 0j), (1 + 0j,) * 5))
        with pytest.raises(InconsistentZeroCounts):
            disjoint_type_from_spectrum(bogus)


# a finite entry of level 8 of random_map(2, 12) whose modulus is past the
# double range: abs() of it overflowed in compare, fingerprint and zero counts
_PAST_MODULUS = complex(1.2633728757753214e308, -1.5633873868906351e308)


class TestEntryRule:
    def test_compare_past_the_modulus_range(self):
        s = MultiplierSpectrum(2, 1, ((_PAST_MODULUS, 1 + 0j, 0j),))
        assert compare_spectra(s, s) == (True, 0.0)
        # |e - (-e)| / |e| is 2, though neither |2e| nor |e| is a double
        t = MultiplierSpectrum(2, 1, ((-_PAST_MODULUS, 1 + 0j, 0j),))
        assert compare_spectra(s, t) == (False, 2.0)

    def test_fingerprint_levels_and_count_past_the_modulus_range(self):
        s = MultiplierSpectrum(2, 1, ((_PAST_MODULUS, 0j, 0j),))
        assert fingerprint(s).digest == fingerprint(s).digest
        levels = quantized_levels(s)
        assert all(math.isfinite(v) for level in levels for pair in level for v in pair)
        assert zero_multiplier_count((_PAST_MODULUS, 0j, 0j)) == 2

    def test_largest_cell_exponent_is_1023(self):
        # log2 of this modulus rounds to 1024, and 2.0**1024 is no double
        assert spectrum_module._quantize_entry(1.7e308 + 0j, 1e-6)[2] == 1023

    def test_quantum_too_coarse_for_an_entry(self):
        # the step quantum * 2**exp2 is inf: no cell, where nan was stored
        s = spectrum(rational_map_from_text("z^2-3"), 4)
        for reader in (quantized_levels, fingerprint):
            with pytest.raises(ValueError, match=r"has no grid cell at quantum 1e\+300"):
                reader(s, 1e300)

    def test_zero_counts_refuse_non_finite_levels(self):
        # level 8 of z^2 holds 159 inf or nan entries; counting through them
        # reported a remainder of -1
        with np.errstate(over="ignore", invalid="ignore"):
            s = spectrum(power_map(2), 8)
        with pytest.raises(NonFiniteSpectrum):
            disjoint_type_from_spectrum(s)


def test_spectrum_matches_levels():
    f = random_map(2, 3)
    s = spectrum(f, 2)
    assert close(s.levels[0], spectrum_level(f, 1), tol=1e-12)
    assert close(s.levels[1], spectrum_level(f, 2), tol=1e-12)
    assert s.degree == 2 and s.max_period == 2


def test_package_attribute_spectrum_is_the_function():
    # the package re-exports the function under the module's own name;
    # the module itself is reached through importlib
    import multispec
    import multispec.spectrum as bound

    assert multispec.spectrum is spectrum_module.spectrum
    assert bound is spectrum_module.spectrum
    assert spectrum_module.__name__ == "multispec.spectrum"
