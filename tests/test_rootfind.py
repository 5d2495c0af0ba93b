import hashlib
import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from multispec import NoConvergence, binary_form_roots, lattes_mult2, roots, spectrum
from multispec import rootfind
from multispec.families import random_map
from multispec.spectrum import fixed_point_form


def locations(rs):
    return sorted(rs.affine_values(expand=True), key=lambda z: (z.real, z.imag))


def test_quadratic_plus_minus_one():
    rs = roots([-1, 0, 1])
    assert locations(rs) == pytest.approx([-1, 1])
    assert all(r.residual <= 1e-12 for r in rs.roots)


def test_double_root_clusters():
    rs = roots(np.convolve([-1, 1], [-1, 1]))
    assert len(rs.roots) == 1
    root = rs.roots[0]
    assert root.multiplicity == 2
    assert abs(root.location.affine - 1.0) < 1e-7


def test_cube_roots_of_unity():
    rs = roots([-1, 0, 0, 1])
    vals = locations(rs)
    expected = sorted(
        [np.exp(2j * np.pi * k / 3) for k in range(3)],
        key=lambda z: (z.real, z.imag),
    )
    for a, b in zip(vals, expected):
        assert abs(a - b) < 1e-12
    assert all(r.residual <= 1e-12 for r in rs.roots)


def test_zero_roots_are_exact():
    rs = roots([0, 0, 0, 2.0])
    assert len(rs.roots) == 1
    assert rs.roots[0].location.affine == 0
    assert rs.roots[0].multiplicity == 3


def test_reconstruction_well_separated():
    # rebuild the monic polynomial from reported roots: coefficient-wise 1e-8.
    # Well-separated here means separation on the scale the degree allows:
    # jittered near-circle roots keep both the coefficients and the root
    # sensitivities tame up to degree 64 (a dense cloud deep inside the disk
    # would make the polynomial flat below evaluation noise, which no
    # coefficient-based solver can see through).
    rng = np.random.default_rng(101)
    for deg in (4, 9, 17, 33, 48, 64):
        angles = 2 * np.pi * np.arange(deg) / deg
        angles = angles + rng.uniform(-0.25, 0.25, size=deg) * 2 * np.pi / deg
        radii = rng.uniform(0.7, 1.3, size=deg)
        true_roots = [complex(r * np.cos(t), r * np.sin(t)) for r, t in zip(radii, angles)]
        coeffs = npoly.polyfromroots(true_roots)
        rs = roots(coeffs)
        rebuilt = npoly.polyfromroots(rs.affine_values(expand=True))
        scale = np.max(np.abs(coeffs))
        assert np.max(np.abs(rebuilt - coeffs)) <= 1e-8 * scale


def test_wide_modulus_spread():
    # tiny leading coefficient: one genuine huge root, no false infinity
    coeffs = np.array([1.0, -2.0, 1e-14], dtype=complex)
    rs = roots(coeffs)
    mods = sorted(abs(z) for z in rs.affine_values(expand=True))
    assert len(mods) == 2
    assert mods[1] > 1e12


def test_binary_form_multiplicity_conservation():
    rng = np.random.default_rng(7)
    for _ in range(10):
        deg = int(rng.integers(2, 30))
        deficit = int(rng.integers(0, 3))
        affine = rng.normal(size=deg - deficit + 1) + 1j * rng.normal(size=deg - deficit + 1)
        form = np.concatenate([affine, np.zeros(deficit)])
        rs = binary_form_roots(form, deg)
        assert rs.total_multiplicity == deg
        assert rs.infinity_multiplicity == deficit


def test_binary_form_examples():
    # X*Y of degree 2: roots 0 and infinity
    rs = binary_form_roots([0, 1], 2)
    assert rs.infinity_multiplicity == 1
    assert rs.affine_values() == [0j]
    # Y^2: everything at infinity
    rs = binary_form_roots([1], 2)
    assert rs.infinity_multiplicity == 2


@pytest.mark.parametrize("form, degree, message", [
    ([1, 0, 1], 1, "longer than the formal degree"),
    ([0, 0], 2, "zero form"),
    ([0j], 0, "zero form"),
])
def test_binary_form_guards(form, degree, message):
    with pytest.raises(ValueError, match=message):
        binary_form_roots(form, degree)


def test_determinism_bit_for_bit():
    rng = np.random.default_rng(55)
    coeffs = rng.normal(size=40) + 1j * rng.normal(size=40)
    a = roots(coeffs)
    b = roots(coeffs)
    assert [(r.location.x, r.location.y, r.multiplicity, r.residual) for r in a.roots] == \
           [(r.location.x, r.location.y, r.multiplicity, r.residual) for r in b.roots]


def test_triple_root_bits_are_pinned():
    # the triple root settles last, so most Aberth sweeps run with some rows
    # done; sha256 recorded with numpy 2.4.6 on x86-64
    rs = roots(npoly.polyfromroots([1, 1, 1, -2, 0.5j, 3 - 1j, -1 + 2j, 0.25]))
    reprs = [(repr(r.location), r.multiplicity, repr(r.residual)) for r in rs.roots]
    assert hashlib.sha256(repr(reprs).encode()).hexdigest() == (
        "248c2bdd7d489ff4776ccb59aca82056993d417001610859b9d4828434b4b06a")



def test_seeding_root_bits_are_pinned_at_census_degree():
    # a degree-257 level-8 fixed form, seeded with no residual gate as the
    # level pipeline does; sha256 recorded with numpy 2.4.6 on x86-64
    form = fixed_point_form(random_map(2, 11), 8)
    rs = binary_form_roots(form, 257, residual_tol=math.inf)
    reprs = [(repr(r.location), r.multiplicity, repr(r.residual)) for r in rs.roots]
    assert hashlib.sha256(repr(reprs).encode()).hexdigest() == (
        "72c8e495565a6a8e0868f3219ec14b8fe85cf6f935420f4653c3f2798bf25a31")


def _polyval_newton_correction(c, z, scale):
    """Reference: p/p' and |p|/scale from four polyval calls, points split by chart."""
    m = len(c) - 1
    crev = c[::-1].copy()
    dc, dcrev = npoly.polyder(c), npoly.polyder(crev)
    out = np.empty_like(z)
    res = np.empty(len(z), dtype=float)
    inner = np.abs(z) <= 1.0
    if np.any(inner):
        zi = z[inner]
        pv, dv = npoly.polyval(zi, c), npoly.polyval(zi, dc)
        dv = np.where(dv == 0, rootfind._EPS, dv)
        out[inner] = pv / dv
        res[inner] = np.abs(pv) / scale
    if np.any(~inner):
        zo = z[~inner]
        u = 1.0 / zo
        pv, du = npoly.polyval(u, crev), npoly.polyval(u, dcrev)
        denom = m * pv - u * du
        denom = np.where(denom == 0, rootfind._EPS, denom)
        out[~inner] = zo * pv / denom
        res[~inner] = np.abs(pv) / scale
    return out, res


def _signed_zero_coeffs(rng, degree):
    """Two real coefficient arrays whose zero parts carry both signs.

    The first is random, with -0-0j at every third entry. The second is
    z^(d-1) (z + 1) with -0-0j for every zero coefficient: at its exact
    root -1, p/p' is a signed zero whose sign comes from p', and so from
    the sign of the zero parts of the derivative coefficients.
    """
    c = np.empty(degree + 1, dtype=complex)
    c.real = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, -2.5], size=degree + 1)
    c.imag = rng.choice([0.0, -0.0], size=degree + 1)
    c[::3] = complex(-0.0, -0.0)
    c[-1] = 1.0
    rooted = np.full(degree + 1, complex(-0.0, -0.0))
    rooted[-2:] = 1.0
    return c, rooted


@pytest.mark.parametrize("degree", [1, 2, 8, 65, 257, 513])
def test_newton_correction_matches_polyval_bit_for_bit(degree):
    rng = np.random.default_rng(500 + degree)
    c = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    inside = np.sqrt(rng.uniform(size=40)) * np.exp(2j * np.pi * rng.uniform(size=40))
    outside = np.exp(rng.uniform(0.0, 8.0, size=40) + 2j * np.pi * rng.uniform(size=40))
    # |z| == 1 exactly for each of these
    circle = [1, -1, 1j, -1j, 0.6 + 0.8j, 0.8 - 0.6j, -0.28 + 0.96j]
    edge = [0, 1e150, -3e149 + 1e150j]
    z = np.concatenate([inside, outside, np.array(circle + edge, dtype=complex)])
    assert np.count_nonzero(np.abs(z) == 1.0) == len(circle)
    live = np.flatnonzero(rng.uniform(size=len(z)) < 0.3)
    cases = [(c, z, live)]
    # real coefficients with signed zero parts, at 0 and at real points
    # (+0 imaginary parts) inside and outside the unit disk
    real = np.concatenate([[0.0, -1.0, 1.0, -0.5, 0.5], 3.0 * rng.normal(size=20)])
    real = real.astype(complex)
    for signed in _signed_zero_coeffs(rng, degree):
        cases.append((signed, real, np.arange(0, len(real), 3)))
    for coeffs, points, subset in cases:
        scale = float(np.max(np.abs(coeffs)))
        table = rootfind._newton_table(coeffs)
        # all points, then a live subset as the Aberth sweep evaluates it
        for pts in (points, points[subset]):
            got = rootfind._newton_correction(table, pts, scale)
            want = _polyval_newton_correction(coeffs, pts, scale)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("degree", [1, 2, 8, 65, 257])
def test_residuals_match_newton_correction_bit_for_bit(degree):
    rng = np.random.default_rng(900 + degree)
    c = (rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)) * 10.0 ** rng.uniform(
        -6, 6, size=degree + 1)
    z = np.exp(rng.uniform(-8.0, 8.0, size=60) + 2j * np.pi * rng.uniform(size=60))
    z = np.concatenate([z, [0, 1, -1j, 0.6 + 0.8j, 1e150]])
    scale = float(np.max(np.abs(c)))
    want = rootfind._newton_correction(rootfind._newton_table(c), z, scale)[1]
    assert rootfind._residuals(c, z, scale).tobytes() == want.tobytes()


def test_roots_at_the_origin_form_no_derivative():
    # 2 * 1e308 overflows: the zero roots' residuals need p alone
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rs = roots([0, 0, 1e308])
    assert [(r.location.affine, r.multiplicity, r.residual) for r in rs.roots] == [(0, 2, 0.0)]


def test_non_finite_approximation_is_no_convergence():
    # the level-5 seeding of this Lattes map overflows in the Aberth sweep;
    # a non-finite root is refused, not handed to ProjectivePoint
    with pytest.raises(NoConvergence, match="non-finite approximation"):
        spectrum(lattes_mult2((1, 1)), 5)


def test_no_convergence_is_an_error(monkeypatch):
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=24) + 1j * rng.normal(size=24)
    monkeypatch.setattr(rootfind, "MAX_ITER", 1)
    monkeypatch.setattr(rootfind, "NEWTON_STEPS", 0)
    with pytest.raises(NoConvergence) as err:
        roots(coeffs)
    assert err.value.worst_residual > 1e-10


def test_degree_zero_rejected():
    with pytest.raises(ValueError):
        roots([3.0])


# 1000 elements give chunks of 5, 18, 20 and 55 coefficients for the point
# sets below, none of which divides the 513 coefficients under the top one:
# each table ends on a short chunk
@pytest.mark.parametrize("budget", [1, 1000, 40000])
def test_newton_correction_in_chunks_matches_polyval_bit_for_bit(monkeypatch, budget):
    monkeypatch.setattr(rootfind, "BLOCK_ELEMENTS", budget)
    test_newton_correction_matches_polyval_bit_for_bit(513)
    test_residuals_match_newton_correction_bit_for_bit(257)


def test_small_blocks_keep_every_root_bit(monkeypatch):
    rng = np.random.default_rng(38)
    c = rng.normal(size=300) + 1j * rng.normal(size=300)
    doubled = np.convolve(np.convolve(c[:40], [-0.5, 1]), [-0.5, 1])  # a held double root

    def bits(p):
        return [(repr(r.location), r.multiplicity, repr(r.residual)) for r in roots(p).roots]

    want = [bits(c), bits(doubled)]
    monkeypatch.setattr(rootfind, "BLOCK_ELEMENTS", 7)
    assert [bits(c), bits(doubled)] == want


def test_repulsion_sums_each_row_in_index_order(monkeypatch):
    rng = np.random.default_rng(39)
    z = rng.normal(size=50) + 1j * rng.normal(size=50)
    live = np.flatnonzero(rng.uniform(size=50) < 0.6)
    diff = z[live][:, None] - z[None, :]
    diff[np.arange(len(live)), live] = np.inf
    want = np.sum(1.0 / diff, axis=1)
    for budget in (1, 60, 10**6):
        monkeypatch.setattr(rootfind, "BLOCK_ELEMENTS", budget)
        assert rootfind._repulsion(z, z[live], live).tobytes() == want.tobytes()


@pytest.mark.parametrize("budget", [1, 60, 10**6])
def test_near_pair_found_in_any_block(monkeypatch, budget):
    monkeypatch.setattr(rootfind, "BLOCK_ELEMENTS", budget)
    z = np.exp(2j * np.pi * np.arange(40) / 40)
    assert not rootfind._has_near_pair(z, rootfind.CLUSTER_RADIUS)
    for i in (0, 23, 39):
        near = z.copy()
        near[(i + 17) % 40] = z[i] * (1 + 1e-9)
        assert rootfind._has_near_pair(near, rootfind.CLUSTER_RADIUS)


@pytest.mark.parametrize("coeffs, want", [
    ([-1e308, 0, 1e308], [(-1, 1), (1, 1)]),
    # roots +-1e-150i, one cluster at the origin's resolution
    ([1, 0, 1e300], [(0, 2)]),
])
def test_huge_coefficients_are_scaled_silently(coeffs, want):
    # 2 * 1e308 overflows the derivative table, and the cluster's Newton
    # steps overflowed p(z) * z for 1e300: such a polynomial is brought to
    # unit scale first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rs = roots(coeffs)
    got = [(r.location.affine, r.multiplicity) for r in rs.roots]
    assert [m for _, m in got] == [m for _, m in want]
    assert [z for z, _ in got] == pytest.approx([z for z, _ in want], abs=1e-12)
