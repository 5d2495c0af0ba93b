import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from multispec import NoConvergence, binary_form_roots, roots
from multispec import rootfind


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


def test_determinism_bit_for_bit():
    rng = np.random.default_rng(55)
    coeffs = rng.normal(size=40) + 1j * rng.normal(size=40)
    a = roots(coeffs)
    b = roots(coeffs)
    assert [(r.location.x, r.location.y, r.multiplicity, r.residual) for r in a.roots] == \
           [(r.location.x, r.location.y, r.multiplicity, r.residual) for r in b.roots]


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
