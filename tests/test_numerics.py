import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efimov.numerics import (
    BracketingError,
    QuadratureRule,
    det_sign,
    find_root,
    gauss_legendre,
    gauss_legendre_log,
    scan_sign_changes,
    smallest_eigenvalue,
)


def test_gauss_legendre_exact_for_polynomials():
    rule = gauss_legendre(5, -1.0, 3.0)
    # degree 9 = 2n - 1 is still exact
    coeffs = np.arange(1.0, 11.0)
    f = np.polynomial.Polynomial(coeffs)
    exact = f.integ()(3.0) - f.integ()(-1.0)
    assert rule.integrate(f) == pytest.approx(exact, rel=1e-13)


def test_gauss_legendre_spectral_convergence():
    f = lambda x: np.exp(np.sin(3.0 * x))
    exact = gauss_legendre(200, 0.0, 2.0).integrate(f)
    errs = [abs(gauss_legendre(n, 0.0, 2.0).integrate(f) - exact) for n in (4, 8, 16, 32)]
    # error decays faster than any power of 1/n: doubling n must beat n^-4
    assert errs[1] < errs[0] / 16.0
    assert errs[2] < errs[1] / 16.0
    assert errs[3] < 1e-13


def test_log_rule_handles_many_decades():
    rule = gauss_legendre_log(60, 1e-8, 1e4)
    assert rule.integrate(lambda p: 1.0 / p) == pytest.approx(math.log(1e12), rel=1e-12)
    assert rule.mapping == "log"


def test_quadrature_rule_rejects_bad_input():
    with pytest.raises(ValueError):
        QuadratureRule([1.0, 0.5], [1.0, 1.0])
    with pytest.raises(ValueError):
        QuadratureRule([0.5, 1.0], [1.0, -1.0])
    with pytest.raises(ValueError):
        gauss_legendre_log(10, -1.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(root=st.floats(-0.9, 0.9))
def test_find_root_recovers_cubic_root(root):
    f = lambda x: (x - root) * (x**2 + 1.0)
    assert find_root(f, -1.0, 1.0) == pytest.approx(root, abs=1e-10)


def test_find_root_requires_bracket():
    with pytest.raises(BracketingError):
        find_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_scan_sign_changes_locates_all_zeros():
    grid = np.linspace(0.1, 9.9, 200)
    brackets = scan_sign_changes(math.sin, grid)
    roots = [find_root(math.sin, lo, hi) for lo, hi in brackets]
    assert roots == pytest.approx([math.pi, 2 * math.pi, 3 * math.pi], rel=1e-10)


def test_smallest_eigenvalue_matches_symmetric_reference():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(8, 8))
    m = m + m.T
    val, vec = smallest_eigenvalue(m)
    ref = np.linalg.eigvalsh(m)
    assert abs(val) == pytest.approx(np.min(np.abs(ref)), rel=1e-10)
    assert np.linalg.norm(m @ vec - val * vec) < 1e-8


def test_det_sign_flips_with_eigenvalue_crossing():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(6, 6))
    m = m + m.T
    lam = np.linalg.eigvalsh(m)[2]
    before = det_sign(m - (lam - 1e-3) * np.eye(6))
    after = det_sign(m - (lam + 1e-3) * np.eye(6))
    assert before * after == -1.0

