import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from efimov.numerics import (
    BracketingError,
    ConvergenceError,
    QuadratureRule,
    count_brackets,
    find_root,
    gauss_legendre,
    gauss_legendre_log,
    locate_levels,
    propagate,
)
from scipy.optimize import brentq
from scipy.special import airy


def _integrate(rule, f):
    return float(np.dot(rule.weights, f(rule.nodes)))


def test_gauss_legendre_exact_for_polynomials():
    rule = gauss_legendre(5, -1.0, 3.0)
    # degree 9 = 2n - 1 is still exact
    coeffs = np.arange(1.0, 11.0)
    f = np.polynomial.Polynomial(coeffs)
    exact = f.integ()(3.0) - f.integ()(-1.0)
    assert _integrate(rule, f) == pytest.approx(exact, rel=1e-13)


def test_gauss_legendre_spectral_convergence():
    f = lambda x: np.exp(np.sin(3.0 * x))
    exact = _integrate(gauss_legendre(200, 0.0, 2.0), f)
    errs = [abs(_integrate(gauss_legendre(n, 0.0, 2.0), f) - exact) for n in (4, 8, 16, 32)]
    # error decays faster than any power of 1/n: doubling n must beat n^-4
    assert errs[1] < errs[0] / 16.0
    assert errs[2] < errs[1] / 16.0
    assert errs[3] < 1e-13


def test_log_rule_handles_many_decades():
    rule = gauss_legendre_log(60, 1e-8, 1e4)
    assert _integrate(rule, lambda p: 1.0 / p) == pytest.approx(math.log(1e12), rel=1e-12)


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


# (f, lo, hi): smooth roots; a near-triple root and a jump, which take the
# bisection fallback; a steep atan whose flat tails make secant steps
# overshoot; and a sign change across a pole
_BRENT_CASES = [
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    (math.sin, 3.0, 4.0),
    (lambda x: math.exp(x) - 10.0, 0.0, 5.0),
    (lambda x: (x - 0.3) ** 3 + 1e-9 * (x - 0.3), 0.0, 1.0),
    (lambda x: math.copysign(1.0, x - 0.123), -1.0, 1.0),
    (lambda x: math.atan(1e6 * (x - 0.7)), 0.0, 1.0),
    (lambda x: 1.0 / (x - 0.5), 0.0, 1.2),
    (lambda x: x * math.exp(-x) - 0.1, 0.0, 1.0),
]


@pytest.mark.parametrize("tol", [1e-12, 1e-13, 1e-6])
@pytest.mark.parametrize("f, lo, hi", _BRENT_CASES)
def test_find_root_is_brentq_with_one_evaluation_per_endpoint(f, lo, hi, tol):
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    root = find_root(counted, lo, hi, tol=tol)
    ref, info = brentq(f, lo, hi, xtol=tol, rtol=4 * np.finfo(float).eps, full_output=True)
    assert root == ref  # bit for bit
    assert len(calls) == info.function_calls  # brentq's count includes both endpoints
    assert calls[:2] == [lo, hi]


def test_find_root_reports_non_convergence_as_brentq_does():
    # at a triple root f is rounding noise within 1e-5 of 0.3, so 100
    # iterations do not reach 1e-12
    f = lambda x: (x - 0.3) ** 3
    with pytest.raises(RuntimeError):
        brentq(f, 0.0, 1.0, xtol=1e-12, rtol=4 * np.finfo(float).eps)
    with pytest.raises(ConvergenceError):
        find_root(f, 0.0, 1.0, tol=1e-12)


def test_find_root_rejects_nan_inside_the_bracket():
    # the endpoints are fine and of opposite sign; the first secant step
    # lands at 0.5, inside the NaN window
    f = lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5
    with pytest.raises(ConvergenceError, match="NaN"):
        find_root(f, 0.0, 1.0)


def test_find_root_requires_bracket():
    with pytest.raises(BracketingError):
        find_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_reference_rule_is_shared_and_read_only():
    from efimov.numerics import _leggauss

    x, w = _leggauss(7)
    assert _leggauss(7)[0] is x
    with pytest.raises(ValueError):
        x[0] = 0.0
    # the mapped rules are copies: the shared reference rule is unchanged
    gauss_legendre(7, 2.0, 5.0).nodes[0] = 9.0
    assert x[0] == _leggauss.__wrapped__(7)[0][0]


def _mp_legendre(n, x):
    """P_{n-1}(x) and P_n(x) by the three-term recurrence in mpmath."""
    p0, p1 = mpmath.mpf(1), x
    for j in range(1, n):
        p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
    return p0, p1


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 48, 100, 260, 400, 3000, 10000])
def test_gauss_legendre_matches_mpmath(n):
    from efimov.numerics import _leggauss

    x, w = _leggauss(n)
    assert w.sum() == pytest.approx(2.0, abs=1e-14)
    # the eight end nodes: the first four started from the tabulated Bessel
    # zeros, and those on both sides of the evaluator's switch from the
    # Fourier series to Stieltjes' (2n sin theta = 40, between the sixth
    # and seventh node for large n); and the middle one.  The nodes at the
    # other end are their mirror images
    for i in sorted({*range(min(8, n)), n // 2}):
        assert (x[n - 1 - i], w[n - 1 - i]) == (-x[i], w[i])
        with mpmath.workdps(40):
            # Newton from the float node; findroot(legendre) stalls near the ends at n = 3000
            xm = mpmath.mpf(float(x[i]))
            for _ in range(3):
                p0, p1 = _mp_legendre(n, xm)
                xm -= p1 * (1 - xm**2) / (n * (p0 - xm * p1))
            wm = 2 * (1 - xm**2) / (n * _mp_legendre(n, xm)[0]) ** 2
            assert abs(x[i] - xm) < 1e-15
            assert abs(w[i] / wm - 1) < 1e-13


@pytest.mark.parametrize("n, passes", [(1, 3), (2, 3), (7, 2), (121, 2), (122, 1), (3000, 1)])
def test_gauss_legendre_newton_passes(monkeypatch, n, passes):
    # one O(n) pass of the Legendre evaluator per Newton step: from the
    # Bessel-zero start one pass reaches rounding for n >= 122, where a
    # start from Tricomi's nodes took three steps and a weight pass
    from efimov import numerics

    calls = []
    theta_pass = numerics._legendre_theta

    def counted(n, theta):
        calls.append(n)
        return theta_pass(n, theta)

    monkeypatch.setattr(numerics, "_legendre_theta", counted)
    numerics._leggauss.__wrapped__(n)
    assert len(calls) == passes


def test_bessel_zeros_match_mpmath():
    from efimov.numerics import _J0_ZEROS, _bessel_j0_zeros

    exact = [float(mpmath.besseljzero(0, k)) for k in range(1, 41)]
    # the tabulated zeros to one ulp, McMahon's expansion beyond them
    assert all(abs(z - e) <= np.spacing(e) for z, e in zip(_J0_ZEROS, exact))
    assert _bessel_j0_zeros(40) == pytest.approx(exact, rel=1.3e-14, abs=0)
    assert _bessel_j0_zeros(3).tolist() == list(_J0_ZEROS[:3])


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(st.floats(0.001, 0.999), min_size=0, max_size=12, unique=True))
def test_locate_levels_returns_every_step_once(steps):
    steps = sorted(steps)
    assume(np.diff([0.0] + steps + [1.0]).min() > 1e-6)
    count = lambda x: int(np.searchsorted(steps, x))  # steps below x
    brackets = count_brackets(count, 0.0, 1.0, tol=1e-12)
    assert [k for _, _, k in brackets] == list(range(len(steps)))
    assert all(a <= steps[k] < b for a, b, k in brackets)
    # the step between counts k and k + 1 is the zero of x - steps[k]
    roots = locate_levels(count, lambda x, k: x - steps[k], 0.0, 1.0, tol=1e-12)
    assert len(roots) == len(steps)
    assert roots == pytest.approx(steps, rel=0, abs=1e-12)
    # a decreasing count is located the same way: its step between -k and
    # -(k + 1) has min = -(k + 1)
    down = locate_levels(lambda x: -count(x), lambda x, k: x - steps[-k - 1], 0.0, 1.0, 1e-12)
    assert down == pytest.approx(steps, rel=0, abs=1e-12)


def test_locate_levels_rejects_coincident_steps():
    count = lambda x: 2 if x > 0.3 else 0
    with pytest.raises(ConvergenceError):
        locate_levels(count, lambda x, k: x - 0.3, 0.0, 1.0, tol=1e-9)


@pytest.mark.parametrize("q0", [4.0, -0.0625])
def test_propagate_exact_for_constant_q(q0):
    # one Magnus step is the exact exponential when q is constant, so a
    # coarse grid (steps of 0.3 and 0.4) only adds rounding
    x = np.array([0.0, 0.3, 0.6, 1.0, 1.4, 1.7])
    y, dy = propagate(lambda t: np.full_like(t, q0), x, (1.0, 0.5))
    k = math.sqrt(abs(q0))
    if q0 > 0:
        y_ex = np.cosh(k * x) + 0.5 / k * np.sinh(k * x)
        dy_ex = k * np.sinh(k * x) + 0.5 * np.cosh(k * x)
    else:
        y_ex = np.cos(k * x) + 0.5 / k * np.sin(k * x)
        dy_ex = -k * np.sin(k * x) + 0.5 * np.cos(k * x)
    assert y == pytest.approx(y_ex, rel=1e-13, abs=1e-13)
    assert dy == pytest.approx(dy_ex, rel=1e-13, abs=1e-13)


def test_propagate_is_fourth_order_on_airy():
    # y'' = x y from Ai on [-4, 2]: the error falls by 2^4 when h halves
    err = []
    for n in (200, 400, 800):
        x = np.linspace(-4.0, 2.0, n + 1)
        ai, aip, _, _ = airy(x)
        y, _ = propagate(lambda t: t, x, (ai[0], aip[0]))
        err.append(np.max(np.abs(y - ai)))
    assert err[0] / err[1] == pytest.approx(16.0, rel=0.05)
    assert err[1] / err[2] == pytest.approx(16.0, rel=0.05)


def test_propagate_rejects_unresolved_oscillation():
    x = np.linspace(0.0, 1.0, 11)  # 0.1 per step against a period of 2 pi / 5
    with pytest.raises(ConvergenceError, match="oscillation"):
        propagate(lambda t: np.full_like(t, -25.0), x, (0.0, 1.0))
