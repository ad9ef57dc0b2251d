import functools
import math
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson
from scipy.interpolate import CubicSpline
from scipy.special import jv

from efimov import two_body
from efimov.numerics import find_root

from efimov.stm import StmKernel
from efimov.two_body import (
    FormFactor,
    TwoBodyModel,
    VirtualStateError,
    ZeroEnergyState,
    _bessel_j,
    _simpson,
    _sine_transform,
    dimer_energy,
    est_form_factor,
    half_effective_range_tail,
    poschl_teller_low_energy,
    separable_dimer_energy,
    solve_zero_energy,
    step_form_factor,
    universal_tail_form_factor,
    universal_tail_wavefunction,
)


def _pt(lam, rng=1.0):
    return TwoBodyModel("poschl_teller", {"lambda": lam, "range": rng})


def test_square_well_matches_analytic():
    depth, rng = 2.0, 1.0
    st_ = solve_zero_energy(TwoBodyModel("square_well", {"depth": depth, "range": rng}))
    k = math.sqrt(depth)  # weight 1 for reduced mass 1/2
    a_exact = rng * (1.0 - math.tan(k * rng) / (k * rng))
    assert st_.a == pytest.approx(a_exact, rel=1e-10)


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.9, 1.3, 1.7, 1.9])
def test_poschl_teller_matches_closed_form(lam):
    st_ = solve_zero_energy(_pt(lam))
    inv_a, r_e = poschl_teller_low_energy(lam)
    assert st_.a * inv_a == pytest.approx(1.0, rel=1e-12)
    # at lam = 0.3 (a = -0.39) phi grows to 100 by r_max = 40, and the
    # rounding of the propagated phi leaves r_e 2e-10 off
    assert st_.r_e == pytest.approx(r_e, rel=3e-10 if lam == 0.3 else 1e-10)


def test_harmonic_and_tetragamma_match_mpmath():
    # H_{x-1} = gamma_E + psi(x) and psi''(x) for x in [0.5, 12]; H is
    # relative to rounding even through its zero at x = 1, where
    # gamma_E + psi(x) cancels
    with mpmath.workdps(30):
        for x in [*np.linspace(0.5, 12.0, 461), 1.0 + 1e-12, 1.0 - 1e-9, 1.001]:
            x = float(x)
            assert two_body._harmonic(x - 1.0) == pytest.approx(
                float(mpmath.harmonic(x - 1.0)), rel=1e-14, abs=0
            ), x
            assert two_body._tetragamma(x) == pytest.approx(
                float(mpmath.polygamma(2, x)), rel=1e-14, abs=0
            ), x


def _poschl_teller_phase_shift_expansion(lam):
    """(1/a, r_e/a) of the range-1 sech^2 well from the Taylor coefficients
    c1, c3 of its exact phase shift (Flugge, Problem 39) at 30 digits:
    a = -c1, r_e = -2 c3/c1^2 - 2 c1/3.  ln Gamma((1 - lam + ik)/2) is
    taken as ln Gamma((3 - lam + ik)/2) - ln((1 - lam + ik)/2), whose
    imaginary part is atan(k/(1 - lam)) modulo pi, so every term is
    analytic at k = 0 for lam < 3."""
    with mpmath.workdps(30):
        lam = mpmath.mpf(lam)

        def delta(k):
            return (
                -k * mpmath.log(2)
                + mpmath.im(mpmath.loggamma(1 + 1j * k))
                - mpmath.im(mpmath.loggamma(1 + (lam + 1j * k) / 2))
                - mpmath.im(mpmath.loggamma((3 - lam + 1j * k) / 2))
                + mpmath.atan(k / (1 - lam))
            )

        _, c1, _, c3 = mpmath.taylor(delta, 0, 3)
        return float(-1 / c1), float((2 * c3 / c1**2 + 2 * c1 / 3) / c1)


@pytest.mark.parametrize("lam", [0.01, 0.3, 0.95, 1 - 1e-9, 1 + 1e-9, 1.3, 2.0, 2.5])
def test_poschl_teller_low_energy_matches_the_phase_shift(lam):
    inv_a, r_e = poschl_teller_low_energy(lam)
    ref_inv_a, ref_shape = _poschl_teller_phase_shift_expansion(lam)
    assert inv_a == pytest.approx(ref_inv_a, rel=1e-13)
    assert r_e * inv_a == pytest.approx(ref_shape, rel=1e-13)


def test_poschl_teller_low_energy_exact_points():
    inv_a, r_e = poschl_teller_low_energy(2.0)
    assert abs(1.0 / inv_a - 1.5) < 1e-15 and abs(r_e - 2.0 / 3.0) < 1e-15
    inv_a, r_e = poschl_teller_low_energy(1.0)  # unitarity: a = inf, r_e = 2
    assert inv_a == 0.0 and r_e == pytest.approx(2.0, rel=1e-15)


def _tail_scattering_length(n, cn, core, r):
    """r - u/u' at r of the exact zero-energy solution of u'' = -cn r^-n u
    with u(core) = 0: u = sqrt(r) [A J_nu(z) + B J_-nu(z)], nu = 1/(n-2),
    z = (2 sqrt(cn)/(n-2)) r^-((n-2)/2)."""
    with mpmath.workdps(30):
        nu = mpmath.mpf(1) / (n - 2)

        def z(x):
            return 2 * mpmath.sqrt(cn) / (n - 2) * mpmath.mpf(x) ** (-(mpmath.mpf(n) - 2) / 2)

        A, B = mpmath.besselj(-nu, z(core)), -mpmath.besselj(nu, z(core))

        def u(x):
            return mpmath.sqrt(x) * (A * mpmath.besselj(nu, z(x)) + B * mpmath.besselj(-nu, z(x)))

        return float(r - u(r) / mpmath.diff(u, r))


@pytest.mark.parametrize(
    "kind, params, n, cn",
    [
        ("vdw_hard_core", {"c6": 1.0, "core": 0.3}, 6, 1.0),
        ("power_law_tail", {"n": 5, "cn": 1.0, "core": 0.3}, 5, 1.0),
        ("power_law_tail", {"n": 8, "cn": 1.0, "core": 0.5}, 8, 1.0),
    ],
    ids=["vdw", "n5", "n8"],
)
def test_hard_core_tail_matches_bessel_solution(kind, params, n, cn):
    # matched at the solver's own r_max, so the O(r_max^-(n-2)) tail cut is shared
    st_ = solve_zero_energy(TwoBodyModel(kind, params))
    a_exact = _tail_scattering_length(n, cn, params["core"], st_.r[-1])
    assert st_.a == pytest.approx(a_exact, rel=1e-8)


def test_poschl_teller_unitarity_at_integer_lambda():
    # lambda = 1 sech^2 well holds a zero-energy bound state: 1/a = 0
    st_ = solve_zero_energy(_pt(1.0))
    assert abs(st_.inv_a) < 1e-8


def tune_to_scattering_length(
    model: TwoBodyModel,
    param: str,
    bracket: tuple[float, float],
    inv_a_target: float = 0.0,
) -> TwoBodyModel:
    """Adjust one potential parameter so the model has the target 1/a.

    1D root-find on 1/a(param); the bracket must straddle the target
    without crossing a resonance pole of a itself (1/a is continuous there,
    so only the target bracket matters).
    """

    def f(x):
        m = replace(model, params={**model.params, param: x})
        return solve_zero_energy(m).inv_a - inv_a_target

    x_star = find_root(f, *bracket, tol=1e-13)
    return replace(model, params={**model.params, param: x_star})


def test_tuning_helpers():
    m = tune_to_scattering_length(_pt(1.2), "lambda", (0.8, 1.3))
    assert m.params["lambda"] == pytest.approx(1.0, abs=1e-6)
    m2 = tune_to_scattering_length(_pt(1.2), "lambda", (1.05, 1.6), inv_a_target=0.25)
    assert solve_zero_energy(m2).inv_a == pytest.approx(0.25, abs=1e-8)


def test_half_effective_range_tail_constants():
    # Gao, PRA 58, 4222 (1998); Flambaum, Gribakin & Harabati, PRA 59, 1998 (1999)
    with mpmath.workdps(30):
        exact = {4: 2 * mpmath.pi / 3, 6: mpmath.gamma(0.25) ** 2 / (3 * mpmath.pi)}
        for n, ref in exact.items():
            assert abs(half_effective_range_tail(n) / ref - 1) < 1e-14, n


def _half_effective_range_by_quadrature(n):
    """int_0^inf [1 - phi(x)^2] dx by quad on [x_split, 50], where the Bessel
    argument falls from 120 to below 1.  Below x_split phi^2 is taken as its
    oscillation-averaged WKB envelope Gamma^2 x^{1+(n-2)/2}/(2 pi), and above
    50 1 - phi^2 as 2 x^{-(n-2)}/(1 + nu); both pieces integrate in closed
    form."""
    nu = 1.0 / (n - 2.0)
    x_split, x_top = (2.0 / 120.0) ** (2.0 / (n - 2.0)), 50.0
    val, _ = quad(
        lambda x: 1.0 - universal_tail_wavefunction(n, x) ** 2, x_split, x_top, limit=4000
    )
    g2 = math.gamma((n - 1.0) / (n - 2.0)) ** 2
    power = 2.0 + (n - 2.0) / 2.0
    small = x_split - g2 * x_split**power / (2.0 * math.pi * power)
    tail = 2.0 * x_top ** (-(n - 3.0)) / ((1.0 + nu) * (n - 3.0))
    return small + val + tail


@pytest.mark.parametrize("n", [5, 8])
def test_half_effective_range_tail_matches_quadrature(n):
    # the closed form holds for every n > 3, not only at the two known constants
    ref = _half_effective_range_by_quadrature(n)
    assert half_effective_range_tail(n) == pytest.approx(ref, rel=1e-6)


@pytest.mark.parametrize("n", [3, 2.5, math.nan])
def test_half_effective_range_tail_domain(n):
    with pytest.raises(ValueError):
        half_effective_range_tail(n)


def test_tail_wavefunctions_normalized_at_large_distance():
    x = np.array([50.0, 200.0])
    for n in (4, 5, 6, 8):
        assert universal_tail_wavefunction(n, x) == pytest.approx([1.0, 1.0], abs=1e-2)


def test_form_factors_normalized_at_zero_momentum():
    st_ = solve_zero_energy(_pt(1.3))
    for form in (
        est_form_factor(st_),
        step_form_factor(0.7),
        universal_tail_form_factor(4),
        universal_tail_form_factor(6),
        universal_tail_form_factor(4, 0.3),
        universal_tail_form_factor(6, 0.3),
    ):
        assert float(form(1e-9)) == pytest.approx(1.0, abs=1e-6)
        assert np.all(np.isfinite(form(np.linspace(1e-6, form.p_max, 50))))


def test_power4_admixture_matches_closed_form():
    # for n = 4 the 1/a admixture of the zero-energy state is x (1 - cos(2/x)),
    # which decays as 2/x: its sine transform needs the part past the r grid
    def transform(p):
        # p int_0^inf x (1 - cos(2/x)) sin(px) dx, split at x = 1; below, u = 1/x
        outer, _ = quad(lambda x: x * (1 - math.cos(2 / x)), 1.0, np.inf, weight="sin", wvar=p)
        inner, _ = quad(lambda u: math.sin(p / u) / u**3, 1.0, np.inf, limit=500)
        osc, _ = quad(lambda u: math.sin(p / u) / u**3, 1.0, np.inf, weight="cos", wvar=2.0)
        return p * (outer + inner - osc)

    p = np.array([1e-3, 0.01, 0.1, 1.0, 10.0])
    admixture = universal_tail_form_factor(4, 1.0)(p) - universal_tail_form_factor(4, 0.0)(p)
    assert admixture == pytest.approx([transform(q) for q in p], rel=0, abs=1e-5)


def test_tail_profile_at_unitarity_builds_no_admixture(monkeypatch):
    two_body._tail_unitarity(6)  # T_0, whose 1 - phi(x) takes J_{1/4}
    orders = []
    bessel_j = two_body._bessel_j

    def counted(nu, z):
        orders.append(nu)
        return bessel_j(nu, z)

    monkeypatch.setattr(two_body, "_bessel_j", counted)
    admixture = functools.cache(two_body._tail_admixture.__wrapped__)
    monkeypatch.setattr(two_body, "_tail_admixture", admixture)
    p = np.geomspace(1e-4, 200.0, 50)
    universal_tail_form_factor(6, 0.0)(p)
    assert orders == [] and admixture.cache_info().currsize == 0
    universal_tail_form_factor(6, 0.3)(p)
    assert orders == [-0.25] and admixture.cache_info().currsize == 1


def test_tail_profile_memory():
    # T_0 of n = 6 on its N = 114,625 nodes.  At its peak the build holds r,
    # the deficit and the weighted profile (N doubles each), the last run's
    # coefficients (0.87 N), FFT buffer and spectrum (1.74 N each), its
    # gridding tables and a few blocks of the offsets: 10.65 N measured,
    # under a bound of 12 N.  With the offsets, the deconvolution and f d
    # each an array of the run's size, the build took 13.8 N
    two_body._tail_unitarity(6)  # the first FFT's imports are not the build's
    tracemalloc.start()
    try:
        two_body._tail_unitarity.__wrapped__(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * two_body._tail_grid(6)[0].size * 8


def test_tail_profile_is_the_two_row_transform():
    # 1 - T_0 + (1/a) T_1, from the sine transform and spline of each deficit
    r, inner, _ = two_body._tail_grid(6)
    d0 = 1.0 - universal_tail_wavefunction(6, r)
    d1 = r - math.gamma(0.75) * np.sqrt(r) * _bessel_j(-0.25, 2.0 * r ** (-4.0 / 2.0))
    d0[inner], d1[inner] = 1.0, r[inner]
    p = np.concatenate([[0.0], np.geomspace(1e-6, 400.0, 3000)])
    t0, t1 = (
        two_body._geom_spline(two_body._P_TAB, np.r_[0.0, _sine_transform(r, d, two_body._P_TAB)])(p)
        for d in (d0, d1)
    )
    for inv_a in (0.0, 0.3, -1.0 / 10.84):
        ref = 1.0 - t0 + inv_a * t1
        assert universal_tail_form_factor(6, inv_a)(p) == pytest.approx(ref, rel=0, abs=1e-15)


@pytest.mark.parametrize("layout", ["vdw", "est", "jittered"])
def test_sine_transform_matches_direct_trapezoid(layout):
    if layout == "vdw":  # two uniform runs, and two profiles on them
        r = np.concatenate([np.arange(1e-6, 0.3, 2e-5), np.arange(0.3, 80.0, 8e-4)])
        delta = np.array([np.exp(-r) * np.cos(3.0 * r), r * np.exp(-0.5 * r)])
    elif layout == "est":  # one linspace, as a zero-energy state samples it
        r = np.linspace(1e-9, 40.0, 20000)
        delta = np.exp(-r) * (1.0 + r)
    else:  # uniform up to 1e-7: not a uniform run, whose phases would be off by p * 1e-7
        r = np.linspace(0.01, 30.0, 2000) + 1e-7 * np.sin(7.0 * np.arange(2000))
        delta = np.exp(-r)
    p = np.array([1e-4, 0.3, 4.7, 31.0, 100.0, 176.0])
    rows = np.atleast_2d(delta)
    got = [_sine_transform(r, d, p) for d in rows]
    assert all(row.shape == p.shape for row in got)
    # the trapezoid sum at the largest p in 40 digits, from the same float
    # nodes and weights
    q = mpmath.mpf(float(p[-1]))
    with mpmath.workdps(40):
        sines = [mpmath.sin(q * mpmath.mpf(float(x))) for x in r]
    for row, d in zip(got, rows):
        direct = [q * np.trapezoid(d * np.sin(q * r), r) for q in p]
        assert row == pytest.approx(direct, rel=0, abs=1e-12)
        w = np.convolve(np.diff(r), [0.5, 0.5]) * d
        with mpmath.workdps(40):
            exact = float(q * mpmath.fsum(float(a) * b for a, b in zip(w, sines)))
        assert abs(row[-1] - exact) < 1e-13


def _exact_sum(r, delta, p):
    """p sum_j w_j delta_j sin(p r_j) in 40 digits, trapezoid weights w_j
    rounded as _sine_transform rounds them."""
    w = np.convolve(np.diff(r), [0.5, 0.5]) * delta
    with mpmath.workdps(40):
        nodes = [mpmath.mpf(float(x)) for x in r]
        return np.array([
            float(q * mpmath.fsum(float(a) * mpmath.sin(q * x) for a, x in zip(w, nodes)))
            for q in map(mpmath.mpf, p.tolist())
        ])


def test_sine_transform_runs_of_every_length_up_to_64():
    # runs of 1 to 64 nodes, each with its own step: runs under 64 nodes
    # are summed directly, a 64-node run by the FFT
    lengths = list(range(1, 65))
    steps = 0.01 * (1.0 + 0.37 * np.sin(np.arange(64)))
    r = np.cumsum(np.concatenate([np.full(n, h) for n, h in zip(lengths, steps)]))
    delta = np.exp(-0.05 * r) * np.cos(r)
    p = np.array([0.0, 1e-3, 2.5, 40.0, 176.0])
    direct = [q * np.trapezoid(delta * np.sin(q * r), r) for q in p]
    assert _sine_transform(r, delta, p) == pytest.approx(direct, rel=0, abs=1e-12)
    # one uniform run on either side of the switch, against the exact sum
    for n in (2, 63, 64, 65, 200):
        rn = 0.5 + 0.013 * np.arange(n)
        dn = 1.0 / (1.0 + rn * rn)
        assert _sine_transform(rn, dn, p) == pytest.approx(_exact_sum(rn, dn, p), rel=0, abs=1e-13)


def test_sine_transform_aliases_as_the_trapezoid_sum():
    # p h past pi (up to 6.5 pi here): the sum is periodic in p h, and the
    # FFT must return the same alias as the direct sum
    r = 0.2 + 0.1 * np.arange(400)
    delta = np.exp(-r / 8.0)
    p = np.array([31.5, 40.0, 62.83, 99.0, 204.2])
    assert np.all(p * 0.1 > np.pi)
    assert _sine_transform(r, delta, p) == pytest.approx(_exact_sum(r, delta, p), rel=0, abs=1e-12)


def test_sine_transform_at_p_zero_is_zero():
    r, _, _ = two_body._tail_grid(6)
    assert np.all(_sine_transform(r, np.ones_like(r), np.zeros(3)) == 0.0)


def test_sine_integral_tail_matches_scipy_and_mpmath():
    # pi/2 - Si(x) at every x = p r_end of the n = 4 admixture's far tail,
    # and across the switch from the power series to the continued fraction
    from scipy.special import sici

    r, _, far = two_body._tail_grid(4)
    assert far
    x = np.concatenate([two_body._P_TAB * r[-1], np.linspace(0.9, 1.1, 21), [1.926447660317]])
    got = two_body._sine_integral_tail(x)
    # scipy's Si carries pi/2's rounding into the difference
    assert got == pytest.approx(0.5 * np.pi - sici(x)[0], rel=0, abs=1e-15)
    with mpmath.workdps(40):
        exact = np.array([float(mpmath.pi / 2 - mpmath.si(mpmath.mpf(float(v)))) for v in x])
    # against the envelope max(|value|, 1/x): at the zeros of the
    # oscillating tail no relative bound can hold
    assert np.all(np.abs(got - exact) <= 1e-15 * np.maximum(np.abs(exact), 1.0 / x))


def _built_tables(monkeypatch):
    """(p_tab, y) of every spline the form-factor builders make: the n = 6
    tail transforms T_0 and T_1 and the EST profile of a Poschl-Teller
    state."""
    tables = []

    def record(p_tab, y):
        tables.append((p_tab, y))
        return spline(p_tab, y)

    spline = two_body._geom_spline
    monkeypatch.setattr(two_body, "_geom_spline", record)
    t0 = two_body._tail_unitarity.__wrapped__(6)  # bypass the caches
    t1 = two_body._tail_admixture.__wrapped__(6)
    est = est_form_factor(solve_zero_energy(_pt(1.3)), p_max=40.0)
    return list(zip(tables, (t0, t1, est)))


def test_spline_matches_scipy_cubic_spline(monkeypatch):
    for (p_tab, y), evaluate in _built_tables(monkeypatch):
        knots = np.r_[0.0, p_tab]
        p = np.concatenate([
            knots,
            np.nextafter(knots[1:], 0.0),  # one ulp either side of each knot
            np.nextafter(knots, np.inf),
            np.geomspace(1e-6, p_tab[-1], 5000),
            [p_tab[-1], 1.5 * p_tab[-1], 1e9],  # the clamp
        ])
        ref = CubicSpline(knots, y)(np.minimum(p, p_tab[-1]))
        assert evaluate(p) == pytest.approx(ref, rel=0, abs=1e-15)
        assert evaluate(np.array(0.0)) == pytest.approx(y[0], rel=0, abs=0)


def test_simpson_is_scipy_simpson_bit_for_bit():
    st_ = solve_zero_energy(_pt(1.3))
    y = (1.0 - st_.r * st_.inv_a) ** 2 - st_.phi**2
    assert st_.r.size == 20001
    assert _simpson(y, st_.r) == simpson(y, x=st_.r)
    assert st_.r_e == 2.0 * simpson(y, x=st_.r)


@pytest.mark.parametrize("nu", [0.25, -0.25, 0.5, -0.5])
def test_bessel_j_matches_scipy_and_mpmath(nu):
    # dense across the three regimes: series (z <= 5), Miller (5 < z < 25), Hankel
    z = np.concatenate([np.geomspace(1e-4, 300.0, 4000), np.linspace(4.9, 25.1, 2021)])
    ref = jv(nu, z)
    # 1e-14 absolute, relative where |J| > 1: J_{-1/2}(1e-4) = 80 has a 1.4e-14 ulp
    assert np.all(np.abs(_bessel_j(nu, z) - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))
    pts = [1e-4, 0.3, 2.0, 5.0, 5.001, 9.7, 24.99, 25.0, 60.0, 300.0, 2e6]
    exact = np.array([float(mpmath.besselj(nu, z_)) for z_ in pts])
    got = _bessel_j(nu, np.array(pts))
    assert np.all(np.abs(got - exact) <= 2e-15 * np.maximum(1.0, np.abs(exact)))
    # the n = 6 tail grid's z = 2 x^-2 below the Hankel regime: its 99,209
    # series nodes span four blocks of the series loop, each of which stops
    # on its own terms
    z = 2.0 * two_body._tail_grid(6)[0] ** -2.0
    z = z[z < 25.0]
    ref = jv(nu, z)
    assert np.all(np.abs(_bessel_j(nu, z) - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))


def test_est_form_factor_reproduces_source_observables():
    # shape with a shallow dimer: a > 0, binding small enough for the
    # effective-range expansion to be accurate
    m = tune_to_scattering_length(_pt(1.1), "lambda", (1.02, 1.4), inv_a_target=0.12)
    st_ = solve_zero_energy(m)
    form = est_form_factor(st_, p_max=80.0)
    E_sep = separable_dimer_energy(form, st_.inv_a, 1e-8 * form.p_max)
    E_er = dimer_energy(st_.inv_a, st_.r_e)
    assert E_sep == pytest.approx(E_er, rel=5e-3)


def test_dimer_energy_zero_range_and_effective_range():
    assert dimer_energy(1.0 / 4.0) == pytest.approx(-1.0 / 16.0)
    a, re = 10.0, 1.0
    kap = (1.0 - math.sqrt(1.0 - 2.0 * re / a)) / re
    assert dimer_energy(1.0 / a, re) == pytest.approx(-(kap**2), rel=1e-12)


def test_a_B_branch():
    # the pole length a_B = 1/kappa of the effective-range pole equals a at
    # r_e = 0; past 2 r_e/a = 1 the pole moves to the virtual-state branch
    E = dimer_energy(1.0 / 7.0, 0.0)
    assert 1.0 / math.sqrt(-E) == pytest.approx(7.0)
    with pytest.raises(VirtualStateError):
        dimer_energy(1.0, 2.0)


def test_dimer_energy_narrow_resonance():
    a, rs = 5.0, 2.0
    kap = (-1.0 + math.sqrt(1.0 + 4.0 * rs / a)) / (2.0 * rs)
    E = dimer_energy(1.0 / a, -2.0 * rs)
    assert E == pytest.approx(-(kap**2), rel=1e-12)


def test_narrow_resonance_pole_without_cancellation():
    # r_e = -2 R* in the rationalized effective-range pole: no cancellation
    # as R* -> 0, where (-1 + sqrt(1 + 4 R*/a))/(2 R*) loses digits
    a, rs = 3.0, 1e-12
    kap = 2.0 / a / (1.0 + math.sqrt(1.0 + 4.0 * rs / a))
    E = dimer_energy(1.0 / a, -2.0 * rs)
    assert E == pytest.approx(-(kap**2), rel=1e-15)
    # the zero-range kernel's breakup threshold is this pole, bit for bit
    for a, rs in ((3.0, 1e-12), (0.7, 0.3), (5.0, 2.0), (2.0, 0.0)):
        assert StmKernel(1.0 / a, 100.0, r_star=rs)._threshold() == dimer_energy(1.0 / a, -2.0 * rs)


def test_dimer_energy_separable_matches_zero_range_for_wide_form():
    # a sharp form factor approaches the zero-range pole
    form = step_form_factor(1e-3, p_max=5e3)
    E = separable_dimer_energy(form, 0.2, 1e-8 * form.p_max)
    assert E == pytest.approx(-0.04, rel=2e-2)


def test_dimer_absent_for_negative_a():
    assert dimer_energy(-1.0 / 4.0) is None
    form = universal_tail_form_factor(6, -0.1)
    assert separable_dimer_energy(form, -0.1, 1e-8 * form.p_max) is None


@settings(max_examples=40, deadline=None)
@given(a=st.floats(3.0, 100.0), re=st.floats(0.0, 1.0))
def test_effective_range_pole_approaches_zero_range(a, re):
    # a positive effective range binds deeper than 1/a^2, approaching the
    # zero-range pole linearly as r_e -> 0
    kap = math.sqrt(-dimer_energy(1.0 / a, re))
    assert kap * a >= 1.0 - 1e-12
    assert kap * a == pytest.approx(1.0, rel=max(re / a, 1e-12))


def test_hard_core_potentials():
    m = TwoBodyModel("vdw_hard_core", {"c6": 16.0, "core": 0.05})
    assert m.length_scale == pytest.approx(1.0)
    assert np.isinf(m.potential(np.array([0.01]))[0])
    with pytest.raises(ValueError):
        TwoBodyModel("power_law_tail", {"n": 3, "cn": 1.0, "core": 0.1})
    with pytest.raises(ValueError):
        TwoBodyModel("no_such_well", {})
    with pytest.raises(ValueError, match="core"):
        TwoBodyModel("vdw_hard_core", {"c6": 16.0})


def test_zero_energy_state_properties():
    st_ = ZeroEnergyState(0.0, 1.0, np.array([0.0]), np.array([1.0]))
    assert math.isinf(st_.a)
