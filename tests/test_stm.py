import contextlib
import math

import numpy as np
import pytest

from efimov.channels import LAMBDA0
from efimov.numerics import gauss_legendre, gauss_legendre_log
from efimov.stm import (
    ResolutionWarning,
    SeparableKernel,
    StmKernel,
    TritonModel,
    _symmetrize,
    bound_levels,
    kappa_star_extrapolated,
    solve_trimers_separable,
    solve_trimers_zero_range,
    threshold_scattering_lengths,
)
from efimov.two_body import (
    FormFactor,
    separable_dimer_energy,
    step_form_factor,
    universal_tail_form_factor,
)


def test_zero_range_kernel_matches_analytic_form():
    kern = StmKernel(inv_a=0.5, cutoff=50.0, r_star=0.3, n=40)
    E = -2.7
    rule = kern.grid
    p, w = rule.nodes, rule.weights
    P, Q = p[:, None], p[None, :]
    K = (2.0 / np.pi) * (Q / P) * np.log(
        (P**2 + P * Q + Q**2 - E) / (P**2 - P * Q + Q**2 - E)
    ) * w[None, :]
    D = 0.5 + 0.3 * (E - 0.75 * p**2) - np.sqrt(0.75 * p**2 - E)
    ref = np.diag(D) + K
    assert np.allclose(kern.matrix(E), ref, rtol=1e-12, atol=1e-12)


def test_kernel_validation():
    with pytest.raises(ValueError):
        StmKernel(0.0, -1.0)
    with pytest.raises(ValueError):
        StmKernel(0.0, 10.0, r_star=-1.0)
    with pytest.raises(ValueError):
        StmKernel(0.0, 10.0).matrix(0.5)


def _negative_eigenvalues(kern, E):
    # inertia of the symmetric form s M s^-1, s = p sqrt(w)
    rule = kern.grid
    s = rule.nodes * np.sqrt(rule.weights)
    m = s[:, None] * kern.matrix(E) / s[None, :]
    assert np.allclose(m, m.T, rtol=0, atol=1e-13 * np.abs(m).max())
    return int(np.sum(np.linalg.eigvalsh(m) < 0))


def test_level_count_steps_once_per_level():
    kern = StmKernel(0.0, 100.0, n=200)
    lev = bound_levels(kern, (-2e3, -1e-3))
    assert len(lev) == 3
    edges = [-2e3] + [-math.sqrt(E1 * E2) for E1, E2 in zip(lev, lev[1:])] + [-1e-3]
    counts = [_negative_eigenvalues(kern, E) for E in edges]
    assert np.diff(counts).tolist() == [-1] * len(lev)
    for E in lev:
        assert _negative_eigenvalues(kern, E * 1.001) - _negative_eigenvalues(kern, E * 0.999) == 1


@pytest.fixture(scope="module")
def zr_reference():
    return solve_trimers_zero_range(np.inf, 100.0, (-3e4, -1e-2), n=300)


def test_grid_doubling_stability(zr_reference):
    doubled = solve_trimers_zero_range(np.inf, 100.0, (-3e4, -1e-2), n=600)
    assert len(doubled) == len(zr_reference)
    for a, b in zip(zr_reference, doubled):
        assert abs(b / a - 1.0) < 2e-3


def test_cutoff_equivalence_class(zr_reference):
    shifted = solve_trimers_zero_range(
        np.inf, 100.0 * LAMBDA0, (-3e4 * LAMBDA0**2, -1e-2), n=300
    )
    # Lambda -> lambda0 Lambda reproduces the spectrum shifted by one level;
    # exact grid self-similarity additionally pins each level to lambda0^2
    # times its unshifted value
    for a, b in zip(shifted, zr_reference):
        assert abs(b * LAMBDA0**2 / a - 1.0) < 1e-9
    # the one-level shift identity holds away from the cutoff-affected
    # ground state
    for a, b in zip(zr_reference[1:], shifted[2:]):
        assert abs(b / a - 1.0) < 5e-3


def test_positive_a_levels_below_dimer():
    a = 0.5
    lev = solve_trimers_zero_range(a, 100.0, (-3e4, -1e-2), n=300)
    assert lev
    assert all(E < -1.0 / a**2 for E in lev)


@pytest.mark.parametrize(
    "make_form, n_levels, n, warns",
    [
        (lambda: step_form_factor(1.0, inv_a=0.5), 2, 140, True),
        (lambda: step_form_factor(1.0, inv_a=0.5), 2, 280, False),
        (lambda: universal_tail_form_factor(6, 0.3), 1, 140, False),
    ],
    ids=["step", "step_n280", "vdw"],
)
def test_separable_levels_below_dimer(make_form, n_levels, n, warns):
    # above the dimer pole the kernel's spectrum holds the discretised
    # atom-dimer continuum, which must not pass for trimers.  For the van
    # der Waals (n = 6 tail) profile at 1/a = 0.3 the kernel's pole
    # (separable_dimer_energy from the kernel's q_min = 1e-6) lies 1.3e-6
    # (relative) below the stand-alone pole from 1e-8 p_max, and 26
    # continuum states fall between.  The two step levels lie 1.9 cells of
    # the n = 140 grid apart, and there they are 1e-4 off (-1.34744,
    # -0.95430); from n = 280 on they agree to 1e-10 (-1.3473116,
    # -0.9541246), and the spacing check is quiet
    form = make_form()
    E_dimer = separable_dimer_energy(form, form.inv_a, 1e-8 * form.p_max)
    with pytest.warns(ResolutionWarning) if warns else contextlib.nullcontext():
        lev = solve_trimers_separable(form, n=n, n_ang=24)
    assert len(lev) == n_levels
    assert all(E < E_dimer for E in lev)


@pytest.mark.parametrize(
    "make_form",
    [
        lambda: universal_tail_form_factor(6, 0.3),
        lambda: step_form_factor(1.0, inv_a=0.5),
        lambda: TritonModel.fit().form_factors()[0],
    ],
    ids=["vdw", "step", "triton_triplet"],
)
def test_stand_alone_pole_is_kernel_threshold(make_form):
    # one dimer integral and one pole solve: on the same lower limit the
    # stand-alone pole and the kernel's breakup threshold are the same bits
    form = make_form()
    q_min = 1e-8 * form.p_max
    E = separable_dimer_energy(form, form.inv_a, q_min)
    assert E < 0
    assert SeparableKernel(form, form.inv_a, q_min=q_min)._threshold() == E


def test_narrow_resonance_requires_r_star():
    from efimov.stm import solve_trimers_narrow_resonance

    with pytest.raises(ValueError):
        solve_trimers_narrow_resonance(np.inf, 0.0, (-1.0, -1e-6))


def test_threshold_lengths_geometric():
    am = threshold_scattering_lengths(300.0, n_max=3, n=400)
    assert all(a < 0 for a in am)
    assert am[1] / am[0] == pytest.approx(LAMBDA0, rel=5e-3)
    assert am[2] / am[1] == pytest.approx(LAMBDA0, rel=5e-3)
    assert all(abs(a) * 300.0 > 10.0 for a in am)


def test_kappa_star_extrapolated():
    E = [-4.0, -4.0 / LAMBDA0**2]
    assert kappa_star_extrapolated(E, 0) == pytest.approx(2.0)
    assert kappa_star_extrapolated(E, 1) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValueError):
        kappa_star_extrapolated([1.0], 0)


@pytest.fixture(scope="module")
def step_ground():
    form = step_form_factor(1.0, inv_a=0.0)
    lev = solve_trimers_separable(form, E_window=(-0.5, -1e-3), n=140, n_ang=24)
    return form, lev


def test_separable_ground_state_scale(step_ground):
    form, lev = step_ground
    assert lev
    kappa = math.sqrt(-lev[0])
    # ground-state wave number is set by the only scale, r_e/2 = 1
    assert 0.1 < kappa < 0.4


def test_nucleon_kernel_matches_two_channel_block():
    # reference: the triplet/singlet 2x2-block assembly written out in the
    # 1/pi normalisation (4 pi times the kernel's), exchange weight 1/2
    # within a channel and 3/2 across, dimer integral from 1e-4 p_min
    ff_t = FormFactor(lambda q: 1.0 / (1.0 + q**2 / 1.4**2), 0.2, 40.0)
    ff_s = FormFactor(lambda q: 1.0 / (1.0 + q**2 / 1.1**2), -0.04, 40.0)
    n, n_ang, p_min, p_max, E = 40, 12, 1e-4, 40.0, -0.3
    kern = SeparableKernel(
        (ff_t, ff_s), (0.2, -0.04), n=n, n_ang=n_ang, p_min=p_min, q_min=1e-4 * p_min
    )
    rule = gauss_legendre_log(n, p_min, p_max)
    p, wp = rule.nodes, rule.weights
    ang = gauss_legendre(n_ang, -1.0, 1.0)
    P, Q, C = p[:, None, None], p[None, :, None], ang.nodes[None, None, :]
    q1 = np.sqrt(Q * Q + 0.25 * P * P + P * Q * C)
    q2 = np.sqrt(P * P + 0.25 * Q * Q + P * Q * C)
    den = P * P + Q * Q + P * Q * C - E
    dim = gauss_legendre_log(3000, 1e-4 * p_min, 2.2 * p_max)
    kap2 = (0.75 * p**2 - E)[:, None]

    def K(fa, fb):
        return (wp * p**2 / np.pi) * np.sum(ang.weights * fa(q1) * fb(q2) / den, axis=2)

    def I(f):
        return (2 / np.pi) * (f(dim.nodes) ** 2 * kap2 / (dim.nodes**2 + kap2)) @ dim.weights

    ref = np.block([
        [np.diag(0.2 - I(ff_t)) + 0.5 * K(ff_t, ff_t), 1.5 * K(ff_t, ff_s)],
        [1.5 * K(ff_s, ff_t), np.diag(-0.04 - I(ff_s)) + 0.5 * K(ff_s, ff_s)],
    ])
    np.testing.assert_allclose(4 * np.pi * kern.matrix(E), ref, rtol=1e-13, atol=0)
    # s M s^-1 with s = p sqrt(w) on each channel block is symmetric, which
    # makes the count of negative eigenvalues a level count
    sym = kern.matrix(E)
    _symmetrize(kern, sym)
    np.testing.assert_allclose(sym, sym.T, rtol=0, atol=1e-15 * np.abs(sym).max())
