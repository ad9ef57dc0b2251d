import contextlib
import functools
import gc
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from efimov.channels import LAMBDA0
from efimov.numerics import ConvergenceError, gauss_legendre, gauss_legendre_log
from efimov.stm import (
    ResolutionWarning,
    SeparableKernel,
    StmKernel,
    TritonModel,
    _SECH2_PEAK,
    _TERMS,
    _TRITON_GRID,
    bound_levels,
    dissociation_lengths,
    solve_triton,
    solve_trimers_narrow_resonance,
    threshold_scattering_lengths,
)
from efimov.two_body import (
    FormFactor,
    _sine_transform,
    dimer_integrals,
    poschl_teller_low_energy,
    separable_dimer_energy,
    step_form_factor,
    universal_tail_form_factor,
)


def _zero_range_reference(kern, E):
    """The plain zero-range M(E) in its non-symmetric form, exchange
    (2/pi)(Q/P) ln(...) w_Q, and s = p sqrt(w): s M s^-1 is symmetric."""
    rule = kern.grid
    p, w = rule.nodes, rule.weights
    P, Q = p[:, None], p[None, :]
    K = (2.0 / np.pi) * (Q / P) * np.log(
        (P**2 + P * Q + Q**2 - E) / (P**2 - P * Q + Q**2 - E)
    ) * w[None, :]
    D = kern.inv_a + kern.r_star * (E - 0.75 * p**2) - np.sqrt(0.75 * p**2 - E)
    return np.diag(D) + K, p * np.sqrt(w)


# the kernel is built in blocks of 64 rows: 130 leaves a ragged last block
@pytest.mark.parametrize("n", [40, 130])
def test_zero_range_kernel_matches_analytic_form(n):
    kern = StmKernel(inv_a=0.5, cutoff=50.0, r_star=0.3, n=n)
    ref, s = _zero_range_reference(kern, -2.7)
    assert np.allclose(kern.matrix(-2.7), s[:, None] * ref / s, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [40, 130])
def test_plain_kernel_matches_broadcast_form(n):
    # the symmetric form in the kernel's own operation order,
    # ((P^2 + PQ) + Q^2 - E) / ((P^2 - PQ) + Q^2 - E) and sqrt(w_P w_Q):
    # the row blocks must not move it by more than rounding
    kern = StmKernel(inv_a=0.5, cutoff=50.0, n=n)
    rule, E = kern.grid, -2.7
    p, w = rule.nodes, rule.weights
    P2, PQ, Q2 = (p * p)[:, None], p[:, None] * p, p * p
    ref = (2 / np.pi) * np.log((P2 + PQ + Q2 - E) / (P2 - PQ + Q2 - E)) * np.sqrt(
        w[:, None] * w
    )
    ref.flat[:: kern.n + 1] += kern.inv_a - np.sqrt(0.75 * p**2 - E)
    np.testing.assert_allclose(kern.matrix(E), ref, rtol=1e-14, atol=0)


def _lorentzian(b):
    return FormFactor(lambda q: 1.0 / (1.0 + q**2 / b**2), 40.0)


_SMALL_KERNELS = pytest.mark.parametrize(
    "kern",
    [
        StmKernel(0.5, 50.0, n=40),
        StmKernel(0.5, 50.0, n=130),  # two row blocks, the last one ragged
        StmKernel(0.5, 50.0, r_star=0.3, n=40),
        SeparableKernel(_lorentzian(1.4), 0.2, n=41, n_ang=12),
        SeparableKernel(
            (_lorentzian(1.4), _lorentzian(1.1)), (0.2, -0.04), n=41, n_ang=12
        ),
    ],
    ids=["zero_range", "zero_range_blocked", "r_star", "boson", "nucleon"],
)


@_SMALL_KERNELS
def test_kernel_matrix_is_symmetric(kern):
    m = kern.matrix(-0.3)
    np.testing.assert_allclose(m, m.T, rtol=0, atol=1e-15 * np.abs(m).max())


@_SMALL_KERNELS
def test_slope_is_the_energy_derivative_of_the_matrix(kern):
    # dM/dE from the closed forms against a central difference of M(E),
    # whose truncation error is 1e-8 of dM/dE at this step
    E, h = -0.3, 1e-4
    fd = (kern.matrix(E + h) - kern.matrix(E - h)) / (2 * h)
    slope = np.column_stack([kern.slope(E, e) for e in np.eye(len(fd))])
    np.testing.assert_allclose(slope, fd, rtol=0, atol=1e-7 * np.abs(fd).max())
    # one vector: the same product, and matrix_and_slope repeats both calls
    v = np.random.default_rng(1).standard_normal(len(fd))
    m, sv = kern.matrix_and_slope(E, v)
    assert np.array_equal(m, kern.matrix(E))
    assert np.array_equal(sv, kern.slope(E, v))
    np.testing.assert_allclose(sv, slope @ v, rtol=0, atol=1e-14 * np.abs(sv).max())


def test_kernel_validation():
    with pytest.raises(ValueError):
        StmKernel(0.0, -1.0)
    with pytest.raises(ValueError):
        StmKernel(0.0, 10.0, r_star=-1.0)
    with pytest.raises(ValueError):
        StmKernel(0.0, 10.0).matrix(0.5)
    # above E = 0 the moments' series has no real ratio: refused, not nan
    kern = SeparableKernel(_lorentzian(1.4), 0.2, n=8, n_ang=4)
    for call in (kern.matrix, lambda E: kern.slope(E, np.ones(8)),
                 lambda E: kern.matrix_and_slope(E, np.ones(8))):
        with pytest.raises(ValueError):
            call(0.5)
    # the channels' dimer integrals share one rule, up to 2.2 p_max
    with pytest.raises(ValueError):
        SeparableKernel((_lorentzian(1.4), replace(_lorentzian(1.1), p_max=20.0)), (0.2, -0.04))


def test_replaced_separable_kernel_builds_its_own_tables():
    # a kernel made by dataclasses.replace from a built one does not reuse
    # its moments: with another n_ang they gave the old matrix, here 3.3e-5
    # of max|M| off, and with another n a broadcast error
    kern = SeparableKernel(_lorentzian(1.4), 0.2, n=40, n_ang=12)
    kern.matrix(-0.5)
    for changes in ({"n_ang": 24}, {"n": 50}):
        fresh = SeparableKernel(_lorentzian(1.4), 0.2, **{"n": 40, "n_ang": 12, **changes})
        assert np.array_equal(replace(kern, **changes).matrix(-0.5), fresh.matrix(-0.5))


def _negative_eigenvalues(kern, E):
    # inertia of the symmetric form s M s^-1, s = p sqrt(w), of the
    # analytic reference
    ref, s = _zero_range_reference(kern, E)
    m = s[:, None] * ref / s[None, :]
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


def _zero_range(a=math.inf, cutoff=1000.0):
    inv_a = 0.0 if math.isinf(a) else 1.0 / a
    return lambda: bound_levels(StmKernel(inv_a, cutoff), (-1e7, -1e-3))


def _separable(form, inv_a):
    return lambda: bound_levels(SeparableKernel(form, inv_a), (-1e7, -1e-3))


# The `efimov stm` and `efimov triton` spectra at their default windows,
# from Brent's method on the eigenvalue that crosses zero in each count
# bracket, to 1e-12 in ln(-E): an independent refinement of the same zeros.
_BRENT_LEVELS = [
    ("zero_range", _zero_range(),
     [-31661.77623656322, -60.21306707233951, -0.11690406444397797]),
    ("cutoff_x_lambda0^0.1", _zero_range(cutoff=1000.0 * LAMBDA0**0.1),
     [-59117.893352630446, -112.4279841731251, -0.21827966828680206]),
    ("cutoff_x_lambda0^0.17", _zero_range(cutoff=1000.0 * LAMBDA0**0.17),
     [-91526.64050335364, -174.06160988434942, -0.33794175664060383]),
    ("a=-3", _zero_range(-3.0), [-31542.87228562883, -54.85441971706256]),
    ("a=2", _zero_range(2.0), [-31840.429124842678, -68.58435418810905, -0.6680271687049744]),
    ("a=0.5", _zero_range(0.5), [-32378.523710665395, -96.04606019714912, -4.612469601226183]),
    ("a=-50", _zero_range(-50.0),
     [-31654.637532164616, -59.88650634337435, -0.10278363805432691]),
    ("narrow_resonance", lambda: solve_trimers_narrow_resonance(0.0, 1.0, (-1e7, -1e-3)),
     [-0.013855106596069646]),
    ("vdw", _separable(universal_tail_form_factor(6, 0.0), 0.0), [-0.035415139400653085]),
    ("step_a=2", _separable(step_form_factor(1.0), 0.5),
     [-1.3472937562692515, -0.9541220579346071]),
    ("triton", lambda: list(solve_triton(TritonModel.fit()).trimers), [-9.76092789275208]),
]


@pytest.mark.parametrize(
    "solve, ref", [c[1:] for c in _BRENT_LEVELS], ids=[c[0] for c in _BRENT_LEVELS]
)
def test_levels_match_the_brent_refinement(solve, ref):
    assert solve() == pytest.approx(ref, rel=1e-11, abs=0)


@pytest.mark.parametrize(
    "kern",
    [
        StmKernel(0.0, 1000.0),
        StmKernel(0.5, 1000.0),
        StmKernel(-1.0 / 3.0, 1000.0),
        StmKernel(0.0, 100.0, r_star=1.0, p_min_factor=1e-8),  # narrow resonance
    ],
    ids=["a=inf", "a=2", "a=-3", "narrow_resonance"],
)
def test_default_grid_holds_the_levels_of_a_doubled_grid(kern):
    # the zero-range grid converges spectrally, so the default n holds every
    # level of the stm spectra to rounding
    levels = bound_levels(kern, (-1e7, -1e-3))
    doubled = bound_levels(replace(kern, n=2 * kern.n), (-1e7, -1e-3))
    assert levels == pytest.approx(doubled, rel=1e-13, abs=0)


def test_triton_default_grid_holds_the_levels_of_a_doubled_grid():
    # with the form factors smooth to 1e-11 the nucleon kernel converges
    # spectrally too: (160, 24) holds the ground state to 7.5e-15 and the
    # unitarity levels to 3.8e-14 of the doubled grid
    model = TritonModel.fit()
    n, n_ang = 2 * _TRITON_GRID[0], 2 * _TRITON_GRID[1]
    doubled = bound_levels(model.kernel(model.inv_a, n, n_ang, 1e-4), model.trimer_window)
    trimers = solve_triton(model).trimers
    assert trimers == pytest.approx([model.hbar2_over_m * E for E in doubled], rel=1e-12, abs=0)
    unitarity = bound_levels(model.kernel((0.0, 0.0), *_TRITON_GRID, 1e-6), (-0.5, -1e-9))
    doubled = bound_levels(model.kernel((0.0, 0.0), n, n_ang, 1e-6), (-0.5, -1e-9))
    assert unitarity == pytest.approx(doubled, rel=1e-12, abs=0)


def test_triton_form_factors_match_the_direct_transform_between_knots():
    # the spline error of est_form_factor falls as h^4: 3200 knots miss by
    # 1.3e-11, where 800 knots missed by 3.3e-9 and left the nucleon levels
    # scattered by about 1e-11 from grid to grid
    model = TritonModel.fit()
    forms = model.form_factors()
    p = np.geomspace(1e-4, 2.2 * forms[0].p_max, 1501)[1:-1]
    for form, st in zip(forms, (model.triplet, model.singlet)):
        direct = 1.0 - _sine_transform(st.r, 1.0 - st.r * st.inv_a - st.phi, p)
        assert np.max(np.abs(form(p) - direct)) < 2e-11


def test_default_grid_holds_the_dissociation_lengths():
    am = threshold_scattering_lengths(1000.0, n_max=3)
    assert am == pytest.approx(threshold_scattering_lengths(1000.0, n_max=3, n=1000), rel=5e-12)


@pytest.fixture
def zero_energy_solves(monkeypatch):
    """The lambda of every well TritonModel propagates."""
    import efimov.stm as stm_module

    calls = []
    solve = stm_module.solve_zero_energy

    def counted(model):
        calls.append(model.params["lambda"])
        return solve(model)

    monkeypatch.setattr(stm_module, "solve_zero_energy", counted)
    return calls


def test_triton_fit_makes_two_zero_energy_solves(zero_energy_solves):
    # (a, r_e) of every trial well are in closed form: only the two fitted
    # wells are propagated, where a search on the ODE made 26 solves
    TritonModel.fit()
    assert len(zero_energy_solves) == 2


def test_triton_fit_takes_the_first_rise_of_the_triplet_shape(zero_energy_solves):
    # on the triplet branch r_e/a = 0.4335 is reached three times, at lambda
    # below the peak (0.43431 at 1.74591), on the dip after it and on the
    # final rise; the fit takes the first, and reproduces (a, r_e) there.
    # The split point _SECH2_PEAK is the peak.
    model = TritonModel.fit(r_et=0.4335 * 5.4112)
    assert 1.0 < zero_energy_solves[0] < 1.7459
    assert model.fit_residual < 1e-9
    shape = [math.prod(poschl_teller_low_energy(_SECH2_PEAK + d)) for d in (-1e-4, 0.0, 1e-4)]
    assert shape[1] > max(shape[0], shape[2])


def test_bound_levels_frees_the_kernel_without_gc():
    # no reference cycle may keep a kernel, and with it a separable
    # kernel's tables, alive until the cyclic collector runs
    kern = StmKernel(0.0, 100.0, n=200)
    ref = weakref.ref(kern)
    gc.disable()
    try:
        assert len(bound_levels(kern, (-2e3, -1e-3))) == 3
        del kern
        assert ref() is None
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def zr_reference():
    return bound_levels(StmKernel(0.0, 100.0, n=300), (-3e4, -1e-2))


def test_grid_doubling_stability(zr_reference):
    doubled = bound_levels(StmKernel(0.0, 100.0, n=600), (-3e4, -1e-2))
    assert len(doubled) == len(zr_reference)
    for a, b in zip(zr_reference, doubled):
        assert abs(b / a - 1.0) < 2e-3


def test_cutoff_equivalence_class(zr_reference):
    shifted = bound_levels(StmKernel(0.0, 100.0 * LAMBDA0, n=300), (-3e4 * LAMBDA0**2, -1e-2))
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
    lev = bound_levels(StmKernel(1.0 / a, 100.0, n=300), (-3e4, -1e-2))
    assert lev
    assert all(E < -1.0 / a**2 for E in lev)


@pytest.mark.parametrize(
    "make_form, inv_a, n_levels, n, warns",
    [
        (lambda: step_form_factor(1.0), 0.5, 2, 140, True),
        (lambda: step_form_factor(1.0), 0.5, 2, 280, False),
        (lambda: universal_tail_form_factor(6, 0.3), 0.3, 1, 140, False),
    ],
    ids=["step", "step_n280", "vdw"],
)
def test_separable_levels_below_dimer(make_form, inv_a, n_levels, n, warns):
    # above the dimer pole the kernel's spectrum holds the discretised
    # atom-dimer continuum, which must not pass for trimers.  For the van
    # der Waals (n = 6 tail) profile at 1/a = 0.3 the kernel's pole
    # (separable_dimer_energy from the kernel's q_min = 1e-6) lies 1.3e-6
    # (relative) below the stand-alone pole from 1e-8 p_max, and 26
    # continuum states fall between.  The two step levels lie 1.9 cells of
    # the n = 140 grid apart, and there they are 1e-4 off (-1.34744,
    # -0.95430); from n = 280 on they agree in n to 1e-10 (-1.3473116,
    # -0.9541246), and the spacing check is quiet.  That is convergence in
    # n only: the 24-node angular rule leaves them 1.26e-5 and 2.5e-6 off
    # the grid-converged -1.34729458 and -0.95412220
    form = make_form()
    E_dimer = separable_dimer_energy(form, inv_a, 1e-8 * form.p_max)
    with pytest.warns(ResolutionWarning) if warns else contextlib.nullcontext() as rec:
        lev = bound_levels(SeparableKernel(form, inv_a, n=n, n_ang=24), (-3.0, -1e-7))
    # the warning points at the caller of bound_levels
    assert all(w.filename == __file__ for w in rec or [])
    assert len(lev) == n_levels
    assert all(E < E_dimer for E in lev)


@pytest.mark.parametrize(
    "make_form, inv_a",
    [
        (lambda: universal_tail_form_factor(6, 0.3), 0.3),
        (lambda: step_form_factor(1.0), 0.5),
        (lambda: TritonModel.fit().form_factors()[0], 1 / 5.4112),
    ],
    ids=["vdw", "step", "triton_triplet"],
)
def test_stand_alone_pole_is_kernel_threshold(make_form, inv_a):
    # one dimer integral and one pole solve: on the same lower limit the
    # stand-alone pole and the kernel's breakup threshold are the same bits
    form = make_form()
    q_min = 1e-8 * form.p_max
    E = separable_dimer_energy(form, inv_a, q_min)
    assert E < 0
    assert SeparableKernel(form, inv_a, q_min=q_min)._threshold() == E


def test_narrow_resonance_requires_r_star():
    from efimov.stm import solve_trimers_narrow_resonance

    with pytest.raises(ValueError):
        solve_trimers_narrow_resonance(0.0, 0.0, (-1.0, -1e-6))


def test_threshold_lengths_geometric():
    am = threshold_scattering_lengths(300.0, n_max=3, n=400)
    assert all(a < 0 for a in am)
    assert am[1] / am[0] == pytest.approx(LAMBDA0, rel=5e-3)
    assert am[2] / am[1] == pytest.approx(LAMBDA0, rel=5e-3)
    assert all(abs(a) * 300.0 > 10.0 for a in am)


def test_threshold_lengths_make_the_zero_energy_kernel_singular():
    # M(0) at 1/a is 1/a times the identity plus M(0) at 1/a = 0
    for a in threshold_scattering_lengths(300.0, n_max=3, n=400):
        kern = StmKernel(1.0 / a, 300.0, n=400, p_min_factor=1e-8)
        assert np.abs(np.linalg.eigvalsh(kern.matrix(0.0))).min() * abs(a) < 1e-10


def _negatives(m):
    return int(np.count_nonzero(np.linalg.eigvalsh(m) < 0))


def _window_count(kern, E_lo, E_hi):
    """Levels of ``kern`` in (E_lo, E_hi), from the inertia of M(E) at its ends."""
    return _negatives(kern.matrix(E_lo)) - _negatives(kern.matrix(E_hi))


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(m):
        calls.append(m.shape)
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


@pytest.fixture
def builds(monkeypatch):
    """The energies of every StmKernel pass that builds M(E), through
    ``matrix`` or ``matrix_and_slope``."""
    calls = []
    assemble = StmKernel._assemble

    def counted(self, E, v=None, with_matrix=True):
        if with_matrix:
            calls.append(E)
        return assemble(self, E, v, with_matrix)

    monkeypatch.setattr(StmKernel, "_assemble", counted)
    return calls


def test_zero_range_levels_take_few_eigensolves(eigvalsh_calls, builds):
    # one eigvalsh per point of the count bisection (five here, one a
    # bisection after a failed start) and one M(E) per refinement step;
    # Brent's method on the crossing eigenvalue takes 30 of each
    assert len(bound_levels(StmKernel(0.0, 1000.0), (-1e7, -1e-3))) == 3
    assert len(eigvalsh_calls) <= 6
    assert len(builds) <= 20


def test_narrow_resonance_levels_take_few_eigensolves(eigvalsh_calls, builds):
    # one level at two cutoffs; a failed start bisects its bracket at the
    # start's last iterate inside it, where the midpoint took 10 and 38
    assert len(solve_trimers_narrow_resonance(0.0, 1.0, (-1e7, -1e-3))) == 1
    assert len(eigvalsh_calls) <= 8
    assert len(builds) <= 34


def _vdw_family(inv_a):
    return universal_tail_form_factor(6, inv_a)


def _power4_family(inv_a):
    return universal_tail_form_factor(4, inv_a)


_TAIL_FAMILIES = pytest.mark.parametrize(
    "family", [_vdw_family, _power4_family], ids=["vdw", "power4"]
)


@functools.cache
def _polynomial(family):
    """(M0, M1, M2) of M(0; x) = M0 + x M1 + x^2 M2 on the default grid,
    from the kernels at x = 0 and +-1."""
    m0, mp, mm = (SeparableKernel(family(x), x).matrix(0.0) for x in (0.0, 1.0, -1.0))
    return m0, 0.5 * (mp - mm), 0.5 * (mp + mm) - m0


@functools.cache
def _lengths(family):
    return dissociation_lengths(family)


def _count_step(polynomial, a):
    """How many more negative eigenvalues M(0; x) has just on the small-|a|
    side of the root a than on its large-|a| side: 1 at an a_-^(k), where a
    trimer appears as |a| grows, and -1 where a level leaves."""
    m0, m1, m2 = polynomial
    large, small = (_negatives(m0 + x * (m1 + x * m2)) for x in ((1 - 1e-9) / a, (1 + 1e-9) / a))
    return small - large


@_TAIL_FAMILIES
def test_tail_kernel_is_quadratic_in_inverse_length(family):
    # phi = 1 - T_0 + x T_1 is linear in x = 1/a, so every entry of M(0) is
    # quadratic in x, and three kernels give the kernel at any x
    x = float(np.random.default_rng(7).uniform(-1.0, 1.0))
    m0, m1, m2 = _polynomial(family)
    direct = SeparableKernel(family(x), x).matrix(0.0)
    assert np.max(np.abs(m0 + x * (m1 + x * m2) - direct)) <= 1e-14 * np.max(np.abs(direct))


def test_dissociation_lengths_are_where_the_level_count_steps():
    # directly built kernels, not the polynomial: as |a| grows through each
    # a_-^(k), M(0) loses a negative eigenvalue, the trimer that appears
    for a in _lengths(_vdw_family):
        small, large = (
            _negatives(SeparableKernel(_vdw_family(x), x).matrix(0.0))
            for x in ((1 + 1e-9) / a, (1 - 1e-9) / a)
        )
        assert small - large == 1, (a, small, large)


def test_vdw_dissociation_lengths():
    # a_-^(0) R_vdW = -10.84 (criterion 05b); the crossing at a = -1.2337,
    # where a level leaves as |a| grows, is no dissociation length
    lengths = _lengths(_vdw_family)
    assert lengths[0] == pytest.approx(-10.841721328175622, rel=1e-12)
    assert lengths[1] == pytest.approx(-191.69831, rel=1e-7)
    assert len(lengths) == 2
    assert _count_step(_polynomial(_vdw_family), -1.2337007309) == -1


def test_dissociation_lengths_take_one_companion_eigensolve(monkeypatch, eigvalsh_calls):
    # three M(0) builds and one eigvals give every root; each of the three
    # roots in the window (-1.2337 among them) takes two eigvalsh for its
    # count step, and the window's two ends one each
    builds, eigvals_calls = [], []
    assemble, eigvals = SeparableKernel._assemble, np.linalg.eigvals

    def counted_assemble(self, E, v=None, with_matrix=True):
        builds.append(E)
        return assemble(self, E, v, with_matrix)

    def counted_eigvals(m):
        eigvals_calls.append(m.shape)
        return eigvals(m)

    monkeypatch.setattr(SeparableKernel, "_assemble", counted_assemble)
    monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
    assert len(dissociation_lengths(_vdw_family)) == 2
    assert (len(builds), len(eigvals_calls), len(eigvalsh_calls)) == (3, 1, 3 * 2 + 2)


@_TAIL_FAMILIES
def test_companion_loses_no_root_against_scipy(monkeypatch, family):
    # QZ on the pencil A z = a B z of the same linearization, A = [[0, I],
    # [-M2, -M1]], B = [[I, 0], [0, M0]], inverts no M0: each of its real
    # roots in the window is a returned a_-^(k), to 1e-10, or a level leaving
    eig = pytest.importorskip("scipy.linalg").eig
    m0, m1, m2 = poly = _polynomial(family)
    I, Z = np.eye(len(m0)), np.zeros_like(m0)
    y = eig(np.block([[Z, I], [-m2, -m1]]), np.block([[I, Z], [Z, m0]]), right=False)
    kern = SeparableKernel(family(0.0), 0.0)
    real = y.real[(np.abs(y.imag) <= 1e-8 * np.abs(y.real)) & (y.real < 0)]
    real = real[(np.abs(real) > 10 / kern.p_max) & (np.abs(real) < 0.1 / kern.p_min)]
    lengths = _lengths(family)
    matched = [min(real, key=lambda r: abs(r - a)) for a in lengths]
    assert lengths == pytest.approx(matched, rel=1e-10)
    assert all(_count_step(poly, r) == -1 for r in real if r not in matched)
    # a root that the eigensolve loses unbalances the window's count
    eigvals = np.linalg.eigvals

    def losing_a0(m):
        y = eigvals(m)
        return y[np.abs(y - lengths[0]) > 1e-6]

    monkeypatch.setattr(np.linalg, "eigvals", losing_a0)
    with pytest.raises(ConvergenceError, match="miss a root"):
        dissociation_lengths(family)


def test_a_star0_is_where_the_level_count_switches():
    # criterion 04d bisects 1/a R* > 0 on the count of negative eigenvalues
    # of M just below the dimer pole; the level that count loses at the
    # bracket's end is the trimer leaving the window (1e4 E_d, E_d)
    def kernel(x):
        return StmKernel(x, 100.0, r_star=1.0, n=400, p_min_factor=1e-8)

    def pole_count(x):
        kern = kernel(x)
        return int(np.count_nonzero(np.linalg.eigvalsh(kern.matrix((1 + 1e-10) * kern._threshold())) < 0))

    lo, hi = 1.8, 2.6
    with_trimer = pole_count(lo)
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        if pole_count(mid) == with_trimer:
            lo = mid
        else:
            hi = mid
    counts = []
    for x in (lo, hi):
        Ed = kernel(x)._threshold()
        counts.append(_window_count(kernel(x), 1e4 * Ed, (1 + 1e-10) * Ed))
    assert counts == [1, 0]


def test_bound_levels_warns_on_unresolved_levels():
    # the two step levels lie 1.9 cells of this grid apart; Brent's method
    # on the crossing eigenvalue put them at the reference values
    kern = SeparableKernel(step_form_factor(1.0), 0.5, n=140, n_ang=24)
    with pytest.warns(ResolutionWarning) as rec:
        levels = bound_levels(kern, (-3.0, -1e-7))
    assert all(w.filename == __file__ for w in rec)
    assert levels == pytest.approx([-1.347439595418413, -0.9543032892309105], rel=1e-11, abs=0)


def kappa_star_extrapolated(energies, level: int = 0) -> float:
    """kappa*^(level) * lambda0^level: the three-body parameter read off one
    level of a finite-range spectrum, mapped to the reference level by the
    discrete scaling; energies ordered deepest first."""
    E = energies[level]
    if not E < 0:
        raise ValueError("energies must be negative")
    return math.sqrt(-E) * LAMBDA0**level


def test_kappa_star_extrapolated():
    E = [-4.0, -4.0 / LAMBDA0**2]
    assert kappa_star_extrapolated(E, 0) == pytest.approx(2.0)
    assert kappa_star_extrapolated(E, 1) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValueError):
        kappa_star_extrapolated([1.0], 0)


@pytest.fixture(scope="module")
def step_ground():
    form = step_form_factor(1.0)
    lev = bound_levels(SeparableKernel(form, 0.0, n=140, n_ang=24), (-0.5, -1e-3))
    return form, lev


def test_separable_ground_state_scale(step_ground):
    form, lev = step_ground
    assert lev
    kappa = math.sqrt(-lev[0])
    # ground-state wave number is set by the only scale, r_e/2 = 1
    assert 0.1 < kappa < 0.4


def _direct_sum(n, n_ang, p_min, p_max, E, slope=False):
    """Exchange sum K(fa, fb) and dimer integral I(f), summed directly on
    the full (P, Q, c) grid: 4 pi times the kernel's block (a, b) is
    delta_ab diag(1/a_a - I(f_a)) + 2 W_ab K(f_a, f_b), with the dimer
    integral from 1e-4 p_min.  With ``slope``, K and I are their energy
    derivatives, dK/dE and dI/dkappa^2: 1/den^2 in place of 1/den, and
    q^2/(q^2+kap^2)^2 in place of kap^2/(q^2+kap^2), so that 4 pi dM/dE is
    delta_ab diag(I(f_a)) + 2 W_ab K(f_a, f_b)."""
    rule = gauss_legendre_log(n, p_min, p_max)
    p, wp = rule.nodes, rule.weights
    ang = gauss_legendre(n_ang, -1.0, 1.0)
    P, Q, C = p[:, None, None], p[None, :, None], ang.nodes[None, None, :]
    q1 = np.sqrt(Q * Q + 0.25 * P * P + P * Q * C)
    q2 = np.sqrt(P * P + 0.25 * Q * Q + P * Q * C)
    den = P * P + Q * Q + P * Q * C - E
    dim = gauss_legendre_log(3000, 1e-4 * p_min, 2.2 * p_max)
    kap2 = (0.75 * p**2 - E)[:, None]

    q2d = dim.nodes**2
    if slope:
        den = den * den

    def K(fa, fb):
        return (wp * p**2 / np.pi) * np.sum(ang.weights * fa(q1) * fb(q2) / den, axis=2)

    def I(f):
        g = q2d / (q2d + kap2) ** 2 if slope else kap2 / (q2d + kap2)
        return (2 / np.pi) * (f(dim.nodes) ** 2 * g) @ dim.weights

    return K, I


@pytest.mark.parametrize("n", [40, 41])
def test_boson_kernel_matches_direct_sum(n):
    # one channel: W = 1, so exchange weight 2 in the 1/pi normalisation
    ff = _lorentzian(1.4)
    n_ang, p_min, E = 12, 1e-4, -0.3
    kern = SeparableKernel(ff, 0.2, n=n, n_ang=n_ang, p_min=p_min, q_min=1e-4 * p_min)
    K, I = _direct_sum(n, n_ang, p_min, 40.0, E)
    ref = np.diag(0.2 - I(ff)) + 2 * K(ff, ff)
    s = kern.grid.nodes * np.sqrt(kern.grid.weights)
    np.testing.assert_allclose(
        4 * np.pi * kern.matrix(E), s[:, None] * ref / s, rtol=1e-13, atol=0
    )


# (160, 24) is the triton grid's shape: most of its momentum pairs keep
# fewer than 28 terms, and E = 0 is where that cut is closest to rounding
@pytest.mark.parametrize(
    "n, n_ang, E",
    [(40, 12, -0.3), (41, 12, -0.3), (160, 24, 0.0), (160, 24, -1e-3)],
    ids=["40", "41", "160-0.0", "160--0.001"],
)
def test_nucleon_kernel_matches_two_channel_block(n, n_ang, E):
    # reference: the triplet/singlet 2x2-block assembly written out in the
    # 1/pi normalisation (4 pi times the kernel's), exchange weight 1/2
    # within a channel and 3/2 across, dimer integral from 1e-4 p_min
    ff_t, ff_s = _lorentzian(1.4), _lorentzian(1.1)
    p_min = 1e-4
    kern = SeparableKernel(
        (ff_t, ff_s), (0.2, -0.04), n=n, n_ang=n_ang, p_min=p_min, q_min=1e-4 * p_min
    )
    K, I = _direct_sum(n, n_ang, p_min, 40.0, E)
    ref = np.block([
        [np.diag(0.2 - I(ff_t)) + 0.5 * K(ff_t, ff_t), 1.5 * K(ff_t, ff_s)],
        [1.5 * K(ff_s, ff_t), np.diag(-0.04 - I(ff_s)) + 0.5 * K(ff_s, ff_s)],
    ])
    s = np.tile(kern.grid.nodes * np.sqrt(kern.grid.weights), 2)
    np.testing.assert_allclose(
        4 * np.pi * kern.matrix(E), s[:, None] * ref / s, rtol=1e-13, atol=0
    )


# E = 0 is the series' worst case: there each pair's |rho| is the rho_0 its
# cut is set by, 2 - sqrt(3) on the diagonal; 12 angular nodes are fewer than
# the 28 terms, 48 more; (160, 24), the triton grid's shape, spans two chunks
# of a pass, and most of its pairs keep fewer than 28 terms
@pytest.mark.parametrize(
    "n, n_ang, E",
    [pytest.param(41, k, E, id=f"{k}-{E}") for k in (12, 48) for E in (0.0, -1e-3, -1e7)]
    + [pytest.param(160, 24, E, id=f"160-24-{E}") for E in (0.0, -1e-3)],
)
@pytest.mark.parametrize("nc", [1, 2])
def test_moment_series_matches_direct_sum(nc, n, n_ang, E):
    forms = (_lorentzian(1.4), _lorentzian(1.1))[:nc]
    inv_a, p_min = (0.2, -0.04)[:nc], 1e-4
    kern = SeparableKernel(forms, inv_a, n=n, n_ang=n_ang, p_min=p_min, q_min=1e-4 * p_min)
    W2 = 2 * np.array([[1.0]]) if nc == 1 else np.array([[0.5, 1.5], [1.5, 0.5]])
    s = np.tile(kern.grid.nodes * np.sqrt(kern.grid.weights), nc)
    m = kern.matrix(E)
    dm = np.column_stack([kern.slope(E, e) for e in np.eye(nc * n)])
    for got, slope in ((m, False), (dm, True)):
        K, I = _direct_sum(n, n_ang, p_min, 40.0, E, slope)
        ref = np.block([
            [(a == b) * np.diag(I(fa) if slope else ia - I(fa)) + W2[a, b] * K(fa, fb)
             for b, fb in enumerate(forms)]
            for a, (fa, ia) in enumerate(zip(forms, inv_a))
        ])
        np.testing.assert_allclose(
            4 * np.pi * got, s[:, None] * ref / s, rtol=1e-13, atol=0, err_msg=f"slope={slope}"
        )


def _traced_peak(fn):
    """Bytes still allocated after a first call of ``fn``, the peak that
    call allocated on top of them, and the peak a second call allocates on
    top of them (each call's result included)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        held, first = (x - base for x in tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        fn()
        peak = tracemalloc.get_traced_memory()[1] - base - held
    finally:
        tracemalloc.stop()
    return held, first - held, peak


@pytest.mark.parametrize(
    "kern",
    [StmKernel(0.5, 300.0, n=400), StmKernel(0.5, 300.0, r_star=0.3, n=400)],
    ids=["zero_range", "r_star"],
)
def test_zero_range_kernel_memory(kern):
    # a call holds its result plus a few blocks of 64 rows, so any second
    # n x n array of doubles breaks the bound of two
    v = np.ones(kern.n)
    for call in (lambda: kern.matrix(-0.3), lambda: kern.matrix_and_slope(-0.3, v)):
        *_, peak = _traced_peak(call)
        assert peak <= 2 * kern.n**2 * 8


@pytest.mark.parametrize("nc, n", [(2, 300), (1, 260)])
def test_separable_kernel_memory(nc, n):
    # F is one full n x n x n_ang table, and T one n x n x _TERMS table of
    # moments.  The kernel keeps nc^2 moment tables on the upper triangle,
    # each the terms its momentum pairs need (0.19-0.20 T at these n, where
    # 28 for every pair would be T/2), and the pairs' indices, P^2 + Q^2 and
    # PQ (F/24 together); a call after the first allocates no table-sized
    # array: it assembles M(E) in its (nc n)^2 result, and its peak is that
    # result, the dimer integral's row-block buffer and one chunk of the
    # Horner pass, which is why small grids cannot test this.  The first
    # call builds the moments, and on top of what it keeps it allocates no
    # more than a later call may: one piece's phi(q1) phi(q2), nc^2 x 2048 x
    # n_ang doubles, one sub-block of q and phi, and the pairs' sort (0.18 F
    # and 0.12 F measured; q and phi of a whole piece took 0.32 F and 0.29 F)
    n_ang = 48
    F, T = n * n * n_ang * 8, n * n * _TERMS * 8
    forms = (_lorentzian(1.4), _lorentzian(1.1))[:nc]
    kern = SeparableKernel(forms, (0.2, -0.04)[:nc], n=n, n_ang=n_ang)
    held, first, peak = _traced_peak(lambda: kern.matrix(-0.3))
    assert held <= nc**2 * 0.3 * T + 0.05 * F
    assert first <= 0.2 * F
    assert peak <= 0.2 * F


# the column is summed in blocks of 64 rows: 130 leaves a ragged last block
@pytest.mark.parametrize("rows", [64, 130])
def test_dimer_integral_column_matches_scalar_calls(rows):
    # both channels share the rule and its pass
    forms = (_lorentzian(1.4), _lorentzian(1.1))
    integrals = dimer_integrals(forms, 1e-6)
    kap2 = np.geomspace(1e-8, 1e3, rows)
    I, dI = integrals(kap2[:, None], slope=True)
    for c, form in enumerate(forms):
        scalar = dimer_integrals((form,), 1e-6)
        # not bit for bit: a column sums each row in a blocked matrix product
        np.testing.assert_allclose(I[c], [scalar(k)[0].item() for k in kap2], rtol=1e-14, atol=0)
        np.testing.assert_allclose(
            dI[c], [scalar(k, slope=True)[1].item() for k in kap2], rtol=1e-14, atol=0,
        )


def test_dimer_integral_slope_is_its_derivative():
    integrals = dimer_integrals((_lorentzian(1.4),), 1e-6)
    kap2 = np.geomspace(1e-4, 1e2, 7)[:, None]
    h = 1e-5 * kap2
    fd = (integrals(kap2 + h)[0] - integrals(kap2 - h)[0]) / (2 * h[:, 0])
    np.testing.assert_allclose(integrals(kap2, slope=True)[1], fd, rtol=1e-8, atol=0)


def test_dimer_integral_memory():
    # a 600-row column at once would take two 600 x 3000 arrays (28.8 MB)
    integrals = dimer_integrals((_lorentzian(1.4),), 1e-6)
    kap2 = np.geomspace(1e-8, 1e3, 600)[:, None]
    *_, peak = _traced_peak(lambda: integrals(kap2, slope=True))
    assert peak < 4e6
