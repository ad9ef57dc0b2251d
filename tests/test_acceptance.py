"""End-to-end acceptance checks of the library's quantitative claims.

Each test pins one published-constant-level observable; the expensive
solver runs are shared through module-scoped fixtures.  Tolerances are the
quoted precision of each constant plus discretization headroom.
"""
import math

import numpy as np
import pytest

from efimov.channels import (
    LAMBDA0,
    S0,
    S0_TWO_PAIR,
    critical_mass_ratio,
)
from efimov.born_oppenheimer import BO_CRITICAL_L1, OMEGA
from efimov.hyperradial import HyperradialChannel, solve_bound_states
from efimov.numerics import gauss_legendre_log
from efimov.stm import (
    _STEP_GRID,
    _TRITON_GRID,
    SeparableKernel,
    StmKernel,
    TritonModel,
    bound_levels,
    dissociation_lengths,
    solve_triton,
    solve_trimers_narrow_resonance,
    threshold_scattering_lengths,
)
from efimov.two_body import (
    dimer_energy,
    est_form_factor,
    half_effective_range_tail,
    separable_dimer_energy,
    solve_zero_energy,
    step_form_factor,
    universal_tail_form_factor,
)
from efimov.universal import delta, threshold_constants

from test_hyperradial import shot_nodes
from test_stm import kappa_star_extrapolated
from test_two_body import tune_to_scattering_length
from test_universal import recombination_rate

# ---------------------------------------------------------------------------
# shared expensive solves


@pytest.fixture(scope="module")
def zero_range_levels():
    return bound_levels(StmKernel(0.0, 1000.0), (-1e7, -1e-3))


@pytest.fixture(scope="module")
def zero_range_levels_shifted():
    return bound_levels(StmKernel(0.0, 1000.0 * LAMBDA0), (-1e9, -1e-3))


@pytest.fixture(scope="module")
def narrow_levels():
    return solve_trimers_narrow_resonance(0.0, 1.0, (-1.0, -1e-7))


@pytest.fixture(scope="module")
def narrow_thresholds():
    return threshold_scattering_lengths(100.0, n_max=3, r_star=1.0)


@pytest.fixture(scope="module")
def separable_classes():
    # each family at unitarity on the grid of its `stm --model`: the step
    # has its own
    def levels(form, grid=()):
        return bound_levels(SeparableKernel(form, 0.0, *grid), (-3.0, -1e-7))

    out = {}
    out["power4"] = levels(universal_tail_form_factor(4))
    # the van der Waals profile is the n = 6 tail, in units of l_vdW
    out["vdw"] = out["power6"] = levels(universal_tail_form_factor(6))
    out["step"] = levels(step_form_factor(1.0), _STEP_GRID)
    return out


@pytest.fixture(scope="module")
def triton_model():
    return TritonModel.fit()


@pytest.fixture(scope="module")
def triton_result(triton_model):
    return solve_triton(triton_model)


# ---------------------------------------------------------------------------
# 1. channel constants


def test_criterion_01_channel_constants():
    assert S0 == pytest.approx(1.00624, abs=1e-4)
    assert LAMBDA0 == pytest.approx(22.694, abs=0.01)
    assert S0_TWO_PAIR == pytest.approx(0.4137, abs=1e-3)
    assert math.exp(math.pi / S0_TWO_PAIR) == pytest.approx(1986.1, abs=0.5)
    assert critical_mass_ratio("fermions", 1) == pytest.approx(13.6069657, abs=1e-5)
    # the identical pair alternates statistics with ell parity
    for stats, ell, ref in (
        ("bosons", 2, 38.630),
        ("fermions", 3, 75.994),
        ("bosons", 4, 125.765),
    ):
        assert critical_mass_ratio(stats, ell) == pytest.approx(ref, abs=0.01)


# ---------------------------------------------------------------------------
# 2. universal-formula self-consistency


def test_criterion_02_universal_formula_self_consistency():
    ka_minus, ka_star = threshold_constants()
    assert ka_minus == pytest.approx(-1.50763, rel=5e-3)
    assert ka_star == pytest.approx(0.0707645086901, rel=5e-3)
    for xi in (-5 * math.pi / 8, -3 * math.pi / 8):
        assert abs(float(delta(xi + 1e-12)) - float(delta(xi - 1e-12))) < 0.01


# ---------------------------------------------------------------------------
# 3. zero-range STM


def test_criterion_03a_unitarity_level_ratio(zero_range_levels):
    lev = zero_range_levels
    assert len(lev) >= 3
    assert lev[1] / lev[2] == pytest.approx(515.0, rel=1e-2)


def test_criterion_03b_dissociation_length_ratio():
    am = threshold_scattering_lengths(1000.0, n_max=3)
    assert am[2] / am[1] == pytest.approx(22.69, rel=5e-3)


def test_criterion_03c_cutoff_covariance(zero_range_levels, zero_range_levels_shifted):
    # Lambda -> 22.694 Lambda maps the spectrum onto itself one level down.
    # Exact self-similarity of the log grid pins each shifted level to
    # lambda0^2 times its unshifted value ...
    for E_shift, E_ref in zip(zero_range_levels_shifted, zero_range_levels):
        assert E_shift == pytest.approx(LAMBDA0**2 * E_ref, rel=1e-9)
    # ... and the one-level shift identity holds for levels away from both
    # the cutoff-affected ground state and the infrared window edge
    pairs = list(zip(zero_range_levels[1:], zero_range_levels_shifted[2:]))[:-1]
    assert pairs
    for E_ref, E_shift in pairs:
        assert E_shift == pytest.approx(E_ref, rel=5e-3)


# ---------------------------------------------------------------------------
# 4. narrow resonance


def test_criterion_04a_three_body_parameter(narrow_levels):
    ks = kappa_star_extrapolated(narrow_levels, level=1)
    assert ks == pytest.approx(0.11691, rel=5e-3)


def test_criterion_04b_dissociation_length_extrapolated(narrow_thresholds):
    a2 = narrow_thresholds[2] / LAMBDA0**2
    assert a2 == pytest.approx(-12.895, rel=1e-2)


def test_criterion_04c_ground_dissociation_length(narrow_thresholds):
    assert narrow_thresholds[0] == pytest.approx(-10.90216, rel=1e-2)


def test_criterion_04d_ground_dimer_crossing():
    # a_*^(0) R*, where the ground narrow-resonance trimer meets the
    # particle-dimer threshold: the count of negative eigenvalues of M just
    # below the dimer pole steps as the trimer leaves, so 1/a R* is bisected
    # on it over (1.8, 2.6) to a bracket 1e-4 wide, whose trimer end is read
    def count(inv_a):
        kern = StmKernel(inv_a, 100.0, r_star=1.0, n=400, p_min_factor=1e-8)
        m = kern.matrix((1 + 1e-10) * kern._threshold())
        return int(np.count_nonzero(np.linalg.eigvalsh(m) < 0))

    lo, hi = 1.8, 2.6
    with_trimer = count(lo)
    assert count(hi) == with_trimer + 1
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        if count(mid) == with_trimer:
            lo = mid
        else:
            hi = mid
    assert 1.0 / lo == pytest.approx(0.458398, rel=2e-2)


# ---------------------------------------------------------------------------
# 5. universality classes of separable EST models


def test_criterion_05a_vdw_three_body_parameter(separable_classes):
    kappa0 = math.sqrt(-separable_classes["vdw"][0])
    assert kappa0 == pytest.approx(0.187, rel=2e-2)


def test_criterion_05b_vdw_ground_dissociation_length():
    am = dissociation_lengths(lambda inv_a: universal_tail_form_factor(6, inv_a))[0]
    assert am == pytest.approx(-10.86, rel=3e-2)


def test_criterion_05c_power4_class(separable_classes):
    val = math.sqrt(-separable_classes["power4"][0]) * half_effective_range_tail(4)
    assert val == pytest.approx(0.364, rel=2e-2)


def test_criterion_05d_power6_class(separable_classes):
    val = math.sqrt(-separable_classes["power6"][0]) * half_effective_range_tail(6)
    assert val == pytest.approx(0.2614, rel=2e-2)


def test_criterion_05e_step_class(separable_classes):
    val = math.sqrt(-separable_classes["step"][0])  # half_re = 1 by construction
    assert val == pytest.approx(0.2190, rel=2e-2)


# ---------------------------------------------------------------------------
# 6. two-channel nucleon model


def test_criterion_06a_deuteron_binding(triton_result):
    assert triton_result.deuteron == pytest.approx(2.223, rel=5e-3)


def test_criterion_06b_triton_binding_window(triton_result):
    # the converged ground state of the rank-one s-wave model without a
    # three-body force; grid refinements move it by at most 5.3e-7 relative.
    # It overbinds the physical triton (8.48 MeV, 7.5-9.5 MeV bracket), as
    # two-body (a, r_e) data do not fix the three-body energy (Phillips
    # line); see "Triton ground state" in the README
    binding = -triton_result.trimers[0]
    assert binding == pytest.approx(9.7609, rel=1e-4)


def test_criterion_06c_unitarity_level_ratio(triton_model):
    lev = bound_levels(triton_model.kernel((0.0, 0.0), *_TRITON_GRID, 1e-6), (-0.5, -1e-9))
    assert len(lev) >= 3
    ratio = math.sqrt(lev[1] / lev[2])
    assert ratio == pytest.approx(22.7, rel=1e-2)


def test_criterion_06d_channels_reproduce_effective_range(triton_model):
    # on-shell low-energy expansion of a rank-one channel with profile
    # phi(p) = 1 - c p^2 + ...: k cot delta = -1/a + (r_e/2) k^2 with
    # r_e = (4/pi) int_0^inf (1 - phi^2)/q^2 dq - 4 c/a
    p0, q_lo = 1e-3, 1e-6
    forms = triton_model.form_factors()
    states = (triton_model.triplet, triton_model.singlet)
    inputs = ((triton_model.a_t, triton_model.r_et), (triton_model.a_s, triton_model.r_es))
    for form, st, (a, r_e) in zip(forms, states, inputs):
        assert st.inv_a * a == pytest.approx(1.0, rel=1e-5)
        c = (1.0 - float(form(p0))) / p0**2
        rule = gauss_legendre_log(2000, q_lo, form.p_max)
        q = rule.nodes
        # 2 c q_lo and 1/p_max close the integral below and above the rule
        tails = 2.0 * c * q_lo + 1.0 / form.p_max
        integral = float(rule.weights @ ((1.0 - form(q) ** 2) / q**2)) + tails
        assert 4.0 / math.pi * integral - 4.0 * c / a == pytest.approx(r_e, rel=1e-5)


# ---------------------------------------------------------------------------
# 7. Born-Oppenheimer constants


def test_criterion_07_born_oppenheimer():
    assert OMEGA == pytest.approx(0.567143, abs=1e-6)
    assert BO_CRITICAL_L1 == pytest.approx(13.990296, abs=1e-4)
    assert abs(BO_CRITICAL_L1 / 13.6069657 - 1.0) < 0.03


# ---------------------------------------------------------------------------
# 8. two-body tail universality


def test_criterion_08_effective_range_tails():
    exact = {4: 2 * math.pi / 3, 6: math.gamma(0.25) ** 2 / (3 * math.pi)}
    for n, ref in exact.items():
        assert half_effective_range_tail(n) == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------------------
# 9. property checks tying the solvers together


def test_criterion_09a_hyperradial_discrete_scale_invariance():
    ref_channel = HyperradialChannel(R0=1.0)
    ref = solve_bound_states(ref_channel, (1e-4, 1.0))
    scl = solve_bound_states(
        HyperradialChannel(R0=LAMBDA0), (1e-4 / LAMBDA0, 1.0 / LAMBDA0)
    )
    E_ref = np.asarray(ref.energies)
    E_scl = np.asarray(scl.energies) * LAMBDA0**2
    m = min(E_ref.size, E_scl.size)
    assert E_scl[:m] == pytest.approx(E_ref[:m], rel=1e-8)
    assert [shot_nodes(ref_channel, E) for E in E_ref] == list(range(E_ref.size))


def test_criterion_09b_est_reproduces_two_body_input():
    from efimov.two_body import TwoBodyModel

    m = tune_to_scattering_length(
        TwoBodyModel("poschl_teller", {"lambda": 1.1, "range": 1.0}),
        "lambda",
        (1.02, 1.4),
        inv_a_target=0.12,
    )
    st = solve_zero_energy(m)
    form = est_form_factor(st, p_max=80.0)
    E_sep = separable_dimer_energy(form, st.inv_a, 1e-8 * form.p_max)
    E_er = dimer_energy(st.inv_a, st.r_e)
    assert E_sep == pytest.approx(E_er, rel=5e-3)


def test_criterion_09c_stm_grid_doubling(zero_range_levels):
    doubled = bound_levels(StmKernel(0.0, 1000.0, n=800), (-1e7, -1e-3))
    for a, b in zip(zero_range_levels, doubled):
        assert abs(b / a - 1.0) < 2e-3


def test_criterion_09d_recombination_maxima_geometric():
    a_minus, eta = -1.0, 0.05
    la = np.linspace(math.log(1.05), math.log(1.05) + 2.0 * math.pi / S0, 60000)
    a = a_minus * np.exp(la)
    scaled = np.array([recombination_rate(x, a_minus, eta) / x**4 for x in a])
    peaks = [
        i for i in range(1, la.size - 1)
        if scaled[i] > scaled[i - 1] and scaled[i] > scaled[i + 1]
    ]
    assert len(peaks) == 2
    assert a[peaks[1]] / a[peaks[0]] == pytest.approx(LAMBDA0, rel=1e-3)


def test_criterion_09e_node_ordering(zero_range_levels):
    # all bound-state sets order deepest-first with strictly growing spacing
    lev = np.asarray(zero_range_levels)
    assert np.all(np.diff(lev) > 0)
    channel = HyperradialChannel(R0=0.5)
    states = solve_bound_states(channel, (1e-3, 2.0))
    assert [shot_nodes(channel, E) for E in states.energies] == list(range(len(states.energies)))


def test_criterion_09f_two_channel_boson_reduction(triton_model):
    # with the triplet profile in both channels the two-channel nucleon
    # kernel splits into the boson sector and a mixed-symmetry sector
    # without bound states, so it has the one-channel separable levels
    form, _ = triton_model.form_factors()
    one, two = (
        bound_levels(SeparableKernel(ff, inv_a, n=120, n_ang=24, p_min=1e-6), (-0.5, -1e-9))
        for ff, inv_a in ((form, 0.0), ((form, form), (0.0, 0.0)))
    )
    assert len(one) == len(two) == 3
    for E_one, E_two in zip(one, two):
        assert E_two == pytest.approx(E_one, rel=1e-9)
