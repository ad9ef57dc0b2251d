import ast
import inspect
import math
import textwrap
from decimal import Decimal

import mpmath
import pytest

from efimov.born_oppenheimer import BO_CRITICAL_L1, OMEGA
from efimov.channels import (
    LAMBDA0,
    RHO_STAR,
    S0,
    S0_TWO_PAIR,
    boson_sigma,
    critical_mass_ratio,
    s2_lowest,
    two_plus_one_exponent,
)
from efimov.cli import _verify_table, main


@pytest.fixture(scope="module")
def exact():
    """The channel and Born-Oppenheimer constants to 30 digits, from their
    defining equations."""
    with mpmath.workdps(30):
        pi, sq3, sinh, cosh, sin = mpmath.pi, mpmath.sqrt(3), mpmath.sinh, mpmath.cosh, mpmath.sin
        s0 = mpmath.findroot(lambda s: s * cosh(s * pi / 2) - 8 / sq3 * sinh(s * pi / 6), 1)
        s0_pair = mpmath.findroot(lambda s: cosh(s * pi / 2) - 4 / sq3 * sinh(s * pi / 6) / s, 0.4)
        omega = mpmath.lambertw(1).real
        # l = 1 fermions: the s -> 0 limit of the channel condition vanishes
        # at gamma = arcsin(M / (M + 1))
        gam = mpmath.findroot(lambda g: pi / 2 - 2 / sin(2 * g) + g / sin(g) ** 2, 1.3)
        return {
            "S0": s0,
            "LAMBDA0": mpmath.exp(pi / s0),
            "S0_TWO_PAIR": s0_pair,
            "lambda0_two_pair": mpmath.exp(pi / s0_pair),
            "RHO_STAR": 2 / pi * (1 - 4 * pi / (3 * sq3)),
            "OMEGA": omega,
            "BO_CRITICAL_L1": 2 * (2 + mpmath.mpf(1) / 4) / omega**2,
            "fermion_critical_mass_ratio": sin(gam) / (1 - sin(gam)),
            # (1/2) r_e / l_6 of the -C_6/r^6 tail at unitarity
            "half_re_over_l6": mpmath.gamma(mpmath.mpf(1) / 4) ** 2 / (3 * pi),
        }


def _rel_err(got, ref):
    with mpmath.workdps(30):
        return float(abs(got / ref - 1))


def test_constants_match_mpmath(exact):
    computed = {
        "S0": S0, "LAMBDA0": LAMBDA0, "S0_TWO_PAIR": S0_TWO_PAIR, "RHO_STAR": RHO_STAR,
        "OMEGA": OMEGA, "BO_CRITICAL_L1": BO_CRITICAL_L1,
    }
    err = {name: _rel_err(value, exact[name]) for name, value in computed.items()}
    assert max(err.values()) < 1e-14, err


def test_verify_references_round_the_exact_constants(exact):
    # each reference literal of the verify table is the exact constant
    # rounded to its last written digit
    source = textwrap.dedent(inspect.getsource(_verify_table))
    literals = {
        node.elts[0].value: ast.get_source_segment(source, node.elts[2])
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Tuple) and len(node.elts) == 4
        and isinstance(node.elts[0], ast.Constant) and isinstance(node.elts[2], ast.Constant)
    }
    rows = {
        "boson_s0": "S0", "scaling_ratio": "LAMBDA0", "two_pair_ratio": "lambda0_two_pair",
        "fermion_critical_mass_ratio": "fermion_critical_mass_ratio",
        "omega_constant": "OMEGA", "bo_critical_L1": "BO_CRITICAL_L1",
        "half_re_over_l6": "half_re_over_l6",
    }
    with mpmath.workdps(30):
        for row, name in rows.items():
            text = literals[row]
            half_unit = mpmath.mpf(10) ** Decimal(text).as_tuple().exponent / 2
            assert abs(mpmath.mpf(text) - exact[name]) <= half_unit, (row, text)


def test_boson_constants():
    assert S0 == pytest.approx(1.0062378251, abs=1e-9)
    assert LAMBDA0 == pytest.approx(math.exp(math.pi / S0), rel=1e-14)
    assert LAMBDA0 == pytest.approx(22.6943826, abs=1e-6)


def test_two_pair_channel():
    assert S0_TWO_PAIR == pytest.approx(0.4136973, abs=1e-6)
    assert math.exp(math.pi / S0_TWO_PAIR) == pytest.approx(1986.12, abs=0.5)


def test_boson_sigma_domain():
    with pytest.raises(ValueError):
        boson_sigma(RHO_STAR - 0.01)
    # weakening the attraction (R/a below threshold) removes the imaginary root
    assert boson_sigma(RHO_STAR + 1e-4) < 0.05


def test_s2_lowest_limits():
    assert s2_lowest(0.0) == pytest.approx(-(S0**2), rel=1e-12)
    # continuous through the imaginary/real crossover
    assert abs(s2_lowest(RHO_STAR + 1e-6)) < 1e-3
    assert abs(s2_lowest(RHO_STAR - 1e-6)) < 1e-3
    # a > 0 large R: channel dives toward the dimer, s2 -> -(R/a)^2
    assert s2_lowest(100.0) == pytest.approx(-1e4, rel=1e-2)


def test_fermion_critical_mass_ratio(exact):
    assert _rel_err(critical_mass_ratio("fermions", 1), exact["fermion_critical_mass_ratio"]) < 1e-13


def _critical_ratio_mpmath(ell):
    """The mass ratio sin(gam)/(1 - sin(gam)) where the s = 0 condition
    -y_l'(pi/2) + (2/sin 2gam) y_l(gam) vanishes, to 30 digits: y_0 = b
    raised by the ladder y_l = y_{l-1}' - l cot(b) y_{l-1},
    y_l' = (l^2/sin^2 b) y_{l-1} - l cot(b) y_{l-1}'."""

    def regular(b):
        y, dy = b, mpmath.mpf(1)
        for l in range(1, ell + 1):
            y, dy = dy - l * mpmath.cot(b) * y, l * l / mpmath.sin(b) ** 2 * y - l * mpmath.cot(b) * dy
        return y, dy

    with mpmath.workdps(30):
        gam = mpmath.findroot(
            lambda g: -regular(mpmath.pi / 2)[1] + 2 / mpmath.sin(2 * g) * regular(g)[0], 1.3
        )
        return mpmath.sin(gam) / (1 - mpmath.sin(gam))


@pytest.mark.parametrize(
    "statistics, ell, rounded",
    [
        # 15 digits; Kartavtsev & Malykh, JETP Lett. 86, 625 (2007) give
        # 13.607, 38.63 and 75.99 for l = 1, 2, 3
        ("fermions", 1, "13.6069656978994"),
        ("bosons", 2, "38.6301583951411"),
        ("fermions", 3, "75.9944943408462"),
        ("bosons", 4, "125.764635718708"),
    ],
)
def test_critical_mass_ratios_match_mpmath(statistics, ell, rounded):
    exact = _critical_ratio_mpmath(ell)
    assert _rel_err(float(rounded), exact) < 1e-14
    assert _rel_err(critical_mass_ratio(statistics, ell), exact) < 1e-13


def test_two_plus_one_fermions_across_critical():
    assert two_plus_one_exponent(13.0, "fermions", ell=1) > 0
    assert two_plus_one_exponent(14.0, "fermions", ell=1) < 0


@pytest.mark.parametrize(
    "mass_ratio, s2, rel",
    [
        (0.001, 3.99830458, 1e-8),  # root at s = 1.9996, just under the bracket top s^2 = 4
        (13.606965, 1.335061524307e-7, 1e-8),  # 7e-7 below the critical ratio
    ],
)
def test_subcritical_fermion_root_near_the_bracket_ends(mass_ratio, s2, rel):
    assert two_plus_one_exponent(mass_ratio, "fermions") == pytest.approx(s2, rel=rel)


def _fermion_s2_mpmath(mass_ratio, guess):
    """The l = 1 fermion channel root in s^2, to 30 digits, from the
    condition -(1 - s^2) sin(s pi/2)/s + (2/sin 2gam)(cos(s gam)
    - cot(gam) sin(s gam)/s), continued to s^2 < 0 through complex s."""
    with mpmath.workdps(30):
        m = mpmath.mpf(mass_ratio)
        gam = mpmath.asin(m / (m + 1))

        def f(s2):
            s = mpmath.sqrt(mpmath.mpc(s2))
            pair = mpmath.cos(s * gam) - mpmath.cot(gam) * mpmath.sin(s * gam) / s
            return mpmath.re(-(1 - s2) * mpmath.sin(s * mpmath.pi / 2) / s + 2 / mpmath.sin(2 * gam) * pair)

        return mpmath.findroot(f, mpmath.mpf(guess))


def test_fermion_root_is_continuous_across_the_critical_ratio():
    # the real root s^2 > 0 below the critical ratio 13.6069656978994 runs
    # through 0 into the Efimov branch s^2 < 0, with no gap at the bracket ends
    ratios = [13.606965, 13.60696569786, 13.606965697867, 13.6069656978994,
              13.60696569791, 13.6069657, 13.607]
    s2 = [two_plus_one_exponent(m, "fermions") for m in ratios]
    assert s2 == sorted(s2, reverse=True)
    assert s2[0] > 0 > s2[-1]
    for m, got in zip(ratios, s2):
        assert abs(got - float(_fermion_s2_mpmath(m, got))) < 1e-14, m


@pytest.mark.parametrize("mass_ratio", [1e-3, 1e-4, 1e-5, 1e-6])
def test_light_fermion_root_matches_mpmath(mass_ratio):
    # the pair term's first rung cancels to b^2/3 at b = gam ~ mass_ratio,
    # and is summed as a series there
    got = two_plus_one_exponent(mass_ratio, "fermions")
    assert _rel_err(got, _fermion_s2_mpmath(mass_ratio, got)) <= 1e-13


@pytest.mark.parametrize(
    "mass_ratio, code", [("0.001", 0), ("13.606965", 0), ("13.606965697867", 0)]
)
def test_fermion_channels_exit_codes(tmp_path, mass_ratio, code):
    argv = ["channels", "--system", "fermions", "--mass-ratio", mass_ratio, "--unitarity"]
    assert main([*argv, "--output", str(tmp_path / "c.csv")]) == code


@pytest.mark.parametrize("rho", [RHO_STAR - 1e-8, -1.0, -5.0, -1e3, -1e12])
def test_real_boson_root_is_the_lowest(rho):
    # the real branch takes the one zero of the condition on (1e-9, 2);
    # every zero below it would show as a sign change on a fine grid
    s = math.sqrt(s2_lowest(rho))

    def f(x):
        return (
            -x * math.cos(x * math.pi / 2)
            + 8 / math.sqrt(3) * math.sin(x * math.pi / 6)
            + rho * math.sin(x * math.pi / 2)
        )

    grid = [s * k / 2000 for k in range(1, 2000)]
    assert all(f(x) < 0 for x in grid)
    assert 0 < s < 2


def test_two_plus_one_bosons_reduces_to_known_channels():
    # equal masses, all three pairs resonant: the identical-boson channel
    full = two_plus_one_exponent(1.0, "bosons", resonant_pairs=3)
    assert math.sqrt(-full) == pytest.approx(S0, rel=1e-8)
    # only the unlike pairs resonant: the two-pair universality class
    pair = two_plus_one_exponent(1.0, "bosons", resonant_pairs=2)
    assert math.sqrt(-pair) == pytest.approx(S0_TWO_PAIR, rel=1e-8)
