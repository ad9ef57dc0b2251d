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
    ChannelExponent,
    boson_sigma,
    critical_mass_ratio,
    s2_lowest,
    two_plus_one_exponent,
)
from efimov.cli import _verify_table


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
    # the ratio comes from the channel ODE, so it is checked at 1e-11
    assert _rel_err(critical_mass_ratio("fermions", 1), exact["fermion_critical_mass_ratio"]) < 1e-11


def test_two_plus_one_fermions_across_critical():
    below = two_plus_one_exponent(13.0, "fermions", ell=1)
    above = two_plus_one_exponent(14.0, "fermions", ell=1)
    assert not below.efimov and below.s_squared > 0
    assert above.efimov and above.s_squared < 0


def test_two_plus_one_bosons_reduces_to_known_channels():
    # equal masses, all three pairs resonant: the identical-boson channel
    full = two_plus_one_exponent(1.0, "bosons", resonant_pairs=3)
    assert full.sigma == pytest.approx(S0, rel=1e-8)
    # only the unlike pairs resonant: the two-pair universality class
    pair = two_plus_one_exponent(1.0, "bosons", resonant_pairs=2)
    assert pair.sigma == pytest.approx(S0_TWO_PAIR, rel=1e-8)


def test_channel_exponent_guards():
    real = ChannelExponent(4.0)
    with pytest.raises(ValueError):
        real.sigma
