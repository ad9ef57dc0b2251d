import math

import pytest

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


def test_fermion_critical_mass_ratio():
    assert critical_mass_ratio("fermions", 1) == pytest.approx(13.6069657, abs=1e-5)


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
