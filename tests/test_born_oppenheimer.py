import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efimov.born_oppenheimer import (
    BO_CRITICAL_L1,
    OMEGA,
    bonding_energy,
    _lambert_w,
    bonding_kappa,
    effective_potential,
    s0_estimate,
)


def test_omega_is_the_exchange_root():
    assert OMEGA * math.exp(OMEGA) == 1.0
    assert OMEGA == pytest.approx(0.567143290409784, abs=1e-12)


def test_lambert_w_matches_mpmath():
    x = np.concatenate([[0.0, 5e-324, 1e-300], np.geomspace(1e-12, 1e6, 400), [1.5, math.e]])
    ref = np.array([float(mpmath.lambertw(mpmath.mpf(v))) for v in x])
    assert _lambert_w(x) == pytest.approx(ref, rel=1e-15, abs=0)
    assert _lambert_w(x[:400].reshape(20, 20)).shape == (20, 20)
    # no overflow on the way to the largest double, and W(inf) = inf
    top = np.finfo(float).max
    big = _lambert_w(np.array([1e300, top, np.inf]))
    assert big[:2] == pytest.approx([float(mpmath.lambertw(v)) for v in (1e300, top)], rel=1e-15)
    assert big[2] == math.inf


@settings(max_examples=50, deadline=None)
@given(R=st.floats(1e-3, 1e3))
def test_unitarity_kappa_scale_free(R):
    # at 1/a = 0 the only scale is R itself: kappa R = Omega exactly
    assert bonding_kappa(R, math.inf) * R == pytest.approx(OMEGA, rel=1e-12)


def test_kappa_solves_defining_equation():
    for a in (2.5, -2.5, math.inf):
        for R in (0.3, 1.0, 2.0):
            kap = bonding_kappa(R, a)
            if math.isnan(kap):
                continue
            inv_a = 0.0 if math.isinf(a) else 1.0 / a
            assert kap - math.exp(-kap * R) / R == pytest.approx(inv_a, abs=1e-12)


def test_negative_a_channel_closes():
    a = -2.0
    assert bonding_kappa(1.9, a) > 0
    assert math.isnan(bonding_kappa(2.1, a))
    assert math.isnan(bonding_energy(2.1, a))


def test_positive_a_long_range_limit():
    a = 3.0
    assert bonding_kappa(50.0, a) == pytest.approx(1.0 / a, rel=1e-6)
    assert bonding_energy(50.0, a) == pytest.approx(-0.5 / a**2, rel=1e-5)


def test_effective_potential_centrifugal_term():
    R = 0.01
    v0 = effective_potential(R, math.inf, 0, 10.0)
    v1 = effective_potential(R, math.inf, 1, 10.0)
    assert v1 - v0 == pytest.approx(2.0 / R**2, rel=1e-12)
    with pytest.raises(ValueError):
        effective_potential(R, 1.0, -1, 10.0)


def test_s0_estimate_and_critical_ratio():
    assert BO_CRITICAL_L1 == pytest.approx(13.990296, abs=1e-4)
    # adiabatic estimate lands within 3% of the exact L = 1 critical ratio
    assert abs(BO_CRITICAL_L1 / 13.6069657 - 1.0) < 0.03
    assert math.isnan(s0_estimate(13.9, L=1))
    s0 = s0_estimate(14.1, L=1)
    assert s0 > 0
    assert 0.5 * 14.1 * OMEGA**2 - 2.25 == pytest.approx(s0**2, rel=1e-12)


def test_effective_potential_deep_limit_sets_s0():
    # V(R) -> -(M Omega^2/2)/R^2 for R << a; the 1/R^2 coefficient plus
    # the -1/4 from the radial measure gives |s0|^2
    M = 25.0
    R = 1e-4
    coeff = -effective_potential(R, math.inf, 0, M) * R**2
    assert coeff == pytest.approx(0.5 * M * OMEGA**2, rel=1e-10)
    assert s0_estimate(M) == pytest.approx(math.sqrt(coeff - 0.25), rel=1e-10)
