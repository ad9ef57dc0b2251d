import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from efimov.channels import LAMBDA0, S0
from efimov.universal import (
    A_MINUS_KAPPA,
    A_STAR_KAPPA,
    delta,
    threshold_constants,
    trimer_point,
    universal_relations,
)


def test_delta_reference_values():
    assert float(delta(-math.pi / 2)) == 0.0
    assert float(delta(-math.pi)) == pytest.approx(-0.825)
    assert float(delta(-math.pi / 4)) == pytest.approx(6.027)
    with pytest.raises(ValueError):
        delta(-math.pi / 8)


def test_delta_branch_joints_are_small():
    for xi in (-5 * math.pi / 8, -3 * math.pi / 8):
        jump = float(delta(xi + 1e-12)) - float(delta(xi - 1e-12))
        assert abs(jump) < 0.01, f"joint at xi={xi} too large"


def test_threshold_constants_close_to_exact():
    ka_minus, ka_star = threshold_constants()
    assert ka_minus == pytest.approx(A_MINUS_KAPPA, rel=5e-3)
    assert ka_star == pytest.approx(A_STAR_KAPPA, rel=5e-3)


def test_unitarity_spectrum_geometric():
    ks = 0.7
    for n in range(4):
        assert trimer_point(n, 0.0, ks) == pytest.approx(-ks / LAMBDA0**n, rel=1e-12)


def test_trimer_point_thresholds():
    ks = 1.0
    a_minus, _, a_star = universal_relations(ks)
    km, ka = threshold_constants()
    # the formula's own thresholds sit at the delta-implied constants
    assert trimer_point(0, 1.0 / (km / ks) * 1.02, ks) is None  # |a| < |a_-|
    assert trimer_point(0, 1.0 / (km / ks) * 0.98, ks) is not None
    assert trimer_point(0, 1.0 / (ka / ks) * 1.02, ks) is None  # a < a_*
    assert trimer_point(0, 1.0 / (ka / ks) * 0.98, ks) is not None


@settings(max_examples=60, deadline=None)
@given(
    inv_a=st.floats(-0.5, 2.0),
    n=st.integers(0, 2),
    ks=st.floats(0.5, 2.0),
)
def test_discrete_scale_invariance(inv_a, n, ks):
    kappa = trimer_point(n, inv_a, ks)
    assume(kappa is not None)
    scaled = trimer_point(n + 1, inv_a / LAMBDA0, ks)
    assume(scaled is not None)
    assert scaled == pytest.approx(kappa / LAMBDA0, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(inv_a=st.floats(-0.4, 3.0), n=st.integers(0, 2))
def test_kappa_star_rescaling_covariance(inv_a, n):
    # kappa_star and (1/a, kappa) carry the same dimension: scaling all
    # three leaves the formula invariant
    s = 3.7
    kappa = trimer_point(n, inv_a, 1.0)
    assume(kappa is not None)
    scaled = trimer_point(n, s * inv_a, s)
    assume(scaled is not None)
    assert scaled == pytest.approx(s * kappa, rel=1e-9)


@pytest.mark.parametrize("inv_a", [-0.5, -0.1, -1e-12, 1e-12, 0.3, 2.0])
def test_trimer_point_lies_in_the_bound_sector(inv_a):
    # every trimer is bound, kappa < 0, at a polar angle xi in [-pi, -pi/4]
    for n in range(3):
        kappa = trimer_point(n, inv_a, 1.0)
        if kappa is not None:
            assert kappa < 0
            assert -math.pi <= math.atan2(kappa, inv_a) <= -math.pi / 4


RECOMBINATION_C = 4590.0


def recombination_rate(a: float, a_minus: float, eta: float):
    """Three-body recombination loss coefficient L3 for a < 0.

    L3 = C sinh(2 eta) / (sin^2[s0 ln(a/a_minus)] + sinh^2 eta) * hbar a^4/m,
    in natural units hbar = m = 1.
    Returns inf (divergence flag) at the eta = 0 resonance peaks.
    """
    if not (a < 0 and a_minus < 0):
        raise ValueError("recombination formula applies to a < 0")
    if eta < 0:
        raise ValueError("eta must be >= 0")
    denom = math.sin(S0 * math.log(a / a_minus)) ** 2 + math.sinh(eta) ** 2
    if denom == 0.0:
        return math.inf
    return RECOMBINATION_C * math.sinh(2.0 * eta) / denom * a**4


def test_recombination_peaks_are_geometric():
    a_minus, eta = -1.0, 0.05
    la = np.linspace(math.log(1.05), math.log(1.05) + 2.0 * math.pi / S0, 60000)
    a = a_minus * np.exp(la)
    scaled = np.array([recombination_rate(x, a_minus, eta) / x**4 for x in a])
    peaks = [
        i
        for i in range(1, la.size - 1)
        if scaled[i] > scaled[i - 1] and scaled[i] > scaled[i + 1]
    ]
    assert len(peaks) == 2
    ratio = a[peaks[1]] / a[peaks[0]]
    assert ratio == pytest.approx(LAMBDA0, rel=1e-3)


def test_recombination_divergence_and_domain():
    assert math.isinf(recombination_rate(-1.0, -1.0, 0.0))
    assert recombination_rate(-2.0, -1.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        recombination_rate(2.0, -1.0, 0.1)
