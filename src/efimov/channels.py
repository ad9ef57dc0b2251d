"""Hyperangular channel exponents s_n for all particle contents in scope.

Every channel condition is an elementary function of s^2, built from the
hyperangular solution that is regular at the coalescence point of a pair
(``_regular``), and is solved in s^2 across the real (s^2 > 0) and the
imaginary (s^2 < 0) branch alike.  A channel with s^2 < 0 supports the
log-periodic attraction.
"""
from __future__ import annotations

import cmath
import functools
import math

from .numerics import find_root

__all__ = [
    "S0",
    "LAMBDA0",
    "S0_TWO_PAIR",
    "RHO_STAR",
    "boson_sigma",
    "s2_lowest",
    "two_plus_one_exponent",
    "critical_mass_ratio",
]

_SQ3 = math.sqrt(3.0)


def _sinc(w: complex) -> complex:
    return cmath.sin(w) / w if w else 1.0


def _regular(ell: int, s2: float, b: float) -> tuple[float, float]:
    """(Y, dY/db) at b of the solution of Y'' = [l(l+1)/sin^2 b - s^2] Y
    that is regular at b = 0, as an entire function of s^2.

    Y_0 = sin(sb)/s, raised by the Poschl-Teller ladder
    Y_l = (Y_{l-1}' - l cot(b) Y_{l-1}) / (l^2 - s^2), with
    Y_l' = Y_{l-1} - l cot(b) Y_l from the lowering operator.  The rung
    vanishes identically at s^2 = l^2, where Y_{l-1} is sin^l b, so the
    division only drops that trivial zero.  The first rung is written as
    [sin((1-s)b)/(1-s) - cos(b) Y_0] / ((1+s) sin b), which keeps its
    digits at s^2 = 1; its two terms cancel to (1+s) b^3/3, so for
    b max(1, |s|) < 0.1 it is summed as a series instead
    (``_first_rung_series``).  Later rungs are only evaluated at s^2 = 0.
    s is complex for s^2 < 0 (sin -> sinh); the result is real.
    """
    s = cmath.sqrt(s2)
    cot = 1.0 / math.tan(b)
    y, dy = b * _sinc(s * b), cmath.cos(s * b)
    for l in range(1, ell + 1):
        if l > 1:
            up = (dy - l * cot * y) / (l * l - s2)
        elif b * max(1.0, abs(s)) < 0.1:
            up = _first_rung_series(s2, b) / math.sin(b)
        else:
            up = (b * _sinc((1.0 - s) * b) - math.cos(b) * y) / ((1.0 + s) * math.sin(b))
        y, dy = up, y - l * cot * up
    return y.real, dy.real


def _first_rung_series(s2: float, b: float) -> float:
    """Y_1(b) sin b = sum over m >= 1 of (-1)^(m+1) D_m b^(2m+1)/(2m+1)!,
    with D_m = [(1+s)^(2m) - (1-s)^(2m)]/(2s), from the product-to-sum form
    of cos(b) sin(sb).  D_m and U_m = [(1+s)^(2m) + (1-s)^(2m)]/2 are
    polynomials in s^2: D_(m+1) = (1+s^2) D_m + 2 U_m and
    U_(m+1) = (1+s^2) U_m + 2 s^2 D_m from D_0 = 0, U_0 = 1.  For
    b max(1, |s|) < 0.1 the ninth term is under 1e-20 of the first."""
    d, u, term, total = 0.0, 1.0, b, 0.0
    for m in range(1, 9):
        d, u = (1.0 + s2) * d + 2.0 * u, (1.0 + s2) * u + 2.0 * s2 * d
        term *= -b * b / ((2 * m) * (2 * m + 1))
        total -= d * term
    return total


def _condition(ell: int, s2: float, gam: float) -> float:
    """-Y_l'(pi/2) + (2/sin 2gam) Y_l(gam) for two identical particles plus
    one at unitarity: zero at a channel exponent s^2, with b = pi/2 - alpha
    measured from the coalescence point of the identical pair."""
    return -_regular(ell, s2, 0.5 * math.pi)[1] + 2.0 / math.sin(2.0 * gam) * _regular(ell, s2, gam)[0]


def _boson_condition(s2: float, rho: float) -> float:
    """-Y_0'(pi/2) + (8/sqrt3) Y_0(pi/6) + rho Y_0(pi/2) for three
    identical bosons at R/a = rho: s cos(s pi/2) - (8/sqrt3) sin(s pi/6)
    = rho sin(s pi/2), divided by -s.  Its value at s^2 = 0 is
    (pi/2)(rho - RHO_STAR), and at s^2 = 4 it is 3."""
    y, dy = _regular(0, s2, 0.5 * math.pi)
    return -dy + 8.0 / _SQ3 * _regular(0, s2, math.pi / 6)[0] + rho * y


def _root_s2(f) -> float:
    """The lowest root s^2 of a condition f -> -inf as s^2 -> -inf.

    The sign of f(0) picks the branch.  f(0) > 0 puts the root in
    (-4^k, 0), for the first k with f(-4^k) < 0.  Otherwise it is the real
    root on (0, 4), where each caller's f(4) > 0 is proven.
    """
    if f(0.0) <= 0:
        return find_root(f, 0.0, 4.0, tol=1e-16)
    lo = -1.0
    while f(lo) > 0:
        lo *= 4.0
    return find_root(f, lo, 0.0, tol=1e-16)


# Below this value of rho = R/a the lowest boson channel exponent is real:
# the boson condition at s^2 = 0 changes sign here.
RHO_STAR = (2 / math.pi) * (1 - 4 * math.pi / (3 * _SQ3))


@functools.lru_cache(maxsize=None)
def boson_sigma(rho: float = 0.0) -> float:
    """|s_0| of the lowest identical-boson channel at R/a = rho.

    Only defined for rho > RHO_STAR, where the root is imaginary.
    """
    if rho <= RHO_STAR:
        raise ValueError(f"no imaginary root for R/a <= {RHO_STAR:.6f}")
    return math.sqrt(max(-_root_s2(functools.partial(_boson_condition, rho=rho)), 0.0))


#: |s_0| for three identical bosons at unitarity.
S0 = boson_sigma(0.0)
#: Discrete scaling ratio e^{pi/|s_0|} ~ 22.7.
LAMBDA0 = math.exp(math.pi / S0)

#: |s_0| with only two of the three pairs resonant (distinguishable
#: particles): the two-plus-one condition at equal masses, gam = pi/6,
#: cos(s pi/2) = (4/sqrt(3)) sin(s pi/6)/s, the limit of the 3x3
#: determinant condition when one 1/a_pair -> -inf.
S0_TWO_PAIR = math.sqrt(-_root_s2(functools.partial(_condition, 0, gam=math.pi / 6)))


def s2_lowest(R_over_a: float) -> float:
    """s^2(R) of the lowest boson channel, continuous across RHO_STAR.

    One Brent zero in s^2 of the boson condition, on whichever side of
    s^2 = 0 the sign of (pi/2)(rho - RHO_STAR) puts it.  Below RHO_STAR
    the real root lies on (0, 4), where it is the only zero (measured for
    R/a from RHO_STAR - 1e-6 down to -1e15).  Below R/a of about -5e16 the
    rounding of sin(pi) flips the condition at s^2 = 4, and
    BracketingError is raised.
    """
    rho = float(R_over_a)
    if rho > 35.0:
        # sigma = rho + O(e^{-pi rho/3}): the channel merges with the dimer
        return -(rho * rho)  # rho**2 raises OverflowError past 1.3e154
    return _root_s2(functools.partial(_boson_condition, rho=rho))


def two_plus_one_exponent(
    mass_ratio: float,
    statistics: str = "bosons",
    resonant_pairs: int = 3,
    ell: int = None,
) -> float:
    """s^2 of the lowest channel for two identical particles plus one, at
    unitarity of the resonant pairs; s^2 < 0 marks an Efimov channel.

    Bosons use ell = 0 (2 or 3 resonant pairs); fermions use ell = 1 and
    give a real exponent, s^2 > 0, below the critical mass ratio
    13.6069656978994.  The branch is the sign of the condition at s^2 = 0
    (``_root_s2``).  The boson conditions are positive there
    (2 gam > sin 2gam), and so is the fermion one above the critical ratio;
    below it the fermion condition is negative, and tan(gam)/3 > 0 at
    s^2 = 4.
    """
    if mass_ratio <= 0:
        raise ValueError("mass_ratio must be positive")
    # sin gam = M/(M+1) and sin gam' = 1/sqrt(2(M+1)), through their tangents
    root = math.sqrt(2.0 * mass_ratio + 1.0)
    gam = math.atan2(mass_ratio, root)
    if statistics == "bosons":
        if ell not in (None, 0):
            raise ValueError("boson channel implemented for ell = 0")
        if resonant_pairs != 3:
            return _root_s2(functools.partial(_condition, 0, gam=gam))
        gamp = math.atan2(1.0, root)

        def det(s2):
            # the 3x3 determinant of the three Faddeev components, with the
            # sign that makes it positive at s^2 = 0
            pair = 2.0 / math.sin(2.0 * gamp) * _regular(0, s2, gamp)[0]
            return _condition(0, s2, gam) * _regular(0, s2, 0.5 * math.pi)[1] + 2.0 * pair**2

        return _root_s2(det)
    if statistics == "fermions":
        if ell not in (None, 1):
            raise ValueError("fermion channel implemented for ell = 1")
        return _root_s2(functools.partial(_condition, 1, gam=gam))
    raise ValueError(f"unknown statistics {statistics!r}")


def critical_mass_ratio(statistics: str, ell: int) -> float:
    """Mass ratio at which the channel exponent of angular momentum ell
    crosses s^2 = 0 (onset of the Efimov effect).

    Fermions take odd ell >= 1, bosons even ell >= 2.  The root is taken in
    t = pi/2 - gam, where M = cos t / (2 sin^2(t/2)) keeps its digits as
    gam -> pi/2.  At s = 0, Y_l(pi/2) > 0, so the condition -> +inf as
    t -> 0; as gam -> 0 the pair term vanishes as gam^l and leaves
    -Y_l'(pi/2) < 0, which holds already at gam = 0.2.
    """
    if statistics not in ("fermions", "bosons"):
        raise ValueError(f"unknown statistics {statistics!r}")
    odd = statistics == "fermions"
    if ell < 2 - odd or ell % 2 != odd:
        raise ValueError(f"{statistics} require {'odd' if odd else 'even'} ell >= {2 - odd}")
    t = find_root(lambda t: _condition(ell, 0.0, 0.5 * math.pi - t), 1e-6, 0.5 * math.pi - 0.2, tol=1e-16)
    return math.cos(t) / (2.0 * math.sin(0.5 * t) ** 2)
