"""Hyperangular channel exponents s_n for all particle contents in scope.

The transcendental conditions are solved for real roots s directly, and for
imaginary roots after the substitution s = i*sigma, which turns
cos -> cosh and sin -> i*sinh and leaves a purely real equation on the
sigma axis.  A channel with s^2 < 0 supports the log-periodic attraction.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import BracketingError, find_root, propagate, scan_sign_changes

__all__ = [
    "S0",
    "LAMBDA0",
    "S0_TWO_PAIR",
    "RHO_STAR",
    "ChannelExponent",
    "boson_sigma",
    "s2_lowest",
    "two_plus_one_exponent",
    "critical_mass_ratio",
]

_SQ3 = np.sqrt(3.0)


def _boson_sigma_eq(sigma: float, rho: float) -> float:
    # sigma*cosh(sigma pi/2) - (8/sqrt3)*sinh(sigma pi/6) = rho*sinh(sigma pi/2)
    return (
        sigma * np.cosh(sigma * np.pi / 2)
        - (8 / _SQ3) * np.sinh(sigma * np.pi / 6)
        - rho * np.sinh(sigma * np.pi / 2)
    )


def _boson_real_eq(s: float, rho: float) -> float:
    return (
        -s * np.cos(s * np.pi / 2)
        + (8 / _SQ3) * np.sin(s * np.pi / 6)
        + rho * np.sin(s * np.pi / 2)
    )


# Below this value of rho = R/a the lowest boson channel exponent is real:
# the s -> 0 expansion of the boundary condition changes sign here.
RHO_STAR = (2 / np.pi) * (1 - 4 * np.pi / (3 * _SQ3))


@lru_cache(maxsize=None)
def boson_sigma(rho: float = 0.0) -> float:
    """|s_0| of the lowest identical-boson channel at R/a = rho.

    Only defined for rho > RHO_STAR, where the root is imaginary.
    """
    if rho <= RHO_STAR:
        raise ValueError(f"no imaginary root for R/a <= {RHO_STAR:.6f}")
    hi = 1.5
    while _boson_sigma_eq(hi, rho) < 0:
        hi *= 2.0
    return find_root(lambda s: _boson_sigma_eq(s, rho), 1e-12, hi, tol=1e-14)


#: |s_0| for three identical bosons at unitarity.
S0 = boson_sigma(0.0)
#: Discrete scaling ratio e^{pi/|s_0|} ~ 22.7.
LAMBDA0 = float(np.exp(np.pi / S0))

#: |s_0| with only two of the three pairs resonant (distinguishable
#: particles); from cosh(s pi/2) = (4/sqrt(3)) sinh(s pi/6)/s, the limit of
#: the 3x3 determinant condition when one 1/a_pair -> -inf.
S0_TWO_PAIR = find_root(
    lambda sig: np.cosh(sig * np.pi / 2) - (4 / _SQ3) * np.sinh(sig * np.pi / 6) / sig,
    0.05,
    1.5,
    tol=1e-14,
)


@dataclass(frozen=True)
class ChannelExponent:
    """One hyperangular eigenvalue; s_squared < 0 marks an Efimov channel."""

    s_squared: float

    @property
    def efimov(self) -> bool:
        return self.s_squared < 0

    @property
    def sigma(self) -> float:
        """|s| for an imaginary exponent."""
        if self.s_squared >= 0:
            raise ValueError("exponent is real")
        return float(np.sqrt(-self.s_squared))


@lru_cache(maxsize=None)
def s2_lowest(R_over_a: float) -> float:
    """s^2(R) of the lowest boson channel, continuous across RHO_STAR.

    Memoized: as the s2(R) of a hyperradial channel it is evaluated
    thousands of times per solve.
    """
    rho = float(R_over_a)
    if rho > 35.0:
        # sigma = rho + O(e^{-pi rho/3}): the channel merges with the dimer
        return -(rho**2)
    if rho > RHO_STAR + 1e-9:
        return -boson_sigma(rho) ** 2
    if abs(rho - RHO_STAR) <= 1e-9:
        return 0.0
    # lowest real root rises from 0 at RHO_STAR toward 2 as rho -> -inf
    grid = np.linspace(1e-9, 2.5, 500)
    brackets = scan_sign_changes(lambda s: _boson_real_eq(s, rho), grid)
    if not brackets:
        raise BracketingError(f"no real root found at R/a = {rho}")
    root = find_root(lambda s: _boson_real_eq(s, rho), *brackets[0])
    return root**2


def _gamma(mass_ratio: float) -> float:
    return float(np.arcsin(mass_ratio / (mass_ratio + 1.0)))


def _gamma_prime(mass_ratio: float) -> float:
    return float(np.arcsin(np.sqrt(1.0 / (2.0 * (mass_ratio + 1.0)))))


def _boson21_det_sigma(sig: float, mass_ratio: float) -> float:
    """2-bosons+1 determinant (three resonant pairs) on the sigma axis."""
    gam, gamp = _gamma(mass_ratio), _gamma_prime(mass_ratio)
    c = np.cosh(sig * np.pi / 2)
    t = (2 / sig) * np.sinh(sig * gam) / np.sin(2 * gam)
    tp = (2 / sig) * np.sinh(sig * gamp) / np.sin(2 * gamp)
    return (c - t) * c - 2.0 * tp**2


def _boson21_pair_sigma(sig: float, mass_ratio: float) -> float:
    """2-bosons+1, only the unlike pairs resonant."""
    gam = _gamma(mass_ratio)
    return np.cosh(sig * np.pi / 2) - (2 / sig) * np.sinh(sig * gam) / np.sin(2 * gam)


def _fermion21_sigma(sig: float, mass_ratio: float) -> float:
    """2-fermions+1 condition, l = 1, on the sigma axis.

    Third term sign fixed by re-deriving from the l = 1 hyperangular
    solution; with it the condition vanishes at sigma -> 0 exactly at the
    known critical mass ratio.
    """
    gam = _gamma(mass_ratio)
    c = np.cosh(sig * np.pi / 2)
    t1 = (1 + sig**2) / sig * np.tanh(sig * np.pi / 2)
    t2 = 2 * np.cosh(sig * gam) / (np.sin(2 * gam) * c)
    t3 = np.sinh(sig * gam) / (sig * np.sin(gam) ** 2 * c)
    return t1 - t2 + t3


def _fermion21_sigma_limit(mass_ratio: float) -> float:
    """sigma -> 0 limit of the l = 1 condition; zero at the critical ratio."""
    gam = _gamma(mass_ratio)
    return np.pi / 2 - 2 / np.sin(2 * gam) + gam / np.sin(gam) ** 2


def _two_plus_one_condition(ell: int, s2: float, gam: float) -> float:
    """Boundary condition phi'(0) + (2/sin 2gam) phi(pi/2 - gam) for two
    identical particles plus one at unitarity, zero at a channel exponent.

    phi'' = [l(l+1)/cos^2(a) - s^2] phi is propagated in b = pi/2 - a from
    the regular series start phi ~ b^(l+1) at b = 1e-4 (the coalescence
    point alpha = pi/2) to b = pi/2, with b = gam inserted as a node.
    """
    b = np.union1d(np.geomspace(1e-4, np.pi / 2, 4000), [gam])
    start = (b[0] ** (ell + 1), (ell + 1) * b[0] ** ell)
    phi, dphi = propagate(lambda t: ell * (ell + 1) / np.sin(t) ** 2 - s2, b, start)
    # d/da = -d/db
    return -dphi[-1] + (2 / np.sin(2 * gam)) * phi[np.searchsorted(b, gam)]


def two_plus_one_exponent(
    mass_ratio: float,
    statistics: str = "bosons",
    resonant_pairs: int = 3,
    ell: int = None,
) -> ChannelExponent:
    """Lowest channel exponent for two identical particles plus one, at
    unitarity of the resonant pairs.

    Bosons use ell = 0 (2 or 3 resonant pairs); fermions use ell = 1 and
    return a real exponent flagged non-Efimov below the critical mass
    ratio 13.6069657.
    """
    if mass_ratio <= 0:
        raise ValueError("mass_ratio must be positive")
    if statistics == "bosons":
        if ell not in (None, 0):
            raise ValueError("boson channel implemented for ell = 0")
        f = _boson21_det_sigma if resonant_pairs == 3 else _boson21_pair_sigma
        hi = 2.0
        while f(hi, mass_ratio) < 0:
            hi *= 2.0
        sig = find_root(lambda s: f(s, mass_ratio), 1e-10, hi)
        return ChannelExponent(-(sig**2))
    if statistics == "fermions":
        if ell not in (None, 1):
            raise ValueError("fermion channel implemented for ell = 1")
        if _fermion21_sigma_limit(mass_ratio) > 0:
            # subcritical: no Efimov channel; report the lowest real root
            grid = np.linspace(1e-3, 1.999, 200)
            gam = _gamma(mass_ratio)
            lo, hi = scan_sign_changes(lambda s: _two_plus_one_condition(1, s * s, gam), grid)[0]
            root = find_root(lambda s: _two_plus_one_condition(1, s * s, gam), lo, hi)
            return ChannelExponent(root**2)
        hi = 1.0
        while _fermion21_sigma(hi, mass_ratio) < 0:
            hi *= 2.0
        sig = find_root(lambda s: _fermion21_sigma(s, mass_ratio), 1e-10, hi)
        return ChannelExponent(-(sig**2))
    raise ValueError(f"unknown statistics {statistics!r}")


def critical_mass_ratio(statistics: str, ell: int) -> float:
    """Mass ratio at which the channel exponent of angular momentum ell
    crosses s^2 = 0 (onset of the Efimov effect).

    Fermions take odd ell >= 1, bosons even ell >= 2.
    """
    if statistics == "fermions":
        if ell < 1 or ell % 2 == 0:
            raise ValueError("fermions require odd ell >= 1")
    elif statistics == "bosons":
        if ell < 2 or ell % 2 == 1:
            raise ValueError("bosons require even ell >= 2")
    else:
        raise ValueError(f"unknown statistics {statistics!r}")

    gam = find_root(
        lambda g: _two_plus_one_condition(ell, 0.0, g), 0.2, np.pi / 2 - 1e-6, tol=1e-13
    )
    sin_g = np.sin(gam)
    return float(sin_g / (1.0 - sin_g))
