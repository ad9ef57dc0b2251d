"""Zero-range universal observables for three identical bosons.

The trimer spectrum in the (1/a, kappa) plane is one log-periodic curve;
everything here evaluates that curve and the constants derived from it.
Natural units hbar = m = 1 throughout; ``kappa_star`` is the binding wave
number of the reference level n = 0 at unitarity.
"""
from __future__ import annotations

import math

import numpy as np

from .channels import S0
from .numerics import find_root

__all__ = [
    "A_MINUS_KAPPA",
    "A_PLUS_KAPPA",
    "A_STAR_KAPPA",
    "delta",
    "trimer_point",
    "threshold_constants",
    "universal_relations",
]

# exact universal relation constants (zero-range theory)
A_MINUS_KAPPA = -1.50763
A_PLUS_KAPPA = 0.32
A_STAR_KAPPA = 0.0707645086901

_XI_LO, _XI_HI = -np.pi, -np.pi / 4


def delta(xi):
    """Piecewise-polynomial fit of the universal trimer-curve function.

    Defined on xi in [-pi, -pi/4]; the three branches are continuous at the
    joints to about 1e-2 and satisfy delta(-pi/2) = 0 exactly.
    """
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < _XI_LO - 1e-12) or np.any(xi > _XI_HI + 1e-12):
        raise ValueError("xi outside [-pi, -pi/4]")
    z = xi + np.pi
    y = xi + np.pi / 2
    x = np.sqrt(np.maximum(-xi - np.pi / 4, 0.0))
    low = -0.825 - 0.05 * z - 0.77 * z**2 + 1.26 * z**3 - 0.37 * z**4
    mid = 2.11 * y + 1.96 * y**2 + 1.38 * y**3
    high = 6.027 - 9.64 * x + 3.14 * x**2
    out = np.where(xi <= -5 * np.pi / 8, low, np.where(xi <= -3 * np.pi / 8, mid, high))
    return out if out.ndim else float(out)


def _log_radius_sq(n: int, xi: float, kappa_star: float) -> float:
    """ln of the squared polar radius of level n at angle xi."""
    return 2.0 * math.log(kappa_star) - 2.0 * np.pi * n / S0 + float(delta(xi)) / S0


def trimer_point(n: int, inv_a: float, kappa_star: float) -> float | None:
    """Signed wave number kappa = h sin(xi) < 0 of the level-n trimer at
    inverse scattering length 1/a, or None when the level does not exist
    there (beyond its a- or a* threshold).

    Solves h(xi)^2 = kappa_star^2 e^{-2 pi n / s0} e^{delta(xi)/s0} along
    the radial ray 1/a = h cos(xi), with xi in [-pi, -pi/4].
    """
    if not kappa_star > 0:
        raise ValueError("kappa_star must be positive")
    kappa_unitarity = -kappa_star * math.exp(-np.pi * n / S0)
    if inv_a == 0.0:
        return kappa_unitarity

    if inv_a < 0:
        xi_lo, xi_hi = _XI_LO, -np.pi / 2
    else:
        xi_lo, xi_hi = -np.pi / 2, _XI_HI

    def g(xi):
        # ln h_ray^2 - ln h_curve^2; +inf toward xi = -pi/2 where cos -> 0
        return 2.0 * math.log(abs(inv_a / math.cos(xi))) - _log_radius_sq(n, xi, kappa_star)

    eps = 1e-9
    if inv_a < 0:
        if g(xi_lo) >= 0:
            return None  # |a| < |a_-^(n)|: level absorbed in the 3-body continuum
        if g(xi_hi - eps) < 0:
            # |1/a| so small the crossing sits inside the guard band at
            # -pi/2: indistinguishable from unitarity at double precision
            return kappa_unitarity
        xi = find_root(g, xi_lo, xi_hi - eps, tol=1e-14)
    else:
        if g(xi_hi) >= 0:
            return None  # a < a_*^(n): level below the particle-dimer crossing
        if g(xi_lo + eps) < 0:
            return kappa_unitarity
        xi = find_root(g, xi_lo + eps, xi_hi, tol=1e-14)
    return abs(inv_a / math.cos(xi)) * math.sin(xi)


def threshold_constants() -> tuple[float, float]:
    """(kappa_star * a_minus, kappa_star * a_star) implied by delta().

    Closed forms from the E = 0 and dimer-crossing ends of the curve:
    -e^{-delta(-pi)/(2 s0)} and sqrt(2) e^{-delta(-pi/4)/(2 s0)}.
    """
    ka_minus = -math.exp(-float(delta(-np.pi)) / (2.0 * S0))
    ka_star = math.sqrt(2.0) * math.exp(-float(delta(-np.pi / 4)) / (2.0 * S0))
    return ka_minus, ka_star


def universal_relations(kappa_star: float) -> tuple[float, float, float]:
    """(a_minus, a_plus, a_star) for a given kappa_star (exact constants)."""
    if not kappa_star > 0:
        raise ValueError("kappa_star must be positive")
    return (
        A_MINUS_KAPPA / kappa_star,
        A_PLUS_KAPPA / kappa_star,
        A_STAR_KAPPA / kappa_star,
    )
