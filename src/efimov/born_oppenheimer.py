"""Adiabatic picture for two heavy particles sharing one light particle.

The light particle (mass m = 1 here) forms an exchange-bonding orbital
whose energy eps(R) acts as a potential between the heavy pair (mass M).
This gives an analytic window on the Efimov effect for large mass ratios.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "OMEGA",
    "BO_CRITICAL_L1",
    "bonding_kappa",
    "bonding_energy",
    "effective_potential",
    "s0_estimate",
]


def _lambert_w(x):
    """Principal branch W(x) of the Lambert function for real x >= 0.

    Halley's iteration (Corless et al., Adv. Comput. Math. 5, 329 (1996))
    from a Pade start below x = 1.5 and from ln x - ln ln x above it; each
    value stops once a step changes it by less than 1e-8 relative, which
    cubic convergence leaves at rounding.  W(inf) = inf.
    """
    x = np.asarray(x, dtype=float)
    w = x.flatten()  # W(0) = 0 and W(inf) = inf stay as they are
    live = np.isfinite(w)
    big = live & (w >= 1.5)
    lx = np.log(w[big])
    w[big] = lx - np.log(lx)
    small = live & ~big
    xs = w[small]
    w[small] = xs * ((12.85106382978723404255 * xs + 12.34042553191489361902) * xs + 1.0) / (
        (32.53191489361702127660 * xs + 14.34042553191489361702) * xs + 1.0
    )
    xf = x.ravel()
    while np.any(live):
        wl, xl = w[live], xf[live]
        g = wl - xl * np.exp(-wl)  # (w e^w - x) e^-w, which cannot overflow
        wn = wl - g / (wl + 1.0 - (wl + 2.0) * g / (2.0 * wl + 2.0))
        w[live] = wn
        live[live] = np.abs(wn - wl) > 1e-8 * np.abs(wn)
    w = w.reshape(x.shape)
    return w if w.ndim else float(w)


# Omega constant, the root of x = e^{-x}; kappa R -> Omega for R << a
OMEGA = _lambert_w(1.0)

# mass ratio where the L = 1 Efimov strength vanishes: (M/2m) Omega^2 = 2 + 1/4
BO_CRITICAL_L1 = 2.0 * (1.0 * 2.0 + 0.25) / OMEGA**2


def bonding_kappa(R, a: float):
    """Binding wave number kappa(R) of the light-particle bonding orbital.

    Solves kappa - e^{-kappa R}/R = 1/a in closed form,
    kappa = 1/a + W(e^{-R/a})/R with W the Lambert function; the orbital
    energy is eps(R) = -hbar^2 kappa^2 / (2m).  For a < 0 the branch
    closes at R = |a|; NaN is returned where no bound orbital exists.
    """
    R = np.asarray(R, dtype=float)
    if np.any(R <= 0):
        raise ValueError("R must be positive")
    inv_a = 0.0 if np.isinf(a) else 1.0 / a
    kap = inv_a + _lambert_w(np.exp(-R * inv_a)) / R
    out = np.where(kap > 0, kap, np.nan)
    return out if out.ndim else float(out)


def bonding_energy(R, a: float):
    """eps(R) = -hbar^2 kappa(R)^2/(2m) in natural units hbar = m = 1."""
    return -0.5 * bonding_kappa(R, a) ** 2


def effective_potential(R, a: float, L: int, mass_ratio: float):
    """Heavy-heavy adiabatic potential (units hbar^2/M, lengths in a units):

    V(R) = L(L+1)/R^2 + (M/hbar^2) eps(R).

    The direct heavy-heavy short-range interaction is neglected.
    """
    if L < 0 or L != int(L):
        raise ValueError("L must be a non-negative integer")
    R = np.asarray(R, dtype=float)
    out = L * (L + 1) / R**2 + mass_ratio * bonding_energy(R, a)
    return out if out.ndim else float(out)


def s0_estimate(mass_ratio: float, L: int = 0) -> float:
    """Adiabatic Efimov strength |s0| from the R << a limit of V(R).

    |s0|^2 = (M/2m) Omega^2 - L(L+1) - 1/4.  Returns NaN (no-Efimov flag)
    when the right-hand side is negative.
    """
    if L < 0 or L != int(L):
        raise ValueError("L must be a non-negative integer")
    s2 = 0.5 * mass_ratio * OMEGA**2 - L * (L + 1) - 0.25
    return math.sqrt(s2) if s2 > 0 else float("nan")
