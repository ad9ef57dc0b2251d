"""One-dimensional hyperradial problem: the 1/R^2 channel potential plus a
short-range three-body boundary condition.

For a channel s^2 = -nu^2 < 0 the radial equation
-F'' + [(s^2 - 1/4)/R^2] F = E F at E = -kappa^2 has one solution that
decays at large R, F = sqrt(R) K_{i nu}(kappa R), the modified Bessel
function of imaginary order (DLMF 10.45), and a level is a zero in kappa
of the boundary condition at R0 applied to it.  v = F/sqrt(R) obeys
v'' = (kappa^2 R^2 - nu^2) v in ln R, a pure cosine in ln R at zero
energy.  Natural units hbar = m = 1.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import S0
from .numerics import locate_levels

__all__ = [
    "HyperradialChannel",
    "BoundStateSet",
    "solve_bound_states",
    "three_body_phase",
]


@dataclass(frozen=True)
class HyperradialChannel:
    """Hyperradial channel: a fixed exponent plus a short-range boundary.

    ``s_squared`` is the constant s^2 of the channel; -S0**2 gives the
    scale-invariant attraction.  The boundary at R0 is a hard wall by
    default, or a fixed logarithmic derivative F'/F = value at R0 when
    boundary="log_derivative" (caveat: unphysical deep levels can appear
    for strongly negative values).
    """

    s_squared: float = -(S0**2)
    R0: float = 1.0
    boundary: str = "hard_wall"
    boundary_value: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "s_squared", float(self.s_squared))
        if not math.isfinite(self.s_squared):
            raise ValueError("s_squared must be finite")
        if not 0 < self.R0 < math.inf:
            raise ValueError("R0 must be positive and finite")
        if self.boundary not in ("hard_wall", "log_derivative"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if not math.isfinite(self.boundary_value):
            raise ValueError("boundary_value must be finite")


@dataclass(frozen=True)
class BoundStateSet:
    """Bound levels of one hyperradial channel, deepest first; when the
    window holds every deeper level, level k has k interior nodes."""

    energies: tuple

    def __post_init__(self):
        if list(self.energies) != sorted(self.energies):
            raise ValueError("energies must be ordered deepest first")


def _grid(nu: float, lo: float, hi: float) -> np.ndarray:
    """Nodes from lo to hi, with a step under pi/(2 nu)."""
    return np.linspace(lo, hi, max(int(2.0 * nu * (hi - lo) / math.pi), 0) + 2)


def _bessel_k(nu: float, u: float) -> tuple[float, float]:
    """(K, x dK/dx) of K_{i nu} at x = e^u, both times one positive factor.

    K_{i nu}(x) = (1/2) int exp(-x cosh t + i nu t) dt over the real line
    (DLMF 10.32.9), by the trapezoid rule on the contour t = y + i delta,
    delta = min(pi/2 - w, asin(nu/x)) with w = min(1, 1/nu).  The contour
    passes below the saddle points, or through them for x > nu, so the
    terms do not cancel as on the real line (there, 3e-4 of K's envelope
    sqrt(2 pi/(nu sinh pi nu)) is lost at nu = 16).  The step is
    min(w, x^-1/2)/8.  Measured against mpmath for 0.3 <= nu <= 64: within
    1e-13 of the envelope for 1e-20 <= x < nu, and 1e-12 relative for
    nu <= x <= 1000.
    """
    x = math.exp(u)
    w = min(1.0, 1.0 / nu)
    delta = min(0.5 * math.pi - w, math.asin(min(1.0, nu / x)))
    h = min(w, x**-0.5) / 8.0
    # |term| = exp(-x cos(delta) (cosh y - 1)), 1 at its peak y = 0, is
    # dropped below e^-45, where 2 x cos(delta) sinh^2(y/2) > 45
    n = int(2.0 * math.asinh(math.sqrt(22.5 / (x * math.cos(delta)))) / h) + 1
    y = h * np.arange(-n, n + 1)
    z = np.cosh(y + 1j * delta)
    f = np.exp(1j * nu * y - x * (z - math.cos(delta)))
    return float(f.sum().real), float(-x * (z * f).sum().real)


def solve_bound_states(
    channel: HyperradialChannel, kappa_window: tuple[float, float]
) -> BoundStateSet:
    """All bound levels with kappa = sqrt(-E) inside the window.

    A level is a zero in u = ln(kappa R0) of g = K (hard wall) or
    g = xK' + cK with c = 1/2 - R0 value.  The angle theta of (K, xK'/nu)
    obeys theta' = -nu + (x^2/nu) cos^2 theta, so it falls, by at most nu
    per unit of u, below x = nu.  Above it K > 0 and
    -xK'/K >= sqrt(x^2 - nu^2), so theta falls within (-pi/2, 0] and no
    level lies above x = hypot(nu, max(c, 0)).  g vanishes at
    theta = alpha mod pi, alpha = pi/2 at a hard wall and -atan(c/nu)
    otherwise, so floor((Theta - alpha)/pi) + 1 levels lie deeper than u,
    with Theta the angle unwrapped downward from that top on a grid of
    step under pi/(2 nu).  ``locate_levels`` bisects this count in
    ln kappa and refines each level as the zero of g, to 1e-14.  An empty
    window returns an empty set.  Raises ValueError unless
    -64^2 <= s^2 < 0, the orders for which ``_bessel_k`` is checked.
    """
    k_lo, k_hi = kappa_window
    if not 0 < k_lo < k_hi:
        raise ValueError("need 0 < kappa_min < kappa_max")
    if not -(64.0**2) <= channel.s_squared < 0:
        raise ValueError("bound states need an attractive channel, -64^2 <= s_squared < 0")
    nu = math.sqrt(-channel.s_squared)
    hard = channel.boundary == "hard_wall"
    c = 0.0 if hard else 0.5 - channel.R0 * channel.boundary_value
    alpha = 0.5 * math.pi if hard else -math.atan(c / nu)
    ln_r0 = math.log(channel.R0)
    top = math.log(math.hypot(nu, max(c, 0.0)))
    lo, hi = math.log(k_lo), min(math.log(k_hi), top - ln_r0)
    if not lo < hi:
        return BoundStateSet(())
    k = functools.cache(functools.partial(_bessel_k, nu))
    u = _grid(nu, lo + ln_r0, top)
    theta = np.array([math.atan2(xk / nu, kk) for kk, xk in map(k, u)])

    def fall(d):
        """theta's fall over at most one cell, which lies in [0, pi)."""
        return (d + 0.5 * math.pi) % (2.0 * math.pi) - 0.5 * math.pi

    unwrapped = theta[-1] + np.append(np.cumsum(fall(theta[:-1] - theta[1:])[::-1])[::-1], 0.0)

    def count(t):
        j = min(int(np.searchsorted(u, t + ln_r0, side="right")), u.size - 1)
        kk, xk = k(t + ln_r0)
        return math.floor((unwrapped[j] + fall(math.atan2(xk / nu, kk) - theta[j]) - alpha) / math.pi) + 1

    def value(t, _):
        kk, xk = k(t + ln_r0)
        return kk if hard else xk + c * kk

    roots = locate_levels(count, value, lo, hi, tol=1e-14)
    # deepest (largest kappa) first
    return BoundStateSet(tuple(-math.exp(2.0 * t) for t in reversed(roots)))


def three_body_phase(ch: HyperradialChannel, reference_scale: float = 1.0) -> float:
    """Log-periodic phase Phi = |s0| ln(Lambda/Lambda0) in [0, pi).

    At zero energy v'' = s^2 v holds outward from the boundary with
    s^2 = -s0^2, so v = A cos(|s0| ln R + phi) and the local phase
    theta = atan2(-v', |s0| v) advances exactly as |s0| ln R.  Hence
    Phi = theta(R0) - |s0| ln(R0 * reference_scale) (mod pi), with
    (v, dv/dx) = (0, 1) at a hard wall, else (1, R0 value - 1/2) from
    F'/F = value.  Raises ValueError for a channel without attraction
    (s^2 >= 0) or a reference scale outside (0, inf).
    """
    if not ch.s_squared < 0:
        raise ValueError("the three-body phase needs an attractive channel, s_squared < 0")
    if not 0 < reference_scale < math.inf:
        raise ValueError("reference_scale must be positive and finite")
    s0 = math.sqrt(-ch.s_squared)
    v, dv = (0.0, 1.0) if ch.boundary == "hard_wall" else (1.0, ch.R0 * ch.boundary_value - 0.5)
    phi = (math.atan2(-dv, s0 * v) - s0 * math.log(ch.R0 * reference_scale)) % math.pi
    return phi if phi < math.pi else 0.0  # a tiny negative phase rounds up to pi
