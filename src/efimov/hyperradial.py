"""One-dimensional hyperradial problem: the 1/R^2 channel potential plus a
short-range three-body boundary condition.

Working coordinate is x = ln R, where the radial equation
-F'' + [(s^2 - 1/4)/R^2] F = E F becomes, with F = e^{x/2} v(x),

    v'' = [s^2 - E R^2] v,   R = e^x,

so for s^2 < 0 the zero-energy solution is a pure cosine in ln R.  Natural units
hbar = m = 1 with E = -kappa^2.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import S0
from .numerics import locate_levels, propagate

__all__ = [
    "HyperradialChannel",
    "BoundStateSet",
    "solve_bound_states",
    "three_body_phase",
]

_SAMPLES = 3000


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
    """Bound levels of one hyperradial channel, deepest first; level k has
    exactly k interior nodes.
    """

    channel: HyperradialChannel
    energies: tuple

    def __post_init__(self):
        if list(self.energies) != sorted(self.energies):
            raise ValueError("energies must be ordered deepest first")

    @property
    def kappas(self) -> np.ndarray:
        return -np.sqrt(-np.asarray(self.energies))

    def node_counts(self) -> list[int]:
        """Interior nodes per level of the reduced function v = F/sqrt(R),
        shot again at each level and counted in the classically allowed
        region only: at a level the tail decays to rounding, where its sign
        is noise."""
        out = []
        for E in self.energies:
            x, v = _shoot(self.channel, E)
            R = np.exp(x)
            allowed = self.channel.s_squared - E * R**2 < 0
            body = v[1:][allowed[1:]] if self.channel.boundary == "hard_wall" else v[allowed]
            s = np.sign(body[np.abs(body) > 0])
            out.append(int(np.count_nonzero(np.diff(s) != 0)))
        return out


def _start(channel: HyperradialChannel) -> list[float]:
    """(v, dv/dx) at R0: a node at the hard wall, else F'/F = value, which
    for F = sqrt(R) v reads dv/dx = (R0 value - 1/2) v."""
    if channel.boundary == "hard_wall":
        return [0.0, 1.0]
    return [1.0, channel.R0 * channel.boundary_value - 0.5]


def _shoot(channel: HyperradialChannel, energy: float):
    """Propagate v'' = (s^2 - E R^2) v outward to R = 20/kappa, where the
    end value shifts a level by e^-2kappaR = e^-40; returns (x, v)."""
    kap = math.sqrt(-energy)
    x0 = math.log(channel.R0)
    x1 = math.log(20.0 / kap)
    if x1 <= x0 + 0.1:
        x1 = x0 + 0.1  # level pushed against the wall; tiny forbidden region
    x = np.linspace(x0, x1, _SAMPLES)
    v, _ = propagate(lambda t: channel.s_squared - energy * np.exp(2.0 * t), x, _start(channel))
    return x, v


def solve_bound_states(
    channel: HyperradialChannel, kappa_window: tuple[float, float]
) -> BoundStateSet:
    """All bound levels with kappa = sqrt(-E) inside the window.

    The outward solution at energy E has as many interior nodes as there
    are levels below E, and the count steps where a node crosses the end
    of the shot.  So ``locate_levels`` bisects the node count in ln kappa
    until each bracket holds one level and refines the level, to 1e-12 in
    ln kappa, as the zero of the continuous end value v(x1(kappa)); each
    shot is made once and shared by both steps.  An empty window returns
    an empty set.
    """
    k_lo, k_hi = kappa_window
    if not 0 < k_lo < k_hi:
        raise ValueError("need 0 < kappa_min < kappa_max")
    E = lambda t: -math.exp(2.0 * t)

    @functools.cache
    def shot(t):
        """(node count, end value) of the shot at kappa = e^t."""
        _, v = _shoot(channel, E(t))
        body = v[1:] if channel.boundary == "hard_wall" else v
        s = np.sign(body[np.abs(body) > 0])
        return int(np.count_nonzero(np.diff(s) != 0)), v[-1]

    roots = locate_levels(
        lambda t: shot(t)[0], lambda t, _: shot(t)[1], math.log(k_lo), math.log(k_hi), tol=1e-12
    )
    # deepest (largest kappa) first
    return BoundStateSet(channel, tuple(E(t) for t in reversed(roots)))


def three_body_phase(ch: HyperradialChannel, reference_scale: float = 1.0) -> float:
    """Log-periodic phase Phi = |s0| ln(Lambda/Lambda0) in [0, pi).

    At zero energy v'' = s^2 v holds outward from the boundary with
    s^2 = -s0^2, so v = A cos(|s0| ln R + phi) and the local phase
    theta = atan2(-v', |s0| v) advances exactly as |s0| ln R.  Hence
    Phi = theta(R0) - |s0| ln(R0 * reference_scale) (mod pi), with
    theta(R0) read off the boundary values.  Raises ValueError for a
    channel without attraction (s^2 >= 0) or a reference scale outside
    (0, inf).
    """
    if not ch.s_squared < 0:
        raise ValueError("the three-body phase needs an attractive channel, s_squared < 0")
    if not 0 < reference_scale < math.inf:
        raise ValueError("reference_scale must be positive and finite")
    s0 = math.sqrt(-ch.s_squared)
    v, dv = _start(ch)
    phi = (math.atan2(-dv, s0 * v) - s0 * math.log(ch.R0 * reference_scale)) % math.pi
    return phi if phi < math.pi else 0.0  # a tiny negative phase rounds up to pi
