"""Shared numerical substrate: quadrature, root finding, level location
and the linear propagator of y'' = q(x) y.

Every level, threshold and channel root lies inside a bracket whose end
signs are known before the search.  ``count_brackets`` proves them from
the steps of a monotone integer count, and the channel solvers from the
limits of their conditions at the bracket ends.  ``locate_levels`` refines
each count bracket to a Brent zero (``find_root``) of a continuous
function; ``stm.bound_levels`` refines its own brackets by nonlinear
inverse iteration on M(E) instead.

The Gauss-Legendre rules take O(n) work: Newton steps from Bessel-zero
asymptotics, on P_n from Stieltjes' asymptotic series at all but the few
nodes nearest the ends (``_leggauss``, ``_legendre_theta``).

All physics modules work in natural units hbar = m = 1, where m is the mass
of the reference particle.  Everything here is a pure function of its inputs.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureRule",
    "BracketingError",
    "ConvergenceError",
    "find_root",
    "count_brackets",
    "locate_levels",
    "gauss_legendre",
    "gauss_legendre_log",
    "propagate",
]

# Gauss points of one step, as fractions of the step
_GAUSS2 = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
# largest phase h sqrt(-q) of one step.  The step error grows as its fifth
# power: a hard-core tail's a is 1.5e-7 off at 0.12 rad and 1.4e-6 at 0.29.
# A Yukawa 1/r origin puts 0.11 rad into the first step at strength 2/range.
_MAX_PHASE = 0.12
_EPS = float(np.finfo(float).eps)
_SQRT_HALF = math.sqrt(0.5)
# Brent's relative tolerance and iteration cap, those of scipy's brentq
_RTOL = 4 * _EPS
_MAXITER = 100


class BracketingError(ValueError):
    """Raised when a root bracket does not straddle a sign change."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative solver fails to converge."""


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a quadrature rule on a mapped interval."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be strictly positive")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("quadrature nodes must be strictly increasing")


def find_root(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Bracketed root of a continuous scalar function.

    Brent's zeroin (Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 4): inverse-quadratic steps with a bisection fallback, so
    convergence is guaranteed for a valid bracket.  Operation for operation
    the iteration of scipy's brentq.c, so its iterates agree bit for bit,
    but each endpoint is evaluated once.  A NaN value of f raises
    ConvergenceError.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    xpre, xcur = float(lo), float(hi)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if math.isnan(fpre) or math.isnan(fcur):
        raise ConvergenceError("function returned NaN at a bracket endpoint")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise BracketingError(f"no sign change on [{xpre}, {xcur}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (tol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # C gives inf or nan for a zero denominator: a bisection
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            bound = 3 * abs(sbis) - delta
            if abs(spre) < bound:
                bound = abs(spre)
            if 2 * abs(stry) < bound:  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise ConvergenceError(f"function returned NaN at {xcur}")
    raise ConvergenceError(f"no convergence after {_MAXITER} iterations, value is {xcur}")


def count_brackets(count, lo: float, hi: float, tol: float) -> list[tuple[float, float, int]]:
    """Brackets (a, b, k), in increasing order, each holding exactly one
    point of [lo, hi] where the monotone integer ``count`` steps by one,
    with k = min(count(a), count(b)).

    The interval is bisected until each piece holds exactly one step, so
    no step is skipped; two steps closer than ``tol`` raise
    ConvergenceError.
    """
    brackets = []
    stack = [(lo, count(lo), hi, count(hi))]
    while stack:
        a, ca, b, cb = stack.pop()
        if abs(cb - ca) == 1:
            brackets.append((a, b, min(ca, cb)))
        elif ca != cb:
            if b - a <= tol:
                raise ConvergenceError(f"{abs(cb - ca)} levels within {tol:g} of {a:.15g}")
            m = 0.5 * (a + b)
            cm = count(m)
            stack += [(m, cm, b, cb), (a, ca, m, cm)]  # lower half first
    return brackets


def locate_levels(count, value, lo: float, hi: float, tol: float) -> list[float]:
    """Every point in [lo, hi] where the monotone integer ``count`` steps
    by one, in increasing order.

    Each bracket (a, b, k) of ``count_brackets`` is refined by Brent's
    method, to ``tol``, as the zero of the continuous ``value(x, k)``: the
    caller's value must change sign wherever its count steps.
    """
    return [
        find_root(lambda x, k=k: value(x, k), a, b, tol=tol)
        for a, b, k in count_brackets(count, lo, hi, tol)
    ]


def _legendre_theta(n: int, theta):
    """P_n(cos theta) and dP_n/dtheta for theta in (0, pi/2]: O(1) work per
    node where 2n sin theta >= 40, O(n) at the nodes nearer x = 1 (six for
    every n >= 40: 6 of the 1500 of n = 3000).

    The bulk takes Stieltjes' series (Szego, Orthogonal Polynomials, 8.21.11;
    Hale & Townsend, SIAM J. Sci. Comput. 35, A652 (2013), eq. 3.2),
    P_n(cos theta) = C_n sum_m h_m cos(alpha_m)/(2 sin theta)^(m + 1/2),
    alpha_m = (n + m + 1/2) theta - (m + 1/2) pi/2,
    h_m = prod_{j<=m} (j - 1/2)^2/(j (n + j + 1/2)).  The remainder after m
    terms is below twice the first omitted one, so the sum stops at the
    first h_m/(2 sin theta)^m < eps/8 of the node nearest the switch: 22
    terms at n = 3000.  alpha_m steps by theta - pi/2, a rotation of
    (cos alpha, sin alpha).  The other nodes take the Fourier series
    P_n(cos theta) = sum_k a_k a_{n-k} cos((n - 2k) theta),
    a_k = (2k - 1)!!/(2k)!!, whose terms are all positive.
    """
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    p, dp = np.empty_like(theta), np.empty_like(theta)
    bulk = 2 * n * sin_t >= 40.0
    if np.any(bulk):
        st, ct = sin_t[bulk], cos_t[bulk]
        inv_s = 0.5 / st  # 1/(2 sin theta)
        phase = (n + 0.5) * theta[bulk]
        c = (np.cos(phase) + np.sin(phase)) * _SQRT_HALF  # cos, sin of alpha_0
        s = (np.sin(phase) - np.cos(phase)) * _SQRT_HALF
        env = np.sqrt(inv_s)  # 1/(2 sin theta)^(m + 1/2)
        pb = env * c
        db = -env * ((n + 0.5) * s + c * ct * inv_s)
        m, hm, top = 0, 1.0, float(np.max(inv_s))
        while True:
            m += 1
            hm *= (m - 0.5) ** 2 / (m * (n + m + 0.5))
            if hm * top**m < _EPS / 8:
                break
            c, s = c * st + s * ct, s * st - c * ct
            env *= inv_s
            pb += hm * env * c
            db -= hm * env * ((n + m + 0.5) * s + (2 * m + 1) * c * ct * inv_s)
        cn = _legendre_norm(n)
        p[bulk], dp[bulk] = cn * pb, cn * db
    ends = ~bulk
    if np.any(ends):
        k = np.arange(n + 1)
        a = np.cumprod(np.r_[1.0, 1.0 - 0.5 / k[1:]])  # a_k
        coef, freq = a * a[::-1], n - 2 * k
        arg = np.multiply.outer(theta[ends], freq)
        p[ends] = np.cos(arg) @ coef
        dp[ends] = -(np.sin(arg) @ (freq * coef))
    return p, dp


def _legendre_norm(n: int) -> float:
    """C_n = (4/pi) prod_{j=1..n} j/(j + 1/2) = sqrt(4/pi) Gamma(n+1)/Gamma(n+3/2),
    from the exactly summed logarithms of the factors, to 2e-16 at
    n = 10000: from lgamma it would be 3e-12 off at n = 3000."""
    j = np.arange(1, n + 1)
    return 4.0 / math.pi * math.exp(math.fsum(np.log1p(-1.0 / (2 * j + 1))))


# j_{0,k}, the first zeros of the Bessel function J_0; McMahon's expansion
# gives the later ones to within 1.3e-14 relative (DLMF 10.21.19)
_J0_ZEROS = (
    2.404825557695773, 5.520078110286311, 8.653727912911013, 11.791534439014281,
    14.930917708487787, 18.071063967910924, 21.21163662987926, 24.352471530749302,
    27.493479132040253, 30.634606468431976,
)


def _bessel_j0_zeros(m: int) -> np.ndarray:
    """The first m zeros j_{0,k} of J_0."""
    b = (np.arange(len(_J0_ZEROS) + 1, m + 1) - 0.25) * np.pi
    ib2 = 1.0 / (b * b)
    mcmahon = b + (1 / 8 + ib2 * (-31 / 384 + ib2 * (3779 / 15360 - ib2 * 6277237 / 3440640))) / b
    return np.concatenate([_J0_ZEROS[:m], mcmahon])


@functools.lru_cache(maxsize=32)
def _leggauss(n: int):
    """Gauss-Legendre reference rule on [-1, 1], read-only and cached.

    Newton in theta (x = cos theta), O(n) work per pass (``_legendre_theta``),
    from Olver's Bessel-zero asymptotics
    theta_k ~ psi + (psi cot psi - 1)/(8 psi rho^2), psi = j_{0,k}/rho,
    rho = n + 1/2 (Hale & Townsend, SIAM J. Sci. Comput. 35, A652 (2013)).  A step s leaves a node error of about (cot theta/2) s^2
    and, in dP_n/dtheta moved to the stepped node, a relative error of about
    n(n+1) s^2/2; the passes stop once n(n+1) s^2 is below the double epsilon
    for every node.  dP_n/dtheta of that last pass is moved to the final theta
    by one term of the Legendre equation P'' = -cot(theta) P' - n(n+1) P, and
    the weight 2 / (dP_n/dtheta)^2 has no 1 - x^2 division, so end weights
    keep full precision.  The passes made: three for n <= 2, two for
    3 <= n <= 121 and one for every n >= 122 (checked up to 20000).  n = 3000
    takes about 3 ms.
    """
    rho = n + 0.5
    psi = _bessel_j0_zeros((n + 1) // 2) / rho
    theta = psi + (psi / np.tan(psi) - 1.0) / (8.0 * rho * rho * psi)
    while True:
        p, dp = _legendre_theta(n, theta)
        step = p / dp
        theta -= step
        if n * (n + 1) * np.max(step * step) < _EPS:
            break
    x, w = np.cos(theta), 2.0 / (dp + step * (dp / np.tan(theta) + n * (n + 1) * p)) ** 2
    if n % 2:
        x[-1] = 0.0
    x, w = np.concatenate([-x, x[::-1][n % 2:]]), np.concatenate([w, w[::-1][n % 2:]])
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(n: int, lo: float, hi: float) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [lo, hi]; exact for degree <= 2n-1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not lo < hi:
        raise ValueError("need lo < hi")
    x, w = _leggauss(n)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return QuadratureRule(mid + half * x, half * w)


def gauss_legendre_log(n: int, p_min: float, p_max: float) -> QuadratureRule:
    """Gauss-Legendre rule mapped logarithmically onto [p_min, p_max].

    Nodes p = e^t with t Gauss-Legendre on [ln p_min, ln p_max]; weights
    absorb the Jacobian dp = p dt.  Suited to integrands varying over many
    decades, e.g. momentum-space kernels.
    """
    if not 0 < p_min < p_max:
        raise ValueError("need 0 < p_min < p_max")
    t = gauss_legendre(n, np.log(p_min), np.log(p_max))
    p = np.exp(t.nodes)
    return QuadratureRule(p, p * t.weights)


def propagate(q, x, y0):
    """(y, y') at every node of the grid ``x`` for y'' = q(x) y, from
    (y, y') = y0 at x[0]; ``q`` takes an array.

    Each step is the fourth-order Magnus exponential on the two Gauss
    points (Iserles & Norsett, Phil. Trans. R. Soc. A 357, 983 (1999)).
    For y'' = q y, Omega = [[d, h], [h qbar, -d]] with qbar the Gauss mean
    of q and d = (sqrt3/12) h^2 (q1 - q2); it is traceless, so
    exp(Omega) = cosh(mu) I + sinh(mu)/mu Omega with mu^2 = d^2 + h^2 qbar.
    The steps are chained by a doubling prefix product.  q is evaluated
    only inside steps, never on a node, so a grid may start on a hard core
    or at a 1/r singularity.  Raises ConvergenceError for a non-finite
    result or an oscillation the grid does not resolve.
    """
    x = np.asarray(x, dtype=float)
    h = np.diff(x)
    q1, q2 = q(x[:-1] + _GAUSS2[0] * h), q(x[:-1] + _GAUSS2[1] * h)
    qbar = 0.5 * (q1 + q2)
    phase = float(np.max(h * np.sqrt(np.maximum(-qbar, 0.0))))
    if phase > _MAX_PHASE:
        raise ConvergenceError(f"grid does not resolve the oscillation ({phase:.2g} rad per step)")
    d = math.sqrt(3.0) / 12.0 * h * h * (q1 - q2)
    mu2 = d * d + h * h * qbar
    mu = np.sqrt(np.abs(mu2))
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.where(mu2 > 0, np.cosh(mu), np.cos(mu))
        s = np.where(mu2 > 0, np.sinh(mu) / mu, np.sinc(mu / np.pi))
        m = np.array([[c + s * d, s * h], [s * h * qbar, c - s * d]])
        shift = 1
        while shift < h.size:  # m[..., k] becomes the product of steps k, ..., 0
            a, b = m[..., shift:], m[..., :-shift]
            m[..., shift:] = a[:, :1] * b[0] + a[:, 1:] * b[1]
            shift *= 2
        y = np.column_stack([y0, m[:, 0] * y0[0] + m[:, 1] * y0[1]])
    if not np.all(np.isfinite(y)):
        raise ConvergenceError("propagated solution is not finite")
    return y[0], y[1]
