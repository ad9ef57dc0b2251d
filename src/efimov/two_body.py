"""Two-body layer: potential library, zero-energy scattering, separable
form factors (analytic and EST-constructed), and dimer poles.

The EST profiles of -C_n/r^n tails (n = 6 is van der Waals) come from one
builder, ``universal_tail_form_factor(n, inv_a)``, linear in 1/a.

Units are natural, hbar = m = 1 with reduced mass 1/2 for equal partners,
so that the relative kinetic energy is hbar^2 k^2 / m and the radial
equation at energy E reads u'' = (V - E) u.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import ConvergenceError, find_root, gauss_legendre_log, propagate

__all__ = [
    "TwoBodyModel",
    "ZeroEnergyState",
    "FormFactor",
    "solve_zero_energy",
    "universal_tail_wavefunction",
    "half_effective_range_tail",
    "poschl_teller_low_energy",
    "est_form_factor",
    "step_form_factor",
    "universal_tail_form_factor",
    "dimer_energy",
    "dimer_integrals",
    "separable_dimer_energy",
    "VirtualStateError",
]

# required parameters of each potential kind (morse also takes r0)
_POTENTIAL_KINDS = {
    "square_well": ("depth", "range"),
    "gaussian": ("depth", "range"),
    "poschl_teller": ("lambda", "range"),
    "morse": ("depth", "range"),
    "yukawa": ("strength", "range"),
    "exponential": ("depth", "range"),
    "lennard_jones_6_12": ("c6", "c12"),
    "vdw_hard_core": ("c6", "core"),
    "power_law_tail": ("n", "cn", "core"),
}


@dataclass(frozen=True)
class TwoBodyModel:
    """A local radial potential in natural units.

    Parameters live in ``params``; every kind uses ``range`` as its length
    scale except the hard-core tails, which use the tail coefficient and a
    core radius.  The reduced mass is 1/2 (equal partners).
    """

    kind: str
    params: dict

    def __post_init__(self):
        if self.kind not in _POTENTIAL_KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        missing = [k for k in _POTENTIAL_KINDS[self.kind] if k not in self.params]
        if missing:
            raise ValueError(f"{self.kind} potential needs parameter(s) {', '.join(missing)}")
        if self.kind == "power_law_tail" and not self.params["n"] > 3:
            raise ValueError("power-law tail requires exponent n > 3")

    @property
    def core_radius(self) -> float:
        if self.kind in ("vdw_hard_core", "power_law_tail"):
            return float(self.params["core"])
        return 0.0

    @property
    def length_scale(self) -> float:
        p = self.params
        if self.kind == "vdw_hard_core":
            return 0.5 * p["c6"] ** 0.25  # l_vdW for reduced mass 1/2
        if self.kind == "power_law_tail":
            n = p["n"]
            return 0.5 * p["cn"] ** (1.0 / (n - 2.0))
        if self.kind == "lennard_jones_6_12":
            return 0.5 * p["c6"] ** 0.25
        return float(p["range"])

    def potential(self, r):
        """V(r); hard cores return +inf inside the core."""
        r = np.asarray(r, dtype=float)
        p = self.params
        if self.kind == "square_well":
            v = np.where(r < p["range"], -p["depth"], 0.0)
        elif self.kind == "gaussian":
            v = -p["depth"] * np.exp(-((r / p["range"]) ** 2))
        elif self.kind == "poschl_teller":
            lam = p["lambda"]
            v = -lam * (lam + 1) / p["range"] ** 2 / np.cosh(r / p["range"]) ** 2
        elif self.kind == "morse":
            y = np.exp(-(r - p.get("r0", p["range"])) / p["range"])
            v = p["depth"] * (y * y - 2 * y)
        elif self.kind == "yukawa":
            v = -p["strength"] * np.exp(-r / p["range"]) / np.maximum(r, 1e-300)
        elif self.kind == "exponential":
            v = -p["depth"] * np.exp(-r / p["range"])
        elif self.kind == "lennard_jones_6_12":
            v = p["c12"] / r**12 - p["c6"] / r**6
        elif self.kind == "vdw_hard_core":
            v = np.where(r <= p["core"], np.inf, -p["c6"] / np.maximum(r, p["core"]) ** 6)
        else:  # power_law_tail
            n = p["n"]
            v = np.where(r <= p["core"], np.inf, -p["cn"] / np.maximum(r, p["core"]) ** n)
        return v


@dataclass(frozen=True)
class ZeroEnergyState:
    """Zero-energy s-wave scattering solution phi(r) = r psi(r), normalized
    to phi(r) -> 1 - r/a outside the potential."""

    inv_a: float
    r_e: float
    r: np.ndarray
    phi: np.ndarray
    fit_residual: float = 0.0

    @property
    def a(self) -> float:
        return np.inf if self.inv_a == 0 else 1.0 / self.inv_a


def solve_zero_energy(model: TwoBodyModel) -> ZeroEnergyState:
    """Propagate the zero-energy radial equation out to r_max = 40 length
    scales and extract (a, r_e).

    The grid has 20001 uniform nodes from the core radius (r = 0, on the
    regular solution, for a well without a core); a square well's edge
    falls on node 500.  The scattering length comes from matching u to
    alpha + beta r at r_max, checked against node 16000; the effective
    range from (1/2) r_e = int [ (1-r/a)^2 - phi^2 ] dr by Simpson's rule
    on the same nodes.
    """
    b = model.length_scale
    r_max = 40.0 * b
    rg = np.linspace(model.core_radius, r_max, 20001)
    u, du = propagate(model.potential, rg, (0.0, 1.0))
    u_end, du_end = u[-1], du[-1]
    beta = du_end
    alpha = u_end - du_end * r_max
    # check the asymptote really is linear: compare against a second match point
    resid = abs(u[16000] - (alpha + beta * rg[16000])) / max(abs(u[16000]), 1e-300)
    if resid > 1e-5:
        raise ConvergenceError(
            f"tail not linear at r_max={r_max:g} (residual {resid:.2e})"
        )
    if alpha == 0.0:
        inv_a = 0.0
        # at unitarity normalize to the constant tail u -> alpha' = u(r_max)
        phi = u / u_end
    else:
        inv_a = -beta / alpha  # a = -alpha/beta from u -> alpha + beta r = alpha (1 - r/a)
        phi = u / alpha
    phibar = 1.0 - rg * inv_a
    r_e = 2.0 * _simpson(phibar**2 - phi**2, rg)
    return ZeroEnergyState(float(inv_a), float(r_e), rg, phi, float(resid))


def _simpson(y, x):
    """Composite Simpson's rule on an odd number of nodes x, with the
    operations of scipy.integrate.simpson's unequal-spacing branch, so the
    sum agrees with it bit for bit."""
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum, hprod, h0divh1 = h0 + h1, h0 * h1, h0 / h1
    return np.sum(
        hsum / 6.0 * (
            y[0:-2:2] * (2.0 - 1.0 / h0divh1)
            + y[1:-1:2] * (hsum * (hsum / hprod))
            + y[2::2] * (2.0 - h0divh1)
        )
    )


def universal_tail_wavefunction(n: float, x):
    """Zero-energy radial wave function at unitarity for a -C_n/r^n tail.

    phi(x) = Gamma((n-1)/(n-2)) sqrt(x) J_{1/(n-2)}(2 x^{-(n-2)/2}) with
    x = r/l_n; tends to 1 for x -> infinity.
    """
    if not n > 3:
        raise ValueError("need tail exponent n > 3")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("x must be positive")
    nu = 1.0 / (n - 2.0)
    z = 2.0 * x ** (-(n - 2.0) / 2.0)
    return math.gamma((n - 1.0) / (n - 2.0)) * np.sqrt(x) * _bessel_j(nu, z)


def _bessel_j(nu: float, z):
    """Bessel function J_nu(z) for real 0 < |nu| < 1 and z > 0.

    The power series for z <= 5; for 5 < z < 25 Miller's backward
    recurrence from order nu + 60, normalised by the Neumann sum
    (z/2)^nu = sum_k (nu + 2k) Gamma(nu + k)/k! J_{nu+2k}(z); for z >= 25
    Hankel's expansion, summed until its terms fall below 1e-17, long
    before its smallest term (at k ~ 2z, of size ~ e^{-2z}).

    The series runs over blocks of _CHUNK nodes of z, each until its own
    terms fall below 1e-19, so a block of small z stops after a few terms
    and the series' temporaries are a block in size.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty(z.shape)  # C order: its flat view below is not a copy
    low, high = z <= 5.0, z >= 25.0
    mid = ~(low | high)

    z_flat, low_flat, out_flat = z.reshape(-1), low.reshape(-1), out.reshape(-1)
    for a in range(0, z_flat.size, _CHUNK):  # power series
        block = slice(a, a + _CHUNK)
        x = z_flat[block][low_flat[block]]
        q = -0.25 * x * x
        term = np.full_like(x, 1.0 / math.gamma(nu + 1.0))
        total, ratio = term.copy(), np.empty_like(x)
        k = 0
        while np.max(np.abs(term), initial=0.0) > 1e-19:
            k += 1
            term *= np.divide(q, k * (nu + k), out=ratio)
            total += term
        out_flat[block][low_flat[block]] = total * (0.5 * x) ** nu

    x = z[mid]  # Miller
    top = 60
    f_up, f = np.zeros_like(x), np.full_like(x, 1e-30)
    weight = math.gamma(nu) / math.gamma(top // 2 + 1) * math.prod(nu + j for j in range(top // 2))
    norm = (nu + top) * weight * f
    for m in range(top, 0, -1):  # f holds order nu + m, f_up nu + m + 1
        f_up, f = f, 2.0 * (nu + m) / x * f - f_up
        if m % 2 == 1:  # f is now of even order nu + m - 1 = nu + 2k
            k = (m - 1) // 2
            weight *= (k + 1) / (nu + k)  # Gamma(nu + k)/k! from k + 1
            norm += (nu + 2 * k) * weight * f
    out[mid] = f * (0.5 * x) ** nu / norm

    x = z[high]  # Hankel
    mu = 4.0 * nu * nu
    term, p, q = np.ones_like(x), np.ones_like(x), np.zeros_like(x)
    k = 0
    while np.max(np.abs(term), initial=0.0) > 1e-17:
        k += 1
        term *= (mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        if k % 2:
            q += term if k % 4 == 1 else -term
        else:
            p += term if k % 4 == 0 else -term
    phase = (0.5 * nu + 0.25) * math.pi
    c, s = math.cos(phase), math.sin(phase)
    out[high] = np.sqrt(2.0 / (math.pi * x)) * (
        (p * c + q * s) * np.cos(x) + (p * s - q * c) * np.sin(x)
    )
    return out


def half_effective_range_tail(n: float) -> float:
    """(1/2) r_e / l_n at unitarity, the integral of 1 - phi(x)^2 over x > 0
    for the zero-energy state phi of a -C_n/r^n tail, in closed form.

    In z = 2 x^{-(n-2)/2} it is the Weber-Schafheitlin integral of
    J_nu(z)^2 z^{-1-4 nu} (DLMF 10.22.57), continued in its power past the
    subtracted small-z term:
    Gamma(1+nu)^2 Gamma(1-nu) Gamma(1+4 nu) / [Gamma(1+2 nu)^2 Gamma(1+3 nu)],
    nu = 1/(n-2).  It gives 2 pi/3 for n = 4 and Gamma(1/4)^2/(3 pi) for
    n = 6 (Gao, PRA 58, 4222 (1998); Flambaum, Gribakin & Harabati, PRA
    59, 1998 (1999)).
    """
    if not n > 3:
        raise ValueError("need tail exponent n > 3")
    nu = 1.0 / (n - 2.0)
    g = math.gamma
    return g(1.0 + nu) ** 2 * g(1.0 - nu) * g(1.0 + 4.0 * nu) / (
        g(1.0 + 2.0 * nu) ** 2 * g(1.0 + 3.0 * nu)
    )


_ZETA3 = 1.2020569031595942
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)  # B_2 .. B_14
# the recurrences carry x up to here before the 7-term asymptotic series:
# at x = 10 the first omitted term of psi'', 121/x^18, is still 1e-14 of it
_PSI_ASYMPTOTIC = 16


def _harmonic(x: float) -> float:
    """H_x = gamma_E + psi(1 + x) for real x > -1, to rounding even near
    x = 0, where gamma_E + psi(1 + x) would cancel.

    H_x = sum_{j=1..16} x/(j (j + x)) + psi(17 + x) - psi(17) (DLMF 5.5.2),
    the difference taken from the asymptotic series ln z - 1/(2z)
    - sum_k B_2k/(2k z^2k), k = 1..7 (DLMF 5.11.2), term by term, each
    term written as x times a factor."""
    y = float(_PSI_ASYMPTOTIC + 1)
    u = math.log1p(x / y)  # ln((y + x)/y)
    terms = [x / (j * (j + x)) for j in range(1, _PSI_ASYMPTOTIC + 1)]
    terms += [u, x / (2.0 * y * (y + x))]
    terms += [
        -b / (2 * k * y ** (2 * k)) * math.expm1(-2 * k * u) for k, b in enumerate(_BERNOULLI, 1)
    ]
    return math.fsum(terms)


def _tetragamma(x: float) -> float:
    """psi''(x) for real x > 0: psi''(x) = psi''(x + 1) - 2/x^3 up to
    x >= 16, then -1/x^2 - 1/x^3 - sum_k (2k + 1) B_2k/x^(2k+2), k = 1..7,
    the series of psi differentiated twice."""
    terms = []
    while x < _PSI_ASYMPTOTIC:
        terms.append(-2.0 / x**3)
        x += 1.0
    y = 1.0 / (x * x)
    terms += [-(2 * k + 1) * b * y ** (k + 1) for k, b in enumerate(_BERNOULLI, 1)]
    return math.fsum([-y, -y / x, *terms])


def poschl_teller_low_energy(lam: float) -> tuple[float, float]:
    """(1/a, r_e) of the range-1 well V = -lam (lam + 1) sech^2 r, lam > 0,
    in closed form; for range b, 1/a scales as 1/b and r_e as b.

    Flugge (Practical Quantum Mechanics, Problem 39) gives its exact s-wave
    phase shift, delta(k) = -k ln 2 + Im[ln Gamma(1 + ik)
    - ln Gamma(1 + (lam + ik)/2) - ln Gamma((1 - lam + ik)/2)].  Its
    expansion delta = c1 k + c3 k^3 gives a = -c1 and
    r_e = -2 c3/c1^2 - 2 c1/3.  With A = gamma_E + psi(1 + lam) (the
    harmonic number H_lam),
    C = zeta(3)/3 + [psi''(1 + lam/2) + psi''((1 + lam)/2)]/48 and
    t = tan(pi lam/2):
        a = A - (pi/2) t,
        r_e = [2A^3 - 3 pi A^2 t + (3/2) pi^2 A t^2 + (pi^3/4) t - 6C] / (3 a^2),
    after the reflection formula of psi'' cancels the t^3 terms.  It is
    evaluated in s = 1/t = tan(pi (1 - lam)/2), multiplied through, so
    nothing cancels or overflows at the unitary point lam = 1 (a = inf,
    r_e = 2).  lam = 2 gives a = 3/2 and r_e = 2/3.
    """
    s = math.tan(0.5 * math.pi * (1.0 - lam))
    A = _harmonic(lam)
    C = _ZETA3 / 3.0 + (_tetragamma(1.0 + 0.5 * lam) + _tetragamma(0.5 * (1.0 + lam))) / 48.0
    pi = math.pi
    a_s = A * s - 0.5 * pi  # a s
    num = (2.0 * A**3 - 6.0 * C) * s * s - (3.0 * pi * A * A - 0.25 * pi**3) * s + 1.5 * pi * pi * A
    return s / a_s, num / (3.0 * a_s * a_s)  # num = 3 a^2 s^2 r_e


@dataclass(frozen=True)
class FormFactor:
    """Momentum profile phi(p) of a rank-one separable potential.

    phi(0) = 1 by normalization.  ``p_max`` bounds the momenta at which the
    profile is trustworthy.
    """

    fn: object
    p_max: float

    def __call__(self, p):
        return self.fn(np.asarray(p, dtype=float))


# Gaussian gridding of the sine transforms (Greengard & Lee, SIAM Rev. 46,
# 443 (2004)): the FFT is at least _OVERSAMPLING times the sub-run, each
# momentum reads 2 _HALF_WIDTH grid values per sub-run, and runs shorter
# than _DIRECT_RUN nodes cost less summed directly.  At (2, 16) the
# transforms of the triton wells and of the n = 4 and n = 6 tail deficits
# lie within 4.3e-14 of the direct sum; at a half-width of 15 within
# 5.5e-14, at 14 2.9e-13 and at 13 2.0e-12.  Summed in sub-runs of at
# most _CHUNK nodes, the n = 4 and n = 6 tail transforms lie within
# 4.6e-14 of a long-double direct sum, against 1.2e-13 for whole runs.
_OVERSAMPLING = 2
_HALF_WIDTH = 16
_DIRECT_RUN = 64
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting factor
_CHUNK = 32768  # points per pass of a blocked loop, and per sine-transform sub-run
_TWO_PI = (2 * math.pi, 2.4492935982947064e-16)  # 2 pi = hi + lo to 2^-106


def _two_product(a, b):
    """(hi, lo) with hi + lo = a b exactly and hi the rounded product
    (Dekker, Numer. Math. 18, 224 (1971))."""
    hi = a * b
    ca, cb = _SPLIT * a, _SPLIT * b
    a1, b1 = ca - (ca - a), cb - (cb - b)
    a2, b2 = a - a1, b - b1
    return hi, ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2


def _times_run_offsets(c, x, half, h):
    """Multiplies c, in place, by the offsets d_j = x_j - x_half - (j - half) h
    of a uniform run's nodes x_j from the line of step
    h = (x_end - x_0)/(N - 1) through x_half.  Each d_j is exact but for one
    rounding: x_j - x_half by Knuth's two-sum, and (j - half) h by Dekker's
    product, which splits h alone: j - half, below 2^26 for any run that
    fits in memory, times either half of h is exact.  It runs in blocks of
    _CHUNK nodes through five buffers, each operation in place, so no offset
    array of the run's size is formed."""
    h1 = _SPLIT * h - (_SPLIT * h - h)
    h2, center = h - h1, x[half]
    for a in range(0, x.size, _CHUNK):
        xs = x[a : a + _CHUNK]
        j = np.arange(a - half, a - half + xs.size, dtype=float)
        hi = j * h
        lo = j * h1
        lo -= hi
        lo += np.multiply(j, h2, out=j)  # hi + lo = j h; j is spent
        diff = xs - center
        back = diff - xs
        err = np.subtract(xs, np.subtract(diff, back, out=j), out=j)
        err -= np.add(center, back, out=back)  # diff + err = x_j - x_half
        diff -= hi
        err -= lo
        diff += err  # d_j = (diff - hi) + (err - lo)
        c[a : a + xs.size] *= diff


def _fft_length(n: int) -> int:
    """The smallest 2^i 3^j 5^k >= n."""
    best, p5 = 2 * n, 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def _gridded_run(x, f, p, out):
    """Adds sum_j f_j sin(p x_j) over a uniform run x of N >= 64 nodes to out.

    The run is summed in ceil(N/_CHUNK) sub-runs of equal length (within
    one node).  A sub-run of N' nodes lies on the line x_c + jh,
    j = -N'/2 .. N'/2, x_c its middle node and h the run's step, but for
    offsets d_j of a few ulp.  To first order in p d_j (below 1e-11 here),
    its sum is Im[e^{i p x_c} G_0(ph)] + p Re[e^{i p x_c} G_1(ph)], with
    G_0(w) = sum_j f_j e^{ijw} and G_1 the same sum over f_j d_j.  These
    are Fourier series at the non-uniform frequencies w = ph, which alias
    mod 2 pi as the trapezoid sum does: a type-2 non-uniform FFT by
    Gaussian gridding (Greengard & Lee, SIAM Rev. 46, 443 (2004)).  The
    coefficients are divided by the Gaussian's Fourier coefficients,
    transformed by one real FFT of a 5-smooth length M >= 2N', N' the
    longest sub-run, and at each w the 32 grid values nearest are summed
    with the weights exp(-(w - 2 pi m/M)^2/(4 tau)),
    tau = 16 pi/(M (M - N'/2)).  The grid coordinate wM/(2 pi) and the
    phase p x_c are taken as exact products (``_two_product``), and the
    offsets enter through G_1: rounded, each would shift a run's phases
    coherently, by up to p x ulp(1), and near an alias w = 2 pi k, where
    the run's terms stop oscillating, that moved the sum by 1e-11.  The
    grid points and weights depend on p, h, M and tau only, so the
    sub-runs share them; each has its own centre x_c, phase and offsets.

    Beside x and f, a sub-run holds one coefficient array, the FFT's buffer
    and its spectrum: the deconvolution, times f in place for G_0, then
    times the offsets d, block by block, for G_1.
    """
    parts = -(-x.size // _CHUNK)
    edges = [x.size * i // parts for i in range(parts + 1)]
    longest = -(-x.size // parts)
    h = (x[-1] - x[0]) / (x.size - 1)
    m = _fft_length(_OVERSAMPLING * longest)
    tau = math.pi * _HALF_WIDTH / (m * (m - 0.5 * longest))
    # the grid coordinate t = p h m/(2 pi) as t_hi + t_lo, through
    # k = h m/(2 pi) = k_hi + k_lo, a double-double division
    x_hi, x_lo = _two_product(h, float(m))
    k_hi = x_hi / _TWO_PI[0]
    q_hi, q_lo = _two_product(k_hi, _TWO_PI[0])
    k_lo = ((x_hi - q_hi) - q_lo + x_lo - k_hi * _TWO_PI[1]) / _TWO_PI[0]
    t_hi, t_lo = _two_product(p, k_hi)
    t_lo += p * k_lo
    m0 = np.floor(t_hi)
    frac = (t_hi - m0) + t_lo
    carry = np.floor(frac)  # t_lo may take frac out of [0, 1)
    m0 += carry
    frac -= carry
    offsets = np.arange(1 - _HALF_WIDTH, _HALF_WIDTH + 1)
    grid = (m0.astype(np.intp) % m)[:, None] + offsets
    grid %= m
    upper = grid > m // 2  # H_m = conj(F_m), F = rfft; past m/2, H_m = F_{m-m}
    np.subtract(m, grid, out=grid, where=upper)
    kernel = np.exp(-(((frac[:, None] - offsets) * (2 * math.pi / m)) ** 2) / (4 * tau))
    kernels = np.stack([np.where(upper, 0.0, kernel), np.where(upper, kernel, 0.0)])
    for a, b in zip(edges[:-1], edges[1:]):
        xs, n, half = x[a:b], b - a, (b - a) // 2
        j = np.arange(-half, n - half)
        c = tau * j
        c *= j
        del j
        np.exp(c, out=c)
        c *= math.sqrt(math.pi / tau) / m  # the deconvolution
        c *= f[a:b]
        c_hi, c_lo = _two_product(p, xs[half])
        sin_c, cos_c = np.sin(c_hi), np.cos(c_hi)
        sin_c, cos_c = sin_c + cos_c * c_lo, cos_c - sin_c * c_lo
        buf, spec = np.zeros(m), np.empty(m // 2 + 1, dtype=complex)
        g = []
        for term in range(2):  # G_0, then G_1
            if term:
                _times_run_offsets(c, xs, half, h)
            buf[: n - half], buf[m - half :] = c[half:], c[:half]
            gl, gu = np.einsum("kl,bkl->bk", np.fft.rfft(buf, out=spec).take(grid), kernels)
            g.append(gl.conj() + gu)
        out += sin_c * g[0].real + cos_c * g[0].imag
        out += p * (cos_c * g[1].real - sin_c * g[1].imag)


def _sine_transform(r, delta, p):
    """p * int delta(r) sin(pr) dr by the trapezoid rule on r, per momentum p.

    r is cut into uniform runs where its step changes, each summed by
    ``_gridded_run`` in sub-runs of at most _CHUNK nodes, so the FFT is at
    least twice the sub-run, not the run.  The weighted profile f, the
    trapezoid weights times delta, is formed once over all of r, so the
    sub-runs partition the same sum.  Runs under 64 nodes are summed
    directly.

    Beside r, delta and f, a sub-run's sum holds arrays of a few times
    _CHUNK values.  The step test that cuts r into runs works in place, and
    r's steps are freed once f is formed.
    """
    dr = np.diff(r)
    jump = np.diff(dr)
    bound = np.abs(r[2:])
    bound *= 8 * np.finfo(float).eps
    cuts = np.flatnonzero(np.abs(jump, out=jump) > bound) + 2
    del jump, bound
    f = np.convolve(dr, [0.5, 0.5])
    del dr
    f *= delta
    out = np.zeros(p.size)
    short = []
    for s, e in zip(np.r_[0, cuts], np.r_[cuts, r.size]):
        if e - s < _DIRECT_RUN:
            short.append(np.arange(s, e))
        else:
            _gridded_run(r[s:e], f[s:e], p, out)
    if short:
        k = np.concatenate(short)
        out += f[k] @ np.sin(np.multiply.outer(r[k], p))
    return p * out


_FORM_KNOTS = 3200  # est_form_factor's knots: spline error 1.3e-11 on the triton wells


def _geom_spline(p_tab, y):
    """Not-a-knot cubic spline through (0, y[0]) and (p_tab, y[1:]) on
    geometric knots p_tab; returns p -> the spline at min(p, p_tab[-1]).

    The knot slopes solve scipy CubicSpline's tridiagonal system by
    elimination without pivoting (Thomas), in the order of LAPACK's gtsv.
    On geometric knots the interval of p is one logarithm, and evaluation
    is an in-place Horner step.  It runs in chunks through a few buffers:
    temporaries the size of a kernel slab would each be a fresh mmap, and
    page faults would cost more than the arithmetic.
    """
    x = np.concatenate([[0.0], p_tab])
    dx = np.diff(x)
    slope = np.diff(y) / dx
    d, e = x[2] - x[0], x[-1] - x[-3]
    rhs = np.concatenate([
        ((dx[0] + 2 * d) * dx[1] * slope[:1] + dx[0] ** 2 * slope[1:2]) / d,
        3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]),
        (dx[-1] ** 2 * slope[-2:-1] + (2 * e + dx[-1]) * dx[-2] * slope[-1:]) / e,
    ])
    lower = np.r_[dx[1:], e].tolist()  # row i + 1, column i
    diag = np.r_[dx[1], 2 * (dx[:-1] + dx[1:]), dx[-2]].tolist()
    upper = np.r_[d, dx[:-1]].tolist()  # row i, column i + 1
    fact = []
    for i in range(len(lower)):
        fact.append(lower[i] / diag[i])
        diag[i + 1] -= fact[i] * upper[i]
    b = rhs.tolist()
    for i, f in enumerate(fact):
        b[i + 1] -= f * b[i]
    b[-1] /= diag[-1]
    for i in range(len(b) - 2, -1, -1):
        b[i] = (b[i] - upper[i] * b[i + 1]) / diag[i]
    sl = np.array(b)
    t = (sl[:-1] + sl[1:] - 2 * slope) / dx
    coef = [t / dx, (slope - sl[:-1]) / dx - t, sl[:-1], y[:-1]]
    # the last interval once more, for p = p_tab[-1] whose index rounds up
    c0, c1, c2, c3 = (np.concatenate([c, c[-1:]]) for c in coef)
    base = np.r_[x[:-1], x[-2]]
    top, inv_log_ratio = x[-1], (len(p_tab) - 1) / math.log(x[-1] / x[1])
    shift = 1.0 - math.log(x[1]) * inv_log_ratio
    p_low = x[1] * math.exp(-0.5 / inv_log_ratio)  # [0, p_tab[0]) maps to interval 0

    def spline(p):
        flat = np.reshape(p, -1)
        out = np.empty(flat.size)
        n = min(max(flat.size, 1), _CHUNK)
        s, u, k = np.empty(n), np.empty(n), np.empty(n, dtype=np.intp)
        for a in range(0, flat.size, n):
            m = min(n, flat.size - a)
            sm, um, km = s[:m], u[:m], k[:m]
            np.minimum(flat[a : a + m], top, out=sm)
            np.maximum(sm, p_low, out=um)
            np.log(um, out=um)
            um *= inv_log_ratio
            um += shift
            km[...] = um  # truncation is the floor: um >= 0.5
            sm -= base.take(km, out=um, mode="clip")  # every index is in range
            o = c0.take(km, out=out[a : a + m], mode="clip")
            o *= sm
            for cj in (c1, c2):
                o += cj.take(km, out=um, mode="clip")
                o *= sm
            o += c3.take(km, out=um, mode="clip")
        return out.reshape(np.shape(p))

    return spline


def est_form_factor(state: ZeroEnergyState, p_max: float = 60.0) -> FormFactor:
    """Rank-one separable profile reproducing a zero-energy state exactly.

    phi(p) = 1 - p int (phibar - phi) sin(pr) dr, tabulated at _FORM_KNOTS
    momenta up to 2.2 p_max; the input state must have converged linear
    asymptotics so that the integrand vanishes beyond the sampled range.
    """
    if state.fit_residual > 1e-5:
        raise ConvergenceError("zero-energy state asymptotics not converged")
    r = state.r
    delta = (1.0 - r * state.inv_a) - state.phi
    q_top = 2.2 * p_max
    # resolve the sine oscillation: need enough r samples per period at q_top.
    # The wide triplet well of `triton --r-et 2.5` (r step 0.0077 fm) needs it
    if (r[1] - r[0]) * q_top > 0.5:
        rg = np.arange(r[0], r[-1], 0.4 / q_top)
        delta = np.interp(rg, r, delta)
        r = rg
    p_tab = np.geomspace(1e-4, q_top, _FORM_KNOTS)
    transform = _sine_transform(r, delta, p_tab)
    return FormFactor(_geom_spline(p_tab, np.r_[1.0, 1.0 - transform]), p_max)


def step_form_factor(half_re: float = 1.0, p_max: float = 100.0) -> FormFactor:
    """Separable profile of the step-function wave function: phi(p) = cos(p b)
    with step position b = r_e/2 (deep-potential limit class)."""
    b = float(half_re)

    def fn(p):
        return np.cos(p * b)

    return FormFactor(fn, p_max)


_P_MAX = 80.0  # validity window of the tabulated tail profiles, 1/l_n units
_P_TAB = np.geomspace(1e-4, 2.2 * _P_MAX, 900)
# per tail exponent n: the r grid of the deficits, two uniform runs (start,
# joint, end, step below and above the joint); the inner cut below which
# phi's envelope is negligible (< 0.012 for n = 6) and the deficits take
# their limits; and c of the admixture's c/x decay past the grid, whose
# transform is added in closed form (the n = 6 admixture falls as x^-3)
_TAIL_GRIDS = {
    4: (1e-6, 0.2, 120.0, 5e-6, 4e-4, 0.0, 2.0),
    6: (1e-6, 0.3, 80.0, 2e-5, 8e-4, 0.085, 0.0),
}


def _tail_grid(n: int):
    """The r grid of the -C_n/r^n deficits, the mask of its nodes inside the
    inner cut, and c of the admixture's far tail."""
    if n not in _TAIL_GRIDS:
        raise ValueError(f"tail form factors implemented for n in {tuple(_TAIL_GRIDS)}")
    r0, joint, end, h_in, h_out, cut, far = _TAIL_GRIDS[n]
    r = np.concatenate([np.arange(r0, joint, h_in), np.arange(joint, end, h_out)])
    return r, r < cut, far


# pi/2 - Si(x) by Si's power series up to x = 1, then by the continued
# fraction of E_1(ix) to this depth: 200 terms reach 3e-16 of 1/x at x = 1
_SI_DEPTH = 200


def _sine_integral_tail(x):
    """pi/2 - Si(x) = int_x^inf sin(t)/t dt for x > 0.

    For x <= 1, pi/2 minus the power series of Si.  Above, -Im[e^{-ix} F]
    with F = e^{ix} E_1(ix) = 1/(1 + ix - 1^2/(3 + ix - 2^2/(5 + ix - ...)))
    (Numerical Recipes, 3rd ed., 6.8), that is f(x) cos x + g(x) sin x of
    the auxiliary functions, so no pi/2 is subtracted and nothing cancels
    at large x.  The fraction is summed from its 200th level back, which
    rounds less than the forward Lentz products do (5e-15 of 1/x at x = 2).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    low = x <= 1.0
    z = x[low]
    term, total, k = z.copy(), z.copy(), 0
    while np.max(np.abs(term), initial=0.0) > 1e-17 * np.min(total, initial=1.0):
        k += 1
        term *= -z * z / ((2 * k) * (2 * k + 1))  # (-1)^k z^(2k+1)/(2k+1)!
        total += term / (2 * k + 1)
    out[low] = 0.5 * math.pi - total
    z = x[~low]
    iz = 1j * z
    u = iz + (2 * _SI_DEPTH + 1)
    for i in range(_SI_DEPTH - 1, -1, -1):
        u = (iz + (2 * i + 1)) - (i + 1) ** 2 / u
    out[~low] = -((np.cos(z) - 1j * np.sin(z)) / u).imag
    return out


@functools.cache
def _tail_unitarity(n: int):
    """Spline of T_0, the sine transform of the unitarity deficit
    1 - phi(x) of the -C_n/r^n zero-energy state, built once per n."""
    r, inner, _ = _tail_grid(n)
    d0 = 1.0 - universal_tail_wavefunction(n, r)
    d0[inner] = 1.0
    return _geom_spline(_P_TAB, np.r_[0.0, _sine_transform(r, d0, _P_TAB)])


@functools.cache
def _tail_admixture(n: int):
    """Spline of T_1, the sine transform of the 1/a admixture
    x - Gamma(1-nu) sqrt(x) J_{-nu}(2 x^{-(n-2)/2}), nu = 1/(n-2), of the
    -C_n/r^n zero-energy state, built once per n."""
    r, inner, far = _tail_grid(n)
    nu = 1.0 / (n - 2.0)
    d1 = r - math.gamma(1.0 - nu) * np.sqrt(r) * _bessel_j(-nu, 2.0 * r ** (-(n - 2.0) / 2.0))
    d1[inner] = r[inner]
    t1 = _sine_transform(r, d1, _P_TAB)
    if far:  # p int_{r_end}^inf (far/r) sin(pr) dr
        t1 += far * _P_TAB * _sine_integral_tail(_P_TAB * r[-1])
    return _geom_spline(_P_TAB, np.r_[0.0, t1])


def universal_tail_form_factor(n: int, inv_a: float = 0.0) -> FormFactor:
    """EST profile of the -C_n/r^n tail's zero-energy state at 1/a = inv_a,
    for n in (4, 6); lengths in units of l_n, valid up to p_max = 80.
    n = 6 is the van der Waals profile (l_vdW units).

    phi_a(p) = 1 - T_0(p) + (1/a) T_1(p) is linear in 1/a: T_0 and T_1,
    the sine transforms of the unitarity deficit and of the 1/a admixture,
    are each computed once per n and reused across the scattering-length
    family.  At 1/a = 0, T_1 is neither built nor evaluated.
    """
    inv_a = float(inv_a)
    t0 = _tail_unitarity(n)
    if inv_a == 0.0:
        return FormFactor(lambda p: 1.0 - t0(p), _P_MAX)
    t1 = _tail_admixture(n)
    return FormFactor(lambda p: 1.0 - t0(p) + inv_a * t1(p), _P_MAX)


class VirtualStateError(ValueError):
    """The effective-range pole moved to the virtual-state branch."""


def dimer_energy(inv_a: float, r_e: float = 0.0) -> float:
    """Bound-state pole of the effective-range T-matrix on the imaginary k
    axis, 1/a - kappa + (r_e/2) kappa^2 = 0: zero range is r_e = 0 and a
    narrow resonance is r_e = -2 R*.

    Returns E = -kappa^2 in natural units (multiply by hbar^2/m for
    physical energies); None without a dimer (1/a <= 0).
    """
    if inv_a <= 0:
        return None
    disc = 1.0 - 2.0 * r_e * inv_a
    if disc < 0:
        raise VirtualStateError("1 - 2 r_e/a < 0: no real pole")
    # (1 - sqrt(disc))/r_e rationalized: no cancellation as r_e -> 0
    kap = 2.0 * inv_a / (1.0 + math.sqrt(disc))
    return -(kap * kap)  # kap**2 raises OverflowError past 1.3e154


_DIMER_BLOCK = 64  # rows of a kappa^2 column evaluated at a time
_DIMER_NODES = 3000


def dimer_integrals(forms: tuple, q_min: float):
    """The dimer integrals of separable channels, one FormFactor each, all
    with the p_max of the first, as functions of kappa^2:
    I_a(kappa^2) = (1/(2 pi^2)) int phi_a(q)^2 kappa^2/(q^2 + kappa^2) dq
    over [q_min, 2.2 p_max] on one 3000-point log rule, and dI_a/dkappa^2,
    the same integral with q^2/(q^2 + kappa^2)^2 in place of
    kappa^2/(q^2 + kappa^2); each phi_a is sampled once.

    ``integrals(kap2, slope=False)`` takes n values of kappa^2, as an
    (n, 1) column or one scalar, and returns (I, dI/dkappa^2 or None),
    each of shape (channels, n).  Both come from one pass over blocks of 64
    rows of r = 1/(q^2 + kappa^2), through one 64 x 3000 buffer, so no
    n x 3000 array is formed: I = kappa^2 (r @ w phi^2) and
    dI/dkappa^2 = r^2 @ (w q^2 phi^2)."""
    rule = gauss_legendre_log(_DIMER_NODES, q_min, 2.2 * forms[0].p_max)
    q2 = rule.nodes**2
    wphi2 = np.stack([rule.weights * form(rule.nodes) ** 2 for form in forms], axis=1)
    q2wphi2 = q2[:, None] * wphi2

    def integrals(kap2, slope=False):
        kap2 = np.reshape(kap2, (-1, 1))
        I = np.empty((len(forms), len(kap2)))
        dI = np.empty_like(I) if slope else None
        buf = np.empty((min(_DIMER_BLOCK, len(kap2)), _DIMER_NODES))
        for r0 in range(0, len(kap2), _DIMER_BLOCK):
            rows = slice(r0, r0 + _DIMER_BLOCK)
            r = np.add(q2, kap2[rows], out=buf[: len(kap2[rows])])
            np.reciprocal(r, out=r)
            I[:, rows] = (r @ wphi2).T
            if slope:
                r *= r
                dI[:, rows] = (r @ q2wphi2).T
        I *= kap2.T / (2 * np.pi**2)
        if slope:
            dI /= 2 * np.pi**2
        return I, dI

    return integrals


def separable_dimer_energy(form: FormFactor, inv_a: float, q_min: float) -> float:
    """Dimer pole E = -kappa^2 of a separable channel: the root of
    1/(4 pi a) = I(kappa^2), with I the ``dimer_integrals`` from q_min, for
    kappa in (1e-10, 1) p_max.  None without a dimer (1/a <= 0) or when the
    pole lies beyond the profile's validity window."""
    if inv_a <= 0:
        return None
    integrals = dimer_integrals((form,), q_min)

    def gap(kap):
        return inv_a / (4 * np.pi) - integrals(kap**2)[0].item()

    if gap(form.p_max) >= 0:
        return None
    return -find_root(gap, 1e-10 * form.p_max, form.p_max) ** 2
