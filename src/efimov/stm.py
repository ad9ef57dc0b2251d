"""Momentum-space three-body integral equations: the quantitative oracle.

Solves the s-wave spectator-amplitude equation for zero-range and
narrow-resonance interactions (``StmKernel``) and for rank-one separable
interactions (``SeparableKernel``).  The separable kernel takes one form
factor per spin-isospin channel: one channel for identical bosons, the
triplet/singlet pair for the nucleon model, and keeps its exchange sums
on the upper triangle only (S_ba = S_ab^T).  Natural units hbar = m = 1:
the spectator kinetic term is (3/4)P^2 and dimers sit at -kappa^2.

Each kernel's ``matrix(E)`` is real symmetric: it acts on p sqrt(w_p) F(p),
so the quadrature weights enter its exchange term as sqrt(w_P w_Q).
Each kernel assembles M(E) in the array it returns, in one pass over row
blocks (zero-range) or chunks of momentum pairs (separable), with no other
array of M's size; ``slope(E, v)`` applies dM/dE to v in such a pass,
without forming it, and ``matrix_and_slope(E, v)`` returns both from one.
The separable kernel keeps no angular table: it keeps Chebyshev moments of
its angular sums, built once, and each pass sums their series in the one
ratio rho(E) of each momentum pair.  For E <= 0, |rho(E)| is at most the
pair's rho_0 = |rho(0)|, so the pair keeps the L = ceil(53 ln 2/(-ln rho_0))
terms after which the series is under double rounding: 28 on the diagonal,
where rho_0 = 2 - sqrt(3), and about 11 on average on the default grids.
``bound_levels`` brackets trimers by the inertia of M(E), whose number of
negative eigenvalues drops by one at each level, and refines each by
nonlinear inverse iteration, one LU solve per step.  M(0) is linear in 1/a
for the zero-range kernel and quadratic for the tail form factors, so the
dissociation lengths a_-^(n) are eigenvalues of M(0) or of its companion.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    ConvergenceError,
    count_brackets,
    find_root,
    gauss_legendre,
    gauss_legendre_log,
)
from .two_body import _CHUNK as _FORM_POINTS
from .two_body import (
    FormFactor,
    TwoBodyModel,
    ZeroEnergyState,
    dimer_energy,
    dimer_integrals,
    est_form_factor,
    poschl_teller_low_energy,
    separable_dimer_energy,
    solve_zero_energy,
)

__all__ = [
    "StmKernel",
    "SeparableKernel",
    "bound_levels",
    "solve_trimers_narrow_resonance",
    "threshold_scattering_lengths",
    "dissociation_lengths",
    "TritonModel",
    "TritonResult",
    "solve_triton",
    "ResolutionWarning",
]

# zero-range grid (scripts/grid_convergence.py): n = 150 is the smallest to hold
# every level within 1e-13 of 2n and every a_-^(k) as near n = 2000 as n = 500 does;
# n = 100 misses by 1e-11, so 50 more nodes are the margin
_DEF_N = 200
_DEF_NANG = 48
_TRITON_P_MAX = 40.0  # fm^-1, top of the nucleon momentum grid
_TRITON_GRID = (160, 24)  # n, n_ang of the nucleon kernels (scripts/triton_convergence.py)
_STEP_GRID = (300, 64)  # n, n_ang of `stm --model step`, whose levels it holds to 1.2e-13
# relative gap kept between an energy window's top and a dimer pole: on the
# pole M(E) is singular, and its count of negative eigenvalues jumps there
_POLE_GAP = 1e-10
# rows per block of a StmKernel pass, which holds its result and 3 such blocks
_ROWS = 64
# tolerance of a level in ln(-E)
_LEVEL_TOL = 1e-12


class ResolutionWarning(UserWarning):
    """Adjacent levels closer than a few momentum-grid cells."""


def _refine(kernel, spectrum, a: float, b: float, k: int) -> float:
    """The zero in the one-level bracket (a, b) of eigenvalue k of
    M(-e^l), to 1e-12 in l = ln(-E), where ``spectrum(l)`` is the cached
    ascending eigvalsh of M.

    ``_inverse_iteration`` starts from the end with the smaller |lambda_k|
    that it has not started from yet.  Each failed start costs one
    bisection of (a, b) by the sign of lambda_k, which also gives a new end
    to start from: at the start's last iterate inside (a, b) when that lies
    in the middle half of (a, b), else at the midpoint.
    """
    tried = set()
    while b - a > _LEVEL_TOL:
        m = 0.5 * (a + b)
        fresh = [x for x in (a, b) if x not in tried]
        if fresh:
            x = min(fresh, key=lambda x: abs(spectrum(x)[k]))
            tried.add(x)
            level, converged = _inverse_iteration(kernel, spectrum, k, x, a, b)
            if converged:
                return level
            if abs(level - m) <= 0.25 * (b - a):
                m = level
        if (spectrum(m)[k] < 0) == (spectrum(a)[k] < 0):
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def _inverse_iteration(kernel, spectrum, k: int, x: float, a: float, b: float):
    """(level, True) for the level in (a, b) by nonlinear inverse iteration
    (Ruhe, SIAM J. Numer. Anal. 10, 674 (1973)) from the bracket end x, or
    (the last iterate inside (a, b), False) when a step leaves (a, b) or
    fails to halve.

    The eigenvector v at x comes from ``_eigenvector``, and the first step
    goes to the zero, inside (a, b), of the parabola through lambda_k at
    both ends with the slope v . M' v at x, where M' = dM/dl = E dM/dE.
    Each later step builds M and M' v once and solves M u = M' v; l moves
    by -(v . v)/(v . u) and v becomes u/|u|.
    The first of these steps must be under half the bracket, and each
    next one under half the previous.  The level is returned once the
    error left after a step is under 1e-12: |step| for the first, and
    |step| r/(1 - r) for later ones, r the ratio of the last two steps.
    Only lambda_k crosses zero in (a, b), so the singular point the
    iteration reaches is that level.
    """
    far = b if x == a else a
    lam, lam_far = spectrum(x)[k], spectrum(far)[k]
    if lam == 0.0:
        return x, True
    E = -math.exp(x)
    try:
        v, dlam_dE = _eigenvector(kernel, E, lam)
    except np.linalg.LinAlgError:
        return x, False
    g = E * dlam_dE
    # p(d) = lam + g d + c d^2 matches lambda_k at both ends, which have
    # opposite signs, so one of its zeros lies between them
    D = far - x
    c = (lam_far - lam - g * D) / (D * D)
    q = -0.5 * (g + math.copysign(math.sqrt(max(g * g - 4.0 * c * lam, 0.0)), g))
    zeros = [z for z in (q / c if c else math.inf, lam / q if q else math.inf) if 0 < z / D < 1]
    step = -(zeros[0] if zeros else 0.5 * D)
    limit, err, prev = 0.5 * (b - a), abs(step), None
    while True:
        if not a < x - step < b:
            return x, False
        x -= step
        if err < _LEVEL_TOL:
            return x, True
        E = -math.exp(x)
        m, slope = kernel.matrix_and_slope(E, v)
        try:
            u = np.linalg.solve(m, slope)
        except np.linalg.LinAlgError:
            return x, True  # a singular M inside a one-level bracket is the level
        del m
        step = (v @ v) / (E * (v @ u))
        if not abs(step) < limit:
            return x, False
        if prev is None:
            err = abs(step)
        else:
            r = abs(step / prev)
            err = abs(step) * r / (1.0 - r)
        limit, prev = 0.5 * abs(step), step
        v = u / np.linalg.norm(u)


def _eigenvector(kernel, E: float, lam: float) -> tuple[np.ndarray, float]:
    """(v, d lam/dE = v . dM/dE v) for the unit eigenvector v of the
    symmetric M(E) for its eigenvalue lam, from one solve of (M - lam I) v = 1."""
    m = kernel.matrix(E)
    m.flat[:: len(m) + 1] -= lam
    v = np.linalg.solve(m, np.ones(len(m)))
    v /= np.linalg.norm(v)
    return v, v @ kernel.slope(E, v)


def bound_levels(kernel, E_window: tuple[float, float]) -> list[float]:
    """Bound-state energies of ``kernel`` in (E_lo, E_hi), E < 0, deepest
    first.

    The window ends 1e-10 (relative) below the kernel's lowest dimer
    pole, above which M(E) holds the discretised atom-dimer continuum.  The
    number of negative eigenvalues of the symmetric M(E) drops by one at
    each level, so ``count_brackets`` bisects it in ln(-E), one cached
    eigvalsh per point, until each bracket holds one level.  Each level is
    then refined, to 1e-12 in ln(-E), as the zero of the eigenvalue of
    sorted index min(count) there, by nonlinear inverse iteration
    (``_refine``): a step builds M and M' v once and makes one LU solve,
    and eigvalsh runs again only to bisect a bracket where a step failed.
    Adjacent levels whose
    momenta sqrt(-E) lie under 3 cells of the kernel's log grid apart
    raise a ResolutionWarning, which names the caller of ``bound_levels``.
    """
    E_lo, E_hi = E_window
    if not E_lo < E_hi < 0:
        raise ValueError("need E_lo < E_hi < 0")
    E_hi = min(E_hi, (1 + _POLE_GAP) * kernel._threshold())
    if not E_lo < E_hi:
        return []
    spectrum = functools.cache(lambda l: np.linalg.eigvalsh(kernel.matrix(-math.exp(l))))
    brackets = count_brackets(
        lambda l: int(np.count_nonzero(spectrum(l) < 0)),
        math.log(-E_hi), math.log(-E_lo), _LEVEL_TOL,
    )
    roots = [_refine(kernel, spectrum, *bracket) for bracket in brackets]
    # one cell of the log grid in ln p (its w/p sum to the grid's width in
    # ln p); a level's momentum sqrt(-E) sits at ln p = l/2
    rule = kernel.grid
    cell = np.sum(rule.weights / rule.nodes) / kernel.n
    if any(0.5 * (l2 - l1) < 3.0 * cell for l1, l2 in zip(roots, roots[1:])):
        warnings.warn(
            "level spacing under 3 momentum-grid cells; refine the grid",
            ResolutionWarning,
            stacklevel=2,
        )
    return sorted(-math.exp(l) for l in roots)


@dataclass(frozen=True)
class StmKernel:
    """Zero-range (optionally narrow-resonance) kernel on a log grid.

    The s-wave projected exchange integral is analytic; in the symmetric
    form of ``matrix(E)``, E <= 0, it reads
    K(P,Q) = (2/pi) sqrt(w_P w_Q) ln(num/den), num = P^2+PQ+Q^2-E,
    den = P^2-PQ+Q^2-E, and the diagonal is the inverse two-body T at the
    shifted energy, 1/a + R*(E - (3/4)P^2) - sqrt((3/4)P^2 - E).

    The cutoff is the three-body parameter: levels depend on it only
    through cutoff * e^{n pi/|s0|}.
    """

    inv_a: float
    cutoff: float
    r_star: float = 0.0
    n: int = _DEF_N
    p_min_factor: float = 1e-5

    def __post_init__(self):
        if not self.cutoff > 0:
            raise ValueError("cutoff must be positive")
        if self.r_star < 0:
            raise ValueError("r_star must be >= 0")

    @property
    def grid(self):
        return gauss_legendre_log(self.n, self.p_min_factor * self.cutoff, self.cutoff)

    def _threshold(self) -> float:
        """Lowest breakup threshold: the dimer pole of the two-body T, or 0
        without a dimer."""
        if self.inv_a <= 0:
            return 0.0
        return dimer_energy(self.inv_a, -2.0 * self.r_star)

    def matrix(self, E: float) -> np.ndarray:
        return self._assemble(E)[0]

    def slope(self, E: float, v: np.ndarray) -> np.ndarray:
        """dM/dE @ v for a vector v, without forming dM/dE: its exchange
        is (2/pi) sqrt(w_P w_Q) (1/den - 1/num), its diagonal
        R* + 1/(2 sqrt((3/4)P^2 - E))."""
        return self._assemble(E, v, with_matrix=False)[1]

    def matrix_and_slope(self, E: float, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(M(E), dM/dE @ v) from one pass over the row blocks."""
        return self._assemble(E, v)

    def _assemble(self, E: float, v=None, with_matrix: bool = True):
        """(M(E) or None, dM/dE @ v or None), _ROWS rows at a time.  M keeps
        the formulas' operation order, bit for bit: (P^2 + Q^2) + PQ or
        (2/pi) sqrt(w_P) sqrt(w_Q) would move it by rounding."""
        if E > 0:
            raise ValueError("M(E) needs E <= 0")
        rule = self.grid
        p, wp = rule.nodes, rule.weights
        p2, sw = p * p, np.sqrt(wp)
        kap = np.sqrt(0.75 * p2 - E)
        K = np.empty((self.n, self.n)) if with_matrix else None
        slope = None if v is None else np.empty(self.n)
        buf = np.empty((3, min(_ROWS, self.n), self.n))
        for r0 in range(0, self.n, _ROWS):
            rows = slice(r0, r0 + _ROWS)
            P, P2 = p[rows, None], p2[rows, None]
            PQ, den, num = buf[:, : len(P)]
            np.subtract(P2, np.multiply(P, p, out=PQ), out=den)
            den += p2
            den -= E
            np.add(P2, PQ, out=num)
            num += p2
            num -= E
            if K is not None:  # PQ's block is free now and takes the weights
                m = np.divide(num, den, out=K[rows])
                np.log(m, out=m)
                m *= 2 / np.pi
                m *= np.sqrt(np.multiply(wp[rows, None], wp, out=PQ), out=PQ)
            if v is not None:  # 1/den - 1/num, in place of den and num
                blk = np.reciprocal(den, out=den)
                blk -= np.reciprocal(num, out=num)
                blk *= np.multiply((2 / np.pi) * sw[rows, None], sw, out=PQ)
                slope[rows] = blk @ v
        if K is not None:
            K.flat[:: self.n + 1] += self.inv_a + self.r_star * (E - 0.75 * p2) - kap
        if v is not None:
            slope += (self.r_star + 0.5 / kap) * v
        return K, slope


def solve_trimers_narrow_resonance(
    inv_a: float, r_star: float, E_window: tuple[float, float]
) -> list[float]:
    """Trimer energies at inverse scattering length ``inv_a`` with the
    energy-dependent narrow-resonance T-matrix, deepest first.

    R* regulates the short-distance physics, so results must be cutoff
    independent: the levels are solved at cutoff 100/R* (_DEF_N nodes),
    re-solved at twice the cutoff, and a >1% drift raises ConvergenceError.
    """
    if not r_star > 0:
        raise ValueError("r_star must be positive")
    cutoff = 100.0 / r_star

    def solve(lam):
        return bound_levels(StmKernel(inv_a, lam, r_star, p_min_factor=1e-8), E_window)

    roots = solve(cutoff)
    for E, E2 in zip(roots, solve(2.0 * cutoff)):
        if abs(E2 - E) > 0.01 * abs(E):
            raise ConvergenceError(f"cutoff drift {abs(E2 - E) / abs(E):.2%} at E = {E:g}")
    return roots


# exchange weights W_ab of the spin-isospin recoupling, by channel count:
# identical bosons, and the nucleon triplet/singlet pair
_RECOUPLING = {1: np.array([[1.0]]), 2: np.array([[0.25, 0.75], [0.75, 0.25]])}
# terms kept of the Chebyshev series of 1/(a + b c) on the diagonal, the most any
# pair keeps: for E <= 0, b/a <= 1/2, so its ratio |rho| <= 2 - sqrt(3), and
# (2 - sqrt(3))^28 < 2^-53
_TERMS = 28
# momentum pairs per piece of the moment build, which holds phi(q1) phi(q2) at
# n_ang angles for each, and per chunk of a pass, which holds a few values for
# each; a pass in 2048-pair chunks took 1.5 times as long (triton grid, 2-core
# Xeon)
_PIECE = 2048
_CHUNK = 8192


@dataclass(frozen=True)
class SeparableKernel:
    """Rank-one separable STM kernel with numerically projected s wave.

    ``form`` and ``inv_a`` give one form factor phi_a and one inverse
    scattering length per spin-isospin channel, all form factors with one
    p_max; a bare FormFactor and a float are the one-channel
    (identical-boson) case.  Block (a, b) of the symmetric M(E) is
    delta_ab diag[1/(4 pi a_a) - I_a(P)] + W_ab K_ab with
    I_a(P) = (1/(2 pi^2)) int dq phi_a(q)^2 kap^2/(q^2+kap^2), kap^2 = 3P^2/4 - E,
    K_ab(P,Q) = (1/(2 pi^2)) P Q sqrt(w_P w_Q) S_ab(P,Q),
    S_ab = int dc phi_a(q1) phi_b(q2)/(P^2+Q^2+PQc-E),
    q1 = |Q + P/2|, q2 = |P + Q/2|.  The recoupling weights W are [[1]] for
    bosons and [[1/4, 3/4], [3/4, 1/4]] for the nucleon triplet/singlet
    pair.  I_a is ``two_body.dimer_integrals`` from q_min.

    The angular sum runs over n_ang Gauss nodes c_k, and E enters it only
    through 1/(a + b c_k), a = P^2+Q^2-E, b = PQ.  With s = sqrt(a^2 - b^2)
    and rho = -b/(a + s), 1/(a + b c) = (1/s)[1 + 2 sum_{l>=1} rho^l T_l(c)]
    (the generating function of the Chebyshev polynomials T_l), so
    S_ab = (1/s) sum_l eps_l rho^l m_l, eps_0 = 1, eps_l = 2, with the
    energy-independent moments m_l = sum_k w_k phi_a(q1) phi_b(q2) T_l(c_k).
    |rho| falls as -E grows, so for E <= 0 it is at most its E = 0 value
    rho_0 = PQ/(P^2+Q^2 + sqrt((P^2+Q^2)^2 - P^2 Q^2)), and the pair (P, Q)
    keeps the L = ceil(53 ln 2/(-ln rho_0)) terms after which rho_0^L <= 2^-53:
    the series is cut at double rounding whatever E and n_ang are.  On the
    diagonal rho_0 = 2 - sqrt(3) and L = _TERMS = 28; away from it L falls,
    to about 11 on average on the default grids.  dS/dE = (s H1 + a H0)/s^3,
    H0 = sum_l eps_l rho^l m_l, H1 its rho dH0/drho.

    S_ba = S_ab^T (a and b are symmetric in P, Q; q1, q2 swap), so each
    ordered channel pair (a, b) keeps its moments for the pairs Q >= P only,
    built once with eps_l, W_ab and the weights P Q sqrt(w_P w_Q)/(2 pi^2)
    folded in, so the series gives K's entries.  The pairs are sorted by L,
    largest first and the diagonal first among them, so term l is kept by
    a prefix of the pairs, and each channel pair's moments are one flat
    array of those prefixes, term after term.  A pass runs Horner in rho
    from l = 27 down over each term's prefix, in chunks of _CHUNK pairs: a
    pair whose top term is l starts from 0 rho + m_l = m_l.  It scatters
    each chunk into the entries (a P, b Q) of M and, transposed, (b Q, a P).

    The moments are built in pieces of _PIECE pairs, each one matrix product
    of the piece's phi_a(q1) phi_b(q2), per channel pair, with the columns
    w_k eps_l T_l(c_k).  Those products fill one reused (nc^2, _PIECE, n_ang)
    array, sub-block by sub-block: q1, q2 and each phi are evaluated on
    about _FORM_POINTS points at a time, one pass of the profile spline, so
    the build forms no array of a piece's q or phi.  Each matrix product
    goes into one reused (_PIECE, _TERMS) array, and the pairs' indices are
    int32.
    """

    form: FormFactor | tuple
    inv_a: float | tuple
    n: int = 260
    n_ang: int = _DEF_NANG
    p_min: float = None
    q_min: float = 1e-6
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.forms) not in _RECOUPLING or np.size(self.inv_a) != len(self.forms):
            raise ValueError("need 1 or 2 channels, each with one form factor and 1/a")
        if len({f.p_max for f in self.forms}) != 1:
            raise ValueError("the channels' form factors need one p_max")
        if self.p_min is None:
            object.__setattr__(self, "p_min", 2.5e-6 * self.p_max)

    @property
    def forms(self) -> tuple:
        return (self.form,) if isinstance(self.form, FormFactor) else tuple(self.form)

    @property
    def p_max(self) -> float:
        return self.forms[0].p_max

    def _build(self):
        if self._tables:
            return
        rule = self.grid
        p, nc = rule.nodes, len(self.forms)
        ang = gauss_legendre(self.n_ang, -1.0, 1.0)
        # (n_ang, _TERMS) columns w_k eps_l T_l(c_k), the transpose of rows
        # filled by the recurrence T_l(c) = 2c T_{l-1}(c) - T_{l-2}(c)
        nodes, cheb = ang.nodes, np.empty((_TERMS, self.n_ang))
        cheb[0], cheb[1] = 1.0, nodes
        for l in range(2, _TERMS):
            np.multiply(cheb[l - 1], 2 * nodes, out=cheb[l])
            cheb[l] -= cheb[l - 2]
        cheb = cheb.T
        cheb[:, 1:] *= 2.0
        cheb *= ang.weights[:, None]
        weight = p * np.sqrt(rule.weights / (2 * np.pi**2))
        W = _RECOUPLING[nc]
        # the pairs P = p_i <= Q = p_j, their P^2 + Q^2 and PQ, and the terms
        # each keeps at rho_0, the |rho| of E = 0
        i, j = (x.astype(np.int32) for x in np.triu_indices(self.n))
        pq, pq2 = p[i] * p[j], p[i] * p[i] + p[j] * p[j]
        rho0 = pq / (pq2 + np.sqrt((pq2 - pq) * (pq2 + pq)))
        terms = np.ceil(53 * math.log(2) / -np.log(rho0))
        del pq, pq2, rho0
        order = np.lexsort((j - i, -terms))
        i, j, terms = (x[order] for x in (i, j, terms))
        del order
        pq, pq2 = p[i] * p[j], p[i] * p[i] + p[j] * p[j]  # the same products, sorted
        # term l is kept by the first count[l] pairs, at start[l] of the moments
        count = np.searchsorted(-terms, -np.arange(_TERMS))
        start = np.concatenate(([0], np.cumsum(count)))
        moments = np.empty((nc * nc, start[-1]))
        # phi(q1) phi(q2) of each channel pair over a piece, filled by sub-blocks
        prod = np.empty((nc * nc, min(_PIECE, len(pq)), self.n_ang))
        piece = np.empty((min(_PIECE, len(pq)), _TERMS))  # each prod @ cheb
        sub = max(_FORM_POINTS // (2 * self.n_ang), 1)
        for c0 in range(0, len(pq), _PIECE):
            c = slice(c0, c0 + _PIECE)
            size = min(_PIECE, len(pq) - c0)
            for s0 in range(0, size, sub):
                s = slice(c0 + s0, c0 + min(s0 + sub, size))
                P, Q = p[i[s]], p[j[s]]
                # q1 = |Q + P/2|, q2 = |P + Q/2| at each angle
                q = np.empty((2, len(P), self.n_ang))
                np.multiply(pq[s, None], nodes, out=q[0])
                q[1] = q[0]
                q[0] += (Q * Q + 0.25 * P * P)[:, None]
                q[1] += (P * P + 0.25 * Q * Q)[:, None]
                np.sqrt(q, out=q)
                phi = [f(q) for f in self.forms]
                for ab, (a, b) in enumerate(np.ndindex(nc, nc)):
                    np.multiply(phi[a][0], phi[b][1], out=prod[ab, s0 : s0 + len(P)])
            scale = weight[i[c]] * weight[j[c]]
            kept = np.clip(count - c0, 0, size)
            for ab, (a, b) in enumerate(np.ndindex(nc, nc)):
                m = np.matmul(prod[ab, :size], cheb, out=piece[:size]).T
                m *= W[a, b] * scale
                for l, k in enumerate(kept):
                    moments[ab, start[l] + c0 : start[l] + c0 + k] = m[l, :k]
        self._tables.update(
            p=p, i=i, j=j, pq=pq, pq2=pq2, count=count, start=start, moments=moments,
            dimer=dimer_integrals(self.forms, self.q_min),
        )

    @property
    def grid(self):
        return gauss_legendre_log(self.n, self.p_min, self.p_max)

    def _threshold(self) -> float:
        """Lowest breakup threshold: the deepest of the channels' dimer
        poles from this kernel's q_min, or 0 without a dimer."""
        poles = [
            separable_dimer_energy(f, inv_a, self.q_min)
            for f, inv_a in zip(self.forms, np.atleast_1d(self.inv_a))
        ]
        return min([0.0, *(E for E in poles if E is not None)])

    def matrix(self, E: float) -> np.ndarray:
        return self._assemble(E)[0]

    def slope(self, E: float, v: np.ndarray) -> np.ndarray:
        """dM/dE @ v for a vector v.  dM/dE has the exchange entries
        (s H1 + a H0)/s^3 and the diagonal dI_a/dkappa^2.  Each chunk's
        entries are applied to v at once, at (a P, b Q) and, off the
        diagonal, at (b Q, a P)."""
        return self._assemble(E, v, with_matrix=False)[1]

    def matrix_and_slope(self, E: float, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(M(E), dM/dE @ v) from one Horner pass, which carries H0 and
        its derivative in rho together."""
        return self._assemble(E, v)

    def _assemble(self, E: float, v=None, with_matrix: bool = True):
        """(M(E) or None, dM/dE @ v or None), one Horner pass over _CHUNK
        momentum pairs at a time."""
        if E > 0:
            raise ValueError("M(E) needs E <= 0")
        self._build()
        t = self._tables
        n, nc = self.n, len(self.forms)
        N = nc * n
        I, dI = t["dimer"]((0.75 * t["p"] ** 2 - E)[:, None], slope=v is not None)
        # row and column offsets n a, n b of block (a, b), one per ordered channel pair
        A, B = n * np.indices((nc, nc)).reshape(2, -1, 1)
        K = slope = None
        if with_matrix:
            K = np.empty((N, N))
            flat = K.reshape(-1)
        if v is not None:
            slope = np.zeros(N)
        count, start, moments = t["count"], t["start"], t["moments"]
        for c0 in range(0, len(t["pq"]), _CHUNK):
            c = slice(c0, c0 + _CHUNK)
            apq, pq = t["pq2"][c] - E, t["pq"][c]  # a = P^2+Q^2-E, b = PQ
            s = np.sqrt((apq - pq) * (apq + pq))
            rho = np.negative(pq)
            rho /= apq + s
            # Horner in rho over each term's prefix: h0 = sum_l rho^l m_l and,
            # for the slope, its derivative d = dh0/drho, one step behind
            h0 = np.zeros((nc * nc, len(pq)))
            d = None if v is None else np.zeros_like(h0)
            for l in range(_TERMS - 1, -1, -1):
                k = min(count[l] - c0, len(pq))
                if k <= 0:
                    continue
                h, r = h0[:, :k], rho[:k]
                if d is not None:
                    d[:, :k] *= r
                    d[:, :k] += h
                h *= r
                h += moments[:, start[l] + c0 : start[l] + c0 + k]
            h0 /= s  # K's entries H0/s
            rows, cols = A + t["i"][c], B + t["j"][c]  # entry (a P, b Q) of each pair
            if K is not None:
                flat[rows * N + cols] = h0
                flat[cols * N + rows] = h0
            if d is not None:  # dK/dE = (s rho d + a H0)/s^3
                d *= rho / s**2
                d += apq / s**2 * h0
                # the diagonal's n pairs, first in the order, are applied once
                below = slice(max(n - c0, 0), None)
                slope += np.bincount(rows.ravel(), (d * v[cols]).ravel(), N)
                low = d[:, below] * v[rows[:, below]]
                slope += np.bincount(cols[:, below].ravel(), low.ravel(), N)
        if K is not None:
            K.flat[:: N + 1] += np.repeat(self.inv_a, n) / (4 * np.pi) - I.ravel()
        if v is not None:
            slope += dI.ravel() * v
        return K, slope


def threshold_scattering_lengths(
    cutoff: float, n_max: int = 4, r_star: float = 0.0, n: int = _DEF_N
) -> list[float]:
    """Dissociation scattering lengths a_-^(n) < 0 where trimer n meets the
    three-body threshold, smallest |a_-| (deepest level) first, for the
    zero-range (or narrow-resonance) kernel with this cutoff.

    1/a enters M(0) as 1/a times the identity, so the 1/a_-^(n) are the
    negative eigenvalues of -M(0) at 1/a = 0; roots with |a_-| * cutoff <= 10
    sit at the regularization scale and are filtered out.
    """
    kern = StmKernel(0.0, cutoff, r_star=r_star, n=n, p_min_factor=1e-8)
    m0 = kern.matrix(0.0)
    ev = np.linalg.eigvalsh(np.negative(m0, out=m0))
    neg = ev[ev < 0]  # ascending: most negative first -> smallest |a|
    a_all = 1.0 / neg
    return list(a_all[np.abs(a_all) * cutoff > 10.0][:n_max])


def dissociation_lengths(family) -> list[float]:
    """The dissociation lengths a_-^(k) < 0 of a form-factor family
    (callable 1/a -> FormFactor), nearest zero first, on the default
    ``SeparableKernel`` grid.

    The tail families' phi is linear in x = 1/a, so M(0; x) = M0 + x M1 +
    x^2 M2 exactly, from the kernels at x = 0 and +-1.  A level meets E = 0
    where det(a^2 M0 + a M1 + M2) = 0, at the real eigenvalues a of the
    companion matrix [[0, I], -M0^-1 [M2, M1]] (Tisseur & Meerbergen, SIAM
    Rev. 43, 235 (2001)); those with 10/p_max < |a| < 0.1/p_min are kept.
    The count of negative eigenvalues of M(0; x) steps down by one towards
    larger |a| at an a_-^(k), where a trimer appears, and up where a level
    leaves.  A step other than +-1, or steps that do not sum to the count
    change over the window (a lost root), raise ConvergenceError.
    """
    # each kernel's tables are freed once its M(0) is built
    m0, mp, mm = (SeparableKernel(family(x), x).matrix(0.0) for x in (0.0, 1.0, -1.0))
    m1, m2 = 0.5 * (mp - mm), 0.5 * (mp + mm) - m0
    kern = SeparableKernel(family(0.0), 0.0)  # not built: its p_min and p_max only
    n, p_min, p_max = len(m0), kern.p_min, kern.p_max
    lower = -np.linalg.solve(m0, np.hstack([m2, m1]))
    y = np.linalg.eigvals(np.block([[np.zeros((n, n)), np.eye(n)], [lower]]))
    a = np.sort(y.real[(y.imag == 0) & (-0.1 / p_min < y.real) & (y.real < -10 / p_max)])[::-1]

    def count(x):
        return int(np.count_nonzero(np.linalg.eigvalsh(m0 + x * (m1 + x * m2)) < 0))

    steps = [count((1 - 1e-9) / r) - count((1 + 1e-9) / r) for r in a]
    if any(abs(s) != 1 for s in steps) or sum(steps) != count(-10 * p_min) - count(-0.1 * p_max):
        raise ConvergenceError(f"count steps {steps} at a = {a} miss a root in the window")
    return [float(r) for r, s in zip(a, steps) if s < 0]


# ---------------------------------------------------------------------------
# two-channel triton model


_SECH2_PEAK = 1.7459139618078205  # lambda of the local maximum of a sech^2 well's r_e/a


def _sech2_state(lam: float, b: float) -> ZeroEnergyState:
    """Zero-energy state of V = -lambda(lambda+1)/b^2 sech^2(r/b)."""
    return solve_zero_energy(TwoBodyModel("poschl_teller", {"lambda": lam, "range": b}))


@dataclass(frozen=True)
class TritonModel:
    """Coupled triplet/singlet nucleon model with potential-shape form
    factors from a sech^2 well fitted to each channel's (a, r_e).

    Built by ``TritonModel.fit``.  Lengths in fm; ``hbar2_over_m`` converts
    natural energies (fm^-2) to MeV.  The fitted wells are kept as their
    zero-energy states, from which the form factors are built and the
    achieved (a, r_e) residual is read.  ``dataclasses.replace(model)`` is
    the same model without the form factors it has built.
    """

    a_t: float
    r_et: float
    a_s: float
    r_es: float
    hbar2_over_m: float
    triplet: ZeroEnergyState = field(repr=False, compare=False)
    singlet: ZeroEnergyState = field(repr=False, compare=False)
    _forms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def fit(cls, a_t=5.4112, r_et=1.7436, a_s=-23.7148, r_es=2.750, hbar2_over_m=41.46):
        """Fit (lambda, b) of V = -lambda(lambda+1)/b^2 sech^2(r/b) per
        channel: lambda sets the shape ratio r_e/a, then b sets the scale.

        (1/a, r_e) of the well are in closed form (``poschl_teller_low_energy``,
        from the exact phase shift of Flugge, Practical Quantum Mechanics,
        Problem 39): a/b = gamma_E + psi(1 + lambda) - (pi/2) tan(pi lambda/2),
        and r_e/b from the k^3 term.  So the search over lambda solves no
        ODE; each fitted well is propagated once, for the zero-energy state
        its form factor is built from.

        Each channel is sought on its whole branch but for 1e-6 at an end.
        The singlet (a < 0, no bound state) is on lambda in (0, 1), where
        r_e/a rises monotonically from -inf to 0.  On the triplet's branch
        (a > 0, one bound state), lambda in (1, 2.5229), r_e/a rises from 0
        to 0.43431 at lambda = 1.74591, dips to 0.43280 at 1.87722 and then
        rises without bound; a ratio up to 0.43431 is taken on the first
        rise, so the fit is unique, and a larger one on (1.74591, 2.5].
        """
        if not a_t > 0:
            raise ValueError(f"the triplet channel needs a_t > 0 (a bound deuteron), got {a_t:g}")
        if not a_s < 0:
            raise ValueError(f"the singlet channel needs a_s < 0 (no bound state), got {a_s:g}")

        def shape(lam):  # r_e/a of the b = 1 well
            inv_a, r_e = poschl_teller_low_energy(lam)
            return r_e * inv_a

        def well(a, re, lo, hi):
            lam = find_root(lambda l: shape(l) - re / a, lo, hi, tol=1e-12)
            inv_a, _ = poschl_teller_low_energy(lam)
            return _sech2_state(lam, a * inv_a)  # b such that a comes out exactly

        peak = shape(_SECH2_PEAK)
        triplet = (1.0 + 1e-6, _SECH2_PEAK) if r_et / a_t <= peak else (_SECH2_PEAK, 2.5)
        model = cls(
            a_t, r_et, a_s, r_es, hbar2_over_m,
            well(a_t, r_et, *triplet), well(a_s, r_es, 1e-6, 1.0 - 1e-6),
        )
        if model.fit_residual > 1e-3:
            raise ConvergenceError(f"channel fit residual {model.fit_residual:.1e} exceeds 0.1%")
        return model

    @property
    def fit_residual(self) -> float:
        """Largest relative miss of the fitted wells' a and r_e."""
        return max(
            max(abs(st.inv_a * a - 1.0), abs(st.r_e / re - 1.0))
            for st, a, re in (
                (self.triplet, self.a_t, self.r_et), (self.singlet, self.a_s, self.r_es)
            )
        )

    def form_factors(self, p_max: float = _TRITON_P_MAX) -> tuple[FormFactor, FormFactor]:
        """The (triplet, singlet) form factors valid up to p_max, built once
        per model and p_max."""
        if p_max not in self._forms:
            self._forms[p_max] = tuple(
                est_form_factor(st, p_max=p_max) for st in (self.triplet, self.singlet)
            )
        return self._forms[p_max]

    def kernel(self, inv_a, n, n_ang, p_min, p_max=_TRITON_P_MAX) -> SeparableKernel:
        """Two-channel kernel at the (triplet, singlet) inverse scattering
        lengths inv_a, on n log-spaced momenta in (p_min, p_max) fm^-1;
        each channel's dimer integral starts at 1e-4 p_min."""
        return SeparableKernel(
            self.form_factors(p_max), inv_a, n=n, n_ang=n_ang, p_min=p_min, q_min=1e-4 * p_min
        )

    @property
    def deuteron_energy(self) -> float:
        """Binding at the effective-range T-matrix pole of the triplet
        channel, in MeV."""
        pole = dimer_energy(1.0 / self.a_t, self.r_et)
        return -self.hbar2_over_m * pole

    @property
    def inv_a(self) -> tuple[float, float]:
        """Physical (triplet, singlet) inverse scattering lengths, fm^-1."""
        return (1.0 / self.a_t, 1.0 / self.a_s)

    @property
    def trimer_window(self) -> tuple[float, float]:
        """Trimer search window, -0.5 up to 1.02 E_deuteron, in fm^-2."""
        return (-0.5, -1.02 * self.deuteron_energy / self.hbar2_over_m)


@dataclass(frozen=True)
class TritonResult:
    deuteron: float  # MeV, effective-range pole
    deuteron_separable: float  # MeV, dimer pole of the triplet form factor
    trimers: tuple  # MeV, deepest first


def solve_triton(model: TritonModel) -> TritonResult:
    """Bound states of the coupled triplet/singlet spectator equations.

    Energies in MeV; the trimer search runs over ``model.trimer_window``,
    on _TRITON_GRID's n = 160 momenta in (1e-4, 40) fm^-1 and 24 angular
    nodes (grid convergence: README, "Triton ground state").
    The deuteron itself is quoted from the effective-range pole of the
    triplet T-matrix (the separable form factor's own pole is reported
    alongside as a model diagnostic).
    """
    h2m = model.hbar2_over_m
    kern = model.kernel(model.inv_a, *_TRITON_GRID, 1e-4)
    roots = bound_levels(kern, model.trimer_window)
    ff_t = kern.forms[0]
    Ed_sep = separable_dimer_energy(ff_t, model.inv_a[0], 1e-8 * ff_t.p_max)
    return TritonResult(
        deuteron=model.deuteron_energy,
        deuteron_separable=-h2m * Ed_sep,
        trimers=tuple(h2m * E for E in roots),
    )
