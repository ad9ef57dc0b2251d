"""Momentum-space three-body integral equations: the quantitative oracle.

Solves the s-wave spectator-amplitude equation for zero-range and
narrow-resonance interactions (``StmKernel``) and for rank-one separable
interactions (``SeparableKernel``).  The separable kernel takes one form
factor per spin-isospin channel: one channel for identical bosons, the
triplet/singlet pair for the nucleon model.  Natural units hbar = m = 1:
the spectator kinetic term is (3/4)P^2 and dimers sit at -kappa^2.

Each kernel M(E) is real symmetric under a diagonal similarity, so
``bound_levels`` locates trimers by the inertia of M(E), whose number of
negative eigenvalues drops by one at each level; dissociation thresholds
a_-^(n) come from symmetric eigenvalue problems in 1/a at E = 0.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channels import LAMBDA0
from .numerics import (
    ConvergenceError,
    find_root,
    gauss_legendre,
    gauss_legendre_log,
    isolate_levels,
)
from .two_body import (
    FormFactor,
    TwoBodyModel,
    ZeroEnergyState,
    dimer_energy,
    dimer_integral,
    est_form_factor,
    separable_dimer_energy,
    solve_zero_energy,
)

__all__ = [
    "StmKernel",
    "SeparableKernel",
    "bound_levels",
    "solve_trimers_zero_range",
    "solve_trimers_narrow_resonance",
    "solve_trimers_separable",
    "threshold_scattering_lengths",
    "a_minus_ground",
    "narrow_resonance_a_star0",
    "kappa_star_extrapolated",
    "TritonModel",
    "TritonResult",
    "solve_triton",
    "ResolutionWarning",
]

_DEF_N = 400
_DEF_NANG = 48
_TRITON_P_MAX = 40.0  # fm^-1, top of the nucleon momentum grid
# relative gap kept between an energy window's top and a dimer pole: on the
# pole M(E) is singular, and its count of negative eigenvalues jumps there
_POLE_GAP = 1e-10


class ResolutionWarning(UserWarning):
    """Adjacent levels closer than a few momentum-grid cells."""


def _symmetrize(kernel, m):
    """Overwrite a kernel matrix m with its real symmetric form s m s^-1,
    s = p sqrt(w) on each channel block; returns s."""
    rule = kernel.grid
    s = np.tile(rule.nodes * np.sqrt(rule.weights), len(m) // kernel.n)
    m *= s[:, None]
    m /= s
    return s


def _spectrum(kernel, E):
    m = kernel.matrix(E)
    _symmetrize(kernel, m)
    return np.linalg.eigvalsh(m)


def _level_count(kernel, E_window):
    """Number of levels in E_window, from the inertia of M(E) at its ends."""
    lo, hi = (np.count_nonzero(_spectrum(kernel, E) < 0) for E in E_window)
    return int(abs(lo - hi))


def bound_levels(kernel, E_window: tuple[float, float]) -> list[float]:
    """Bound-state energies of ``kernel`` in (E_lo, E_hi), E < 0, deepest
    first.

    The window ends 1e-10 (relative) below the kernel's lowest dimer
    pole, above which M(E) holds the discretised atom-dimer continuum.  The
    number of negative eigenvalues of M(E) is bisected in ln(-E) until each
    bracket holds one level; Brent's method refines it on the eigenvalue of
    sorted index min(count) that crosses zero there.
    """
    E_lo, E_hi = E_window
    if not E_lo < E_hi < 0:
        raise ValueError("need E_lo < E_hi < 0")
    E_hi = min(E_hi, (1 + _POLE_GAP) * kernel._threshold())
    if not E_lo < E_hi:
        return []
    spectrum = functools.cache(lambda l: _spectrum(kernel, -math.exp(l)))
    brackets = isolate_levels(
        lambda l: int(np.count_nonzero(spectrum(l) < 0)),
        math.log(-E_hi), math.log(-E_lo), tol=1e-12,
    )
    roots = [
        find_root(lambda l, k=min(na, nb): spectrum(l)[k], a, b, tol=1e-12)
        for a, b, na, nb in brackets
    ]
    return sorted(-math.exp(l) for l in roots)


def _warn_resolution(energies, nodes_per_decade):
    for E_deep, E_shallow in zip(energies, energies[1:]):
        cells = nodes_per_decade * 0.5 * math.log10(E_deep / E_shallow)
        if cells < 3.0:
            warnings.warn(
                "level spacing under 3 momentum-grid cells; refine the grid",
                ResolutionWarning,
                stacklevel=3,
            )
            break


@dataclass(frozen=True)
class StmKernel:
    """Zero-range (optionally narrow-resonance) kernel on a log grid.

    The s-wave projected exchange integral is analytic,
    K(P,Q) = (2/pi)(Q/P) ln[(P^2+PQ+Q^2-E)/(P^2-PQ+Q^2-E)] w_Q,
    and the diagonal is the inverse two-body T at the shifted energy,
    1/a + R*(E - (3/4)P^2) - sqrt((3/4)P^2 - E).

    ``exact_domain`` keeps both exchange momenta |Q+P/2|, |P+Q/2| below the
    cutoff instead of the plain Q < cutoff domain; the difference is a
    cutoff-scale effect only.
    """

    inv_a: float
    cutoff: float
    r_star: float = 0.0
    n: int = _DEF_N
    p_min_factor: float = 1e-5
    exact_domain: bool = False

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

    def _exchange(self, E: float, p, wp):
        P = p[:, None]
        Q = p[None, :]
        if self.exact_domain:
            # angular upper limit keeping both shifted momenta below cutoff
            lam2 = self.cutoff**2
            c_hi = np.minimum(
                (lam2 - Q * Q - 0.25 * P * P) / (P * Q),
                (lam2 - P * P - 0.25 * Q * Q) / (P * Q),
            )
            c_hi = np.clip(c_hi, -1.0, 1.0)
            num = P * P + Q * Q + P * Q * c_hi - E
        else:
            num = P * P + P * Q + Q * Q - E
        den = P * P - P * Q + Q * Q - E
        return (2 / np.pi) * (Q / P) * np.log(num / den) * wp[None, :]

    def matrix(self, E: float) -> np.ndarray:
        if E >= 0:
            raise ValueError("bound-state search needs E < 0")
        rule = self.grid
        p, wp = rule.nodes, rule.weights
        D = self.inv_a + self.r_star * (E - 0.75 * p**2) - np.sqrt(0.75 * p**2 - E)
        return np.diag(D) + self._exchange(E, p, wp)

    def threshold_matrix(self) -> np.ndarray:
        """A with A F = (1/a) F at E = 0: diagonal sqrt(3)/2 p + (3/4) R* p^2
        minus the zero-energy exchange kernel."""
        rule = self.grid
        p, wp = rule.nodes, rule.weights
        return np.diag(np.sqrt(0.75) * p + 0.75 * self.r_star * p**2) - self._exchange(
            0.0, p, wp
        )


def solve_trimers_zero_range(
    a: float,
    cutoff: float,
    E_window: tuple[float, float],
    n: int = _DEF_N,
    r_star: float = 0.0,
    exact_domain: bool = False,
    p_min_factor: float = 1e-5,
) -> list[float]:
    """Trimer energies of the zero-range theory with sharp cutoff, deepest
    first.  The cutoff is the three-body parameter: energies depend on it
    only through the equivalence class cutoff * e^{n pi/|s0|}."""
    inv_a = 0.0 if np.isinf(a) else 1.0 / a
    kern = StmKernel(
        inv_a, cutoff, r_star=r_star, exact_domain=exact_domain, n=n,
        p_min_factor=p_min_factor,
    )
    roots = bound_levels(kern, E_window)
    _warn_resolution(roots, n / math.log10(cutoff / (kern.p_min_factor * cutoff)))
    return roots


def solve_trimers_narrow_resonance(
    a: float, r_star: float, E_window: tuple[float, float]
) -> list[float]:
    """Trimer energies with the energy-dependent narrow-resonance T-matrix.

    R* regulates the short-distance physics, so results must be cutoff
    independent: the levels are solved at cutoff 100/R* (500 nodes),
    re-solved at twice the cutoff, and a >1% drift raises ConvergenceError.
    """
    if not r_star > 0:
        raise ValueError("r_star must be positive")
    cutoff = 100.0 / r_star

    def solve(lam):
        return solve_trimers_zero_range(a, lam, E_window, n=500, r_star=r_star, p_min_factor=1e-8)

    roots = solve(cutoff)
    for E, E2 in zip(roots, solve(2.0 * cutoff)):
        if abs(E2 - E) > 0.01 * abs(E):
            raise ConvergenceError(f"cutoff drift {abs(E2 - E) / abs(E):.2%} at E = {E:g}")
    return roots


# exchange weights W_ab of the spin-isospin recoupling, by channel count:
# identical bosons, and the nucleon triplet/singlet pair
_RECOUPLING = {1: np.array([[1.0]]), 2: np.array([[0.25, 0.75], [0.75, 0.25]])}
_SLAB = 8


@dataclass(frozen=True)
class SeparableKernel:
    """Rank-one separable STM kernel with numerically projected s wave.

    ``form`` and ``inv_a`` give one form factor phi_a and one inverse
    scattering length per spin-isospin channel; a bare FormFactor and a
    float are the one-channel (identical-boson) case.  Block (a, b) of M(E)
    is delta_ab diag[1/(4 pi a_a) - I_a(P)] + W_ab K_ab with
    I_a(P) = (1/(2 pi^2)) int dq phi_a(q)^2 kap^2/(q^2+kap^2), kap^2 = 3P^2/4 - E,
    K_ab(P,Q) = (1/(2 pi^2)) w_Q Q^2 int dc phi_a(q1) phi_b(q2)/(P^2+Q^2+PQc-E),
    q1 = |Q + P/2|, q2 = |P + Q/2|.  The recoupling weights W are [[1]] for
    bosons and [[1/4, 3/4], [3/4, 1/4]] for the nucleon triplet/singlet
    pair.  I_a is ``two_body.dimer_integral`` from q_min.
    """

    form: FormFactor | tuple
    inv_a: float | tuple
    n: int = 260
    n_ang: int = _DEF_NANG
    p_min: float = None
    q_min: float = 1e-6
    _tables: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if len(self.forms) not in _RECOUPLING or np.size(self.inv_a) != len(self.forms):
            raise ValueError("need 1 or 2 channels, each with one form factor and 1/a")
        if self.p_min is None:
            object.__setattr__(self, "p_min", 2.5e-6 * self.p_max)

    @property
    def forms(self) -> tuple:
        return (self.form,) if isinstance(self.form, FormFactor) else tuple(self.form)

    @property
    def p_max(self) -> float:
        return max(f.p_max for f in self.forms)

    def _build(self):
        if self._tables:
            return
        rule = self.grid
        p, wp = rule.nodes, rule.weights
        ang = gauss_legendre(self.n_ang, -1.0, 1.0)
        P = p[:, None, None]
        Q = p[None, :, None]
        C = ang.nodes[None, None, :]
        # phi_a(q1) in slabs of P rows, which keeps the temporaries of the
        # form-factor calls small.  q2(P, Q, c) = q1(Q, P, c): phi(q2) is a
        # transposed view of phi(q1), and the (b, a) angular sum is the
        # transpose of the (a, b) one
        nc = len(self.forms)
        phi1 = np.empty((nc, self.n, self.n, self.n_ang))
        for i in range(0, self.n, _SLAB):
            Ps = P[i : i + _SLAB]
            q1 = np.sqrt(Q * Q + 0.25 * Ps * Ps + Ps * Q * C)
            for a, f in enumerate(self.forms):
                phi1[a, i : i + _SLAB] = f(q1)
        ang_tables = {}
        for a in range(nc):
            for b in range(a, nc):
                ang_tables[a, b] = ang.weights * phi1[a]
                ang_tables[a, b] *= phi1[b].transpose(1, 0, 2)
        del phi1
        self._tables.update(
            p=p, wp=wp, P=P, Q=Q, C=C, ang=ang_tables,
            dimer=[dimer_integral(f, self.q_min) for f in self.forms],
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
        self._build()
        t = self._tables
        inv_den = t["P"] * t["Q"] * t["C"]
        inv_den += t["P"] ** 2 + t["Q"] ** 2
        inv_den -= E
        np.reciprocal(inv_den, out=inv_den)
        S = {ab: np.einsum("ijk,ijk->ij", tab, inv_den) for ab, tab in t["ang"].items()}
        col = t["wp"] * t["p"] ** 2 / (2 * np.pi**2)
        W = _RECOUPLING[len(self.forms)]
        K = np.block([
            [W[a, b] * (S[a, b] if a <= b else S[b, a].T) * col for b in range(len(W))]
            for a in range(len(W))
        ])
        D = np.repeat(self.inv_a, self.n) / (4 * np.pi)
        kap2 = (0.75 * t["p"] ** 2 - E)[:, None]
        return np.diag(D - np.concatenate([I(kap2) for I in t["dimer"]])) + K


def solve_trimers_separable(
    form: FormFactor,
    a: float = None,
    E_window: tuple[float, float] = (-3.0, -1e-7),
    n: int = 260,
    n_ang: int = _DEF_NANG,
) -> list[float]:
    """Trimer energies for a separable model, deepest first.

    ``a`` defaults to the scattering length the form factor was built for.
    """
    inv_a = form.inv_a if a is None else (0.0 if np.isinf(a) else 1.0 / a)
    kern = SeparableKernel(form, inv_a, n=n, n_ang=n_ang)
    roots = bound_levels(kern, E_window)
    _warn_resolution(roots, n / math.log10(form.p_max / kern.p_min))
    return roots


def threshold_scattering_lengths(
    cutoff: float, n_max: int = 4, r_star: float = 0.0, n: int = 500
) -> list[float]:
    """Dissociation scattering lengths a_-^(n) < 0 where trimer n meets the
    three-body threshold, smallest |a_-| (deepest level) first, for the
    zero-range (or narrow-resonance) kernel with this cutoff.

    1/a enters the E = 0 kernel linearly, so the a_-^(n) are eigenvalues;
    roots with |a_-| * cutoff <= 10 sit at the regularization scale and are
    filtered out.
    """
    kern = StmKernel(0.0, cutoff, r_star=r_star, n=n, p_min_factor=1e-8)
    m = kern.threshold_matrix()
    _symmetrize(kern, m)
    ev = np.linalg.eigvalsh(m)
    neg = np.sort(ev[ev < 0])  # most negative first -> smallest |a|
    a_all = 1.0 / neg
    return list(a_all[np.abs(a_all) * cutoff > 10.0][:n_max])


def _bisect_threshold(has_state, x_without: float, x_with: float, rel: float) -> float:
    """Midpoint of the bracket on which ``has_state`` switches, bisected
    until the bracket is under rel * min(|x_without|, |x_with|)."""
    if has_state(x_without) or not has_state(x_with):
        raise ValueError("bracket does not straddle the threshold")
    while abs(x_with - x_without) > rel * min(abs(x_without), abs(x_with)):
        mid = 0.5 * (x_without + x_with)
        if has_state(mid):
            x_with = mid
        else:
            x_without = mid
    return 0.5 * (x_without + x_with)


def a_minus_ground(form_family, bracket: tuple[float, float]) -> float:
    """Ground-level dissociation length a_-^(0) for an a-dependent
    form-factor family (callable 1/a -> FormFactor).

    The kernel itself depends on a here, so a_- is found, to 1e-3 relative,
    by bisecting the existence of a trimer in (-3, -1e-6) between the two
    bracket scattering lengths (both < 0; |lo| without state, |hi| with)."""
    lo, hi = bracket
    if not (lo < 0 and hi < 0 and abs(lo) < abs(hi)):
        raise ValueError("bracket must be (a_without, a_with), both negative")

    def has_state(a):
        kern = SeparableKernel(form_family(1.0 / a), 1.0 / a, n=200, n_ang=32)
        return _level_count(kern, (-3.0, -1e-6)) > 0

    return _bisect_threshold(has_state, lo, hi, 1e-3)


def narrow_resonance_a_star0(r_star: float) -> float:
    """a_*^(0): scattering length where the ground narrow-resonance trimer
    meets the particle-dimer threshold (a > 0), in units set by R*.

    The existence of a trimer below the dimer pole is bisected in 1/a, to
    1e-4 relative, over 1/a in (1.8, 2.6)/R*."""
    if not r_star > 0:
        raise ValueError("r_star must be positive")
    cutoff = 100.0 / r_star

    def has_state(inv_a):
        kern = StmKernel(inv_a, cutoff, r_star=r_star, n=400, p_min_factor=1e-8)
        Ed = kern._threshold()
        return _level_count(kern, (1e4 * Ed, (1 + _POLE_GAP) * Ed)) > 0

    return 1.0 / _bisect_threshold(has_state, 2.6 / r_star, 1.8 / r_star, 1e-4)


def kappa_star_extrapolated(energies, level: int = 0) -> float:
    """kappa*^(level) * lambda0^level: the three-body parameter read off one
    level of a finite-range spectrum, mapped to the reference level by the
    discrete scaling; energies ordered deepest first."""
    E = energies[level]
    if not E < 0:
        raise ValueError("energies must be negative")
    return math.sqrt(-E) * LAMBDA0**level


# ---------------------------------------------------------------------------
# two-channel triton model


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
    achieved (a, r_e) residual is read.
    """

    a_t: float
    r_et: float
    a_s: float
    r_es: float
    hbar2_over_m: float
    triplet: ZeroEnergyState = field(repr=False, compare=False)
    singlet: ZeroEnergyState = field(repr=False, compare=False)

    @classmethod
    def fit(cls, a_t=5.4112, r_et=1.7436, a_s=-23.7148, r_es=2.750, hbar2_over_m=41.46):
        """Fit (lambda, b) of V = -lambda(lambda+1)/b^2 sech^2(r/b) per
        channel: lambda sets the shape ratio r_e/a, then b sets the scale."""

        @functools.cache
        def unit_well(lam):  # 1/a and the shape ratio r_e/a of the b = 1 well
            st = _sech2_state(lam, 1.0)
            return st.inv_a, st.r_e * st.inv_a

        def well(a, re, lo, hi):
            lam = find_root(lambda l: unit_well(l)[1] - re / a, lo, hi, tol=1e-12)
            return _sech2_state(lam, a * unit_well(lam)[0])  # b such that a comes out exactly

        model = cls(
            a_t, r_et, a_s, r_es, hbar2_over_m,
            well(a_t, r_et, 1.05, 1.9), well(a_s, r_es, 0.3, 0.999),
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
        return tuple(est_form_factor(st, p_max=p_max) for st in (self.triplet, self.singlet))

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


@dataclass(frozen=True)
class TritonResult:
    deuteron: float  # MeV, effective-range pole
    deuteron_separable: float  # MeV, dimer pole of the triplet form factor
    trimers: tuple  # MeV, deepest first


def solve_triton(model: TritonModel) -> TritonResult:
    """Bound states of the coupled triplet/singlet spectator equations.

    Energies in MeV; the trimer search runs from -0.5 fm^-2 up to 1.02
    times the deuteron energy, on n = 300 momenta in (1e-4, 40) fm^-1 and
    48 angular nodes (grid convergence: README, "Triton ground state").
    The deuteron itself is quoted from the effective-range pole of the
    triplet T-matrix (the separable form factor's own pole is reported
    alongside as a model diagnostic).
    """
    h2m = model.hbar2_over_m
    kern = model.kernel((1.0 / model.a_t, 1.0 / model.a_s), 300, _DEF_NANG, 1e-4)
    roots = bound_levels(kern, (-0.5, -1.02 * model.deuteron_energy / h2m))
    ff_t = kern.forms[0]
    Ed_sep = separable_dimer_energy(ff_t, ff_t.inv_a, 1e-8 * ff_t.p_max)
    return TritonResult(
        deuteron=model.deuteron_energy,
        deuteron_separable=-h2m * Ed_sep,
        trimers=tuple(h2m * E for E in roots),
    )


def solve_triton_unitarity(model: TritonModel) -> list[float]:
    """Two-channel spectrum in (-0.5, -1e-9) fm^-2 with both inverse
    scattering lengths set to zero (natural units, fm^-2); exposes the
    boson-like scaling ratio."""
    return bound_levels(model.kernel((0.0, 0.0), 240, 32, 1e-6), (-0.5, -1e-9))
