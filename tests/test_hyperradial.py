import math

import mpmath
import numpy as np
import pytest

from efimov.channels import LAMBDA0, S0, s2_lowest
from efimov.hyperradial import (
    HyperradialChannel,
    solve_bound_states,
    three_body_phase,
)
from efimov.numerics import propagate


WALL = HyperradialChannel(R0=1.0)


@pytest.fixture(scope="module")
def wall_states():
    return solve_bound_states(WALL, (1e-5, 1.0))


def _kappas(states):
    return np.sqrt(-np.asarray(states.energies))


def test_spectrum_geometric(wall_states):
    E = np.asarray(wall_states.energies)
    assert len(E) >= 3
    ratios = E[:-1] / E[1:]
    assert ratios == pytest.approx([LAMBDA0**2] * len(ratios), rel=3e-3)


def test_energies_ordered_and_nodes_count_up(wall_states):
    E = list(wall_states.energies)
    assert E == sorted(E)
    assert [shot_nodes(WALL, e) for e in E] == list(range(len(E)))


def shot_nodes(channel, energy):
    """Interior nodes of v = F/sqrt(R) shot outward from the boundary: the
    linear propagator on 3000 nodes in x = ln R out to R = 20/kappa, where
    the decaying tail is e^-40 of the growing one.  Only the classically
    allowed region counts, since at a level the tail decays to rounding,
    where its sign is noise."""
    kappa = math.sqrt(-energy)
    x = np.linspace(math.log(channel.R0), math.log(20.0 / kappa), 3000)
    start = [0.0, 1.0] if channel.boundary == "hard_wall" else [1.0, channel.R0 * channel.boundary_value - 0.5]
    v, _ = propagate(lambda t: channel.s_squared - energy * np.exp(2.0 * t), x, start)
    allowed = channel.s_squared - energy * np.exp(2.0 * x) < 0
    body = v[1:][allowed[1:]] if channel.boundary == "hard_wall" else v[allowed]
    return int(np.count_nonzero(np.diff(np.sign(body[body != 0])) != 0))


@pytest.mark.parametrize(
    "boundary", [("hard_wall", 0.0), ("log_derivative", -3.0), ("log_derivative", 10.0)],
    ids=["hard_wall", "log_derivative_-3", "log_derivative_10"],
)
def test_level_k_has_k_propagated_nodes(boundary):
    # the window holds every deeper level (none lies above
    # kappa R0 = hypot(s0, max(c, 0)) <= hypot(s0, 2)), so the shot from
    # level k's boundary crosses zero k times
    ch = HyperradialChannel(R0=0.5, boundary=boundary[0], boundary_value=boundary[1])
    states = solve_bound_states(ch, (1e-4, 10.0))
    assert len(states.energies) >= 3
    assert [shot_nodes(ch, E) for E in states.energies] == list(range(len(states.energies)))


def test_discrete_scale_invariance_under_wall_scaling(wall_states):
    scaled = solve_bound_states(
        HyperradialChannel(R0=LAMBDA0), (1e-5 / LAMBDA0, 1.0 / LAMBDA0)
    )
    E_ref = np.asarray(wall_states.energies)
    E_scl = np.asarray(scaled.energies) * LAMBDA0**2
    m = min(len(E_ref), len(E_scl))
    assert E_scl[:m] == pytest.approx(E_ref[:m], rel=1e-8)


def _bessel_k_zeros(x_lo, x_hi):
    """Zeros of K_{i s0}(x) in (x_lo, x_hi), largest first: the hard-wall
    levels kappa R0 of v'' = (kappa^2 R^2 - s0^2) v.  Scanned with 8 points
    per factor LAMBDA0 (the zero spacing), then refined in mpmath.  A zero
    moves by ln(x) dS0 / S0 relative to S0's rounding, under 1e-14 here."""
    with mpmath.workdps(30):

        def k(x):
            return mpmath.re(mpmath.besselk(1j * S0, x))

        grid = [mpmath.mpf(x_lo) * mpmath.mpf(LAMBDA0) ** (i / 8) for i in range(8 * 16)]
        grid = [x for x in grid if x < x_hi] + [mpmath.mpf(x_hi)]
        vals = [k(x) for x in grid]
        zeros = [
            float(mpmath.findroot(k, (a, b), solver="anderson"))
            for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:])
            if fa * fb < 0
        ]
    return sorted(zeros, reverse=True)


def test_hard_wall_levels_match_bessel_zeros():
    states = solve_bound_states(HyperradialChannel(R0=1.0), (1e-20, 10.0))
    zeros = _bessel_k_zeros(1e-20, 10.0)
    assert len(zeros) == 14
    # abs=0: approx's default abs=1e-12 would hide every level below kappa ~ 1
    assert _kappas(states) == pytest.approx(zeros, rel=1e-12, abs=0)


def _envelope(nu):
    """The size sqrt(2 pi/(nu sinh pi nu)) of K_{i nu}(x) for x < nu."""
    return math.sqrt(2 * math.pi / (nu * math.sinh(math.pi * nu)))


@pytest.mark.parametrize(
    "nu, kappa_min", [(4.0, 1e-6), (8.0, 1e-6), (16.0, 1e-6), (16.0, 1e-20)],
    ids=["4", "8", "16", "16-kappa_min-1e-20"],
)
def test_large_order_hard_wall_levels_are_bessel_zeros(nu, kappa_min):
    # the `hyperradial --s0` window at the default --kappa-max 10: every
    # level is a zero of K_{i nu}(kappa R0) to 1e-12 of its envelope, and
    # none is skipped.  For x << nu, K_{i nu}(x) is a multiple of
    # sin(nu ln(x/2) - arg Gamma(1 + i nu)) (DLMF 10.45.7), so
    # floor((arg Gamma(1 + i nu) - nu ln(x/2))/pi) zeros lie above x; those
    # above x = 10 (none lies above x = nu) are counted by sign changes on
    # a grid of 50 points.
    states = solve_bound_states(HyperradialChannel(s_squared=-(nu**2)), (kappa_min, 10.0))
    x = _kappas(states)
    with mpmath.workdps(30):
        k = lambda t: mpmath.re(mpmath.besselk(1j * nu, t))
        phase = mpmath.im(mpmath.loggamma(1 + 1j * nu)) - nu * mpmath.log(mpmath.mpf(kappa_min) / 2)
        top = [k(t) for t in mpmath.linspace(10, nu, 50)] if nu > 10 else []
        above = sum(a * b < 0 for a, b in zip(top, top[1:]))
        assert len(x) == int(mpmath.floor(phase / mpmath.pi)) - above
        err = max(abs(k(xi)) for xi in x) / _envelope(nu)
    assert err <= 1e-12


@pytest.mark.parametrize("value", [-3.0, 0.5, 10.0])
def test_log_derivative_levels_match_mpmath(value):
    # F'/F = value at R0 for F = sqrt(R) K_{i s0}(kappa R): at each level,
    # x K'(x) + (1/2 - R0 value) K(x) = 0 at x = kappa R0
    R0 = 1.0
    states = solve_bound_states(
        HyperradialChannel(R0=R0, boundary="log_derivative", boundary_value=value), (1e-20, 10.0)
    )
    c = 0.5 - R0 * value
    with mpmath.workdps(30):
        nu = mpmath.mpf(S0)

        def condition(x):
            k = lambda t: mpmath.re(mpmath.besselk(1j * nu, t))
            return x * mpmath.diff(k, x) + c * k(x)

        residual = [abs(condition(mpmath.mpf(x))) for x in _kappas(states)]
    assert len(residual) >= 14
    assert max(residual) / ((S0 + abs(c)) * _envelope(S0)) < 1e-12


def test_phase_of_hard_wall():
    # hard wall at R0 = reference scale: v ~ sin(s0 ln(R/R0)), phase pi/2
    phi = three_body_phase(WALL, reference_scale=1.0)
    assert phi == pytest.approx(math.pi / 2, abs=1e-10)


def test_phase_log_periodic_in_wall_position():
    phi1 = three_body_phase(HyperradialChannel(R0=1.0))
    phi2 = three_body_phase(HyperradialChannel(R0=LAMBDA0))
    diff = abs(phi1 - phi2) % math.pi
    assert min(diff, math.pi - diff) < 1e-6


def test_phase_shifts_with_reference_scale():
    phi1 = three_body_phase(HyperradialChannel(R0=1.0), reference_scale=1.0)
    s = 1.7
    phi2 = three_body_phase(HyperradialChannel(R0=1.0), reference_scale=s)
    expect = (phi1 - S0 * math.log(s)) % math.pi
    assert phi2 == pytest.approx(expect, abs=1e-8)


def test_channel_rejects_callable_exponent():
    # s^2 is one number: a running exponent s2(R) is no hyperradial channel
    with pytest.raises(TypeError):
        HyperradialChannel(s_squared=lambda R: s2_lowest(-0.3 * R))


def _propagated_phase(ch, reference_scale):
    """The phase by propagation: the zero-energy solution carried over 2.5
    decades of R on 800 nodes, with theta = atan2(-v', |s0| v) read at the
    last node."""
    x = np.linspace(math.log(ch.R0), math.log(ch.R0) + 2.5 * math.log(10.0), 800)
    start = [0.0, 1.0] if ch.boundary == "hard_wall" else [1.0, ch.R0 * ch.boundary_value - 0.5]
    v, dv = propagate(lambda t: np.full_like(t, ch.s_squared), x, start)
    s0 = math.sqrt(-ch.s_squared)
    return math.atan2(-dv[-1], s0 * v[-1]) - s0 * (x[-1] + math.log(reference_scale))


@pytest.mark.parametrize("reference_scale", [1.0, 2.5])
@pytest.mark.parametrize("R0", [0.5, 1.0, LAMBDA0], ids=["0.5", "1", "lambda0"])
@pytest.mark.parametrize(
    "boundary", [("hard_wall", 0.0), ("log_derivative", -3.0), ("log_derivative", 10.0)],
    ids=["hard_wall", "log_derivative_-3", "log_derivative_10"],
)
def test_phase_matches_propagated_solution(boundary, R0, reference_scale):
    ch = HyperradialChannel(R0=R0, boundary=boundary[0], boundary_value=boundary[1])
    phi = three_body_phase(ch, reference_scale)
    assert 0.0 <= phi < math.pi
    diff = (phi - _propagated_phase(ch, reference_scale)) % math.pi
    assert min(diff, math.pi - diff) < 1e-12


@pytest.mark.parametrize("R0", [0.5, 1.0, LAMBDA0], ids=["0.5", "1", "lambda0"])
def test_phase_in_range_at_zero_boundary_phase(R0):
    # F'/F = 1/(2 R0) starts v with v' = 0, so theta(R0) = -0.0; one ulp
    # more gives v' = 1.1e-16 and a phase of -1.1e-16, which a bare mod pi
    # rounds up to pi.  At reference scale 1/R0 both phases are 0 mod pi.
    for value in (0.5, math.nextafter(0.5, 1.0)):
        ch = HyperradialChannel(R0=R0, boundary="log_derivative", boundary_value=value / R0)
        phi = three_body_phase(ch, 1.0 / R0)
        assert 0.0 <= phi < math.pi
        assert min(phi, math.pi - phi) < 1e-15


def test_phase_validation():
    for s_squared in (0.0, 0.25):  # no attraction, no log-periodic phase
        with pytest.raises(ValueError):
            three_body_phase(HyperradialChannel(s_squared=s_squared))
    for reference_scale in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            three_body_phase(HyperradialChannel(), reference_scale)


def test_log_derivative_boundary():
    chan = HyperradialChannel(R0=1.0, boundary="log_derivative", boundary_value=0.5)
    states = solve_bound_states(chan, (1e-4, 1.0))
    E = np.asarray(states.energies)
    assert len(E) >= 3
    # the deepest level feels the boundary; the shallower pair is geometric
    assert E[1] / E[2] == pytest.approx(LAMBDA0**2, rel=3e-3)


def test_channel_validation():
    for fields in (
        {"R0": -1.0}, {"R0": 0.0}, {"R0": math.inf}, {"R0": math.nan},
        {"s_squared": math.nan}, {"s_squared": -math.inf},
        {"boundary_value": math.nan}, {"boundary_value": math.inf},
    ):
        with pytest.raises(ValueError):
            HyperradialChannel(**fields)
    with pytest.raises(ValueError):
        HyperradialChannel(boundary="open")
    with pytest.raises(ValueError):
        solve_bound_states(HyperradialChannel(), (0.5, 0.1))
    # K_{i nu} is checked for 0 < nu <= 64; s^2 >= 0 has no Efimov levels
    for s_squared in (0.0, 0.25, -(64.001**2)):
        with pytest.raises(ValueError):
            solve_bound_states(HyperradialChannel(s_squared=s_squared), (1e-3, 1.0))
