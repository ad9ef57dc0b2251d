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


@pytest.fixture(scope="module")
def wall_states():
    chan = HyperradialChannel(R0=1.0)
    return solve_bound_states(chan, (1e-5, 1.0))


def test_spectrum_geometric(wall_states):
    E = np.asarray(wall_states.energies)
    assert len(E) >= 3
    ratios = E[:-1] / E[1:]
    assert ratios == pytest.approx([LAMBDA0**2] * len(ratios), rel=3e-3)


def test_energies_ordered_and_nodes_count_up(wall_states):
    E = list(wall_states.energies)
    assert E == sorted(E)
    assert wall_states.node_counts() == list(range(len(E)))


def test_kappas_negative_below_threshold(wall_states):
    kap = wall_states.kappas
    assert np.all(kap < 0)
    assert np.asarray(wall_states.energies) == pytest.approx(-(kap**2))


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
    assert -states.kappas == pytest.approx(zeros, rel=1e-9)


def test_phase_of_hard_wall(wall_states):
    # hard wall at R0 = reference scale: v ~ sin(s0 ln(R/R0)), phase pi/2
    phi = three_body_phase(wall_states.channel, reference_scale=1.0)
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
