"""References and the output checker.  Runs in the parent, untimed.

Every check yields a row (label, got, want, rel_err, tol); a pass is correct
when every row has rel_err <= tol.  ``max_rel_err`` of a pass is the largest
rel_err over its rows.  Rows pinned to the program's own output read 0 at
the seed commit, so ``max_rel_err`` is set by the rows that compare with an
independent reference: the mpmath oracle, a universal ratio or a literature
value.
"""
from __future__ import annotations

import math

import mpmath

from workloads import ZERO_RANGE_CUTOFF

# `efimov stm --model zero-range` at the default cutoff 1000 and window
# (-1e7, -1e-3): the CLI's 12-digit CSV values.  The unitary kernel obeys
# M(E; cutoff) = cutoff * M(E/cutoff^2; 1) on the same relative log grid, so
# at any cutoff the levels are these times (cutoff/1000)^2 and the
# dissociation lengths these times 1000/cutoff.
ZERO_RANGE_LEVELS = (-3.16617762365e04, -6.02130670724e01, -1.16904064444e-01)
ZERO_RANGE_A_MINUS = (-0.19387553429864385, -4.408951617847295, -100.06749758489815)
ZERO_RANGE_WINDOW = (-1e7, -1e-3)
# Pins of the program's own output (CLI 12-digit CSV at the seed commit):
# a change that moves a result by more than PINNED_TOL fails its check.
PINNED_TOL = 1e-6
# `efimov verify` rows: shallow-pair energy ratio and a_-^(2)/a_-^(1).
SHALLOW_PAIR_RATIO = (515.035, 1e-2)
A_MINUS_RATIO = (22.694, 5e-3)

# `efimov stm --model vdw`: the one level.
SEPARABLE_LEVEL = -3.54151394006e-02
# `efimov triton`: energy_scaled of each row, in MeV.
TRITON_PINS = {
    "deuteron_effective_range": 2.22269496128,
    "deuteron_separable_pole": 2.20448079727,
    "trimer_0": -9.76092785840,
}
# Literature values, checked at the tolerance of the acceptance suite.
VDW_KAPPA0 = (0.187, 2e-2)  # acceptance criterion 05a
DEUTERON_MEV = (2.223, 5e-3)  # acceptance criterion 06a
# The rank-one model's own ground state, -9.761 MeV, is pinned above.  It
# lies outside the 7.5-9.5 MeV window of criterion 06b, which stays a known
# failure; this benchmark does not treat the window as passed.

HYPERRADIAL_TOL = 1e-6


def boson_s0(dps: int = 30) -> mpmath.mpf:
    """|s0| from s0 cosh(pi s0/2) = (8/sqrt 3) sinh(pi s0/6)."""
    with mpmath.workdps(dps):
        return mpmath.findroot(
            lambda s: s * mpmath.cosh(mpmath.pi * s / 2)
            - 8 / mpmath.sqrt(3) * mpmath.sinh(mpmath.pi * s / 6),
            1.0,
        )


def hard_wall_zeros(x_lo: float, x_hi: float, dps: int = 30) -> list[float]:
    """Zeros x of K_{i s0}(x) in (x_lo, x_hi), largest first.

    The hard-wall levels of v'' = (kappa^2 R^2 - s0^2) v are kappa R0 = x:
    the decaying solution is K_{i s0}(kappa R).  Sign changes are scanned on
    a log grid with 8 points per factor lambda0 (the zero spacing), then
    refined in mpmath.
    """
    with mpmath.workdps(dps):
        s0 = boson_s0(dps)

        def k(x):
            return mpmath.re(mpmath.besselk(1j * s0, x))

        step = mpmath.exp(mpmath.pi / s0 / 8)
        grid = [mpmath.mpf(x_lo)]
        while grid[-1] < x_hi:
            grid.append(min(grid[-1] * step, mpmath.mpf(x_hi)))
        vals = [k(x) for x in grid]
        zeros = [
            float(mpmath.findroot(k, (a, b), solver="anderson"))
            for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:])
            if fa * fb < 0
        ]
    return sorted(zeros, reverse=True)


def references(name: str, inp: dict) -> dict:
    """Reference values for one workload's inputs."""
    if name == "zero_range":
        s = inp["cutoff"] / ZERO_RANGE_CUTOFF
        lo, hi = ZERO_RANGE_WINDOW
        return {
            "levels": [E * s * s for E in ZERO_RANGE_LEVELS if lo < E * s * s < hi],
            "a_minus": [a / s for a in ZERO_RANGE_A_MINUS][: inp["n_max"]],
        }
    if name == "hyperradial":
        R0 = inp["R0"]
        lo, hi = inp["kappa_window"]
        s0 = float(boson_s0())
        return {
            "x": hard_wall_zeros(lo * R0, hi * R0),
            "phase": (-math.pi / 2 - s0 * math.log(R0)) % math.pi,
        }
    return {}


def _rel(got, want) -> float:
    """Relative deviation; a missing or non-finite output counts as 1."""
    if got is None or not math.isfinite(got):
        return 1.0
    return abs(got - want) / abs(want)


def _row(label, got, want, tol):
    return (label, got, want, _rel(got, want), tol)


def _count_row(label, got, want):
    return (label, got, want, 0.0 if got == want else 1.0, 0.0)


def _list_rows(label, got, want, tol):
    rows = [_count_row(f"{label}.count", len(got), len(want))]
    rows += [_row(f"{label}[{i}]", g, w, tol) for i, (g, w) in enumerate(zip(got, want))]
    return rows


def check(name: str, inp: dict, ref: dict, out: dict) -> list[tuple]:
    """Rows comparing one pass's outputs with the references."""
    if name == "zero_range":
        lev, am = out["levels"], out["a_minus"]
        rows = _list_rows("level", lev, ref["levels"], PINNED_TOL)
        rows += _list_rows("a_minus", am, ref["a_minus"], PINNED_TOL)
        ratio = lev[-2] / lev[-1] if len(lev) >= 2 else None
        rows.append(_row("shallow_pair_ratio", ratio, *SHALLOW_PAIR_RATIO))
        ratio = am[2] / am[1] if len(am) >= 3 else None
        rows.append(_row("a_minus_ratio", ratio, *A_MINUS_RATIO))
        return rows
    if name == "separable":
        lev = out["levels"]
        rows = _list_rows("level", lev, [SEPARABLE_LEVEL], PINNED_TOL)
        kappa0 = math.sqrt(-lev[0]) if lev and lev[0] < 0 else None
        return rows + [_row("kappa0", kappa0, *VDW_KAPPA0)]
    if name == "triton":
        rows = [_count_row("rows", sorted(out), sorted(TRITON_PINS))]
        rows += [_row(k, out.get(k), want, PINNED_TOL) for k, want in TRITON_PINS.items()]
        return rows + [_row("deuteron", out.get("deuteron_effective_range"), *DEUTERON_MEV)]
    if name == "hyperradial":
        R0 = inp["R0"]
        x = [math.sqrt(-E) * R0 for E in out["levels"]]
        rows = _list_rows("kappa_R0", x, ref["x"], HYPERRADIAL_TOL)
        # phase error as a share of its period pi, on the circle
        d = (out["phase"] - ref["phase"] + math.pi / 2) % math.pi - math.pi / 2
        rows.append(("phase", out["phase"], ref["phase"], abs(d) / math.pi, HYPERRADIAL_TOL))
        return rows
    raise ValueError(f"unknown workload {name!r}")


def passed(rows) -> bool:
    return all(err <= tol for _, _, _, err, tol in rows)


def max_rel_err(rows) -> float:
    return max(err for _, _, _, err, _ in rows)
