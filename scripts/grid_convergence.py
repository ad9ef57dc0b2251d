#!/usr/bin/env python3
"""Grid convergence of the zero-range kernels, the sweep behind the
default node count of ``StmKernel``.

Solves every zero-range spectrum on each candidate grid of n nodes, on 2n
nodes and on 2000 nodes, and prints CSV to stdout: per n, the largest
relative change of any level (zero-range and narrow-resonance apart) and
of each dissociation length a_-^(k), against 2n and against 2000.  The
spectra are `efimov stm --model zero-range` at each `--a` below and at the
benchmark's seeded cutoffs 1000 lambda0^u (seeds 0-3); the two kernels of
`efimov stm --model narrow-resonance` (R* = 1, cutoffs 100 and 200) at
a = inf and a = 2; and ``threshold_scattering_lengths(1000, n_max=3)``.
Most of the time goes to n = 2000, about 8 s per spectrum on 2 cores.
"""
import functools
import math

from efimov.channels import LAMBDA0
from efimov.cli import write_csv
from efimov.stm import StmKernel, bound_levels, threshold_scattering_lengths

CANDIDATES = (100, 150, 200, 250, 300, 400, 500)
REFERENCE = 2000
WINDOW = (-1e7, -1e-3)  # `efimov stm` default --E-min, --E-max
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
CUTOFFS = [1000.0 * LAMBDA0 ** (0.2 * ((seed * _GOLDEN) % 1.0)) for seed in range(4)]
A_VALUES = (math.inf, 2.0, 0.5, -3.0, -50.0)
N_MAX = 3


@functools.cache
def solve(n):
    """({case: levels} per family, a_-^(k)) on n nodes."""
    zero_range = {
        (a, cutoff): bound_levels(StmKernel(1.0 / a, cutoff, n=n), WINDOW)
        for a in A_VALUES
        for cutoff in CUTOFFS
    }
    narrow = {  # the kernels of solve_trimers_narrow_resonance(1/a, 1.0, WINDOW)
        (a, cutoff): bound_levels(StmKernel(1.0 / a, cutoff, 1.0, n=n, p_min_factor=1e-8), WINDOW)
        for a in (math.inf, 2.0)
        for cutoff in (100.0, 200.0)
    }
    return zero_range, narrow, threshold_scattering_lengths(1000.0, n_max=N_MAX, n=n)


def _change(x, y) -> float:
    """Largest relative difference of two level lists; inf when a level is
    missing from one of them."""
    if len(x) != len(y):
        return math.inf
    return max((abs(b / a - 1.0) for a, b in zip(x, y)), default=0.0)


def _family_change(cases, ref) -> float:
    return max(_change(levels, ref[key]) for key, levels in cases.items())


def main():
    rows = []
    for n in CANDIDATES:
        zr, nr, am = solve(n)
        (zr2, nr2, am2), (zr_ref, nr_ref, am_ref) = solve(2 * n), solve(REFERENCE)
        rows.append((
            n, _family_change(zr, zr2), _family_change(nr, nr2), _change(am, am2),
            _family_change(zr, zr_ref), _family_change(nr, nr_ref),
            *(abs(x / y - 1.0) for x, y in zip(am, am_ref)),
        ))
    write_csv(
        "-",
        ["n", "zero_range_vs_2n", "narrow_vs_2n", "a_minus_vs_2n",
         "zero_range_vs_2000", "narrow_vs_2000",
         *(f"a_minus_{k}_vs_2000" for k in range(N_MAX))],
        rows,
    )


if __name__ == "__main__":
    main()
