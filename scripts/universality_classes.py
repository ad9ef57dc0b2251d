#!/usr/bin/env python3
"""Three-body parameter across two-body universality classes.

Solves the separable momentum-space equations for four short-range
families (deep van der Waals, -1/r^4 tail, -1/r^6 tail, step-function
wave function) and reports the ground-state three-body parameter in the
natural length of each class: kappa*^(0) l_vdW for the vdW family and
kappa*^(0) (r_e/2) for the tails.  Each family is solved on the grid the
CLI's ``stm --model`` uses for it: the ``SeparableKernel`` default (260, 48),
and ``stm._STEP_GRID`` (300, 64) for the step; ``--n`` and ``--n-ang`` set
one grid for all four.
"""
import argparse
import math
import sys

from efimov.cli import write_csv
from efimov.two_body import (
    half_effective_range_tail,
    step_form_factor,
    universal_tail_form_factor,
)
from efimov.stm import _STEP_GRID, SeparableKernel, bound_levels


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, help="momentum grid size (default: the family's)")
    ap.add_argument("--n-ang", type=int, help="angular grid size (default: the family's)")
    ap.add_argument("--output", default="-", help="CSV output path")
    args = ap.parse_args()

    default = (SeparableKernel.n, SeparableKernel.n_ang)
    families = {  # form factor, length scale, and the (n, n_ang) of its `stm --model`
        "vdw": (universal_tail_form_factor(6), 1.0, default),  # the n = 6 tail, in units of l_vdW
        "power4": (universal_tail_form_factor(4), half_effective_range_tail(4), default),
        "power6": (universal_tail_form_factor(6), half_effective_range_tail(6), default),
        "step": (step_form_factor(1.0), 1.0, _STEP_GRID),  # half_re = 1 by construction
    }
    rows = []
    for name, (form, scale, (n, n_ang)) in families.items():
        # each at unitarity, 1/a = 0, where kappa*^(0) is defined
        kern = SeparableKernel(form, 0.0, n=args.n or n, n_ang=args.n_ang or n_ang)
        lev = bound_levels(kern, (-3.0, -1e-7))
        kappa0 = math.sqrt(-lev[0])
        rows.append((name, kappa0, kappa0 * scale, len(lev)))
        print(f"{name:8s} kappa0={kappa0:.6f} kappa0*scale={kappa0 * scale:.6f}",
              file=sys.stderr)
    write_csv(args.output, ["family", "kappa0", "kappa0_scaled", "levels_found"], rows)


if __name__ == "__main__":
    main()
