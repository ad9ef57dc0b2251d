#!/usr/bin/env python3
"""Grid convergence of the rank-one triton binding.

Re-solves the ground state of the fitted two-channel nucleon model on each
grid of the README table ("Triton ground state"): n momentum nodes on a log
grid from p_min to p_max (fm^-1) and n_ang angular nodes.  The first row is
the grid of ``solve_triton``, and every row's kernel comes from the same
``TritonModel.kernel`` call.  Prints CSV to stdout; each row takes 1-3 s
on 2 cores, and the whole loop peaks at about 260 MB of resident memory.
"""
from efimov.cli import write_csv
from efimov.stm import TritonModel, bound_levels

GRIDS = [  # n, n_ang, p_max, p_min
    (300, 48, 40.0, 1e-4),
    (400, 48, 40.0, 1e-4),
    (300, 80, 40.0, 1e-4),
    (300, 48, 60.0, 1e-4),
    (300, 48, 40.0, 1e-5),
    (400, 80, 60.0, 1e-5),
]


def main():
    model = TritonModel.fit()
    rows = []
    for n, n_ang, p_max, p_min in GRIDS:
        kern = model.kernel(model.inv_a, n, n_ang, p_min, p_max)
        E = bound_levels(kern, model.trimer_window)[0]
        rows.append((n, n_ang, p_max, p_min, -model.hbar2_over_m * E))
    write_csv("-", ["n", "n_ang", "p_max", "p_min", "binding_MeV"], rows)


if __name__ == "__main__":
    main()
