#!/usr/bin/env python3
"""Grid convergence of the rank-one triton binding.

Re-solves the ground state of the fitted two-channel nucleon model on each
grid of the README table ("Triton ground state"): n momentum nodes on a log
grid from p_min to p_max (fm^-1) and n_ang angular nodes.  The first row is
the grid of ``solve_triton``.  Prints CSV to stdout; each row takes 1.5-4 s
on 2 cores, and the whole loop peaks at about 950 MB.
"""
from efimov.cli import write_csv
from efimov.stm import SeparableKernel, TritonModel, bound_levels

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
    h2m = model.hbar2_over_m
    window = (-0.5, -1.02 * model.deuteron_energy / h2m)
    rows = []
    for n, n_ang, p_max, p_min in GRIDS:
        kern = SeparableKernel(
            model.form_factors(p_max), (1 / model.a_t, 1 / model.a_s),
            n=n, n_ang=n_ang, p_min=p_min, q_min=1e-4 * p_min,
        )
        rows.append((n, n_ang, p_max, p_min, -h2m * bound_levels(kern, window)[0]))
    write_csv("-", ["n", "n_ang", "p_max", "p_min", "binding_MeV"], rows)


if __name__ == "__main__":
    main()
