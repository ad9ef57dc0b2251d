#!/usr/bin/env python3
"""Convergence of the rank-one triton binding, the sweeps behind the knot
count of ``est_form_factor`` and the grid of ``solve_triton``.

Prints two CSV tables to stdout.  The first varies the K geometric knots on
which ``est_form_factor`` tabulates each fitted well's phi(p) for its cubic
spline: per K, the largest miss of the spline against the direct sine
transform at 3999 off-knot momenta up to 2.2 p_max (both wells), the
ground state on the doubled default grid, and its relative shift from the
K -> inf limit of the spline's O(K^-4) error, extrapolated from the last two
rows.  The second solves the ground
state on each grid of the README table ("Triton ground state"): n momentum
nodes on a log grid from p_min to p_max (fm^-1) and n_ang angular nodes, at
the default K, with its relative shift from the same row with n and n_ang
doubled, printed to 2 significant digits since it lies near rounding; and
the same for the unitarity levels, both channels at 1/a = 0 in
(-0.5, -1e-9) fm^-2, whose grid starts at p_min/100 (1e-6 by default),
with the number of those levels.  The first row is the grid of
``solve_triton``, and every row's kernel comes from the same
``TritonModel.kernel`` call.  The whole run takes
about 16 s on 2 cores.  At the end it prints its peak resident memory
(``ru_maxrss``) to stderr: 94 MB on a 2-core Linux host, reached on the
doubled grid (400, 64) of the first (200, 32) row.
"""
import math
import resource
import sys
from dataclasses import replace

import numpy as np

from efimov import two_body
from efimov.cli import write_csv
from efimov.stm import _TRITON_GRID, _TRITON_P_MAX, TritonModel, bound_levels

KNOTS = (800, 1600, 2400, 3200, 4800)
GRIDS = [  # n, n_ang, p_max, p_min
    (*_TRITON_GRID, _TRITON_P_MAX, 1e-4),
    (80, 16, 40.0, 1e-4),
    (120, 20, 40.0, 1e-4),
    (200, 32, 40.0, 1e-4),
    (160, 24, 60.0, 1e-4),
    (160, 24, 40.0, 1e-5),
    (200, 32, 60.0, 1e-5),
]


def binding(model, n, n_ang, p_max=_TRITON_P_MAX, p_min=1e-4):
    kern = model.kernel(model.inv_a, n, n_ang, p_min, p_max)
    return -model.hbar2_over_m * bound_levels(kern, model.trimer_window)[0]


def unitarity(model, n, n_ang, p_max, p_min):
    """The levels with both channels at 1/a = 0 on this grid."""
    return bound_levels(model.kernel((0.0, 0.0), n, n_ang, p_min, p_max), (-0.5, -1e-9))


def spline_miss(model, p_max=_TRITON_P_MAX):
    """Largest |spline - direct transform| of both wells' phi(p) between knots."""
    p = np.geomspace(1e-4, 2.2 * p_max, 4001)[1:-1]
    miss = 0.0
    for form, st in zip(model.form_factors(p_max), (model.triplet, model.singlet)):
        direct = 1.0 - two_body._sine_transform(st.r, 1.0 - st.r * st.inv_a - st.phi, p)
        miss = max(miss, np.max(np.abs(form(p) - direct)))
    return miss


def main():
    model = TritonModel.fit()
    n, n_ang = _TRITON_GRID
    default_knots, rows = two_body._FORM_KNOTS, []
    for k in KNOTS:
        two_body._FORM_KNOTS = k
        knot_model = replace(model)  # a model builds its form factors once: rebuild them
        rows.append((k, spline_miss(knot_model), binding(knot_model, 2 * n, 2 * n_ang)))
    two_body._FORM_KNOTS = default_knots
    # the K -> inf limit of the O(K^-4) spline error from the last two rows
    (k1, _, b1), (k2, _, b2) = rows[-2:]
    limit = b2 + (b2 - b1) / ((k2 / k1) ** 4 - 1.0)
    rows = [(*row, abs(row[2] / limit - 1.0)) for row in rows]
    header = ["knots", "spline_miss", f"binding_MeV_{2 * n}_{2 * n_ang}", "shift_vs_limit"]
    write_csv("-", header, rows)
    rows = []
    for n, n_ang, p_max, p_min in GRIDS:
        b = binding(model, n, n_ang, p_max, p_min)
        b2 = binding(model, 2 * n, 2 * n_ang, p_max, p_min)
        u = unitarity(model, n, n_ang, p_max, 1e-2 * p_min)
        u2 = unitarity(model, 2 * n, 2 * n_ang, p_max, 1e-2 * p_min)
        shift = max(abs(x / y - 1.0) for x, y in zip(u, u2)) if len(u) == len(u2) else math.inf
        rows.append((n, n_ang, p_max, p_min, b, f"{abs(b / b2 - 1.0):.1e}", len(u), f"{shift:.1e}"))
    header = ["n", "n_ang", "p_max", "p_min", "binding_MeV", "shift_vs_2x",
              "unitarity_levels", "unitarity_shift_vs_2x"]
    write_csv("-", header, rows)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"peak resident memory: {peak:.0f} MB", file=sys.stderr)


if __name__ == "__main__":
    main()
