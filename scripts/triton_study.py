#!/usr/bin/env python3
"""Two-channel nucleon study: physical point and the unitary limit.

Fits sech^2 wells to the triplet and singlet (a, r_e) pairs, solves the
coupled spectator equations for the three-nucleon ground state, then sets
both inverse scattering lengths to zero to expose the underlying discrete
scaling.
"""
import argparse
import math

from efimov.cli import write_csv
from efimov.stm import TritonModel, solve_triton, solve_triton_unitarity


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a-t", type=float, default=5.4112)
    ap.add_argument("--r-et", type=float, default=1.7436)
    ap.add_argument("--a-s", type=float, default=-23.7148)
    ap.add_argument("--r-es", type=float, default=2.750)
    ap.add_argument("--hbar2-over-m", type=float, default=41.46)
    ap.add_argument("--output", default="-", help="CSV output path")
    args = ap.parse_args()

    model = TritonModel.fit(args.a_t, args.r_et, args.a_s, args.r_es,
                            args.hbar2_over_m)
    print(f"channel fit residual: {model.fit_residual:.2e}")

    res = solve_triton(model)
    rows = [
        ("deuteron_MeV", res.deuteron),
        ("deuteron_separable_MeV", res.deuteron_separable),
    ]
    for i, E in enumerate(res.trimers):
        rows.append((f"trimer_{i}_MeV", E))

    uni = solve_triton_unitarity(model)
    for i, E in enumerate(uni):
        rows.append((f"unitarity_{i}", E))
    if len(uni) >= 3:
        rows.append(("unitarity_kappa_ratio", math.sqrt(uni[1] / uni[2])))
    write_csv(args.output, ["quantity", "value"], rows)


if __name__ == "__main__":
    main()
