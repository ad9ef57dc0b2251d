"""Workload inputs and the solver calls one benchmark pass makes.

Imported by the parent (``run.py``, to derive inputs and check outputs) and
by each fresh pass interpreter (``child.py``, to run them).  Keep it free of
heavy imports: the pass interpreter times its own start-up.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math

WORKLOADS = ("zero_range", "separable", "triton", "hyperradial")

# lambda0 = exp(pi/s0) for three identical bosons (mpmath, 30 digits).
LAMBDA0 = 22.694382595366695

# The seeded workloads move one input by lambda0**u.  u stays below 0.2 so
# that the fixed energy (zero_range) and kappa (hyperradial) windows always
# hold the same levels: past u ~ 0.24 a fourth zero-range trimer enters the
# window, which changes the work of a pass by ~8 % and would swamp the
# run-to-run bounds.
U_MAX = 0.2
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

ZERO_RANGE_CUTOFF = 1000.0  # `efimov stm --cutoff` default
HYPERRADIAL_R0 = 1.0  # `efimov hyperradial --R0` default
KAPPA_WINDOW = (1e-20, 10.0)  # widened --kappa-min; CLI default --kappa-max


def seed_phase(seed: int) -> float:
    """u in [0, U_MAX): a golden-ratio sequence, so seed 0 gives u = 0."""
    return U_MAX * ((seed * _GOLDEN) % 1.0)


def inputs(name: str, seed: int) -> dict:
    """Everything a pass runs, as plain data; only the seeded workloads
    depend on ``seed``."""
    scale = LAMBDA0 ** seed_phase(seed)
    if name == "zero_range":
        cutoff = ZERO_RANGE_CUTOFF * scale
        return {
            "argv": ["stm", "--model", "zero-range", "--cutoff", repr(cutoff)],
            "cutoff": cutoff,
            "n_max": 3,
        }
    if name == "separable":
        return {"argv": ["stm", "--model", "vdw"]}
    if name == "triton":
        return {"argv": ["triton"]}
    if name == "hyperradial":
        R0 = HYPERRADIAL_R0 * scale
        return {
            "argv": ["hyperradial", "--kappa-min", repr(KAPPA_WINDOW[0]), "--R0", repr(R0)],
            "R0": R0,
            "kappa_window": list(KAPPA_WINDOW),
        }
    raise ValueError(f"unknown workload {name!r}")


def _cli(argv) -> tuple[list[dict], list[str]]:
    """Run ``efimov <argv>`` in-process; returns CSV rows and trailing lines."""
    from efimov import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"efimov {' '.join(argv)} exited with {code}")
    lines = buf.getvalue().splitlines()
    table = [ln for ln in lines if "=" not in ln]
    extra = [ln for ln in lines if "=" in ln]
    return list(csv.DictReader(table)), extra


def run(name: str, inp: dict) -> dict:
    """One pass of a workload; returns the outputs the parent checks."""
    rows, extra = _cli(inp["argv"])
    if name == "zero_range":
        from efimov.stm import threshold_scattering_lengths

        a_minus = threshold_scattering_lengths(inp["cutoff"], n_max=inp["n_max"])
        return {
            "levels": [float(r["energy"]) for r in rows],
            "a_minus": [float(a) for a in a_minus],
        }
    if name == "separable":
        return {"levels": [float(r["energy"]) for r in rows]}
    if name == "triton":
        return {r["quantity"]: float(r["energy_scaled"]) for r in rows}
    if name == "hyperradial":
        phase = dict(ln.split("=", 1) for ln in extra)["three_body_phase"]
        return {
            "levels": [float(r["energy"]) for r in rows],
            "phase": float(phase),
        }
    raise ValueError(f"unknown workload {name!r}")
