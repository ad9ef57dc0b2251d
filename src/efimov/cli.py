"""Batch command-line front-end.

Subcommands cover every solver family plus a ``verify`` mode that runs the
built-in regression table of reference constants.  All internal physics is
in natural units; ``--hbar2-over-m`` (energy * length^2) converts reported
energies, so no physical constant is baked into the library.

Exit codes: 0 success, 1 verify failures, 2 configuration error,
3 solver non-convergence.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .numerics import BracketingError, ConvergenceError

_FMT = "%.11e"  # 12 significant digits, stable for golden files


class ConfigError(Exception):
    pass


class _Unset(float):
    """An option's default value, told apart by type from the same value
    given explicitly."""


def _fmt(x) -> str:
    return _FMT % float(x)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)


def write_manifest(path, subcommand, inputs, outputs):
    doc = {
        "subcommand": subcommand,
        "inputs": inputs,
        "outputs": outputs,
        "version": __version__,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def read_config(path) -> dict:
    """key = value lines; '#' comments; values parsed as JSON scalars when
    possible, else kept as strings."""
    out = {}
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, raw in enumerate(f, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, val = (s.strip() for s in line.split("=", 1))
                if not key:
                    raise ConfigError(f"{path}:{lineno}: empty key")
                try:
                    out[key.replace("-", "_")] = json.loads(val)
                except json.JSONDecodeError:
                    out[key.replace("-", "_")] = val
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    return out


def _apply_config(parser, args):
    """Make the --config file's values the subcommand's defaults, so that
    options given on the command line win.  Each key must be an option of
    the subcommand, and each value passes the option's type and choices as
    on the command line."""
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    subparser = sub.choices[args.subcommand]
    options = {
        a.dest: a for a in subparser._actions if a.option_strings and hasattr(args, a.dest)
    }
    defaults = {}
    for key, val in read_config(args.config).items():
        if key not in options:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            defaults[key] = _option_value(options[key], val)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r}: bad value {val!r}") from exc
    subparser.set_defaults(**defaults)


def _option_value(action, val):
    if action.nargs == 0:  # a flag
        if not isinstance(val, bool):
            raise TypeError("a flag takes true or false")
        return val
    many = action.nargs == "*" or isinstance(action, argparse._AppendAction)
    if many and not isinstance(val, list):
        raise TypeError("a list option takes a list")
    out = [(action.type or str)(str(v)) for v in (val if many else [val])]
    if action.choices is not None and any(v not in action.choices for v in out):
        raise ValueError(f"not one of {action.choices}")
    return out if many else out[0]


def _parse_a(text) -> float:
    if text in ("inf", "+inf", "unitarity"):
        return math.inf
    if text == "-inf":
        return -math.inf
    try:
        a = float(text)
    except ValueError as exc:
        raise ConfigError(f"bad scattering length {text!r}") from exc
    if a == 0:
        raise ConfigError("scattering length must be nonzero (use 'inf' for unitarity)")
    return a


# ---------------------------------------------------------------------------
# subcommands


def cmd_universal(args):
    from .universal import delta, threshold_constants, trimer_point, universal_relations

    inv_a = np.linspace(args.inv_a_min, args.inv_a_max, args.points)
    rows = []
    for ia in inv_a:
        for n in range(args.levels):
            pt = trimer_point(n, float(ia), args.kappa_star)
            if pt is not None:
                rows.append((float(ia), n, pt.kappa))
    write_csv(args.output, ["inv_a", "level", "kappa"], rows)
    outputs = [args.output]
    if args.constants:
        km, ks = threshold_constants()
        am, ap, ast = universal_relations(args.kappa_star)
        with open(args.constants, "w", encoding="utf-8", newline="\n") as f:
            json.dump(
                {
                    "delta_at_minus_pi": float(delta(-math.pi)),
                    "kappa_star_a_minus_from_delta": km,
                    "kappa_star_a_star_from_delta": ks,
                    "a_minus": am,
                    "a_plus": ap,
                    "a_star": ast,
                },
                f, indent=2, sort_keys=True,
            )
            f.write("\n")
        outputs.append(args.constants)
    if args.manifest:
        write_manifest(args.manifest, "universal", vars_of(args), outputs)
    return 0


def cmd_channels(args):
    from . import channels as ch

    rows = [
        ("s0", ch.S0),
        ("lambda0", ch.LAMBDA0),
        ("s0_two_pair", ch.S0_TWO_PAIR),
        ("lambda0_two_pair", math.exp(math.pi / ch.S0_TWO_PAIR)),
        ("rho_star", ch.RHO_STAR),
    ]
    if args.mass_ratio is not None:
        exp = ch.two_plus_one_exponent(
            args.mass_ratio, statistics=args.system, ell=args.ell
        )
        rows.append(("s_squared_2plus1", exp.s_squared))
    if not args.unitarity:
        for rho in args.rho:
            rows.append((f"s2_lowest@{rho:g}", ch.s2_lowest(float(rho))))
    write_csv(args.output, ["quantity", "value"], rows)
    if args.manifest:
        write_manifest(args.manifest, "channels", vars_of(args), [args.output])
    return 0


def cmd_hyperradial(args):
    from .channels import S0
    from .hyperradial import HyperradialChannel, solve_bound_states, three_body_phase

    if args.s0 is not None and not args.s0 > 0:
        raise ConfigError("--s0 must be positive")
    chan = HyperradialChannel(
        s_squared=-(S0**2) if args.s0 is None else -(args.s0**2),
        R0=args.R0,
        boundary=args.boundary,
        boundary_value=args.boundary_value,
    )
    states = solve_bound_states(chan, (args.kappa_min, args.kappa_max))
    rows = []
    for lvl, E in enumerate(states.energies):
        rows.append((lvl, E, -math.sqrt(-E) if E < 0 else 0.0, E * args.hbar2_over_m))
    write_csv(args.output, ["level", "energy", "kappa", "energy_scaled"], rows)
    phase = three_body_phase(chan, args.reference_scale)
    print(f"three_body_phase={phase:.12g}")
    if args.manifest:
        write_manifest(args.manifest, "hyperradial", vars_of(args), [args.output])
    return 0


def cmd_stm(args):
    from .stm import (
        solve_trimers_narrow_resonance,
        solve_trimers_separable,
        solve_trimers_zero_range,
    )
    from .two_body import step_form_factor, universal_tail_form_factor

    a = _parse_a(args.a)
    window = (args.E_min, args.E_max)
    for opt, given, model in (
        ("--cutoff", not isinstance(args.cutoff, _Unset), "zero-range"),
        ("--exact-domain", args.exact_domain, "zero-range"),
        ("--r-star", not isinstance(args.r_star, _Unset), "narrow-resonance"),
    ):
        if given and args.model != model:
            raise ConfigError(f"{opt} applies only to --model {model}, not {args.model}")
    if args.model == "zero-range":
        lev = solve_trimers_zero_range(
            a, args.cutoff, window, exact_domain=args.exact_domain
        )
    elif args.model == "narrow-resonance":
        lev = solve_trimers_narrow_resonance(a, args.r_star, window)
    else:
        inv_a = 0.0 if math.isinf(a) else 1.0 / a
        if args.model == "step":
            form = step_form_factor(1.0, inv_a=inv_a)
        else:  # vdw is the n = 6 tail
            form = universal_tail_form_factor(4 if args.model == "power4" else 6, inv_a)
        lev = solve_trimers_separable(form, a, window)
    rows = []
    for i, E in enumerate(lev):
        ratio = lev[i - 1] / E if i else float("nan")
        rows.append((i, E, E * args.hbar2_over_m, ratio))
    write_csv(args.output, ["level", "energy", "energy_scaled", "ratio_to_previous"], rows)
    if args.manifest:
        write_manifest(args.manifest, "stm", vars_of(args), [args.output])
    return 0


def cmd_triton(args):
    from .stm import TritonModel, solve_triton

    model = TritonModel.fit(
        a_t=args.a_t, r_et=args.r_et, a_s=args.a_s, r_es=args.r_es,
        hbar2_over_m=args.hbar2_over_m,
    )
    res = solve_triton(model)
    rows = [("deuteron_effective_range", res.deuteron)]
    rows.append(("deuteron_separable_pole", res.deuteron_separable))
    for i, E in enumerate(res.trimers):
        rows.append((f"trimer_{i}", E))
    write_csv(args.output, ["quantity", "energy_scaled"], rows)
    if args.manifest:
        write_manifest(args.manifest, "triton", vars_of(args), [args.output])
    return 0


def cmd_bo(args):
    from .born_oppenheimer import bonding_kappa, effective_potential, s0_estimate

    a = _parse_a(args.a)
    R = np.geomspace(args.R_min, args.R_max, args.points)
    rows = []
    for r in R:
        kap = bonding_kappa(float(r), a)
        if math.isnan(kap):
            continue
        rows.append(
            (
                float(r),
                kap,
                -0.5 * kap * kap,
                effective_potential(float(r), a, args.L, args.mass_ratio),
            )
        )
    write_csv(args.output, ["R", "kappa", "epsilon", "V_eff"], rows)
    s0 = s0_estimate(args.mass_ratio, args.L)
    print(f"s0_estimate={s0:.12g}")
    if args.manifest:
        write_manifest(args.manifest, "bo", vars_of(args), [args.output])
    return 0


def cmd_twobody(args):
    from .two_body import TwoBodyModel, dimer_energy, solve_zero_energy

    params = {}
    for item in args.param:
        if "=" not in item:
            raise ConfigError(f"--param needs key=value, got {item!r}")
        key, val = item.split("=", 1)
        params[key] = float(val)
    model = TwoBodyModel(args.potential, params)
    state = solve_zero_energy(model)
    rows = [("a", 1.0 / state.inv_a if state.inv_a else math.inf), ("r_e", state.r_e)]
    if state.inv_a > 0:
        Ed = dimer_energy(state.inv_a, state.r_e)
        rows.append(("dimer_effective_range", Ed * args.hbar2_over_m))
    write_csv(args.output, ["quantity", "value"], rows)
    if args.manifest:
        write_manifest(args.manifest, "twobody", vars_of(args), [args.output])
    return 0


def _verify_table():
    """(name, computed, reference, relative tolerance) regression rows."""
    from . import born_oppenheimer as bo
    from . import channels as ch
    from .stm import solve_trimers_zero_range, threshold_scattering_lengths
    from .two_body import half_effective_range_tail
    from .universal import threshold_constants

    rows = []
    rows.append(("boson_s0", ch.S0, 1.0062378251, 1e-8))
    rows.append(("scaling_ratio", ch.LAMBDA0, 22.694382595, 1e-8))
    rows.append(("two_pair_ratio", math.exp(math.pi / ch.S0_TWO_PAIR), 1986.12, 1e-4))
    rows.append(
        ("fermion_critical_mass_ratio", ch.critical_mass_ratio("fermions", 1),
         13.6069657, 1e-6)
    )
    km, ks = threshold_constants()
    rows.append(("kappa_star_a_minus", km, -1.50763, 5e-3))
    rows.append(("kappa_star_a_star", ks, 0.0707645086901, 5e-3))
    rows.append(("omega_constant", bo.OMEGA, 0.567143290409784, 1e-10))
    rows.append(("bo_critical_L1", bo.BO_CRITICAL_L1, 13.990296, 1e-4))
    rows.append(("half_re_over_l4", half_effective_range_tail(4), 2 * math.pi / 3, 1e-3))
    rows.append(("half_re_over_l6", half_effective_range_tail(6), 1.3947329, 1e-3))
    lev = solve_trimers_zero_range(math.inf, 1000.0, (-1e7, -1e-3))
    rows.append(("zero_range_energy_ratio", lev[1] / lev[2], 515.035, 1e-2))
    am = threshold_scattering_lengths(1000.0)
    rows.append(("a_minus_ratio", am[2] / am[1], 22.694, 5e-3))
    return rows


def cmd_verify(args):
    failures = 0
    for name, got, ref, tol in _verify_table():
        ok = math.isfinite(got) and abs(got - ref) <= tol * abs(ref)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {got:.10g} (reference {ref:.10g})")
        if not ok:
            failures += 1
    print(f"{failures} failure(s)" if failures else "all constants verified")
    return 1 if failures else 0


# ---------------------------------------------------------------------------


def vars_of(args) -> dict:
    skip = {"func", "config", "manifest"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def build_parser():
    p = argparse.ArgumentParser(prog="efimov", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--config", help="key=value configuration file")
        sp.add_argument("--output", default="-", help="CSV output path ('-' = stdout)")
        sp.add_argument("--manifest", help="JSON run-manifest path")

    def energy_unit(sp, default=1.0):
        sp.add_argument(
            "--hbar2-over-m", dest="hbar2_over_m", type=float, default=default,
            help="energy*length^2 unit constant (e.g. 41.46 MeV fm^2)",
        )

    sp = sub.add_parser("universal", help="universal trimer curves")
    common(sp)
    sp.add_argument("--kappa-star", dest="kappa_star", type=float, default=1.0)
    sp.add_argument("--inv-a-min", dest="inv_a_min", type=float, default=-0.6)
    sp.add_argument("--inv-a-max", dest="inv_a_max", type=float, default=10.0)
    sp.add_argument("--points", type=int, default=101)
    sp.add_argument("--levels", type=int, default=3)
    sp.add_argument("--constants", help="JSON constants-table path")
    sp.set_defaults(func=cmd_universal)

    sp = sub.add_parser("channels", help="hyperangular channel exponents")
    common(sp)
    sp.add_argument("--system", default="bosons")
    sp.add_argument("--unitarity", action="store_true")
    sp.add_argument("--rho", type=float, nargs="*", default=[])
    sp.add_argument("--mass-ratio", dest="mass_ratio", type=float)
    sp.add_argument("--ell", type=int)
    sp.set_defaults(func=cmd_channels)

    sp = sub.add_parser("hyperradial", help="hyperradial bound states and phase")
    common(sp)
    energy_unit(sp)
    sp.add_argument("--R0", type=float, default=1.0)
    sp.add_argument("--s0", type=float, help="fixed |s0| (default: boson value)")
    sp.add_argument("--boundary", default="hard_wall",
                    choices=["hard_wall", "log_derivative"])
    sp.add_argument("--boundary-value", dest="boundary_value", type=float, default=0.0)
    sp.add_argument("--kappa-min", dest="kappa_min", type=float, default=1e-6)
    sp.add_argument("--kappa-max", dest="kappa_max", type=float, default=10.0)
    sp.add_argument("--reference-scale", dest="reference_scale", type=float, default=1.0)
    sp.set_defaults(func=cmd_hyperradial)

    sp = sub.add_parser("stm", help="momentum-space trimer spectra")
    common(sp)
    energy_unit(sp)
    sp.add_argument("--model", default="zero-range",
                    choices=["zero-range", "narrow-resonance", "vdw", "step",
                             "power4", "power6"])
    sp.add_argument("--a", default="inf")
    sp.add_argument("--cutoff", type=float, default=_Unset(1000.0))
    sp.add_argument("--r-star", dest="r_star", type=float, default=_Unset(1.0))
    sp.add_argument("--E-min", dest="E_min", type=float, default=-1e7)
    sp.add_argument("--E-max", dest="E_max", type=float, default=-1e-3)
    sp.add_argument("--exact-domain", dest="exact_domain", action="store_true")
    sp.set_defaults(func=cmd_stm)

    sp = sub.add_parser("triton", help="two-channel nucleon model")
    common(sp)
    energy_unit(sp, 41.46)
    sp.add_argument("--a-t", dest="a_t", type=float, default=5.4112)
    sp.add_argument("--r-et", dest="r_et", type=float, default=1.7436)
    sp.add_argument("--a-s", dest="a_s", type=float, default=-23.7148)
    sp.add_argument("--r-es", dest="r_es", type=float, default=2.750)
    sp.set_defaults(func=cmd_triton)

    sp = sub.add_parser("bo", help="heavy-heavy-light adiabatic curves")
    common(sp)
    sp.add_argument("--a", default="1.0")
    sp.add_argument("--mass-ratio", dest="mass_ratio", type=float, default=20.0)
    sp.add_argument("--L", type=int, default=0)
    sp.add_argument("--R-min", dest="R_min", type=float, default=1e-3)
    sp.add_argument("--R-max", dest="R_max", type=float, default=10.0)
    sp.add_argument("--points", type=int, default=200)
    sp.set_defaults(func=cmd_bo)

    sp = sub.add_parser("twobody", help="two-body scattering observables")
    common(sp)
    energy_unit(sp)
    sp.add_argument("--potential", default="poschl_teller")
    sp.add_argument("--param", action="append", default=[],
                    help="potential parameter key=value (repeatable)")
    sp.set_defaults(func=cmd_twobody)

    sp = sub.add_parser("verify", help="regression table of reference constants")
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            _apply_config(parser, args)
            args = parser.parse_args(argv)
        return args.func(args)
    except (ConvergenceError, BracketingError) as exc:
        # before ValueError: BracketingError subclasses it
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
