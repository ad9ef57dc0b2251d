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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise ConfigError, for ``main`` to
    return 2 with, instead of exiting: a value that fails its option's type,
    an unknown option and a missing subcommand alike."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


class _Unset(float):
    """An option's default value, told apart by type from the same value
    given explicitly."""


class _UnsetName(str):
    """As _Unset, for an option that takes a name."""


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


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_outputs(args, header, rows, more_outputs=()):
    """The subcommand's CSV table, then, with --manifest, a record of the
    subcommand, its options, its output paths and the library version."""
    write_csv(args.output, header, rows)
    if args.manifest:
        inputs = {k: v for k, v in vars(args).items() if k not in ("func", "config", "manifest")}
        _write_json(args.manifest, {
            "subcommand": args.subcommand,
            "inputs": inputs,
            "outputs": [args.output, *more_outputs],
            "version": __version__,
        })


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
        except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
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
    if math.isnan(a):
        raise ConfigError("scattering length must be a number, not nan")
    if a == 0:
        raise ConfigError("scattering length must be nonzero (use 'inf' for unitarity)")
    return a


def _domain(rule, test, kind=float):
    """An argparse type that takes ``kind(text)`` only if it passes
    ``test``: an option's domain, checked where its value is parsed, from
    the command line or from --config alike."""

    def parse(text):
        try:
            x = kind(text)
            if test(x):
                return x
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")

    return parse


_FINITE = _domain("finite", math.isfinite)
_POSITIVE = _domain("finite and positive", lambda x: math.isfinite(x) and x > 0)
_NONZERO = _domain("finite and nonzero", lambda x: math.isfinite(x) and x != 0)
_COUNT = _domain("an integer of at least 1", lambda n: n >= 1, int)
_ANGULAR_MOMENTUM = _domain("an integer of at least 0", lambda n: n >= 0, int)
_POSITIVE_OR_INF = _domain("positive, or inf", lambda x: x > 0)


# ---------------------------------------------------------------------------
# subcommands


def cmd_universal(args):
    from .universal import delta, threshold_constants, trimer_point, universal_relations

    inv_a = np.linspace(args.inv_a_min, args.inv_a_max, args.points)
    rows = []
    for ia in inv_a:
        for n in range(args.levels):
            kappa = trimer_point(n, float(ia), args.kappa_star)
            if kappa is not None:
                rows.append((float(ia), n, kappa))
    more_outputs = []
    if args.constants:
        km, ks = threshold_constants()
        am, ap, ast = universal_relations(args.kappa_star)
        _write_json(args.constants, {
            "delta_at_minus_pi": float(delta(-math.pi)),
            "kappa_star_a_minus_from_delta": km,
            "kappa_star_a_star_from_delta": ks,
            "a_minus": am,
            "a_plus": ap,
            "a_star": ast,
        })
        more_outputs.append(args.constants)
    _write_outputs(args, ["inv_a", "level", "kappa"], rows, more_outputs)
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
    for opt, unread, needs in (
        ("--rho", args.unitarity and args.rho, "without --unitarity"),
        ("--system", args.mass_ratio is None and not isinstance(args.system, _UnsetName),
         "with --mass-ratio"),
        ("--ell", args.mass_ratio is None and args.ell is not None, "with --mass-ratio"),
    ):
        if unread:
            raise ConfigError(f"{opt} applies only {needs}")
    if args.mass_ratio is not None:
        s2 = ch.two_plus_one_exponent(args.mass_ratio, statistics=args.system, ell=args.ell)
        rows.append(("s_squared_2plus1", s2))
    if not args.unitarity:
        for rho in args.rho:
            rows.append((f"s2_lowest@{rho:g}", ch.s2_lowest(float(rho))))
    _write_outputs(args, ["quantity", "value"], rows)
    return 0


def cmd_hyperradial(args):
    from .channels import S0
    from .hyperradial import HyperradialChannel, solve_bound_states, three_body_phase

    chan = HyperradialChannel(
        s_squared=-(S0**2) if args.s0 is None else -(args.s0**2),
        R0=args.R0,
        boundary=args.boundary,
        boundary_value=args.boundary_value,
    )
    phase = three_body_phase(chan, args.reference_scale)
    states = solve_bound_states(chan, (args.kappa_min, args.kappa_max))
    rows = []
    for lvl, E in enumerate(states.energies):
        rows.append((lvl, E, -math.sqrt(-E) if E < 0 else 0.0, E * args.hbar2_over_m))
    _write_outputs(args, ["level", "energy", "kappa", "energy_scaled"], rows)
    print(f"three_body_phase={phase:.12g}")
    return 0


def cmd_stm(args):
    from .stm import (
        _STEP_GRID, SeparableKernel, StmKernel, bound_levels, solve_trimers_narrow_resonance,
    )
    from .two_body import step_form_factor, universal_tail_form_factor

    a = _parse_a(args.a)
    inv_a = 0.0 if math.isinf(a) else 1.0 / a
    window = (args.E_min, args.E_max)
    for opt, given, model in (
        ("--cutoff", not isinstance(args.cutoff, _Unset), "zero-range"),
        ("--r-star", not isinstance(args.r_star, _Unset), "narrow-resonance"),
    ):
        if given and args.model != model:
            raise ConfigError(f"{opt} applies only to --model {model}, not {args.model}")
    if args.model == "narrow-resonance":
        lev = solve_trimers_narrow_resonance(inv_a, args.r_star, window)
    else:
        if args.model == "zero-range":
            kern = StmKernel(inv_a, args.cutoff)
        elif args.model == "step":
            kern = SeparableKernel(step_form_factor(1.0), inv_a, *_STEP_GRID)
        else:  # vdw is the n = 6 tail
            form = universal_tail_form_factor(4 if args.model == "power4" else 6, inv_a)
            kern = SeparableKernel(form, inv_a)
        lev = bound_levels(kern, window)
    rows = []
    for i, E in enumerate(lev):
        ratio = lev[i - 1] / E if i else float("nan")
        rows.append((i, E, E * args.hbar2_over_m, ratio))
    _write_outputs(args, ["level", "energy", "energy_scaled", "ratio_to_previous"], rows)
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
    _write_outputs(args, ["quantity", "energy_scaled"], rows)
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
    _write_outputs(args, ["R", "kappa", "epsilon", "V_eff"], rows)
    s0 = s0_estimate(args.mass_ratio, args.L)
    print(f"s0_estimate={s0:.12g}")
    return 0


def cmd_twobody(args):
    from .two_body import TwoBodyModel, VirtualStateError, dimer_energy, solve_zero_energy

    params = {}
    for item in args.param:
        if "=" not in item:
            raise ConfigError(f"--param needs key=value, got {item!r}")
        key, val = item.split("=", 1)
        params[key] = float(val)
        if not math.isfinite(params[key]):
            raise ConfigError(f"--param {key} must be finite, got {val!r}")
    model = TwoBodyModel(args.potential, params)
    scale = model.length_scale  # complex for a negative c6 or cn
    if isinstance(scale, complex) or not scale > 0:
        raise ConfigError(f"{args.potential} needs a positive length scale, got {scale!r}")
    state = solve_zero_energy(model)
    rows = [("a", state.a), ("r_e", state.r_e)]
    try:
        Ed = dimer_energy(state.inv_a, state.r_e)
    except VirtualStateError:  # 1 - 2 r_e/a < 0: the pole is a virtual state
        Ed = None
    if Ed is not None:  # None for 1/a <= 0
        rows.append(("dimer_effective_range", Ed * args.hbar2_over_m))
    _write_outputs(args, ["quantity", "value"], rows)
    return 0


def _verify_table():
    """(name, computed, reference, relative tolerance) regression rows."""
    from . import born_oppenheimer as bo
    from . import channels as ch
    from .stm import StmKernel, bound_levels, dissociation_lengths, threshold_scattering_lengths
    from .two_body import (
        TwoBodyModel, half_effective_range_tail, solve_zero_energy, universal_tail_form_factor,
    )
    from .universal import threshold_constants

    rows = []
    rows.append(("boson_s0", ch.S0, 1.0062378251, 1e-8))
    rows.append(("scaling_ratio", ch.LAMBDA0, 22.694382595, 1e-8))
    rows.append(("two_pair_ratio", math.exp(math.pi / ch.S0_TWO_PAIR), 1986.12, 1e-4))
    rows.append(
        ("fermion_critical_mass_ratio", ch.critical_mass_ratio("fermions", 1),
         13.6069656978994, 1e-12)
    )
    km, ks = threshold_constants()
    rows.append(("kappa_star_a_minus", km, -1.50763, 5e-3))
    rows.append(("kappa_star_a_star", ks, 0.0707645086901, 5e-3))
    rows.append(("omega_constant", bo.OMEGA, 0.567143290409784, 1e-10))
    rows.append(("bo_critical_L1", bo.BO_CRITICAL_L1, 13.990296, 1e-4))
    rows.append(("half_re_over_l4", half_effective_range_tail(4), 2 * math.pi / 3, 1e-12))
    rows.append(("half_re_over_l6", half_effective_range_tail(6), 1.3947328267375, 1e-12))
    # the ODE layer against the closed-form r_e of a sech^2 well
    pt = solve_zero_energy(TwoBodyModel("poschl_teller", {"lambda": 1.3, "range": 1.0}))
    rows.append(("poschl_teller_r_e", pt.r_e, 1.44550663144349, 1e-10))
    lev = bound_levels(StmKernel(0.0, 1000.0), (-1e7, -1e-3))
    rows.append(("zero_range_energy_ratio", lev[1] / lev[2], ch.LAMBDA0**2, 1e-3))
    am = threshold_scattering_lengths(1000.0)
    rows.append(("a_minus_ratio", am[2] / am[1], ch.LAMBDA0, 1e-3))
    vdw = dissociation_lengths(lambda inv_a: universal_tail_form_factor(6, inv_a))
    rows.append(("vdw_a_minus_ground", vdw[0], -10.86, 3e-2))
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


def build_parser():
    p = _Parser(prog="efimov", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--config", help="key=value configuration file")
        sp.add_argument("--output", default="-", help="CSV output path ('-' = stdout)")
        sp.add_argument("--manifest", help="JSON run-manifest path")

    def energy_unit(sp, default=1.0):
        sp.add_argument(
            "--hbar2-over-m", dest="hbar2_over_m", type=_POSITIVE, default=default,
            help="energy*length^2 unit constant (e.g. 41.46 MeV fm^2)",
        )

    sp = sub.add_parser("universal", help="universal trimer curves")
    common(sp)
    sp.add_argument("--kappa-star", dest="kappa_star", type=_POSITIVE, default=1.0)
    sp.add_argument("--inv-a-min", dest="inv_a_min", type=_FINITE, default=-0.6)
    sp.add_argument("--inv-a-max", dest="inv_a_max", type=_FINITE, default=10.0)
    sp.add_argument("--points", type=_COUNT, default=101)
    sp.add_argument("--levels", type=_COUNT, default=3)
    sp.add_argument("--constants", help="JSON constants-table path")
    sp.set_defaults(func=cmd_universal)

    sp = sub.add_parser("channels", help="hyperangular channel exponents")
    common(sp)
    sp.add_argument("--system", default=_UnsetName("bosons"))
    sp.add_argument("--unitarity", action="store_true")
    sp.add_argument("--rho", type=_FINITE, nargs="*", default=[])
    sp.add_argument("--mass-ratio", dest="mass_ratio", type=_POSITIVE)
    sp.add_argument("--ell", type=_ANGULAR_MOMENTUM)
    sp.set_defaults(func=cmd_channels)

    sp = sub.add_parser("hyperradial", help="hyperradial bound states and phase")
    common(sp)
    energy_unit(sp)
    sp.add_argument("--R0", type=_POSITIVE, default=1.0)
    sp.add_argument("--s0", type=_POSITIVE, help="fixed |s0| (default: boson value)")
    sp.add_argument("--boundary", default="hard_wall",
                    choices=["hard_wall", "log_derivative"])
    sp.add_argument("--boundary-value", dest="boundary_value", type=_FINITE, default=0.0)
    sp.add_argument("--kappa-min", dest="kappa_min", type=_POSITIVE, default=1e-6)
    sp.add_argument("--kappa-max", dest="kappa_max", type=_POSITIVE_OR_INF, default=10.0,
                    help="inf: no upper bound")
    sp.add_argument("--reference-scale", dest="reference_scale", type=_POSITIVE, default=1.0)
    sp.set_defaults(func=cmd_hyperradial)

    sp = sub.add_parser("stm", help="momentum-space trimer spectra")
    common(sp)
    energy_unit(sp)
    sp.add_argument("--model", default="zero-range",
                    choices=["zero-range", "narrow-resonance", "vdw", "step",
                             "power4", "power6"])
    sp.add_argument("--a", default="inf")
    sp.add_argument("--cutoff", type=_POSITIVE, default=_Unset(1000.0))
    sp.add_argument("--r-star", dest="r_star", type=_POSITIVE, default=_Unset(1.0))
    sp.add_argument("--E-min", dest="E_min", type=_FINITE, default=-1e7)
    sp.add_argument("--E-max", dest="E_max", type=_FINITE, default=-1e-3)
    sp.set_defaults(func=cmd_stm)

    sp = sub.add_parser("triton", help="two-channel nucleon model")
    common(sp)
    energy_unit(sp, 41.46)
    sp.add_argument("--a-t", dest="a_t", type=_NONZERO, default=5.4112)
    sp.add_argument("--r-et", dest="r_et", type=_POSITIVE, default=1.7436)
    sp.add_argument("--a-s", dest="a_s", type=_NONZERO, default=-23.7148)
    sp.add_argument("--r-es", dest="r_es", type=_POSITIVE, default=2.750)
    sp.set_defaults(func=cmd_triton)

    sp = sub.add_parser("bo", help="heavy-heavy-light adiabatic curves")
    common(sp)
    sp.add_argument("--a", default="1.0")
    sp.add_argument("--mass-ratio", dest="mass_ratio", type=_POSITIVE, default=20.0)
    sp.add_argument("--L", type=_ANGULAR_MOMENTUM, default=0)
    sp.add_argument("--R-min", dest="R_min", type=_POSITIVE, default=1e-3)
    sp.add_argument("--R-max", dest="R_max", type=_POSITIVE, default=10.0)
    sp.add_argument("--points", type=_COUNT, default=200)
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
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
