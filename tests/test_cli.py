import ast
import collections
import functools
import inspect
import json
import math

import numpy as np
import pytest

from efimov import __version__, numerics, two_body
from efimov.cli import ConfigError, _fmt, build_parser, main, read_config
from efimov.numerics import BracketingError, ConvergenceError
from efimov.stm import SeparableKernel, StmKernel, TritonModel, bound_levels
from efimov.two_body import step_form_factor, universal_tail_form_factor


def run(argv):
    return main(argv)


def test_channels_output_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["channels", "--rho", "0.0", "-0.5", "--output", str(out1)]) == 0
    assert run(["channels", "--rho", "0.0", "-0.5", "--output", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    text = b1.decode("utf-8")
    assert "\r" not in text
    assert text.splitlines()[0] == "quantity,value"
    vals = dict(line.split(",") for line in text.splitlines()[1:])
    assert float(vals["s0"]) == pytest.approx(1.00624, abs=1e-5)
    assert float(vals["lambda0"]) == pytest.approx(22.694, abs=1e-3)


def test_universal_csv_and_manifest(tmp_path):
    out = tmp_path / "u.csv"
    man = tmp_path / "u.json"
    const = tmp_path / "c.json"
    rc = run(
        [
            "universal", "--points", "5", "--inv-a-min", "-0.4", "--inv-a-max", "1.0",
            "--levels", "2", "--output", str(out), "--manifest", str(man),
            "--constants", str(const),
        ]
    )
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "inv_a,level,kappa"
    for line in lines[1:]:
        inv_a, level, kappa = line.split(",")
        assert float(kappa) < 0
        assert int(level) in (0, 1)
    doc = json.loads(man.read_text())
    assert doc["version"] == __version__
    assert doc["subcommand"] == "universal"
    assert doc["inputs"]["points"] == 5
    assert str(out) in doc["outputs"]
    cdoc = json.loads(const.read_text())
    assert cdoc["kappa_star_a_minus_from_delta"] == pytest.approx(-1.507, abs=5e-3)


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("points = 4\ninv-a-min = -0.2  # comment\n\n", encoding="utf-8")
    parsed = read_config(str(cfg))
    assert parsed == {"points": 4, "inv_a_min": -0.2}
    out = tmp_path / "u.csv"
    rc = run(["universal", "--config", str(cfg), "--output", str(out)])
    assert rc == 0


def test_command_line_overrides_config(tmp_path):
    # --config values are defaults: an option given on the command line wins
    cfg = tmp_path / "run.cfg"
    cfg.write_text("points = 2\n", encoding="utf-8")
    out = tmp_path / "u.csv"
    argv = ["universal", "--points", "5", "--levels", "1", "--config", str(cfg)]
    assert run(argv + ["--output", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 5

    # the repeatable --param takes a list; entries given on the command
    # line follow the config's, so a key repeated there wins
    def a_of(*argv):
        assert run(["twobody", *argv, "--output", str(out)]) == 0
        return dict(l.split(",") for l in out.read_text().splitlines()[1:])["a"]

    cfg.write_text('param = ["lambda=1.3", "range=1.0"]\n', encoding="utf-8")
    assert a_of("--config", str(cfg)) == a_of("--param", "lambda=1.3", "--param", "range=1.0")
    assert a_of("--config", str(cfg), "--param", "range=2.0") == a_of(
        "--param", "lambda=1.3", "--param", "range=2.0"
    )


def test_config_errors_exit_2(tmp_path):
    assert run(["universal", "--config", str(tmp_path / "missing.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("this has no equals sign\n", encoding="utf-8")
    assert run(["universal", "--config", str(bad)]) == 2
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("no_such_key = 1\n", encoding="utf-8")
    assert run(["universal", "--config", str(unknown)]) == 2
    # an attribute of the parsed arguments that is not an option
    dispatch = tmp_path / "dispatch.cfg"
    dispatch.write_text("func = 1\n", encoding="utf-8")
    assert run(["channels", "--config", str(dispatch)]) == 2
    # a value the option's type rejects
    mistyped = tmp_path / "mistyped.cfg"
    mistyped.write_text('points = "many"\n', encoding="utf-8")
    assert run(["universal", "--config", str(mistyped)]) == 2
    # a repeatable option takes a list, not one string
    scalar = tmp_path / "scalar.cfg"
    scalar.write_text('param = "lambda=1.3"\n', encoding="utf-8")
    assert run(["twobody", "--config", str(scalar), "--param", "range=1.0"]) == 2
    # an output path that cannot be written
    for opt in ("--output", "--manifest", "--constants"):
        assert run(["universal", "--points", "2", opt, str(tmp_path / "no" / "x")]) == 2, opt
    with pytest.raises(ConfigError):
        read_config(str(bad))


BAD_NUMBERS = ("nan", "inf", "-inf", "0", "-1")


def test_invalid_values_exit_2(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    # kappa_star <= 0 is a domain error in the universal formula
    assert run(["universal", "--kappa-star", "-1.0", "--output", out]) == 2
    assert run(["stm", "--a", "bogus", "--output", out]) == 2
    assert run(["stm", "--E-min", "-1.0", "--E-max", "1.0", "--output", out]) == 2
    # a = 0 is no scattering length; unitarity is spelled inf
    assert run(["stm", "--a", "0", "--output", out]) == 2
    assert run(["bo", "--a", "0", "--output", out]) == 2
    # nan is no scattering length either, for any model
    assert run(["stm", "--a", "nan", "--output", out]) == 2
    assert run(["stm", "--model", "vdw", "--a", "nan", "--output", out]) == 2
    assert run(["bo", "--a", "nan", "--output", out]) == 2
    # |s0| = 0 is no Efimov channel, not a request for the boson value
    assert run(["hyperradial", "--s0", "0", "--output", out]) == 2
    # options of one stm model are refused with another, not ignored
    assert run(["stm", "--model", "step", "--cutoff", "5", "--output", out]) == 2
    # an option that no stm model has is unknown
    assert run(["stm", "--model", "narrow-resonance", "--exact-domain", "--output", out]) == 2
    assert run(["stm", "--r-star", "2", "--output", out]) == 2
    # as are channels options that the other options leave unread
    assert run(["channels", "--unitarity", "--rho", "0.5", "--output", out]) == 2
    assert run(["channels", "--ell", "7", "--output", out]) == 2
    assert run(["channels", "--system", "fermions", "--output", out]) == 2
    # a degenerate number is refused where it is parsed, before any solve
    for argv in (
        ["triton", "--a-t", "0"], ["triton", "--a-t", "nan"], ["triton", "--a-s", "inf"],
        ["triton", "--r-et", "0"], ["triton", "--r-es", "-1"], ["triton", "--hbar2-over-m", "0"],
        ["channels", "--rho", "nan"], ["channels", "--system", "fermions", "--mass-ratio", "nan"],
        ["universal", "--inv-a-min", "nan"], ["universal", "--points", "0"],
        ["universal", "--levels", "-1"], ["bo", "--points", "0"], ["bo", "--mass-ratio", "nan"],
        # a potential parameter that is no number, or a length scale <= 0
        *(["twobody", "--param", "lambda=1.3", "--param", "range=1", "--param", kv]
          for kv in ("lambda=nan", "range=inf", "range=0", "range=-1")),
        ["twobody", "--potential", "vdw_hard_core", "--param", "c6=-1", "--param", "core=0.5"],
        # the energy unit, on every subcommand that reports energies
        *([*cmd, "--hbar2-over-m", v] for v in BAD_NUMBERS for cmd in (
            ["stm"], ["hyperradial"], ["twobody", "--param", "lambda=1.3", "--param", "range=1"],
        )),
        # a malformed number returns 2, as from --config, and does not exit
        ["stm", "--cutoff", "abc"], ["universal", "--points", "many"],
    ):
        assert run([*argv, "--output", out]) == 2, argv
    # refused where it is parsed, with the option named, not by the model
    # (an infinite kappa_star ran, and printed -inf)
    capsys.readouterr()
    for opt, argv in (
        ("--kappa-star", ["universal", "--kappa-star", "inf"]),
        ("--E-min", ["stm", "--E-min=-inf"]),
        ("--cutoff", ["stm", "--cutoff", "inf"]),
        ("--kappa-min", ["hyperradial", "--kappa-min", "nan"]),
    ):
        assert run([*argv, "--output", out]) == 2, argv
        assert f"argument {opt}: must be" in capsys.readouterr().err, argv
    # a hyperradial channel or phase that cannot be formed is refused before
    # any level is printed to stdout
    capsys.readouterr()
    for args in (
        *(["--reference-scale", v] for v in ("nan", "0", "-1", "inf")),
        *(["--boundary", "log_derivative", "--boundary-value", v] for v in ("nan", "inf")),
        ["--boundary-value", "nan"],  # read by no hard wall, still no number
        ["--R0", "inf"],
        ["--s0", "inf"],
        ["--s0", "64.5"],  # above the orders checked for K_{i s0}
    ):
        assert run(["hyperradial", *args]) == 2, args
        assert capsys.readouterr().out == "", args


def test_kappa_max_inf_is_no_upper_bound(tmp_path):
    # a hard wall at R0 = 1 binds nothing deeper than kappa = 10
    csv = []
    for argv in ([], ["--kappa-max", "inf"]):
        out = tmp_path / f"h{len(csv)}.csv"
        assert run(["hyperradial", *argv, "--output", str(out)]) == 0
        csv.append(out.read_text())
    assert csv[0] == csv[1] and len(csv[0].splitlines()) > 1


@pytest.mark.parametrize("error", [ConvergenceError, BracketingError], ids=lambda e: e.__name__)
def test_solver_failure_exits_3(monkeypatch, tmp_path, error):
    import efimov.cli as cli

    def boom(args):
        raise error("solver failed")

    # build_parser resolves cmd_channels from module globals on each call,
    # so the patched function is picked up by main
    monkeypatch.setattr(cli, "cmd_channels", boom)
    assert cli.main(["channels", "--output", str(tmp_path / "x.csv")]) == 3


@pytest.mark.parametrize(
    "params",
    [
        # 7.7 rad per step
        ["--potential", "vdw_hard_core", "--param", "c6=16", "--param", "core=0.1"],
        # 0.29 rad per step, where a would be off by 1.4e-6
        ["--potential", "vdw_hard_core", "--param", "c6=16", "--param", "core=0.3"],
        # c12/r^12 overflows the solution
        ["--potential", "lennard_jones_6_12", "--param", "c6=1", "--param", "c12=1e-3"],
    ],
    ids=["vdw_core_0.1", "vdw_core_0.3", "lj_6_12"],
)
def test_unresolved_twobody_exits_3_without_a_number(capsys, params):
    # the grid cannot resolve these wells: no a or r_e may be printed
    assert run(["twobody", *params]) == 3
    assert capsys.readouterr().out == ""


def test_hbar2_over_m_scales_energies(tmp_path):
    out1, out2 = tmp_path / "n.csv", tmp_path / "s.csv"
    args = ["hyperradial", "--kappa-min", "1e-3", "--kappa-max", "1.0"]
    assert run(args + ["--output", str(out1)]) == 0
    assert run(args + ["--hbar2-over-m", "41.46", "--output", str(out2)]) == 0
    rows1 = [l.split(",") for l in out1.read_text().splitlines()[1:]]
    rows2 = [l.split(",") for l in out2.read_text().splitlines()[1:]]
    for r1, r2 in zip(rows1, rows2):
        assert float(r2[3]) == pytest.approx(41.46 * float(r1[1]), rel=1e-12)


def _stm_csv(tmp_path, *argv):
    out = tmp_path / "stm.csv"
    assert run(["stm", *argv, "--output", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize("a", ["5", "-30"])
def test_power6_is_the_vdw_model(tmp_path, a):
    # both build the n = 6 tail profile at the --a scattering length
    vdw = _stm_csv(tmp_path, "--model", "vdw", f"--a={a}")
    assert len(vdw.splitlines()) > 1
    assert _stm_csv(tmp_path, "--model", "power6", f"--a={a}") == vdw


@pytest.mark.parametrize(
    "argv, kernel",
    [
        (["--cutoff", "100"], lambda: StmKernel(0.0, 100.0)),
        (["--model", "step", "--a", "2"],
         lambda: SeparableKernel(step_form_factor(1.0), 0.5, n=300, n_ang=64)),
        (["--model", "vdw", "--a", "3"],
         lambda: SeparableKernel(universal_tail_form_factor(6, 1 / 3), 1 / 3)),
    ],
    ids=["zero-range", "step", "vdw"],
)
def test_stm_prints_the_levels_of_its_kernel(tmp_path, argv, kernel):
    # the front door builds the documented kernel at 1/a and searches the
    # default window (--E-min, --E-max)
    rows = _stm_csv(tmp_path, *argv).splitlines()[1:]
    levels = bound_levels(kernel(), (-1e7, -1e-3))
    assert [row.split(",")[1] for row in rows] == [_fmt(E) for E in levels]


def test_narrow_resonance_level_below_the_dimer(tmp_path):
    # the level search ends just below the dimer pole, where the kernel's
    # count of negative eigenvalues jumps by 2
    rows = _stm_csv(tmp_path, "--model", "narrow-resonance", "--a", "2").splitlines()[1:]
    assert [float(row.split(",")[1]) for row in rows] == [-1.72181790188e-01]


@pytest.mark.parametrize("a", ["inf", "2"])
def test_step_levels_are_grid_converged(tmp_path, a):
    # the step profile cos(pb) oscillates up to p_max = 100; the default
    # grid of `stm --model step` holds its levels within 1e-12 of a finer
    # grid, which is itself 1.4e-15 off (780, 144).  The shared
    # SeparableKernel default (260, 48) is 6.1e-7 off at a = 2
    inv_a = 1 / float(a)
    rows = _stm_csv(tmp_path, "--model", "step", "--a", a).splitlines()[1:]
    form = step_form_factor(1.0)
    ref = bound_levels(SeparableKernel(form, inv_a, n=400, n_ang=96), (-1e7, -1e-3))
    assert len(rows) == len(ref) >= 1
    for row, E in zip(rows, ref):
        assert float(row.split(",")[1]) == pytest.approx(E, rel=1e-12, abs=0)


def test_every_option_is_read():
    # an option that its subcommand never reads is a setting that does nothing
    parser = build_parser()
    (sub,) = (a for a in parser._actions if a.dest == "subcommand")
    unread = []
    for name, sp in sub.choices.items():
        tree = ast.parse(inspect.getsource(sp.get_default("func")))
        read = {
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"
        }
        unread += [
            f"{name} {action.option_strings[0]}" for action in sp._actions
            if action.option_strings and action.dest not in read
            and action.dest not in ("help", "config", "output", "manifest")
        ]
    assert not unread


def _numeric_options():
    """(subcommand, action) of every option that takes a number: one with a
    type or a numeric default, and the scattering length --a."""
    (sub,) = (a for a in build_parser()._actions if a.dest == "subcommand")
    for name, sp in sub.choices.items():
        for action in sp._actions:
            default = action.default
            numeric = isinstance(default, (int, float)) and not isinstance(default, bool)
            if action.type is not None or numeric or action.dest == "a":
                yield name, action


def test_numeric_options_declare_their_domain():
    # a bare float or int type accepts nan, inf, 0 and -1 alike; --a is
    # read by _parse_a, and the manifest keeps its text
    bare = [
        f"{name} {action.option_strings[0]}" for name, action in _numeric_options()
        if action.dest != "a" and action.type in (None, float, int)
    ]
    assert not bare


# options that make the subcommand read the probed one
_PROBE_CONTEXT = {
    ("channels", "--mass-ratio"): ["--system", "fermions"],
    ("channels", "--ell"): ["--system", "fermions", "--mass-ratio", "5"],
    ("stm", "--r-star"): ["--model", "narrow-resonance"],
    ("twobody", "--hbar2-over-m"): ["--param", "lambda=1.3", "--param", "range=1"],
}


def test_every_numeric_option_exits_0_2_or_3(tmp_path, capsys):
    # each degenerate number is refused (2), fails in the solver (3), or
    # runs to a table with no nan or inf in it
    out = tmp_path / "x.csv"
    cases = [(name, a.option_strings[0]) for name, a in _numeric_options()]
    assert len(cases) >= 33
    wrong = []
    for name, opt in cases:
        for value in BAD_NUMBERS:
            argv = [name, *_PROBE_CONTEXT.get((name, opt), []), f"{opt}={value}"]
            out.unlink(missing_ok=True)
            try:
                code = run([*argv, "--output", str(out)])
            except (Exception, SystemExit) as exc:
                wrong.append(f"{argv}: {exc!r}")
                continue
            if code not in (0, 2, 3):
                wrong.append(f"{argv}: exit {code}")
            elif code == 0:
                _, *rows = out.read_text().splitlines()
                if name == "stm" and rows:  # the first level has no ratio_to_previous
                    rows[0] = rows[0].rsplit(",", 1)[0]
                cells = [c.lower().lstrip("+-") for row in rows for c in row.split(",")]
                if "nan" in cells or "inf" in cells:
                    wrong.append(f"{argv}: {rows}")
    capsys.readouterr()
    assert not wrong


def test_help_and_version_exit_0(capsys):
    for argv in (["--version"], ["--help"], ["stm", "--help"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0, argv
    assert __version__ in capsys.readouterr().out


def test_unknown_option_and_missing_subcommand_return_2(capsys):
    # returned by main, not raised as SystemExit, as for any other bad option
    for argv, message in (
        (["channels", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: subcommand"),
    ):
        assert run(argv) == 2, argv
        assert message in capsys.readouterr().err, argv


@pytest.mark.parametrize(
    "argv, counts, transforms, legendre",
    [
        (
            ["stm", "--model", "vdw"], (10, 2, 7), [(30000, 50000, 50000, 50000, 50000)],
            {3000: 1, 260: 1, 48: 2},
        ),
        (
            ["stm", "--model", "power4"], (9, 2, 6), [(40000, 40000) + (60000,) * 10],
            {3000: 1, 260: 1, 48: 2},
        ),
        (["triton"], (8, 2, 5), [(40500,), (40500,)], {3000: 1, 160: 1, 24: 2}),
    ],
    ids=["vdw", "power4", "triton"],
)
def test_default_solve_counts(monkeypatch, tmp_path, argv, counts, transforms, legendre):
    # (kernel passes, eigvalsh calls, LU solves) of a default solve, the FFT
    # lengths of each sine transform (one per uniform sub-run of 64 to
    # 32768 nodes, each transformed twice), and the Newton passes of each
    # Gauss-Legendre rule: counts do not depend on the machine, so a
    # changed count is a changed algorithm
    calls = collections.Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(SeparableKernel, "_assemble", counted("pass", SeparableKernel._assemble))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
    # fresh caches, so the counts do not depend on the tests run before
    monkeypatch.setattr(numerics, "_leggauss", functools.lru_cache(numerics._leggauss.__wrapped__))
    monkeypatch.setattr(
        two_body, "_tail_unitarity", functools.cache(two_body._tail_unitarity.__wrapped__)
    )
    passes, ffts, lengths = collections.Counter(), [], []
    theta_pass, rfft, transform = numerics._legendre_theta, np.fft.rfft, two_body._sine_transform

    def legendre_pass(n, theta):
        passes[n] += 1
        return theta_pass(n, theta)

    def fft(a, *args, **kwargs):
        ffts.append(len(a))
        return rfft(a, *args, **kwargs)

    def sine_transform(r, delta, p):
        first = len(ffts)
        out = transform(r, delta, p)
        lengths.append(tuple(ffts[first::2]))
        assert ffts[first::2] == ffts[first + 1 :: 2]
        return out

    monkeypatch.setattr(numerics, "_legendre_theta", legendre_pass)
    monkeypatch.setattr(np.fft, "rfft", fft)
    monkeypatch.setattr(two_body, "_sine_transform", sine_transform)
    assert run([*argv, "--output", str(tmp_path / "x.csv")]) == 0
    assert (calls["pass"], calls["eigvalsh"], calls["solve"]) == counts
    assert lengths == transforms
    assert passes == legendre


@pytest.mark.parametrize(
    "argv, pairs, moments, full",
    [(["stm", "--model", "vdw"], 33930, 365118, 1948), (["triton"], 12880, 139171, 781)],
    ids=["vdw", "triton"],
)
def test_default_kernel_moment_counts(monkeypatch, tmp_path, argv, pairs, moments, full):
    # (momentum pairs P <= Q, moments kept per ordered channel pair, pairs
    # keeping all 28 terms) of the kernel a default solve builds: each pair
    # keeps the terms its |rho| at E = 0 needs, 10.8 on average here, and
    # the n diagonal pairs, first in the kernel's order, keep 28.  Counts do
    # not depend on the machine, so a changed count is a changed cut
    tables, build = {}, SeparableKernel._build

    def recorded(kern):
        build(kern)
        tables[id(kern._tables)] = kern._tables

    monkeypatch.setattr(SeparableKernel, "_build", recorded)
    assert run([*argv, "--output", str(tmp_path / "x.csv")]) == 0
    (t,) = tables.values()
    n = len(t["p"])
    assert (len(t["pq"]), t["moments"].shape[1], t["count"][-1]) == (pairs, moments, full)
    assert np.array_equal(t["i"][:n], t["j"][:n]) and full >= n


def test_triton_defaults_are_the_model_fit_defaults():
    # the triton options of the CLI default to the inputs of TritonModel.fit
    fit = {k: p.default for k, p in inspect.signature(TritonModel.fit).parameters.items()}
    (sub,) = (a for a in build_parser()._actions if a.dest == "subcommand")
    assert {k: sub.choices["triton"].get_default(k) for k in fit} == fit


def test_triton_fits_a_triplet_with_a_large_shape_ratio(tmp_path):
    # r_e/a = 0.462 is a sech^2 well with lambda = 2.1, one bound state
    assert run(["triton", "--r-et", "2.5", "--output", str(tmp_path / "t.csv")]) == 0
    triplet = TritonModel.fit(r_et=2.5).triplet
    assert triplet.inv_a * 5.4112 == pytest.approx(1.0, abs=1e-9)
    assert triplet.r_e == pytest.approx(2.5, rel=1e-9)


@pytest.mark.parametrize(
    "argv, channel",
    [(["--a-t", "-5"], "triplet channel needs a_t > 0"),
     (["--a-s", "5"], "singlet channel needs a_s < 0")],
    ids=["unbound_triplet", "bound_singlet"],
)
def test_triton_length_of_the_wrong_sign_exits_2(capsys, argv, channel):
    # the triplet branch binds the deuteron (a_t > 0), the singlet binds
    # nothing (a_s < 0): any other sign is a configuration error, not a
    # solver failure
    assert run(["triton", *argv]) == 2
    assert channel in capsys.readouterr().err


def test_energy_past_the_float_range_is_minus_inf(capsys):
    # the channel at R/a = 1e300 and the dimer at 1/a = 1e200 lie near
    # -1e400, past the float range: they are -inf, as a product gives, not
    # the OverflowError of a float power
    assert run(["channels", "--rho", "1e300"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "s2_lowest@1e+300,-inf"
    # no level lies below a dimer at -inf, so the stm table is empty
    assert run(["stm", "--model", "zero-range", "--a", "1e-200"]) == 0
    assert capsys.readouterr().out.splitlines() == ["level,energy,energy_scaled,ratio_to_previous"]


def test_bo_subcommand(tmp_path):
    out = tmp_path / "bo.csv"
    rc = run(
        ["bo", "--a", "-2.0", "--mass-ratio", "25", "--points", "40",
         "--R-min", "0.01", "--R-max", "10", "--output", str(out)]
    )
    assert rc == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    # channel closes at R = |a|: no rows beyond
    assert all(float(r[0]) <= 2.0 + 1e-9 for r in rows)
    assert all(float(r[1]) > 0 for r in rows)


def test_twobody_subcommand(tmp_path):
    out = tmp_path / "tb.csv"
    rc = run(
        ["twobody", "--potential", "poschl_teller", "--param", "lambda=1.3",
         "--param", "range=1.0", "--output", str(out)]
    )
    assert rc == 0
    vals = dict(l.split(",") for l in out.read_text().splitlines()[1:])
    assert float(vals["a"]) > 0
    assert float(vals["dimer_effective_range"]) < 0
    assert run(["twobody", "--param", "broken", "--output", str(out)]) == 2
    # the Poschl-Teller well needs a range as well as lambda
    assert run(["twobody", "--param", "lambda=1.2", "--output", str(out)]) == 2


def test_twobody_virtual_pole_prints_a_and_r_e(capsys):
    # a = 2.2778 and r_e = 4.4658 give 1 - 2 r_e/a < 0: the effective-range
    # pole is a virtual state, so the table has no dimer row, as for a < 0
    assert run(["twobody", "--potential", "morse", "--param", "depth=5", "--param", "range=1"]) == 0
    rows = dict(l.split(",") for l in capsys.readouterr().out.splitlines()[1:])
    assert list(rows) == ["a", "r_e"]
    assert 1.0 - 2.0 * float(rows["r_e"]) / float(rows["a"]) < 0


def test_verify_passes_on_this_build(capsys):
    assert run(["verify"]) == 0
    out = capsys.readouterr().out
    assert "all constants verified" in out
    assert "FAIL" not in out


def test_verify_reports_failures(monkeypatch, capsys):
    import efimov.cli as cli

    monkeypatch.setattr(
        cli, "_verify_table", lambda: [("broken_constant", 1.0, 2.0, 1e-6)]
    )
    assert cli.main(["verify"]) == 1
    assert "FAIL broken_constant" in capsys.readouterr().out


def test_version_format():
    parts = __version__.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)
