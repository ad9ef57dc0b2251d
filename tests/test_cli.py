import ast
import inspect
import json
import math
from pathlib import Path

import pytest

from efimov import __version__
from efimov.cli import ConfigError, build_parser, main, read_config
from efimov.numerics import BracketingError, ConvergenceError
from efimov.stm import TritonModel


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
    with pytest.raises(ConfigError):
        read_config(str(bad))


def test_invalid_values_exit_2(tmp_path):
    out = str(tmp_path / "x.csv")
    # kappa_star <= 0 is a domain error in the universal formula
    assert run(["universal", "--kappa-star", "-1.0", "--output", out]) == 2
    assert run(["stm", "--a", "bogus", "--output", out]) == 2
    assert run(["stm", "--E-min", "-1.0", "--E-max", "1.0", "--output", out]) == 2
    # a = 0 is no scattering length; unitarity is spelled inf
    assert run(["stm", "--a", "0", "--output", out]) == 2
    assert run(["bo", "--a", "0", "--output", out]) == 2
    # |s0| = 0 is no Efimov channel, not a request for the boson value
    assert run(["hyperradial", "--s0", "0", "--output", out]) == 2
    # options of one stm model are refused with another, not ignored
    assert run(["stm", "--model", "step", "--cutoff", "5", "--output", out]) == 2
    assert run(["stm", "--model", "narrow-resonance", "--exact-domain", "--output", out]) == 2
    assert run(["stm", "--r-star", "2", "--output", out]) == 2


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


def test_narrow_resonance_level_below_the_dimer(tmp_path):
    # the level search ends just below the dimer pole, where the kernel's
    # count of negative eigenvalues jumps by 2
    rows = _stm_csv(tmp_path, "--model", "narrow-resonance", "--a", "2").splitlines()[1:]
    assert [float(row.split(",")[1]) for row in rows] == [-1.72181790188e-01]


def test_exact_domain_moves_only_the_three_body_parameter(tmp_path):
    # the exact exchange domain is a cutoff-scale change: it shifts every
    # shallow level by the same factor, as a changed three-body parameter
    plain, exact = (
        [float(row.split(",")[1]) for row in _stm_csv(tmp_path, *flag).splitlines()[1:]]
        for flag in ((), ("--exact-domain",))
    )
    assert len(plain) == len(exact) >= 3
    r1, r2 = exact[1] / plain[1], exact[2] / plain[2]
    assert r1 == pytest.approx(r2, rel=1e-4)
    assert abs(r2 - 1.0) > 0.1


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


def test_triton_defaults_are_the_model_fit_defaults():
    # the triton options of the CLI and of scripts/triton_study.py default
    # to the inputs of TritonModel.fit
    fit = {k: p.default for k, p in inspect.signature(TritonModel.fit).parameters.items()}
    (sub,) = (a for a in build_parser()._actions if a.dest == "subcommand")
    assert {k: sub.choices["triton"].get_default(k) for k in fit} == fit
    script = Path(__file__).resolve().parents[1] / "scripts" / "triton_study.py"
    study = {
        node.args[0].value.lstrip("-").replace("-", "_"): ast.literal_eval(kw.value)
        for node in ast.walk(ast.parse(script.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
        for kw in node.keywords if kw.arg == "default"
    }
    assert {k: study[k] for k in fit} == fit


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
