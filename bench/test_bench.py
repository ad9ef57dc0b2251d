"""Tests of the benchmark's own logic: checker, span accounting, seeds."""
import json
import math
from pathlib import Path

import pytest

import checks
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _zero_range_case(seed):
    inp = workloads.inputs("zero_range", seed)
    ref = checks.references("zero_range", inp)
    return inp, ref, {"levels": list(ref["levels"]), "a_minus": list(ref["a_minus"])}


@pytest.mark.parametrize("level", range(3))
def test_checker_flags_level_shifted_by_1e_4(level):
    inp, ref, out = _zero_range_case(7)
    assert checks.passed(checks.check("zero_range", inp, ref, out))
    out["levels"][level] *= 1 + 1e-4
    assert not checks.passed(checks.check("zero_range", inp, ref, out))


@pytest.mark.parametrize("name, key", [
    ("separable", "levels"),
    ("triton", "trimer_0"),
    ("triton", "deuteron_effective_range"),
])
def test_checker_flags_pinned_output_shifted_by_1e_4(name, key):
    if name == "separable":
        out = {"levels": [checks.SEPARABLE_LEVEL]}
    else:
        out = dict(checks.TRITON_PINS)
    inp = workloads.inputs(name, 0)
    assert checks.passed(checks.check(name, inp, {}, out))
    if key == "levels":
        out[key] = [out[key][0] * (1 + 1e-4)]
    else:
        out[key] *= 1 + 1e-4
    assert not checks.passed(checks.check(name, inp, {}, out))


def test_zero_range_references_scale_with_cutoff():
    inp, ref, _ = _zero_range_case(3)
    s = inp["cutoff"] / workloads.ZERO_RANGE_CUTOFF
    assert s > 1
    assert ref["levels"] == [E * s * s for E in checks.ZERO_RANGE_LEVELS]
    assert ref["a_minus"] == [a / s for a in checks.ZERO_RANGE_A_MINUS]


def test_checker_flags_missing_hyperradial_level():
    inp = workloads.inputs("hyperradial", 5)
    ref = checks.references("hyperradial", inp)
    R0 = inp["R0"]
    out = {"levels": [-((x / R0) ** 2) for x in ref["x"]], "phase": ref["phase"]}
    assert checks.passed(checks.check("hyperradial", inp, ref, out))
    del out["levels"][3]
    assert not checks.passed(checks.check("hyperradial", inp, ref, out))


def test_hard_wall_oracle_is_log_periodic():
    x = checks.hard_wall_zeros(1e-20, 10.0)
    assert len(x) == 14  # the window of the seed-0 hyperradial workload
    # deep in the scale-invariant region consecutive zeros differ by lambda0
    assert x[-2] / x[-1] == pytest.approx(workloads.LAMBDA0, rel=1e-12)
    assert float(checks.boson_s0()) == pytest.approx(1.00623782510278, rel=1e-14)


def test_self_time_of_nested_spans():
    now = [0.0]
    tracer = spans.Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 2.0

    traced_leaf = tracer.wrap("b.leaf", leaf, lambda r, a, k: {"b.calls": 1})

    def outer():
        now[0] += 1.0
        traced_leaf()
        now[0] += 3.0
        traced_leaf()

    tracer.wrap("a.outer", outer)()
    assert dict(tracer.self_s) == {"a.outer": 4.0, "b.leaf": 4.0}
    assert tracer.counts["b.calls"] == 2


def test_same_key_nesting_counts_once():
    tracer = spans.Tracer()

    def one(r, a, k):
        return {"g.calls": 1}

    inner = tracer.wrap("g", lambda: None, one)
    tracer.wrap("g", lambda: inner(), one)()
    assert tracer.counts["g.calls"] == 1


def test_import_time_goes_to_first_efimov_importer():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy",
        "import time:        10 |         10 |       efimov.numerics",
        "import time:        20 |        130 |     efimov.channels",
        "import time:         5 |        135 |   efimov",
        "import time:        30 |        165 | efimov.cli",
        "import time:         7 |          7 | efimov.stm",
        "import time:        50 |         50 | site",
    ])
    t = spans.import_times(log)
    assert t["channels"] == pytest.approx(120e-6)
    assert t["numerics"] == pytest.approx(10e-6)
    assert t["cli"] == pytest.approx(35e-6)  # the package __init__ it pulled in
    assert t["stm"] == pytest.approx(7e-6)
    assert math.fsum(t.values()) == pytest.approx(172e-6)


def test_seed_zero_is_cli_default():
    from efimov.cli import build_parser

    parser = build_parser()
    zr = parser.parse_args(workloads.inputs("zero_range", 0)["argv"])
    assert zr.cutoff == parser.parse_args(["stm"]).cutoff
    hr = parser.parse_args(workloads.inputs("hyperradial", 0)["argv"])
    default = parser.parse_args(["hyperradial"])
    assert hr.R0 == default.R0
    assert hr.kappa_max == default.kappa_max == workloads.KAPPA_WINDOW[1]
    assert hr.kappa_min == workloads.KAPPA_WINDOW[0]
    for name in ("separable", "triton"):
        assert workloads.inputs(name, 0) == workloads.inputs(name, 9)
    assert all(0 <= workloads.seed_phase(s) < workloads.U_MAX for s in range(100))


def test_benchmark_json_matches_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
