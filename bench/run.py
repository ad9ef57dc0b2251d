"""Benchmark of the efimov toolkit: four solver workloads, end to end and per layer.

    python3 bench/run.py --workload zero_range --seed 0 --seconds 10 --trace 0

Each pass runs one workload in a fresh interpreter (``child.py``) against the
checkout's ``src``.  With ``--trace 0`` the run times set-up probes and
untraced passes and prints the end-to-end metrics; with ``--trace 1`` it runs
two traced passes and one untraced pass and prints the per-layer metrics, after
checking that every count repeats exactly.  Every pass's outputs are checked
against references computed here, untimed.  The last stdout line is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record goes to ``.bench_results/``.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 2  # import-only children before and again after the passes
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "max_rel_err": "rel",
}
# span keys whose self time is reported as <key>_s
SPAN_TIMES = (
    "numerics.grid", "numerics.root", "numerics.factor",
    "stm.kernel", "stm.self",
    "two_body.form_factor", "two_body.form_eval", "two_body.zero_energy", "two_body.dimer",
    "hyperradial.ode", "hyperradial.self",
    "cli.self",
)
COUNTS = (
    "numerics.grid_calls", "numerics.grid_nodes", "numerics.root_calls",
    "numerics.root_fevals", "numerics.factor_calls",
    "stm.det_evals", "stm.levels", "stm.kernel_calls",
    "two_body.form_factor_builds", "two_body.form_evals", "two_body.form_eval_points",
    "two_body.zero_energy_solves",
    "hyperradial.ode_shots", "hyperradial.ode_rhs_evals", "hyperradial.levels",
)
RATIOS = {  # name: (numerator, denominator, unit)
    "stm.det_evals_per_level": ("stm.det_evals", "stm.levels", "evals/level"),
    "hyperradial.shots_per_level": ("hyperradial.ode_shots", "hyperradial.levels", "shots/level"),
}
PER_LAYER = {
    **{f"{key}_s": "s" for key in SPAN_TIMES},
    **{name: "count" for name in COUNTS},
    **{name: unit for name, (_, _, unit) in RATIOS.items()},
    **{f"{m}.import_s": "s" for m in spans.MODULES},
    "bench.trace_overhead_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env.setdefault(var, nproc)
    return env


def git_commit() -> str:
    """Commit of the checkout, or 'unknown' when it is not a git work tree
    of its own (so that an enclosing repository is not reported)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int, env: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {k: v for k, v in sorted(env.items()) if k.endswith("_NUM_THREADS")},
        "commit": git_commit(),
        "seed": seed,
    }


class Run:
    """Child processes of one benchmark run, all bounded by one deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = child_env()
        self.inputs = workloads.inputs(workload, seed)
        self.refs = checks.references(workload, self.inputs)
        self.records = []

    def child(self, mode: str) -> dict:
        cmd = [sys.executable]
        if mode == "trace":
            cmd += ["-X", "importtime"]
        cmd += [str(BENCH / "child.py"), self.workload, str(self.seed), mode]
        rec = {"mode": mode, "ok": False}
        self.records.append(rec)
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - t0),
            )
        except subprocess.TimeoutExpired:
            rec.update(wall_s=time.monotonic() - t0, error="timeout")
            return rec
        rec["wall_s"] = time.monotonic() - t0
        if proc.returncode != 0:
            rec["error"] = f"exit {proc.returncode}: {proc.stderr[-2000:]}"
            return rec
        try:
            rec.update(json.loads(proc.stdout.splitlines()[-1]))
        except (IndexError, json.JSONDecodeError):
            rec["error"] = f"no result line: {proc.stdout[-500:]!r}"
            return rec
        rec["setup_s"] = rec.pop("t_imported") - t0
        if mode == "trace":
            rec["import_s"] = spans.import_times(proc.stderr)
        if mode == "setup":
            rec["ok"] = True
            return rec
        try:
            rows = checks.check(self.workload, self.inputs, self.refs, rec["outputs"])
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            rec["error"] = f"malformed outputs: {exc!r}"
            return rec
        rec["checks"] = rows
        rec["max_rel_err"] = checks.max_rel_err(rows)
        rec["ok"] = checks.passed(rows)
        if not rec["ok"]:
            rec["error"] = "wrong result: " + ", ".join(
                f"{label}={got!r} (want {want!r})"
                for label, got, want, err, tol in rows if err > tol
            )
        return rec

    def fits(self, last: dict) -> bool:
        """Whether another pass as long as ``last`` ends before the deadline."""
        return time.monotonic() + last["wall_s"] < self.deadline

    def timed(self, seconds: float) -> dict:
        """Untraced passes until ``seconds`` have passed, between two groups
        of set-up probes, so that set-up is sampled at both ends of the run."""
        setups = [self.child("setup") for _ in range(SETUP_PROBES)]
        passes = []
        start = time.monotonic()
        while True:
            passes.append(self.child("pass"))
            last = passes[-1]
            if not last["ok"] or time.monotonic() - start >= seconds or not self.fits(last):
                break
        if self.fits(setups[-1]):
            setups += [self.child("setup") for _ in range(SETUP_PROBES)]
        ok = [p for p in passes if p["ok"]] or passes

        def median(key, recs=ok):
            vals = [r[key] for r in recs if key in r]
            return statistics.median(vals) if vals else 0.0

        metrics = {key: median(key) for key in ("wall_s", "solve_s", "cpu_s", "peak_rss_mb")}
        metrics["setup_s"] = median("setup_s", setups + passes)
        metrics["max_rel_err"] = max(p.get("max_rel_err", 1.0) for p in passes)
        return {name: metrics[name] for name in END_TO_END}

    def traced(self) -> tuple[dict, list[str]]:
        """Two traced passes whose counts must agree exactly, then an
        untraced pass for the tracing overhead; returns per-layer metrics
        and any gate errors."""
        first = self.child("trace")
        second = self.child("trace") if first["ok"] and self.fits(first) else None
        if not (first["ok"] and second and second["ok"]):
            return {name: 0.0 for name in PER_LAYER}, ["traced passes did not complete"]
        base = self.child("pass") if self.fits(second) else {"ok": False}
        counts = [layer_counts(rec) for rec in (first, second)]
        errors = [
            f"count {name} differs between traced passes: {counts[0][name]} vs {counts[1][name]}"
            for name in counts[0] if counts[0][name] != counts[1][name]
        ]
        metrics = {f"{key}_s": first["self_s"].get(key, 0.0) for key in SPAN_TIMES}
        metrics.update(counts[0])
        metrics.update({f"{m}.import_s": t for m, t in first["import_s"].items()})
        overhead = first["solve_s"] - base["solve_s"] if base["ok"] else 0.0
        metrics["bench.trace_overhead_s"] = overhead
        return {name: metrics[name] for name in PER_LAYER}, errors


def layer_counts(rec: dict) -> dict:
    counts = {name: rec["counts"].get(name, 0) for name in COUNTS}
    for name, (num, den, _) in RATIOS.items():
        counts[name] = counts[num] / counts[den] if counts[den] else 0.0
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "efimov" / "__init__.py").is_file():
        print(f"error: no efimov sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    if args.trace:
        metrics, errors = run.traced()
        units = PER_LAYER
    else:
        metrics, errors = run.timed(args.seconds), []
        units = END_TO_END
    failed = sum(not r["ok"] for r in run.records) + bool(errors)
    for rec in run.records:
        if not rec["ok"]:
            print(f"{rec['mode']} failed: {rec.get('error')}", file=sys.stderr)
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    summary = {
        "correct": failed == 0,
        "attempted": len(run.records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "environment": environment(args.seed, run.env),
        "inputs": run.inputs,
        "references": run.refs,
        "children": run.records,
        "errors": errors,
        **summary,
    }
    path = out_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for name, m in summary["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
