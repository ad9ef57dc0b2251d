"""Layer spans for the traced pass, recorded from outside the library.

``install`` replaces efimov's public functions (and a few public methods)
with wrappers that open a span keyed ``<module>.<quantity>``.  A span's self
time is its duration minus the time of the spans it encloses, so the self
times of all keys add up to the traced time without double counting.  Counts
are taken only at the outermost span of a key (``gauss_legendre_log`` calling
``gauss_legendre`` is one grid build).

The factorization layer is numpy's as seen from efimov modules: each module's
``np`` global is swapped for a copy of numpy whose ``linalg`` decompositions
are wrapped, so calls that ``stm`` makes inline and calls routed through
``numerics`` land in the same ``numerics.factor`` key.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
import types
from collections import defaultdict

MODULES = (
    "numerics", "two_body", "channels", "hyperradial",
    "universal", "stm", "born_oppenheimer", "cli",
)
FACTOR_FUNCS = ("slogdet", "det", "eig", "eigvals", "eigh", "eigvalsh")
DET_FUNCS = ("slogdet", "det")
FORM_FACTOR_BUILDERS = (
    "est_form_factor", "step_form_factor", "universal_tail_form_factor", "vdw_form_factor",
)
STM_LEVEL_SOLVERS = (
    "solve_trimers_zero_range", "solve_trimers_narrow_resonance", "solve_trimers_separable",
    "solve_triton_unitarity", "solve_boson_reference",
)


class Tracer:
    """Span stack with per-key self time and named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # [key, time covered by child spans]

    def caller(self):
        """Key of the span that encloses the innermost one (None at top)."""
        return self._stack[-2][0] if len(self._stack) >= 2 else None

    def wrap(self, key, fn, counter=None):
        """Wrap ``fn`` in a ``key`` span; ``counter(result, args, kwargs)``
        returns count increments, applied at the outermost ``key`` span."""
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = not stack or stack[-1][0] != key
            frame = [key, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.self_s[key] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if counter is not None and outermost:
                for name, n in counter(result, args, kwargs).items():
                    self.counts[name] += n
            return result

        return wrapper


def _root_wrapper(tracer, find_root):
    """find_root span; the function it evaluates runs in a span of the
    caller's key, so root self time is the root finder's own overhead."""

    def traced(f, *args, **kwargs):
        key = tracer.caller() or "bench.self"

        def counted(x):
            tracer.counts["numerics.root_fevals"] += 1
            return f(x)

        return find_root(tracer.wrap(key, counted), *args, **kwargs)

    functools.update_wrapper(traced, find_root)
    return tracer.wrap("numerics.root", traced, lambda r, a, k: {"numerics.root_calls": 1})


def _numpy_view(tracer, np, module):
    """Copy of the numpy module whose linalg decompositions open spans."""
    linalg = types.ModuleType(np.linalg.__name__)
    linalg.__dict__.update(np.linalg.__dict__)
    counts_dets = module in ("stm", "numerics")
    for name in FACTOR_FUNCS:

        def counter(r, a, k, _det=counts_dets and name in DET_FUNCS):
            return {"numerics.factor_calls": 1, "stm.det_evals": int(_det)}

        setattr(linalg, name, tracer.wrap("numerics.factor", getattr(np.linalg, name), counter))
    view = types.ModuleType(np.__name__)
    view.__dict__.update(np.__dict__)
    view.linalg = linalg
    return view


def _public_functions(module):
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def install(tracer: Tracer) -> None:
    """Route every efimov module's public functions through ``tracer``."""
    import numpy as np
    import scipy.integrate

    pkg = importlib.import_module("efimov")
    mods = {name: importlib.import_module(f"efimov.{name}") for name in MODULES}
    namespaces = [vars(pkg)] + [vars(m) for m in mods.values()]

    def rebind(orig, new, where=namespaces):
        for ns in where:
            for name, obj in list(ns.items()):
                if obj is orig:
                    ns[name] = new

    def one(name):
        return lambda r, a, k: {name: 1}

    def levels(r, a, k):
        return {"stm.levels": len(getattr(r, "trimers", r))}

    def grid(r, a, k):
        return {"numerics.grid_calls": 1, "numerics.grid_nodes": len(r.nodes)}

    spec = {  # public function -> (span key, counter); default <module>.self
        "gauss_legendre": ("numerics.grid", grid),
        "gauss_legendre_log": ("numerics.grid", grid),
        "solve_zero_energy": ("two_body.zero_energy", one("two_body.zero_energy_solves")),
        "dimer_energy": ("two_body.dimer", None),
        "solve_triton": ("stm.self", levels),
        "solve_bound_states": (
            "hyperradial.self", lambda r, a, k: {"hyperradial.levels": len(r.energies)}
        ),
        **{n: ("two_body.form_factor", one("two_body.form_factor_builds"))
           for n in FORM_FACTOR_BUILDERS},
        **{n: ("stm.self", levels) for n in STM_LEVEL_SOLVERS},
    }
    for modname, module in mods.items():
        funcs = {"main": module.main} if modname == "cli" else _public_functions(module)
        for name, fn in funcs.items():
            if name == "find_root":
                rebind(fn, _root_wrapper(tracer, fn))
            else:
                key, counter = spec.get(name, (f"{modname}.self", None))
                rebind(fn, tracer.wrap(key, fn, counter))

    stm, two_body = mods["stm"], mods["two_body"]
    for cls in (stm.StmKernel, stm.SeparableKernel):
        for meth in ("matrix", "threshold_matrix"):
            if meth in vars(cls):
                setattr(cls, meth, tracer.wrap("stm.kernel", vars(cls)[meth],
                                               one("stm.kernel_calls")))
    stm.SeparableKernel._build = tracer.wrap("stm.self", stm.SeparableKernel._build)
    stm.TritonModel.form_factors = tracer.wrap("stm.self", stm.TritonModel.form_factors)
    stm.TritonModel.fit = classmethod(tracer.wrap("stm.self", stm.TritonModel.fit.__func__))
    two_body.FormFactor.__call__ = tracer.wrap(
        "two_body.form_eval", two_body.FormFactor.__call__,
        lambda r, a, k: {"two_body.form_evals": 1,
                         "two_body.form_eval_points": int(np.size(a[1]))},
    )
    rebind(
        scipy.integrate.solve_ivp,
        tracer.wrap("hyperradial.ode", scipy.integrate.solve_ivp,
                    lambda r, a, k: {"hyperradial.ode_shots": 1,
                                     "hyperradial.ode_rhs_evals": int(r.nfev)}),
        where=[vars(mods["hyperradial"])],
    )
    for modname, module in mods.items():
        if getattr(module, "np", None) is np:
            module.np = _numpy_view(tracer, np, modname)


def import_times(importtime_log: str, modules=MODULES) -> dict:
    """Per-module import seconds from ``python -X importtime`` output.

    Each imported module's own time goes to the nearest enclosing
    ``efimov.<module>`` import (itself included), i.e. to the efimov module
    that first pulled it in.  Imports outside any efimov module are dropped.
    """
    owners = {f"efimov.{m}": m for m in modules}
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # header row
        name = fields[2][1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(fields[0])))
    out = {m: 0.0 for m in modules}
    stack = []  # (depth, owner) of the enclosing imports
    # the log is post-order (a module prints after its children): reverse it
    for depth, name, self_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        owner = owners.get(name) or (stack[-1][1] if stack else None)
        stack.append((depth, owner))
        if owner is not None:
            out[owner] += self_us * 1e-6
    return out
