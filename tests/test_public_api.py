"""Guards against dead public API.

Every name a library module exports in ``__all__``, and every public
method, property and dataclass field of an exported class, must be used
somewhere other than its own definition: by the library (the CLI
included), by a script, or by the benchmark.  A helper that only tests
call is dead weight; ``TEST_ONLY`` lists the few kept until a ROADMAP item
settles them.  No library module may import a
name it does not use.  Every defaulted parameter or dataclass field of the
public API must be set by some call: one that nothing sets is a constant.

No library module imports scipy at module level, and the solver paths of
the CLI run without it: importing scipy costs more than most solves.
"""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "efimov").glob("*.py"))
USERS = LIBRARY + sorted(
    path for top in ("scripts", "bench") for path in (ROOT / top).glob("*.py")
    if not path.name.startswith("test_")
)
# exports that only tests use, each kept until the ROADMAP item named settles it
TEST_ONLY = {}
CALLERS = sorted(
    path for top in ("src", "scripts", "tests", "bench") for path in (ROOT / top).rglob("*.py")
)


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _references(tree):
    """Names read by the code: loaded names, attributes and imported names.
    Definitions, assignment targets and the strings of ``__all__`` are not
    references."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _imports(tree):
    """(bound name, line) of every import except ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _members(tree, exported):
    """(class, name) of every public method, property and dataclass field of
    the exported classes of a module."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in exported:
            for s in node.body:
                if isinstance(s, ast.FunctionDef):
                    name = s.name
                elif isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name):
                    name = s.target.id
                else:
                    continue
                if not name.startswith("_"):
                    yield node.name, name


def test_every_export_is_used():
    trees = [_tree(path) for path in USERS]
    used = set().union(*map(_references, trees))
    # a member is read as an attribute: a bare name of the same spelling is not a use
    attributes = {
        node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }
    dead = []
    for path in LIBRARY:
        tree = _tree(path)
        exported = _exports(tree)
        dead += [f"{path.stem}.{name}" for name in exported if name not in used]
        dead += [
            f"{path.stem}.{cls}.{name}"
            for cls, name in _members(tree, exported)
            if name not in attributes
        ]
    stale = sorted(set(TEST_ONLY) - set(dead))
    assert not stale, f"used now, so no longer TEST_ONLY: {stale}"
    dead = [name for name in dead if name not in TEST_ONLY]
    assert not dead, f"exported but used by no library module, script or bench: {dead}"


def test_test_only_exports_are_roadmap_items():
    # each TEST_ONLY export is named in the ROADMAP item that settles it
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    items = dict(re.findall(r"(?ms)^(\d+)\. \*\*(.*?)(?=^\d+\. \*\*|\Z)", roadmap))
    for export, item in TEST_ONLY.items():
        number = item.removeprefix("item ")
        assert number in items, f"{export}: ROADMAP has no {item}"
        assert export.rsplit(".", 1)[-1] in items[number], f"{export}: not named in ROADMAP {item}"


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = _tree(path)
    loaded = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    loaded.update(_exports(tree))  # re-exports count as uses
    unused = [f"{name} (line {line})" for name, line in _imports(tree) if name not in loaded]
    assert not unused, f"unused imports in {path.name}: {unused}"


def _is_dataclass(node):
    return any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list)


def _signature(fn, method):
    """(positional parameter names, names with a default) of a function."""
    a = fn.args
    positional = [p.arg for p in a.posonlyargs + a.args]
    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    if method and not static:
        positional = positional[1:]  # self or cls
    defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
    defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return positional, defaulted


def _settings(path):
    """(label, callee name, positional names, defaulted names) of every
    module-level function, public dataclass and public method of a library
    module; private helpers count, so they grow no unset knobs either."""
    for node in _tree(path).body:
        if isinstance(node, ast.FunctionDef):
            yield (f"{path.stem}.{node.name}", node.name, *_signature(node, False))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            if _is_dataclass(node):
                fields = [
                    (s.target.id, s.value is not None)
                    for s in node.body
                    if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                ]
                yield (
                    f"{path.stem}.{node.name}", node.name,
                    [name for name, _ in fields], [name for name, d in fields if d],
                )
            for s in node.body:
                if isinstance(s, ast.FunctionDef) and not s.name.startswith("_"):
                    yield (f"{path.stem}.{node.name}.{s.name}", s.name, *_signature(s, True))


class _Calls(ast.NodeVisitor):
    """Every call as (callee name, positional count, keyword names, forward),
    where ``forward`` names the enclosing function when the call expands
    that function's own ``**kwargs``.  ``cls(...)`` in a classmethod is a
    call of its class."""

    def __init__(self):
        self.calls, self._cls, self._fn = [], [], []

    def visit_ClassDef(self, node):
        self._cls.append(node.name)
        self.generic_visit(node)
        self._cls.pop()

    def visit_FunctionDef(self, node):
        self._fn.append(node)
        self.generic_visit(node)
        self._fn.pop()

    def visit_Call(self, node):
        f = node.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        fn = self._fn[-1] if self._fn else None
        decorators = [getattr(d, "id", None) for d in fn.decorator_list] if fn else []
        if name == "cls" and self._cls and "classmethod" in decorators:
            name = self._cls[-1]
        n_pos = 0
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                break  # length unknown: only the explicit arguments before it count
            n_pos += 1
        kwarg = fn.args.kwarg.arg if fn and fn.args.kwarg else None
        expanded = {getattr(kw.value, "id", None) for kw in node.keywords if kw.arg is None}
        forward = fn.name if kwarg in expanded else None
        keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
        self.calls.append((name, n_pos, keywords, forward))
        self.generic_visit(node)


def test_every_parameter_is_passed():
    """Every defaulted parameter of a module-level function or public
    method, and every defaulted field of a public dataclass, is set by some
    call in src, scripts, tests or bench.  A default that nothing overrides is a
    constant, and each such setting doubles the configurations to check."""
    visitor = _Calls()
    for path in CALLERS:
        visitor.visit(_tree(path))
    settings = [s for path in LIBRARY for s in _settings(path)]
    named = {callee: set(pos) | set(dflt) for _, callee, pos, dflt in settings}
    passed = {}
    for name, n_pos, keywords, forward in visitor.calls:
        if forward:  # a **kwargs pass-through passes what callers of ``forward`` add
            keywords = keywords | {
                k for n, _, kws, _ in visitor.calls if n == forward
                for k in kws - named.get(forward, set())
            }
        passed.setdefault(name, set()).update(keywords)
        for _, callee, positional, _ in settings:
            if callee == name:
                passed[name].update(positional[:n_pos])
    unset = [
        f"{label}({p})"
        for label, callee, _, defaulted in settings
        for p in defaulted
        if not p.startswith("_") and p not in passed.get(callee, ())
    ]
    assert not unset, f"parameters that no call in src, scripts, tests or bench sets: {unset}"


def _module_level_imports(tree):
    """Import nodes that run when the module is imported: everything outside
    function bodies (class bodies and if/try blocks included)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.stem)
def test_no_module_level_scipy_import(path):
    found = []
    for node in _module_level_imports(_tree(path)):
        names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
        if any(name and name.split(".")[0] == "scipy" for name in names):
            found.append(f"line {node.lineno}")
    assert not found, f"{path.name} imports scipy at module level ({', '.join(found)})"


_SOLVER_PATHS = """
import contextlib
import io
import sys
import numpy as np
import efimov.cli
from efimov import born_oppenheimer, channels, hyperradial, numerics, stm, two_body, universal

form = two_body.universal_tail_form_factor(6, 0.3)  # J_nu down to x = 1e-6, z = 2e12
assert np.all(np.isfinite(form(np.linspace(0.0, 200.0, 101))))
two_body.universal_tail_form_factor(4, 0.0)(np.linspace(0.0, 200.0, 101))  # no n = 4 far tail
state = two_body.solve_zero_energy(
    two_body.TwoBodyModel("poschl_teller", {"lambda": 1.3, "range": 1.0})
)
two_body.est_form_factor(state)(np.linspace(0.0, 200.0, 101))
numerics.find_root(np.cos, 1.0, 2.0)
channels.s2_lowest(-2.0)
channels.two_plus_one_exponent(5.0, "fermions")
born_oppenheimer.bonding_kappa(np.array([0.5, 2.0]), -1.0)
hyperradial.solve_bound_states(hyperradial.HyperradialChannel(), (1e-3, 10.0))
hyperradial.three_body_phase(hyperradial.HyperradialChannel())
two_body.half_effective_range_tail(4), two_body.half_effective_range_tail(6)
with contextlib.redirect_stdout(io.StringIO()):
    assert efimov.cli.main(["verify"]) == 0
    assert efimov.cli.main(["stm", "--model", "power4", "--a", "3"]) == 0  # the n = 4 far tail
stm.bound_levels(stm.StmKernel(0.0, 100.0, n=120), (-3e4, -1e-2))
stm.bound_levels(stm.SeparableKernel(form, 0.3, n=140, n_ang=24), (-3.0, -1e-7))
stm.TritonModel.fit()
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_solver_paths_load_no_scipy():
    """The CLI and every library module import, and the tail form factors
    (n = 4 at unitarity among them), the EST form factor, a root, a real
    boson and a fermion channel exponent, a bonding orbital, a hyperradial
    spectrum and phase, the tail effective ranges, a zero-range and a
    separable STM spectrum, the triton model fit, `efimov verify` and
    `efimov stm --model power4 --a 3` (the n = 4 admixture's far tail, the
    last path that took scipy's sine integral) solve, without loading scipy
    and, under -W error, without a numpy warning."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _SOLVER_PATHS],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = ast.literal_eval(proc.stdout.strip())
    assert not loaded, f"{len(loaded)} scipy modules loaded, e.g. {loaded[:4]}"
