"""Guards against dead public API.

Every name a library module exports in ``__all__`` must be used somewhere
other than its own definition: by the library (the CLI included), by a
script, or by an acceptance criterion.  A helper that only its own unit
test calls is dead weight.  No library module may import a name it does
not use.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "efimov").glob("*.py"))
USERS = LIBRARY + sorted((ROOT / "scripts").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


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


def test_every_export_is_used():
    used = set().union(*(_references(_tree(path)) for path in USERS))
    dead = [
        f"{path.stem}.{name}"
        for path in LIBRARY
        for name in _exports(_tree(path))
        if name not in used
    ]
    assert not dead, f"exported but used by no library module, script or acceptance test: {dead}"


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = _tree(path)
    loaded = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    loaded.update(_exports(tree))  # re-exports count as uses
    unused = [f"{name} (line {line})" for name, line in _imports(tree) if name not in loaded]
    assert not unused, f"unused imports in {path.name}: {unused}"
