"""Every name a module imports is read in that module.

Covers ``src/``, ``tests/``, ``benchmarks/`` and ``examples/``.  A read is
an ``ast`` ``Name`` load (an attribute chain starts with one) or a name in a
string annotation.  A package ``__init__`` re-exports what its ``__all__``
lists; ``from __future__`` imports are directives, not names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIRECTORIES = ("src", "tests", "benchmarks", "examples")
PATHS = sorted(path for directory in DIRECTORIES for path in (ROOT / directory).rglob("*.py"))


def _imported(tree):
    """``(name, line)`` of every name the module's imports bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            every = arguments.posonlyargs + arguments.args + arguments.kwonlyargs
            every += [a for a in (arguments.vararg, arguments.kwarg) if a is not None]
            yield from (a.annotation for a in every if a.annotation is not None)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read(tree):
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _read(ast.parse(node.value, mode="eval"))
    return names


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _unused(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _read(tree)
    if path.name == "__init__.py":
        used |= _exported(tree)
    return [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]


def test_every_import_is_read():
    unused = {str(path.relative_to(ROOT)): _unused(path) for path in PATHS}
    assert {path: names for path, names in unused.items() if names} == {}
