"""What :mod:`repro.solver` exports is what the rest of the package uses."""

import ast
from pathlib import Path

import repro.solver

# The one export nothing under src/ uses: the tests' check of a model
# against a clause (tests/solver/test_sat.py).
EXEMPT = {"clause_is_satisfied"}


def test_every_export_is_used_under_src():
    src = Path(__file__).resolve().parents[2] / "src"
    package_init = src / "repro" / "solver" / "__init__.py"
    used = set()
    for path in src.rglob("*.py"):
        if path == package_init:
            continue
        # Names read in code: a definition, a docstring or a comment is no use.
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)

    exported = set(repro.solver.__all__)
    assert EXEMPT <= exported
    assert sorted(exported - EXEMPT - used) == []
