"""Every public name in :mod:`repro` has a reader that is not its own test.

A module-level public function or class, a public method of a public class
and every entry of a package's ``__all__`` must be read somewhere else:
under ``src/`` outside its own definition and outside the package
``__init__`` files that re-export it, or by the benchmark (``bench/``), the
paper's tables and figures (``benchmarks/``) or the examples
(``examples/``).  A read is an ``ast`` ``Name`` or ``Attribute`` load or an
import of a module or from one; a definition, a docstring or a comment is not one.
Names are matched by spelling, not by resolved binding.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
READER_DIRS = ("bench", "benchmarks", "examples")

# Methods that ``http.server`` calls on a request handler, and that its
# ``socketserver`` base calls on a server.
FRAMEWORK_CALLBACKS = {"do_GET", "do_POST", "log_message", "finish_request"}

# A name nothing outside the tests reads, mapped to the test file that uses
# it as a tool to check something else.  A name whose only readers are its
# own unit tests does not belong here: it goes, and its tests with it.
EXEMPT = {
    # A model against a clause: the solver tests' oracle.
    "clause_is_satisfied": "tests/solver/test_sat.py",
    # The first SAT probe of a sweep, for the pool strategies' agreement.
    "SweepOutcome.first_sat": "tests/engine/test_sweep_loop.py",
    # Per-step sends of a lowered program, for the lowering's step index.
    "Program.sends_at_step": "tests/runtime/test_step_index.py",
    # A served process in a thread, for the HTTP tests.
    "ServerThread": "tests/service/test_server.py",
    # The clients of the served /v1/health and /v1/metrics endpoints.
    "check_health": "tests/service/test_server.py",
    "fetch_metrics": "tests/service/test_observability.py",
    # Graph facts that the topology builders and machine models are checked
    # against, and the shared-port fabrics the encoder is checked on.
    "diameter": "tests/topology/test_builders.py",
    "is_strongly_connected": "tests/topology/test_builders.py",
    "Topology.bandwidth_between": "tests/topology/test_machines.py",
    "Topology.add_shared_constraint": "tests/oracle/test_agreement.py",
    # The served plans' safety checks under a fault set.
    "execute_with_faults": "tests/service/test_faults.py",
    "simulate_with_faults": "tests/runtime/test_step_index.py",
    # A variable's value in the last model, for the solver's own checks.
    "SATSolver.model_value": "tests/solver/test_sat_properties.py",
}


class _Reads(ast.NodeVisitor):
    """``(name, line)`` of every read in one module."""

    def __init__(self, is_package_init: bool):
        self.is_package_init = is_package_init
        self.reads = []

    def visit_Name(self, node):
        if not isinstance(node.ctx, ast.Store):
            self.reads.append((node.id, node.lineno))

    def visit_Attribute(self, node):
        if not isinstance(node.ctx, ast.Store):
            self.reads.append((node.attr, node.lineno))
        self.generic_visit(node)

    def visit_Import(self, node):
        for alias in node.names:
            self.reads.extend((part, node.lineno) for part in alias.name.split("."))

    def visit_ImportFrom(self, node):
        self.reads.extend((part, node.lineno) for part in (node.module or "").split("."))
        # A package __init__ re-exports; that is not a use.
        if not self.is_package_init:
            self.reads.extend((alias.name, node.lineno) for alias in node.names)


def _public(name: str) -> bool:
    return not name.startswith("_")


def _span(node) -> range:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return range(first, node.end_lineno + 1)


def _definitions(path: Path):
    """``(qualified name, read name, lines)`` of the module's public names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and _public(node.name):
            defs.append((node.name, node.name, _span(node)))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(item.name):
                        defs.append((f"{node.name}.{item.name}", item.name, _span(item)))
        elif path.name == "__init__.py" and isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                for name in ast.literal_eval(node.value):
                    defs.append((name, name, range(0)))
    return defs


def _reads(paths):
    reads = {}
    for path in paths:
        visitor = _Reads(path.name == "__init__.py")
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        reads[path] = visitor.reads
    return reads


def _unread_names():
    src_reads = _reads(sorted(PACKAGE.rglob("*.py")))
    readers = {}
    for path, reads in src_reads.items():
        for name, line in reads:
            readers.setdefault(name, []).append((path, line))
    outside = {
        name
        for directory in READER_DIRS
        for reads in _reads(sorted((ROOT / directory).rglob("*.py"))).values()
        for name, _ in reads
    }
    unread = set()
    for path in src_reads:
        for qualified, name, lines in _definitions(path):
            if qualified in EXEMPT or name in FRAMEWORK_CALLBACKS or name in outside:
                continue
            # Read only inside its own definition (recursion) or nowhere.
            if all(other == path and line in lines for other, line in readers.get(name, ())):
                unread.add(f"{path.relative_to(PACKAGE.parent).with_suffix('')}:{qualified}")
    return sorted(unread)


def test_every_public_name_has_a_reader():
    assert _unread_names() == []


@pytest.mark.parametrize("qualified", sorted(EXEMPT))
def test_every_exemption_is_used_by_its_test(qualified):
    path = ROOT / EXEMPT[qualified]
    name = qualified.rsplit(".", 1)[-1]
    assert any(read == name for read, _ in _reads([path])[path]), (qualified, EXEMPT[qualified])
