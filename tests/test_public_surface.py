"""Every public name in :mod:`repro` has a reader, and every knob a setter,
that is not its own test.

A module-level public function or class, a public method of a public class
and every entry of a package's ``__all__`` must be read somewhere else:
under ``src/`` outside its own definition and outside the package
``__init__`` files that re-export it, or by the benchmark (``bench/``), the
paper's tables and figures (``benchmarks/``) or the examples
(``examples/``).  Inside its own module a function or class is read by a
bare ``Name`` load; anywhere else only by an import from :mod:`repro`
(absolute or relative) or by an attribute read (``x.name``).  A method is
read only by an attribute read: a local variable or a local function that
shares its spelling is not a reader.  A definition, a docstring or a comment
is not a read.

A defaulted parameter of a public function or method (``__init__`` of a
public class included) must be set by a call in the same places: the call
names the function (the class for ``__init__``, or ``cls`` inside one of that
class's methods) and passes the parameter by keyword, by enough positional
arguments, or through ``*``/``**``.  A parameter nobody sets is a constant.
A function whose name is read as a value (a dict entry, a callback) is
skipped: its calls cannot be seen.  An entry of a dispatch table is not
such a value: a dict display of functions bound to a name and called
through a subscript (``builders[name](size, bandwidth)``) calls each of its
entries with that call's arguments.
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
    # A frontier as plain data, for the strategies' byte-identical frontiers;
    # a point is one row of it.
    "ParetoFrontier.to_dict": "tests/engine/test_dispatch.py",
    "ParetoPoint.to_dict": "tests/engine/test_dispatch.py",
    # The state after every step, for the combining and synthesis checks.
    "Algorithm.run": "tests/core/test_combining.py",
    # Every series and one series of the registry, for the telemetry checks.
    "Metrics.snapshot": "tests/telemetry/test_instrumentation.py",
    "Metrics.value": "tests/engine/test_cache.py",
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

# A defaulted parameter nothing outside the tests sets, mapped to the test
# file that sets it or, for a deployment setting, to the reason it stays.
# As for EXEMPT, a parameter only its own unit tests set does not belong
# here: its value becomes the code.
EXEMPT_PARAMETERS = {
    # The command line itself; the CLI tests pass theirs.
    "main(argv=)": "tests/cli/test_cli.py",
    # The clock of an eviction, so the tests need not sleep.
    "AlgorithmCache.evict(now=)": "tests/engine/test_cache.py",
    # The fabric a FaultSet is resolved against, for the replanning test.
    "execute_with_faults(topology=)": "tests/service/test_faults.py",
    # The identity pin hashes the XML of every lowering protocol.
    "to_msccl_xml(protocol=)": "tests/runtime/test_runtime_digest.py",
    # Frontiers compared without their wall-clock fields, for the
    # strategies' agreement.
    "ParetoFrontier.to_dict(include_timing=)": "tests/engine/test_dispatch.py",
    "request_plan(timeout=)": "deployment setting: the client's HTTP timeout",
    "request_fault(timeout=)": "deployment setting: the client's HTTP timeout",
    "fetch_stats(timeout=)": "deployment setting: the client's HTTP timeout",
    "fetch_metrics(timeout=)": "deployment setting: the client's HTTP timeout",
    "check_health(timeout=)": "deployment setting: the client's HTTP timeout",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _span(node) -> range:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return range(first, node.end_lineno + 1)


def _assigned(statement):
    """The names an assignment statement binds."""
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return set()
    return {t.id for t in targets if isinstance(t, ast.Name)}


class _Module(ast.NodeVisitor):
    """What one module imports from :mod:`repro`, reads and calls.

    ``loads`` holds ``(name, line, is_attribute, is_value)``: a value read is
    one that is neither called nor a type (an annotation, an ``isinstance``
    class, an ``except`` clause).  ``calls`` holds ``(name, line,
    is_attribute, positional, keywords, starred)``; ``cls(...)`` inside a
    class is recorded under the class's name, and a call through a dispatch
    table (module docstring) under the name of each of its entries.
    """

    def __init__(self, path: Path):
        self.path = path
        self.in_package = PACKAGE in path.parents
        self.is_package_init = path.name == "__init__.py"
        self.imports = set()
        self.modules = set()
        self.defines = set()
        self.fields = set()
        self.loads = []
        self.calls = []
        self._not_values = set()
        self._classes = []
        self._tables = {}
        self.visit(ast.parse(path.read_text(encoding="utf-8")))
        # A load is a value read unless a later call or table showed otherwise.
        self.loads = [
            (name, line, is_attribute, id(node) not in self._not_values)
            for name, line, is_attribute, node in self.loads
        ]

    def _types(self, node):
        if node is not None:
            self._not_values.update(id(n) for n in ast.walk(node))

    def visit_Import(self, node):
        for alias in node.names:
            if alias.name.split(".")[0] == "repro":
                self.modules.update(alias.name.split("."))

    def visit_ImportFrom(self, node):
        from_repro = (node.module or "").split(".")[0] == "repro" or (node.level > 0 and self.in_package)
        if from_repro:
            self.modules.update((node.module or "").split("."))
        # A package __init__ re-exports; that is not a use.
        if from_repro and not self.is_package_init:
            self.imports.update(alias.name for alias in node.names)

    def visit_Module(self, node):
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.defines.add(item.name)
            self.defines.update(_assigned(item))
        self.generic_visit(node)

    def visit_ClassDef(self, node):
        for item in node.body:
            self.fields.update(_assigned(item))
        self._classes.append(node.name)
        self.generic_visit(node)
        self._classes.pop()

    def visit_FunctionDef(self, node):
        arguments = node.args
        for arg in arguments.posonlyargs + arguments.args + arguments.kwonlyargs:
            self._types(arg.annotation)
        for arg in (arguments.vararg, arguments.kwarg):
            self._types(arg and arg.annotation)
        self._types(node.returns)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assign(self, node):
        (target,) = node.targets[:1]
        if (
            len(node.targets) == 1 and isinstance(target, ast.Name)
            and isinstance(node.value, ast.Dict)
            and all(isinstance(v, (ast.Name, ast.Attribute)) for v in node.value.values)
        ):
            self._tables[target.id] = node.value.values
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        self._types(node.annotation)
        self.generic_visit(node)

    def visit_ExceptHandler(self, node):
        self._types(node.type)
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("isinstance", "issubclass") and len(node.args) == 2:
            self._types(node.args[1])
        positional = sum(not isinstance(a, ast.Starred) for a in node.args)
        keywords = {k.arg for k in node.keywords if k.arg}
        starred = positional < len(node.args) or len(keywords) < len(node.keywords)
        if isinstance(func, (ast.Name, ast.Attribute)):
            self._not_values.add(id(func))
            name = func.id if isinstance(func, ast.Name) else func.attr
            if name == "cls" and self._classes:
                name = self._classes[0]
            self.calls.append((name, node.lineno, isinstance(func, ast.Attribute), positional, keywords, starred))
        elif isinstance(func, ast.Subscript) and isinstance(func.value, ast.Name) and func.value.id in self._tables:
            for entry in self._tables[func.value.id]:
                self._not_values.add(id(entry))
                name = entry.id if isinstance(entry, ast.Name) else entry.attr
                self.calls.append((name, node.lineno, isinstance(entry, ast.Attribute), positional, keywords, starred))
        self.generic_visit(node)

    def visit_Name(self, node):
        if not isinstance(node.ctx, ast.Store):
            self.loads.append((node.id, node.lineno, False, node))

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Store):
            self.fields.add(node.attr)
        else:
            self.loads.append((node.attr, node.lineno, True, node))
        self.generic_visit(node)


class _Definition:
    """A public name of :mod:`repro`: a module-level function or class, a
    method of a public class, or an ``__all__`` entry."""

    def __init__(self, path, qualified, lines, node=None, method=False):
        self.path = path
        self.qualified = qualified
        self.name = qualified.rsplit(".", 1)[-1]
        self.lines = lines
        self.node = node
        self.method = method
        # The function whose parameters are checked: a class's __init__.
        self.function = node
        if isinstance(node, ast.ClassDef):
            inits = [i for i in node.body if isinstance(i, ast.FunctionDef) and i.name == "__init__"]
            self.function = inits[0] if inits else None

    def __str__(self):
        return f"{self.path.relative_to(PACKAGE.parent).with_suffix('')}:{self.qualified}"

    def _names(self, module, is_attribute):
        """Whether a read or call of this name in ``module`` can mean this."""
        if is_attribute:
            return True
        if self.method:
            return False  # a bare name is a local, never a method
        if self.node is None:
            # An __all__ entry re-exports a name some module defines.
            return (module.in_package and self.name in module.defines) or self.name in module.imports
        return module.path == self.path or self.name in module.imports

    def reads(self, module):
        """Whether each read of this name in ``module`` is a value read.

        An attribute that some class stores as data is not taken for a
        method read as a value: ``response.route`` is not ``PlanRegistry.route``.
        """
        if not self.method and self.name in module.imports:
            yield False
        # An __all__ entry may name a module.
        if self.node is None and self.name in module.modules:
            yield False
        for name, line, is_attribute, is_value in module.loads:
            if name == self.name and self._names(module, is_attribute):
                if not (module.path == self.path and line in self.lines):
                    yield is_value and not (self.method and name in FIELDS)

    def calls(self, module):
        """``(positional, keywords, starred)`` of every call of this name in
        ``module`` outside the function's own body."""
        body = _span(self.function) if self.function else range(0)
        for name, line, is_attribute, positional, keywords, starred in module.calls:
            if name == self.name and self._names(module, is_attribute):
                if not (module.path == self.path and line in body):
                    yield positional, keywords, starred

    def parameters(self):
        """``(name, positional index or None)`` of each defaulted parameter."""
        if not isinstance(self.function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return []
        arguments = self.function.args
        positional = arguments.posonlyargs + arguments.args
        decorators = {d.id for d in self.function.decorator_list if isinstance(d, ast.Name)}
        if (self.method or self.function is not self.node) and "staticmethod" not in decorators:
            positional = positional[1:]
        first = len(positional) - len(arguments.defaults)
        defaulted = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
        defaulted += [
            (a.arg, None) for a, d in zip(arguments.kwonlyargs, arguments.kw_defaults) if d is not None
        ]
        return defaulted

    def sets(self, modules, parameter, index):
        return any(
            starred or parameter in keywords or (index is not None and positional > index)
            for module in modules
            for positional, keywords, starred in self.calls(module)
        )


def _definitions(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and _public(node.name):
            defs.append(_Definition(path, node.name, _span(node), node))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(item.name):
                        defs.append(_Definition(path, f"{node.name}.{item.name}", _span(item), item, method=True))
        elif path.name == "__init__.py" and isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                for name in ast.literal_eval(node.value):
                    defs.append(_Definition(path, name, range(0)))
    return defs


def _modules():
    paths = sorted(PACKAGE.rglob("*.py"))
    for directory in READER_DIRS:
        paths += sorted((ROOT / directory).rglob("*.py"))
    return [_Module(path) for path in paths]


MODULES = _modules()
FIELDS = {field for module in MODULES if module.in_package for field in module.fields}
DEFINITIONS = [d for path in sorted(PACKAGE.rglob("*.py")) for d in _definitions(path)]


def _unread_names():
    return sorted(
        str(definition)
        for definition in DEFINITIONS
        if definition.qualified not in EXEMPT
        and definition.name not in FRAMEWORK_CALLBACKS
        and not any(any(True for _ in definition.reads(module)) for module in MODULES)
    )


def _unset_parameters():
    unset = []
    for definition in DEFINITIONS:
        # A name read as a value is called where this test cannot see.
        if any(is_value for module in MODULES for is_value in definition.reads(module)):
            continue
        for parameter, index in definition.parameters():
            key = f"{definition.qualified}({parameter}=)"
            if key not in EXEMPT_PARAMETERS and not definition.sets(MODULES, parameter, index):
                unset.append(f"{definition}({parameter}=)")
    return sorted(unset)


def test_every_public_name_has_a_reader():
    assert _unread_names() == []


def test_every_defaulted_parameter_has_a_setter():
    assert _unset_parameters() == []


# The exemptions a test file must use: every name, and every parameter
# whose entry names a test rather than a reason.
TOOLS = {**EXEMPT, **{k: v for k, v in EXEMPT_PARAMETERS.items() if v.startswith("tests/")}}


@pytest.mark.parametrize("key", sorted(TOOLS))
def test_every_exemption_is_used_by_its_test(key):
    module = _Module(ROOT / TOOLS[key])
    if key.endswith("=)"):
        qualified, parameter = key.removesuffix("=)").split("(")
        (definition,) = [d for d in DEFINITIONS if d.qualified == qualified and d.node]
        (index,) = [i for p, i in definition.parameters() if p == parameter]
        assert definition.sets([module], parameter, index), (key, TOOLS[key])
    else:
        name = key.rsplit(".", 1)[-1]
        assert name in module.imports or any(read == name for read, *_ in module.loads), (key, TOOLS[key])
