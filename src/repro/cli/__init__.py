"""Command-line interface (``repro`` / ``python -m repro``).

See :mod:`repro.cli.main` for the subcommand reference.  The console script
is declared in ``pyproject.toml`` (``repro = "repro.cli:main"``).

``main``, ``build_parser`` and ``CliError`` are resolved on first use:
whoever only wants :func:`parse_topology` (the service, the benchmark's
workloads) does not pay for argparse and the subcommands.
"""

import importlib
import sys
import types

from .topologies import TOPOLOGY_HELP, TopologySpecError, parse_topology

__all__ = [
    "CliError",
    "TOPOLOGY_HELP",
    "TopologySpecError",
    "build_parser",
    "main",
    "parse_topology",
]


def _from_main(name: str) -> property:
    return property(lambda package: getattr(importlib.import_module(".main", __name__), name))


class _CliPackage(types.ModuleType):
    """The package's type: the three lazy names are properties of it.

    ``main`` also takes assignments.  Importing the submodule
    ``repro.cli.main`` makes the import system set the package attribute
    ``main`` to that module, whenever it happens; a data descriptor on the
    type receives that assignment, drops it, and keeps answering with the
    entry-point *function*, in either order of access.
    """

    CliError = _from_main("CliError")
    build_parser = _from_main("build_parser")
    main = _from_main("main").setter(lambda package, submodule: None)


sys.modules[__name__].__class__ = _CliPackage
