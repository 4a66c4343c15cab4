"""Collective primitive specifications and chunk-placement relations."""

from .relations import (
    Placement,
    RelationError,
    all_nodes,
    root,
    scattered,
    transpose,
)
from .spec import (
    COLLECTIVES,
    CollectiveError,
    CollectiveSpec,
    get_collective,
)

__all__ = [
    "COLLECTIVES",
    "CollectiveError",
    "CollectiveSpec",
    "Placement",
    "RelationError",
    "all_nodes",
    "get_collective",
    "root",
    "scattered",
    "transpose",
]
