"""Hand-written baseline algorithms: NCCL / RCCL rings, pipelines and trees."""

from .nccl import (
    BaselineEntry,
    nccl_allgather,
    nccl_allreduce,
    nccl_baseline,
    nccl_broadcast,
    nccl_reduce,
    nccl_reducescatter,
    nccl_table3,
    rccl_allgather,
    rccl_allreduce,
)
from .pipelined import pipelined_broadcast, pipelined_reduce
from .suite import BaselineAlgorithm, baseline_suite
from .ring import (
    RingError,
    ring_allgather,
    ring_allreduce,
    ring_reduce_scatter,
    single_ring,
)
from .tree import TreeError, bfs_tree, tree_broadcast, tree_reduce

__all__ = [
    "BaselineAlgorithm",
    "BaselineEntry",
    "RingError",
    "baseline_suite",
    "TreeError",
    "bfs_tree",
    "nccl_allgather",
    "nccl_allreduce",
    "nccl_baseline",
    "nccl_broadcast",
    "nccl_reduce",
    "nccl_reducescatter",
    "nccl_table3",
    "pipelined_broadcast",
    "pipelined_reduce",
    "rccl_allgather",
    "rccl_allreduce",
    "ring_allgather",
    "ring_allreduce",
    "ring_reduce_scatter",
    "single_ring",
    "tree_broadcast",
    "tree_reduce",
]
