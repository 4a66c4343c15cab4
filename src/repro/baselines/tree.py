"""Tree-based Broadcast / Reduce baselines.

NCCL's second algorithm family is tree-based.  The paper observes that on
a DGX-1 NCCL's trees degenerate to simple paths, which are never better
than the ring schedules, so the evaluation uses rings only — but the tree
builders are provided for completeness (they are also the textbook
latency-oriented algorithms on low-diameter topologies, and the examples
use them to illustrate the latency/bandwidth trade-off).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List

from ..collectives import get_collective
from ..core.algorithm import Algorithm, Send, Step
from ..core.combining import invert_algorithm
from ..topology import Topology


class TreeError(Exception):
    """Raised when a spanning tree cannot be built."""


def bfs_tree(topology: Topology, root: int) -> Dict[int, int]:
    """Parent map of a breadth-first spanning tree rooted at ``root``."""
    parents: Dict[int, int] = {}
    visited = {root}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for neighbor in topology.out_neighbors(node):
            if neighbor not in visited:
                visited.add(neighbor)
                parents[neighbor] = node
                queue.append(neighbor)
    if len(visited) != topology.num_nodes:
        missing = set(topology.nodes()) - visited
        raise TreeError(f"root {root} cannot reach nodes {sorted(missing)}")
    return parents


def tree_depths(parents: Dict[int, int], root: int) -> Dict[int, int]:
    depths = {root: 0}
    def depth(node: int) -> int:
        if node not in depths:
            depths[node] = depth(parents[node]) + 1
        return depths[node]
    for node in parents:
        depth(node)
    return depths


def tree_broadcast(topology: Topology, root: int = 0) -> Algorithm:
    """Broadcast of one chunk along a BFS spanning tree.

    A node forwards the chunk one step after receiving it, so the step
    count is the tree depth.
    """
    parents = bfs_tree(topology, root)
    depths = tree_depths(parents, root)
    max_depth = max(depths.values())
    spec = get_collective("Broadcast")
    pre = spec.precondition(topology.num_nodes, 1, root)
    post = spec.postcondition(topology.num_nodes, 1, root)

    sends_by_step: List[List[Send]] = [[] for _ in range(max_depth)]
    for node, parent in parents.items():
        sends_by_step[depths[node] - 1].append(Send(chunk=0, src=parent, dst=node))

    steps = []
    for sends in sends_by_step:
        # Rounds per step must cover the busiest constraint; with one chunk
        # in flight per tree edge per step a single round suffices unless a
        # node fans out to more children than its per-round capacity allows.
        rounds = _rounds_needed(topology, sends)
        steps.append(Step(rounds=rounds, sends=tuple(sends)))

    algorithm = Algorithm(
        name=f"tree_broadcast_{topology.name}_c1",
        collective="Broadcast",
        topology=topology,
        chunks_per_node=1,
        num_chunks=1,
        precondition=pre,
        postcondition=post,
        steps=steps,
        combining=False,
        metadata={"family": "tree", "root": root, "depth": max_depth},
    )
    algorithm.verify()
    return algorithm


def _rounds_needed(topology: Topology, sends: List[Send]) -> int:
    loads: Dict[tuple, int] = {}
    for send in sends:
        loads[(send.src, send.dst)] = loads.get((send.src, send.dst), 0) + 1
    rounds = 1
    for constraint in topology.constraints:
        total = sum(loads.get(link, 0) for link in constraint.links)
        if constraint.bandwidth > 0 and total > 0:
            needed = -(-total // constraint.bandwidth)  # ceil division
            rounds = max(rounds, needed)
    return rounds


def tree_reduce(topology: Topology, root: int = 0) -> Algorithm:
    """Reduce along a BFS tree — the inversion of :func:`tree_broadcast`."""
    broadcast = tree_broadcast(topology, root=root)
    reduce_algorithm = invert_algorithm(
        broadcast, collective="Reduce", name=f"tree_reduce_{topology.name}_c1"
    )
    reduce_algorithm.verify()
    return reduce_algorithm
