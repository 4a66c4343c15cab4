"""Topology analysis: distances, diameter, node and cut capacities.

The facts here are collective-blind.  The paper's lower bounds ``a_l``
and ``b_l`` depend on the collective's pre- and postcondition, so they
live in one place, :mod:`repro.core.bounds`, which reads distances and
cut capacities from this module.  All-pairs shortest path distances also
drive the encoder's pruning (a chunk cannot be present at a node earlier
than its graph distance from the chunk's source).
"""

from __future__ import annotations

from typing import Dict, List, Set

from .topology import Topology, TopologyError


def shortest_path_lengths(topology: Topology) -> Dict[int, Dict[int, int]]:
    """All-pairs unweighted shortest path lengths over directed links.

    Unreachable pairs are absent from the inner dictionaries.
    """
    adjacency: Dict[int, List[int]] = {n: [] for n in topology.nodes()}
    for (src, dst) in topology.links():
        adjacency[src].append(dst)
    distances: Dict[int, Dict[int, int]] = {}
    for source in topology.nodes():
        dist = {source: 0}
        frontier = [source]
        depth = 0
        while frontier:
            depth += 1
            next_frontier = []
            for node in frontier:
                for neighbor in adjacency[node]:
                    if neighbor not in dist:
                        dist[neighbor] = depth
                        next_frontier.append(neighbor)
            frontier = next_frontier
        distances[source] = dist
    return distances


def is_strongly_connected(topology: Topology) -> bool:
    distances = shortest_path_lengths(topology)
    n = topology.num_nodes
    return all(len(distances[node]) == n for node in topology.nodes())


def diameter(topology: Topology) -> int:
    """Directed diameter; raises if the graph is not strongly connected."""
    distances = shortest_path_lengths(topology)
    worst = 0
    for source in topology.nodes():
        if len(distances[source]) != topology.num_nodes:
            missing = set(topology.nodes()) - set(distances[source])
            raise TopologyError(
                f"topology {topology.name!r} is not strongly connected: "
                f"{source} cannot reach {sorted(missing)}"
            )
        worst = max(worst, max(distances[source].values()))
    return worst


def cut_capacity(topology: Topology, part: Set[int]) -> int:
    """Capacity (chunks/round) of directed links crossing from outside ``part`` into it."""
    capacity = topology.link_capacity()
    return sum(
        cap for (src, dst), cap in capacity.items() if dst in part and src not in part
    )
