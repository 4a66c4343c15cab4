"""Topology analysis: distances, diameter, node and cut capacities.

The facts here are collective-blind.  The paper's lower bounds ``a_l``
and ``b_l`` depend on the collective's pre- and postcondition, so they
live in one place, :mod:`repro.core.bounds`, which reads distances and
cut capacities from this module.  All-pairs shortest path distances also
drive the encoder's pruning (a chunk cannot be present at a node earlier
than its graph distance from the chunk's source).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .topology import Link, Topology, TopologyError


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


def distance(topology: Topology, src: int, dst: int) -> Optional[int]:
    """Length of the shortest directed path from ``src`` to ``dst`` (None if unreachable)."""
    return shortest_path_lengths(topology).get(src, {}).get(dst)


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


def node_in_capacity(topology: Topology, node: int) -> int:
    """Aggregate chunks/round that can arrive at ``node`` (its incoming capacity)."""
    capacity = topology.link_capacity()
    return sum(cap for (src, dst), cap in capacity.items() if dst == node)


def node_out_capacity(topology: Topology, node: int) -> int:
    capacity = topology.link_capacity()
    return sum(cap for (src, dst), cap in capacity.items() if src == node)


def min_node_in_capacity(topology: Topology) -> int:
    return min(node_in_capacity(topology, node) for node in topology.nodes())


def cut_capacity(topology: Topology, part: Set[int]) -> int:
    """Capacity (chunks/round) of directed links crossing from outside ``part`` into it."""
    capacity = topology.link_capacity()
    return sum(
        cap for (src, dst), cap in capacity.items() if dst in part and src not in part
    )


def link_utilization(topology: Topology, sends_per_link: Dict[Link, int]) -> Dict[Link, float]:
    """Fraction of per-round capacity consumed on each link for a set of sends.

    Used by tests and by the evaluation harness to sanity-check that
    synthesized schedules saturate the links they claim to saturate.
    """
    capacity = topology.link_capacity()
    utilization: Dict[Link, float] = {}
    for link, count in sends_per_link.items():
        cap = capacity.get(link, 0)
        if cap == 0:
            raise TopologyError(f"sends scheduled on non-existent link {link}")
        utilization[link] = count / cap
    return utilization


def to_networkx(topology: Topology):
    """Export the directed link graph to a :class:`networkx.DiGraph`.

    Link capacities become the ``capacity`` edge attribute.  The export is
    used by the examples for visualization/degree statistics and lets users
    run their own graph algorithms on modeled machines.
    """
    import networkx as nx

    graph = nx.DiGraph(name=topology.name)
    graph.add_nodes_from(topology.nodes())
    for (src, dst), cap in topology.link_capacity().items():
        if cap > 0:
            graph.add_edge(src, dst, capacity=cap)
    return graph
