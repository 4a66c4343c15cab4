"""Independent checker for collective schedules: not the tool's own.

Written from the paper's Tables 1-2 and section 3.3 without importing
``repro.core.algorithm`` or ``repro.collectives``.  A schedule is plain data:
``steps = [(rounds, [(chunk, src, dst, op), ...]), ...]`` and
``constraints = [(bandwidth, [(src, dst), ...]), ...]``.
"""

from collections import Counter


class CheckError(Exception):
    """The schedule does not implement the collective on the topology."""


def placements(collective, nodes, chunks, root):
    """``(pre, post, combining)`` of a collective over global chunk ids."""
    everywhere = {(c, n) for c in range(chunks) for n in range(nodes)}
    scattered = {(c, c % nodes) for c in range(chunks)}
    at_root = {(c, root) for c in range(chunks)}
    transpose = {(c, (c // nodes) % nodes) for c in range(chunks)}
    return {
        "allgather": (scattered, everywhere, False),
        "gather": (scattered, at_root, False),
        "alltoall": (scattered, transpose, False),
        "broadcast": (at_root, everywhere, False),
        "scatter": (at_root, scattered, False),
        "reduce": (everywhere, at_root, True),
        "reducescatter": (everywhere, scattered, True),
        "allreduce": (everywhere, everywhere, True),
    }[collective.lower()]


def check(collective, nodes, chunks, root, steps, constraints):
    """Replay the sends over chunk sets; raise :class:`CheckError` on a fault."""
    pre, post, combining = placements(collective, nodes, chunks, root)
    # What each buffer holds: the set of inputs folded into it.
    held = {(c, n): frozenset([n] if combining else [c]) for (c, n) in pre}
    known_links = {link for (_, links) in constraints for link in links}
    for index, (rounds, sends) in enumerate(steps):
        load = Counter((src, dst) for (_, src, dst, _) in sends)
        for link in load:
            if link not in known_links:
                raise CheckError(f"step {index}: no link {link}")
        for bandwidth, links in constraints:
            used = sum(load[link] for link in links)
            if used > bandwidth * rounds:
                raise CheckError(f"step {index}: {used} sends over {sorted(links)} "
                                 f"exceed {bandwidth} x {rounds} rounds")
        after = dict(held)  # sends of one step all read the state before it
        for chunk, src, dst, op in sends:
            if (chunk, src) not in held:
                raise CheckError(f"step {index}: node {src} lacks chunk {chunk}")
            data = held[(chunk, src)]
            if op == "reduce":
                have = after.get((chunk, dst), frozenset())
                if have & data:
                    raise CheckError(f"step {index}: chunk {chunk} double-counted at {dst}")
                data = have | data
            after[(chunk, dst)] = data
        held = after
    everyone = frozenset(range(nodes))
    for chunk, node in post:
        if (chunk, node) not in held:
            raise CheckError(f"chunk {chunk} never reaches node {node}")
        if combining and held[(chunk, node)] != everyone:
            raise CheckError(f"chunk {chunk} at node {node} is not fully reduced")


def check_algorithm(algorithm, root=0):
    """Flatten an ``Algorithm``-shaped object to plain data and check it."""
    topology = algorithm.topology
    check(
        algorithm.collective,
        topology.num_nodes,
        algorithm.num_chunks,
        root,
        [(s.rounds, [(t.chunk, t.src, t.dst, t.op) for t in s.sends]) for s in algorithm.steps],
        [(c.bandwidth, list(c.links)) for c in topology.constraints],
    )
