"""Explicit-state reference for SynColl feasibility: not the tool's own.

Written from the paper's Tables 1-2 and section 3 without importing anything
outside the standard library, so it shares no instance, collective, encoder
or solver code with ``repro``.  A fabric is plain data: ``num_nodes`` and
``constraints = [(links, bandwidth), ...]`` with ``links`` a list of
``(src, dst)`` pairs (the shape of
``repro.engine.cache.topology_fingerprint_payload``); pre- and
postconditions are sets of ``(chunk, node)`` pairs.

An algorithm has ``steps`` steps; step ``s`` performs ``r_s >= 1`` rounds,
``sum(r_s) == rounds``.  In step ``s`` a node sends a chunk it held when the
step began, and the sends over the links of each constraint number at most
``bandwidth * r_s``.  The instance is feasible iff some algorithm ends with
every postcondition pair held.

:func:`feasible` searches the states (the held pairs) step by step.  A step
picks its round count, then a send set that is maximal under the capacities:
holding more is never worse, so a schedule's step can always be grown to one
of those.  Results are memoised on ``(step, rounds used, state)``.  Two
prunes keep the search small, both sound:

* a needed pair whose nearest holder is farther than the steps left is lost;
* a pair ``(c, v)`` is only added if some node that still lacks ``c`` and
  needs it is within reach of ``v`` in the steps that remain.

The domain it answers in about a second or less: 3-5 nodes, at most 6
global chunks, ``steps <= 3``.
"""

from collections import deque


def placements(collective, num_nodes, chunks_per_node, root=0):
    """``(pre, post)`` of a non-combining collective (Tables 1-2)."""
    name = collective.lower()
    chunks = chunks_per_node if name == "broadcast" else chunks_per_node * num_nodes
    everywhere = {(c, n) for c in range(chunks) for n in range(num_nodes)}
    scattered = {(c, c % num_nodes) for c in range(chunks)}
    at_root = {(c, root) for c in range(chunks)}
    transpose = {(c, (c // num_nodes) % num_nodes) for c in range(chunks)}
    return {
        "allgather": (scattered, everywhere),
        "gather": (scattered, at_root),
        "alltoall": (scattered, transpose),
        "broadcast": (at_root, everywhere),
        "scatter": (at_root, scattered),
    }[name]


def _distances(num_nodes, links):
    """Hop counts ``dist[u][v]`` over ``links`` (None: no path)."""
    out = [[] for _ in range(num_nodes)]
    for src, dst in links:
        out[src].append(dst)
    table = []
    for start in range(num_nodes):
        row = [None] * num_nodes
        row[start] = 0
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for nxt in out[node]:
                if row[nxt] is None:
                    row[nxt] = row[node] + 1
                    queue.append(nxt)
        table.append(row)
    return table


def feasible(num_nodes, constraints, pre, post, steps, rounds):
    """Whether some ``steps``-step, ``rounds``-round algorithm takes ``pre`` to ``post``."""
    if rounds < steps:
        return False
    N = num_nodes
    constraints = [(tuple(tuple(link) for link in links), b) for links, b in constraints]
    # A link carries traffic when every constraint over it has room.
    over = {}
    for index, (links, _) in enumerate(constraints):
        for link in links:
            over.setdefault(link, []).append(index)
    usable = sorted(
        link for link, indices in over.items()
        if link[0] != link[1] and all(constraints[k][1] > 0 for k in indices)
    )
    dist = _distances(N, usable)
    senders = [[] for _ in range(N)]  # per receiver: (sender, its constraints)
    for src, dst in usable:
        senders[dst].append((src, tuple(over[(src, dst)])))
    # within[v][d]: the nodes at most d hops from v; near[w][d]: the nodes
    # w is at most d hops from.
    within = [[sum(1 << w for w in range(N) if dist[v][w] is not None and dist[v][w] <= d)
               for d in range(steps + 1)] for v in range(N)]
    near = [[sum(1 << u for u in range(N) if dist[u][w] is not None and dist[u][w] <= d)
             for d in range(steps + 1)] for w in range(N)]

    # A state is one int: bit c * N + n is set while node n holds chunk c.
    num_chunks = 1 + max((c for c, _ in set(pre) | set(post)), default=-1)
    full = (1 << N) - 1
    need = sum(1 << (c * N + n) for c, n in post)
    needs = [need >> (c * N) & full for c in range(num_chunks)]
    everything = (1 << (num_chunks * N)) - 1

    def settle(state):
        """A chunk no node still needs is held everywhere: nothing about it
        matters any more, so equal futures share one memo key."""
        for c, owed in enumerate(needs):
            if owed & ~(state >> (c * N)) == 0:
                state |= full << (c * N)
        return state

    def lost(state, left):
        for c in range(num_chunks):
            holders = state >> (c * N) & full
            lacking = needs[c] & ~holders
            for w in range(N):
                if lacking >> w & 1 and holders & near[w][left] == 0:
                    return True
        return False

    def candidates(state, left):
        """``(bit, [constraints of a sender's link, ...])`` per pair worth adding."""
        found = []
        for c in range(num_chunks):
            holders = state >> (c * N) & full
            lacking = needs[c] & ~holders
            if not lacking:
                continue
            for v in range(N):
                if holders >> v & 1 or within[v][left - 1] & lacking == 0:
                    continue
                options = [ks for u, ks in senders[v] if holders >> u & 1]
                if options:
                    found.append((1 << (c * N + v), options))
        return found

    def successors(state, pairs, r, last):
        """Every state a send set over ``pairs`` maximal under
        ``bandwidth * r`` reaches, without the ones another successor holds a
        superset of (in the ``last`` step, only a state that holds every
        postcondition pair: there every pair still owed must arrive)."""
        room = [b * r for _, b in constraints]
        # later[i][k]: pairs from index i on that could still use constraint k;
        # an excluded pair must end up blocked, so some constraint on each of
        # its open links must still be fillable.
        later = [[0] * len(constraints) for _ in range(len(pairs) + 1)]
        for i in range(len(pairs) - 1, -1, -1):
            row = later[i] = list(later[i + 1])
            for k in {k for ks in pairs[i][1] for k in ks}:
                row[k] += 1
        excluded = []
        reached = set()

        def fits(ks):
            return all(room[k] > 0 for k in ks)

        def blockable(j, i):
            return all(
                any(room[k] <= later[i][k] for k in ks)
                for ks in pairs[j][1] if fits(ks)
            )

        def grow(i, added):
            if last and reached or not all(blockable(j, i) for j in excluded):
                return
            if i == len(pairs):
                reached.add(settle(state | added))
                return
            bit, options = pairs[i]
            for ks in options:
                if fits(ks):
                    for k in ks:
                        room[k] -= 1
                    grow(i + 1, added | bit)
                    for k in ks:
                        room[k] += 1
            if not last:
                excluded.append(i)
                grow(i + 1, added)
                excluded.pop()

        grow(0, 0)
        kept = []
        for s in sorted(reached, key=lambda s: bin(s).count("1"), reverse=True):
            if all(s & ~t for t in kept):
                kept.append(s)
        return kept

    memo = {}

    def search(step, used, state):
        if state == everything:
            return True
        left = steps - step
        if left == 0 or lost(state, left):
            return False
        key = (step, used, state)
        if key not in memo:
            pairs = candidates(state, left)
            most = rounds - used - (left - 1)  # every later step needs a round
            # More rounds in the last step never hurt: it takes all that are left.
            memo[key] = any(
                search(step + 1, used + r, nxt)
                for r in range(most, 0 if left > 1 else most - 1, -1)
                for nxt in successors(state, pairs, r, left == 1)
            )
        return memo[key]

    return search(0, 0, settle(sum(1 << (c * N + n) for c, n in pre)))
