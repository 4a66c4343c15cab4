"""The synthesizer against the explicit-state reference, on its domain.

``reference.py`` shares no code with ``repro``: the fabric reaches it as the
plain data of ``topology_fingerprint_payload`` and the placements are its
own reading of Tables 1-2.  On 3-5 node ring, line, star, complete and
random directed fabrics (shared constraints, unreachable nodes, fault-set
copies), for every non-combining collective from every root, with at most
6 global chunks and at most 3 steps, it must agree with:

* the ``synthesize()`` verdict;
* the verdict of the same instance encoded over a ``PrefixAnalysis`` that
  another collective or root went through first (the shape of a shared
  analysis that once poisoned Broadcast root 3 after Allgather);
* the ``pareto_synthesize`` frontier, every point proved, under ``serial``
  and ``incremental`` (all but Alltoall, which the sweep probes only at
  multiples of ``C = N``: ``N * N`` global chunks, past the domain).
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st
from reference import feasible, placements

from repro.core import (
    BoundsError,
    PrefixAnalysis,
    ScclEncoding,
    make_instance,
    pareto_synthesize,
    solve_encoding,
    synthesize,
)
from repro.engine.cache import topology_fingerprint_payload
from repro.faults import FaultSet, LinkDegraded, LinkDown, RankDown
from repro.topology import Topology, fully_connected, line, ring, star

COLLECTIVES = ("Allgather", "Broadcast", "Gather", "Scatter", "Alltoall")
ROOTED = ("Broadcast", "Gather", "Scatter")
#: The reference's domain: at most this many global chunks.
MAX_GLOBAL_CHUNKS = 6


def oracle_verdict(topology, collective, chunks, steps, rounds, root=0):
    """The reference's answer, asked in plain data only."""
    payload = topology_fingerprint_payload(topology)
    nodes = payload["num_nodes"]
    pre, post = placements(collective, nodes, chunks, root)
    return feasible(nodes, payload["constraints"], pre, post, steps, rounds)


def judge(instance):
    """:func:`oracle_verdict` of a ``SynCollInstance``."""
    return oracle_verdict(
        instance.topology, instance.collective, instance.chunks_per_node,
        instance.steps, instance.rounds, instance.root,
    )


@st.composite
def fabrics(draw):
    """A 3-5 node fabric, sometimes degraded by a fault set."""
    n = draw(st.integers(3, 5))
    kind = draw(st.sampled_from(("ring", "line", "star", "complete", "random")))
    bandwidth = draw(st.integers(1, 2))
    if kind == "ring":
        topology = ring(n, bandwidth)
        if draw(st.booleans()):  # one way round
            topology = Topology(name="ring", num_nodes=n)
            for node in range(n):
                topology.add_link(node, (node + 1) % n, bandwidth)
    elif kind == "line":
        topology = line(n, bandwidth)
    elif kind == "star":
        topology = star(n, bandwidth)
        center = draw(st.integers(0, n - 1))
        if center:  # off centre
            topology = Topology(name="star", num_nodes=n)
            for node in range(n):
                if node != center:
                    topology.add_link(center, node, bandwidth)
                    topology.add_link(node, center, bandwidth)
    elif kind == "complete":
        topology = fully_connected(n, bandwidth)
    else:
        # Not necessarily connected: unreachable postconditions are part of
        # what the two must agree on.  Some fabrics add a constraint shared
        # by two or three links, the shape of a switch port.
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        links = draw(st.lists(st.sampled_from(pairs), min_size=n, unique=True))
        topology = Topology(name="random", num_nodes=n)
        for link in links:
            topology.add_link(*link, bandwidth=draw(st.integers(1, 2)))
        shared = draw(st.integers(0, min(3, len(links))))
        if shared >= 2:
            topology.add_shared_constraint(links[:shared], draw(st.integers(1, 2)))
    links = sorted(topology.links())
    faults = draw(st.lists(
        st.one_of(
            st.sampled_from(links).map(lambda link: LinkDown(*link)),
            st.integers(0, n - 1).map(RankDown),
            st.tuples(st.sampled_from(links), st.integers(0, 1)).map(
                lambda fault: LinkDegraded(*fault[0], bandwidth=fault[1])
            ),
        ),
        max_size=2,
        unique_by=lambda fault: (fault.kind, repr(fault)),
    ))
    return FaultSet(tuple(faults)).apply(topology)


@st.composite
def problems(draw):
    """A fabric, a collective with its root, and a point of its lattice."""
    topology = draw(fabrics())
    n = topology.num_nodes
    collective = draw(st.sampled_from(COLLECTIVES))
    root = draw(st.integers(0, n - 1)) if collective in ROOTED else 0
    most = 4 if collective == "Broadcast" else MAX_GLOBAL_CHUNKS // n
    chunks = draw(st.integers(1, most))
    steps = draw(st.integers(1, 3))
    rounds = steps + draw(st.integers(0, 2))
    return make_instance(collective, topology, chunks, steps, rounds, root=root)


def oracle_frontier(topology, collective, root, k, max_steps, max_chunks, bandwidth_bound):
    """Algorithm 1 with the reference as the only judge: per step count,
    the first feasible ``(R, C)`` by ``R / C`` (then ``R``, then ``C``) in the
    whole box, kept if no earlier point is as cheap in bandwidth, stopping
    after a point at the bandwidth bound."""
    points = []
    for steps in range(1, max_steps + 1):
        box = sorted(
            ((rounds, chunks)
             for rounds in range(steps, steps + k + 1)
             for chunks in range(1, max_chunks + 1)),
            key=lambda rc: (Fraction(*rc), *rc),
        )
        found = next(
            ((rounds, chunks) for rounds, chunks in box
             if oracle_verdict(topology, collective, chunks, steps, rounds, root)),
            None,
        )
        if found is not None and all(
            Fraction(*found) < Fraction(r, c) for c, _, r in points
        ):
            rounds, chunks = found
            points.append((chunks, steps, rounds))
            if Fraction(rounds, chunks) == bandwidth_bound:
                break
    return points


def assert_frontier_agrees(
    topology, collective, root, k, max_steps, max_chunks, strategy, **options
):
    try:
        frontier = pareto_synthesize(
            collective, topology, k, root=root, max_steps=max_steps,
            max_chunks=max_chunks, strategy=strategy, **options,
        )
    except BoundsError:
        # Some chunk cannot reach a node that needs it, at any size.
        assert not oracle_verdict(
            topology, collective, 1, max_steps, max_steps + k, root
        )
        return
    expected = oracle_frontier(
        topology, collective, root, k, max_steps, max_chunks, frontier.bandwidth_lower_bound
    )
    assert [point.signature for point in frontier.points] == expected, strategy
    assert all(point.proved for point in frontier.points)


@settings(max_examples=150, deadline=None)
@given(problems(), st.sampled_from(COLLECTIVES), st.integers(0, 4), st.integers(0, 1),
       st.integers(1, 3))
def test_the_synthesizer_agrees_with_the_reference(instance, other, other_root, k, max_steps):
    topology = instance.topology
    expected = judge(instance)
    assert synthesize(instance).is_sat is expected

    # Another collective or root through the same analysis first.
    other_root = other_root % topology.num_nodes if other in ROOTED else 0
    analysis = PrefixAnalysis(topology)
    ScclEncoding(
        make_instance(other, topology, 1, instance.steps, instance.rounds, root=other_root),
        analysis=analysis,
    ).encode()
    assert solve_encoding(ScclEncoding(instance, analysis=analysis)).is_sat is expected

    # The sweep probes Alltoall only at multiples of C = N, where its
    # transpose is balanced; on 3-5 nodes that is 9 or more global chunks,
    # past the reference's G <= 6 domain.
    if instance.collective == "Alltoall":
        return
    for strategy in ("serial", "incremental"):
        assert_frontier_agrees(
            topology, instance.collective, instance.root, k, max_steps,
            instance.chunks_per_node, strategy,
        )
