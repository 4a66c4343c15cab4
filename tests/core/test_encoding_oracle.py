"""Differential checks of the pruning encoder.

``ScclEncoding`` refutes instances by cut arithmetic, orders interchangeable
chunks and builds time variables over tightened domains.  On random small
fabrics its verdict must equal the unpruned ``ScclEncoding``'s (3-5 nodes,
C <= 2, Broadcast C <= 4) and, where the instance has at most 6 global
chunks, the explicit-state reference's (``tests/oracle/reference.py``, which
shares no code with ``repro``); every model must verify, every cut witness
must be the arithmetic it claims and, on the reference's domain, an
instance the reference finds infeasible; assumption frames of the family
executor's shared-prefix encoding must equal cold encodes, and feasibility
must be monotone in ``R`` and ``S`` — the invariant ``BoundsLedger``
assumes.
"""

from hypothesis import given, settings, strategies as st
from test_agreement import MAX_GLOBAL_CHUNKS, judge

from repro.core import ScclEncoding, make_instance, solve_encoding, synthesize
from repro.engine import FamilyExecutor, SweepRequest
from repro.engine.dispatch import make_probe
from repro.topology import Topology

COLLECTIVES = ("Allgather", "Broadcast", "Gather", "Scatter", "Alltoall")


@st.composite
def topologies(draw):
    """3-5 nodes, a random directed link set with bandwidths 1-2.

    Not necessarily connected: unreachable postconditions are part of what
    the encoders must agree on.  Some fabrics add a constraint shared by
    two links, the shape of a switch port.
    """
    num_nodes = draw(st.integers(3, 5))
    pairs = [(a, b) for a in range(num_nodes) for b in range(num_nodes) if a != b]
    links = draw(st.lists(st.sampled_from(pairs), min_size=num_nodes, unique=True))
    topology = Topology(name="random", num_nodes=num_nodes)
    for link in links:
        topology.add_link(*link, bandwidth=draw(st.integers(1, 2)))
    if len(links) >= 2 and draw(st.booleans()):
        topology.add_shared_constraint(links[:2], 1)
    return topology


@st.composite
def instances(draw):
    topology = draw(topologies())
    collective = draw(st.sampled_from(COLLECTIVES))
    chunks = draw(st.integers(1, 2 if collective != "Broadcast" else 4))
    steps = draw(st.integers(1, 3))
    rounds = steps + draw(st.integers(0, 2))
    return make_instance(collective, topology, chunks, steps, rounds)


def in_reference_domain(instance):
    return instance.num_chunks <= MAX_GLOBAL_CHUNKS


@settings(max_examples=120, deadline=None)
@given(instances())
def test_pruned_encoding_agrees_with_the_reference(instance):
    result = synthesize(instance)  # every SAT model is re-checked
    assert solve_encoding(ScclEncoding(instance, prune=False)).status is result.status
    if in_reference_domain(instance):
        assert result.is_sat is judge(instance)
    if result.is_sat:
        result.algorithm.verify()
        assert result.algorithm.total_rounds == instance.rounds
    assert (result.provenance == "bound") == (result.witness is not None)


@settings(max_examples=120, deadline=None)
@given(instances())
def test_cut_witness_is_a_real_refutation(instance):
    encoder = ScclEncoding(instance)
    formula = encoder.encode()
    cut = encoder.cut_witness
    if cut is None:
        return
    assert formula.cnf.clauses[-1] == [] and encoder.stats.clauses == 2
    # The witness is what it says it is ...
    have = {c for (c, n) in instance.precondition if n in cut.part}
    need = {c for (c, n) in instance.postcondition if n in cut.part}
    assert cut.chunks == len(need - have) > cut.capacity * instance.rounds
    assert cut.capacity == sum(
        capacity for (src, dst), capacity in instance.topology.link_capacity().items()
        if dst in cut.part and src not in cut.part
    )
    # ... and a search that knows no arithmetic agrees.
    if in_reference_domain(instance):
        assert not judge(instance)


@settings(max_examples=60, deadline=None)
@given(instances(), st.integers(0, 1), st.integers(0, 1))
def test_feasibility_is_monotone_in_rounds_and_steps(instance, more_steps, more_rounds):
    relaxed = make_instance(
        instance.collective, instance.topology, instance.chunks_per_node,
        instance.steps + more_steps,
        instance.rounds + more_steps + more_rounds,  # R >= S stays true
    )
    if synthesize(instance).is_sat:
        assert synthesize(relaxed).is_sat


@settings(max_examples=25, deadline=None)
@given(topologies(), st.integers(1, 3), st.integers(0, 2))
def test_family_frames_equal_cold_encodes(topology, steps, slack):
    """Broadcast C 1 -> 4 from one hint: the symmetry chain of the C = 4
    formula, built once, must hold under frames that disable the upper
    chunk levels."""
    request = SweepRequest("Broadcast", topology, steps, ())
    probes = [
        make_probe(request, rounds, chunks)
        for chunks in (1, 4, 2, 3)
        for rounds in range(steps, steps + slack + 1)
    ]
    executor = FamilyExecutor(request)
    executor.prefetch(probes)
    for probe in probes:
        framed = executor.result(probe)
        cold = synthesize(make_instance("Broadcast", topology, probe.chunks, steps, probe.rounds))
        assert framed.status is cold.status, probe.key
    assert executor.encode_calls == 1
