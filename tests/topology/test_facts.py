"""The topology's memo of derived facts.

``links`` / ``link_capacity`` / the neighbour lists and whatever
``Topology.fact`` is asked for are derived once per state of the bandwidth
relation.  These tests pin the two things that can go wrong with a memo:
it is served stale, or it leaks into an object it was not derived from.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives import get_collective
from repro.core.bounds import BoundsError, lower_bounds
from repro.faults import FaultSet, LinkDown
from repro.topology import BandwidthConstraint, Topology, dgx1, ring, shortest_path_lengths
from repro.topology.analysis import cut_capacity


# ----------------------------------------------------------------------
# From-scratch references (what the methods computed before the memo)
# ----------------------------------------------------------------------
def scratch_capacity(topology):
    capacity = {}
    for constraint in topology.constraints:
        for link in constraint.links:
            capacity[link] = min(capacity.get(link, constraint.bandwidth), constraint.bandwidth)
    return capacity


def scratch_links(topology):
    return {link for link, cap in scratch_capacity(topology).items() if cap > 0}


def scratch_cut_capacity(topology, part):
    return sum(
        cap for (src, dst), cap in scratch_capacity(topology).items()
        if dst in part and src not in part
    )


def scratch_bandwidth_bound(collective, topology):
    """The tightest single-node / complement / balanced-bipartition ratio."""
    from itertools import combinations

    spec = get_collective(collective)
    chunks_per_node = topology.num_nodes if spec.name == "Alltoall" else 1
    pre = spec.precondition(topology.num_nodes, chunks_per_node, 0)
    post = spec.postcondition(topology.num_nodes, chunks_per_node, 0)
    nodes = list(topology.nodes())
    everyone = frozenset(nodes)
    parts = [frozenset({n}) for n in nodes]
    parts += [everyone - part for part in parts]
    if 2 <= len(nodes) <= 10:
        for subset in combinations(nodes, len(nodes) // 2):
            parts += [frozenset(subset), everyone - frozenset(subset)]
    best = Fraction(0)
    for part in parts:
        needed = {c for (c, n) in post if n in part}
        held = {c for (c, n) in pre if n in part}
        chunks = len(needed - held)
        if chunks:
            capacity = scratch_cut_capacity(topology, part)
            if capacity == 0:
                raise BoundsError("no incoming links")
            best = max(best, Fraction(chunks, capacity * chunks_per_node))
    return best


def assert_facts_from_scratch(topology):
    assert dict(topology.link_capacity()) == scratch_capacity(topology)
    assert topology.links() == scratch_links(topology)
    for node in topology.nodes():
        assert topology.out_neighbors(node) == sorted(
            dst for (src, dst) in scratch_links(topology) if src == node
        )


# ----------------------------------------------------------------------
# Never stale
# ----------------------------------------------------------------------
class TestRecomputedWhenTheRelationChanges:
    def test_add_link(self):
        topology = ring(4)
        before = topology.links()
        assert (0, 2) not in before
        topology.add_link(0, 2, 3)
        assert topology.links() == before | {(0, 2)}
        assert topology.bandwidth_between(0, 2) == 3
        assert topology.out_neighbors(0) == [1, 2, 3]
        assert_facts_from_scratch(topology)

    def test_add_shared_constraint_tightens_a_link(self):
        topology = Topology("t", 3)
        topology.add_link(0, 1, 4)
        topology.add_link(0, 2, 4)
        assert topology.link_capacity()[(0, 1)] == 4
        assert cut_capacity(topology, {1, 2}) == 8
        topology.add_shared_constraint([(0, 1), (0, 2)], 1)
        assert topology.link_capacity()[(0, 1)] == 1
        assert cut_capacity(topology, {1, 2}) == 2
        assert_facts_from_scratch(topology)

    def test_edited_and_replaced_constraint_lists(self):
        topology = ring(4)
        topology.links()
        del topology.constraints[0]
        assert_facts_from_scratch(topology)
        topology.constraints = [BandwidthConstraint(frozenset({(0, 1)}), 2)]
        assert topology.links() == {(0, 1)}
        assert_facts_from_scratch(topology)

    def test_a_zero_bandwidth_constraint_removes_the_link(self):
        topology = ring(4)
        assert topology.has_link(0, 1)
        topology.add_link(0, 1, 0)
        assert not topology.has_link(0, 1)
        assert 1 not in topology.out_neighbors(0)

    def test_lower_bounds_follow_the_relation(self):
        topology = ring(4)
        assert lower_bounds("Allgather", topology) == (2, Fraction(3, 2))
        for node in range(4):
            topology.add_link(node, (node + 2) % 4)
        assert lower_bounds("Allgather", topology) == (1, Fraction(1))

    def test_fact_is_computed_once_per_state(self):
        topology = ring(4)
        calls = []

        def count_links(t):
            calls.append(len(t.constraints))
            return len(t.links())

        assert topology.fact(count_links) == 8
        assert topology.fact(count_links) == 8
        assert calls == [8]
        topology.add_link(0, 2)
        assert topology.fact(count_links) == 9
        assert calls == [8, 9]

    def test_derived_once_while_nothing_changes(self):
        topology = dgx1()
        assert topology.links() is topology.links()
        assert topology.link_capacity() is topology.link_capacity()

    def test_views_are_read_only(self):
        topology = ring(4)
        with pytest.raises(TypeError):
            topology.link_capacity()[(0, 2)] = 1
        with pytest.raises(AttributeError):
            topology.links().add((0, 2))
        topology.out_neighbors(0).append(7)  # a caller's own list
        assert topology.out_neighbors(0) == [1, 3]

    def test_shortest_paths_are_a_fresh_dict_unless_asked_as_a_fact(self):
        # The encoder reads the shared table through ``fact``; whoever calls
        # the function gets a table of their own to edit.
        topology = ring(4)
        shared = topology.fact(shortest_path_lengths)
        own = shortest_path_lengths(topology)
        assert own == shared and own is not shared
        own[0][2] = 99
        assert shortest_path_lengths(topology)[0][2] == 2
        assert topology.fact(shortest_path_lengths) is shared and shared[0][2] == 2


# ----------------------------------------------------------------------
# Never leaked
# ----------------------------------------------------------------------
class TestDerivedTopologiesStartClean:
    def test_reversed(self):
        topology = Topology("t", 3)
        topology.add_link(0, 1, 2)
        topology.add_link(1, 2, 1)
        assert topology.links() == {(0, 1), (1, 2)}
        flipped = topology.reversed()
        assert flipped.links() == {(1, 0), (2, 1)}
        assert flipped.out_neighbors(1) == [0]
        assert topology.links() == {(0, 1), (1, 2)}

    def test_fault_degraded_copy(self):
        topology = ring(4)
        healthy = topology.links()
        degraded = FaultSet([LinkDown(0, 1)]).apply(topology)
        assert degraded.links() == healthy - {(0, 1)}
        assert degraded.out_neighbors(0) == [3]
        assert topology.links() == healthy
        assert lower_bounds("Allgather", topology)[0] == 2
        assert lower_bounds("Allgather", degraded)[0] == 3

    def test_replace_with_other_constraints(self):
        topology = ring(4)
        topology.links()
        smaller = dataclasses.replace(topology, constraints=topology.constraints[:2])
        assert_facts_from_scratch(smaller)
        assert len(smaller.links()) == 2
        assert len(topology.links()) == 8

    def test_copies_compare_and_answer_as_before(self):
        topology = dgx1()
        topology.links(), lower_bounds("Allgather", topology)
        for clone in (
            copy.copy(topology),
            copy.deepcopy(topology),
            dataclasses.replace(topology),
            pickle.loads(pickle.dumps(topology)),
        ):
            assert clone == topology
            assert clone._facts is None  # derived again, by whoever needs them
            assert clone.links() == topology.links()
            assert clone.link_capacity() == topology.link_capacity()
        assert "_facts" not in repr(topology)
        assert "_facts" not in dataclasses.asdict(topology)

    def test_a_shallow_copy_shares_the_list_and_still_sees_edits(self):
        topology = ring(4)
        clone = copy.copy(topology)
        clone.links()
        topology.add_link(0, 2)  # the same constraints list
        assert (0, 2) in clone.links()

    def test_the_memo_is_not_pickled(self):
        topology = dgx1()
        bare = len(pickle.dumps(topology))
        lower_bounds("Allgather", topology)
        assert topology._facts is not None
        assert len(pickle.dumps(topology)) == bare


# ----------------------------------------------------------------------
# Memoized == from scratch, on random fabrics
# ----------------------------------------------------------------------
@st.composite
def edits(draw):
    """A node count and a sequence of ``add_link`` / ``add_shared_constraint`` edits.

    Multi-link constraints are drawn freely, so links sit in several of
    them (overlapping constraints), capacities 0 included.
    """
    nodes = draw(st.integers(min_value=2, max_value=5))
    link = st.tuples(
        st.integers(0, nodes - 1), st.integers(0, nodes - 1)
    ).filter(lambda pair: pair[0] != pair[1])
    edit = st.one_of(
        st.tuples(st.just("link"), link, st.integers(0, 3)),
        st.tuples(
            st.just("shared"),
            st.lists(link, min_size=2, max_size=4, unique=True),
            st.integers(0, 3),
        ),
    )
    return nodes, draw(st.lists(edit, min_size=1, max_size=8))


@settings(max_examples=60, deadline=None)
@given(edits(), st.sampled_from(["Allgather", "Broadcast", "Scatter", "Alltoall"]))
def test_memoized_facts_equal_a_from_scratch_computation(drawn, collective):
    nodes, steps = drawn
    topology = Topology("random", nodes)
    for kind, links, bandwidth in steps:
        if kind == "link":
            topology.add_link(*links, bandwidth)
        else:
            topology.add_shared_constraint(links, bandwidth)
        # Asked after every edit: each answer fills the memo the next edit
        # must invalidate.
        assert_facts_from_scratch(topology)
        for node in topology.nodes():
            assert cut_capacity(topology, {node}) == scratch_cut_capacity(topology, {node})
        fresh = Topology("fresh", nodes, constraints=list(topology.constraints))
        try:
            expected = lower_bounds(collective, fresh)
        except BoundsError:
            with pytest.raises(BoundsError):
                lower_bounds(collective, topology)
            continue
        assert lower_bounds(collective, topology) == expected
        assert expected[1] == scratch_bandwidth_bound(collective, topology)
