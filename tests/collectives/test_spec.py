"""Tests for the Table 2 collective specifications."""

import pytest
from hypothesis import given, strategies as st

from repro.collectives import (
    COLLECTIVES,
    CollectiveError,
    get_collective,
)


def chunks_at(relation, node):
    return {c for (c, n) in relation if n == node}


NON_COMBINING = [spec for spec in COLLECTIVES.values() if not spec.combining]


def test_all_paper_collectives_present():
    names = set(COLLECTIVES)
    assert {"Gather", "Allgather", "Alltoall", "Broadcast", "Scatter",
            "Reduce", "Reducescatter", "Allreduce"} <= names


def test_lookup_is_case_insensitive():
    assert get_collective("allgather").name == "Allgather"
    assert get_collective("ALLREDUCE").name == "Allreduce"


def test_unknown_collective():
    with pytest.raises(CollectiveError):
        get_collective("Gossip")


def test_combining_split():
    combining = {name for name, spec in COLLECTIVES.items() if spec.combining}
    non_combining = {spec.name for spec in NON_COMBINING}
    assert combining == {"Reduce", "Reducescatter", "Allreduce"}
    assert "Allgather" in non_combining
    assert combining.isdisjoint(non_combining)


def test_combining_point_to_inverse():
    assert get_collective("Reduce").inverse_of == "Broadcast"
    assert get_collective("Reducescatter").inverse_of == "Allgather"
    assert get_collective("Allreduce").inverse_of == "Allgather"


def test_global_chunk_counts_match_paper_conventions():
    # Table 4 footnote: for Reducescatter and Scatter, C is multiplied by 8.
    p = 8
    assert get_collective("Allgather").global_chunks(p, 6) == 48
    assert get_collective("Broadcast").global_chunks(p, 6) == 6
    assert get_collective("Scatter").global_chunks(p, 6) == 48
    assert get_collective("Alltoall").global_chunks(p, 24) == 192
    assert get_collective("Allreduce").global_chunks(p, 6) == 48


def test_allgather_pre_post():
    spec = get_collective("Allgather")
    pre = spec.precondition(4, 2)
    post = spec.postcondition(4, 2)
    # Every node starts with its own 2 chunks and ends with all 8.
    for node in range(4):
        assert len(chunks_at(pre, node)) == 2
        assert len(chunks_at(post, node)) == 8
    assert pre <= post  # Allgather only adds copies


def test_broadcast_pre_post_root():
    spec = get_collective("Broadcast")
    pre = spec.precondition(4, 3, root=2)
    post = spec.postcondition(4, 3, root=2)
    assert chunks_at(pre, 2) == {0, 1, 2}
    assert chunks_at(pre, 0) == set()
    assert all(len(chunks_at(post, n)) == 3 for n in range(4))


def test_scatter_and_gather_are_reverses():
    scatter = get_collective("Scatter")
    gather = get_collective("Gather")
    assert scatter.precondition(4, 2, root=1) == gather.postcondition(4, 2, root=1)
    assert scatter.postcondition(4, 2, root=1) == gather.precondition(4, 2, root=1)


def test_alltoall_moves_every_nodes_data():
    spec = get_collective("Alltoall")
    pre = spec.precondition(4, 4)
    post = spec.postcondition(4, 4)
    # Balanced: each node starts and ends with 4 chunks.
    for node in range(4):
        assert len(chunks_at(pre, node)) == 4
        assert len(chunks_at(post, node)) == 4


def test_combining_collective_has_no_direct_relations():
    spec = get_collective("Allreduce")
    with pytest.raises(CollectiveError):
        spec.precondition(4, 1)
    with pytest.raises(CollectiveError):
        spec.postcondition(4, 1)


def test_negative_chunks_rejected():
    with pytest.raises(CollectiveError):
        get_collective("Allgather").global_chunks(4, -1)


@given(nodes=st.integers(2, 10), chunks=st.integers(1, 6))
def test_non_combining_pre_post_mention_same_chunks(nodes, chunks):
    for spec in NON_COMBINING:
        pre = spec.precondition(nodes, chunks)
        post = spec.postcondition(nodes, chunks)
        assert {c for (c, _) in pre} == {c for (c, _) in post}


@given(nodes=st.integers(2, 8), chunks=st.integers(1, 5))
def test_every_chunk_has_a_source_and_a_destination(nodes, chunks):
    for spec in NON_COMBINING:
        g = spec.global_chunks(nodes, chunks)
        pre = spec.precondition(nodes, chunks)
        post = spec.postcondition(nodes, chunks)
        for chunk in range(g):
            assert any(c == chunk for (c, _) in pre)
            assert any(c == chunk for (c, _) in post)


@given(nodes=st.integers(1, 10), chunks=st.integers(0, 6))
def test_global_chunks_is_linear_in_the_per_node_count(nodes, chunks):
    # G(N, C) = C * G(N, 1): a global count maps back to one per-node count.
    for spec in COLLECTIVES.values():
        assert spec.global_chunks(nodes, chunks) == chunks * spec.global_chunks(nodes, 1)
