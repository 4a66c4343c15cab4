"""Tests for the Table 1 chunk-placement relations."""

import pytest
from hypothesis import given, strategies as st

from repro.collectives import (
    RelationError,
    all_nodes,
    root,
    scattered,
    transpose,
)


def chunks_at(relation, node):
    return {c for (c, n) in relation if n == node}


def is_function_of_chunk(relation):
    """Every chunk is placed on exactly one node."""
    return len({c for (c, _) in relation}) == len(relation)


def test_all_relation():
    rel = all_nodes(3, 2)
    assert rel == frozenset({(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)})


def test_root_relation():
    rel = root(3, 4, root_node=2)
    assert rel == frozenset({(0, 2), (1, 2), (2, 2)})
    assert is_function_of_chunk(rel)


def test_root_out_of_range():
    with pytest.raises(RelationError):
        root(2, 4, root_node=7)


def test_scattered_relation():
    rel = scattered(8, 4)
    assert (0, 0) in rel and (1, 1) in rel and (4, 0) in rel and (7, 3) in rel
    assert is_function_of_chunk(rel)
    for node in range(4):
        assert len(chunks_at(rel, node)) == 2


def test_transpose_relation():
    # With G = P*C and P=4, chunk c goes to node (c // 4) % 4.
    rel = transpose(16, 4)
    assert (0, 0) in rel and (4, 1) in rel and (8, 2) in rel and (15, 3) in rel
    assert is_function_of_chunk(rel)


def test_negative_chunks_rejected():
    with pytest.raises(RelationError):
        scattered(-1, 4)
    with pytest.raises(RelationError):
        all_nodes(4, 0)


@given(chunks=st.integers(1, 40), nodes=st.integers(1, 10))
def test_scattered_is_balanced_when_divisible(chunks, nodes):
    total = chunks * nodes
    rel = scattered(total, nodes)
    counts = [len(chunks_at(rel, n)) for n in range(nodes)]
    assert all(c == chunks for c in counts)


@given(chunks=st.integers(0, 60), nodes=st.integers(1, 8))
def test_relation_sizes(chunks, nodes):
    assert len(all_nodes(chunks, nodes)) == chunks * nodes
    assert len(root(chunks, nodes)) == chunks
    assert len(scattered(chunks, nodes)) == chunks
    assert len(transpose(chunks, nodes)) == chunks


@given(chunks=st.integers(1, 60), nodes=st.integers(1, 8))
def test_scattered_and_transpose_are_functions(chunks, nodes):
    assert is_function_of_chunk(scattered(chunks, nodes))
    assert is_function_of_chunk(transpose(chunks, nodes))


@given(chunks=st.integers(1, 6), nodes=st.integers(2, 6))
def test_root_is_a_function_of_chunk_and_all_nodes_is_not(chunks, nodes):
    assert is_function_of_chunk(root(chunks, nodes))
    rel = all_nodes(chunks, nodes)
    assert not is_function_of_chunk(rel)
    assert all(chunks_at(rel, n) == set(range(chunks)) for n in range(nodes))
