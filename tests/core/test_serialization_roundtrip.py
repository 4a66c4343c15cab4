"""Round-trip serialization tests for the cache format.

The algorithm cache persists ``Algorithm.to_dict()`` as JSON; these tests
pin the invariant the cache relies on: serializing a synthesized algorithm
through actual JSON text and deserializing it yields an algorithm that
still passes full verification, for both a plain (non-combining) Allgather
and a combined (Reducescatter + Allgather) Allreduce.
"""

import json

from repro.core import Algorithm, allreduce_from_allgather, make_instance, synthesize
from repro.topology import ring


def roundtrip(algorithm: Algorithm) -> Algorithm:
    text = json.dumps(algorithm.to_dict())
    return Algorithm.from_dict(json.loads(text))


class TestAllgatherRoundtrip:
    def test_json_roundtrip_verifies(self):
        result = synthesize(make_instance("Allgather", ring(4), 1, 2, 3))
        assert result.is_sat
        restored = roundtrip(result.algorithm)
        restored.verify()

    def test_roundtrip_preserves_schedule(self):
        result = synthesize(make_instance("Allgather", ring(4), 2, 3, 3))
        original = result.algorithm
        restored = roundtrip(original)
        assert restored.name == original.name
        assert restored.collective == original.collective
        assert restored.signature() == original.signature()
        assert restored.precondition == original.precondition
        assert restored.postcondition == original.postcondition
        assert [s.rounds for s in restored.steps] == [s.rounds for s in original.steps]
        assert [s.sends for s in restored.steps] == [s.sends for s in original.steps]

    def test_roundtrip_is_stable(self):
        # A second serialization of the restored algorithm is byte-identical.
        result = synthesize(make_instance("Allgather", ring(4), 1, 2, 2))
        first = json.dumps(result.algorithm.to_dict(), sort_keys=True)
        second = json.dumps(roundtrip(result.algorithm).to_dict(), sort_keys=True)
        assert first == second


def allreduce_on_ring4(chunks, steps, rounds):
    """An Allreduce on ring(4): a Reducescatter, then the Allgather it inverts."""
    result = synthesize(make_instance("Allgather", ring(4), chunks, steps, rounds))
    assert result.is_sat
    return allreduce_from_allgather(result.algorithm)


class TestCombinedAllreduceRoundtrip:
    def test_json_roundtrip_verifies(self):
        original = allreduce_on_ring4(1, 2, 3)
        assert original.combining
        restored = roundtrip(original)
        assert restored.combining
        restored.verify()

    def test_roundtrip_preserves_reduce_ops(self):
        original = allreduce_on_ring4(1, 2, 2)
        restored = roundtrip(original)
        ops = {send.op for step in restored.steps for send in step.sends}
        # Both the reducing phase and the copy (allgather) phase survive.
        assert ops == {"reduce", "copy"}
        assert restored.signature() == original.signature()
