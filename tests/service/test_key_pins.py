"""Key pins: the content hashes that address persisted and coalesced work.

Routing tables and broker coalescing are keyed by these hashes (the cache
key's pin is ``tests/engine/test_cache.py::TestFingerprint``), so a change
that moves one orphans every table written before it and splits one job
into two.  Each value was recorded before ``encoding``/``prune`` became
constants of the payloads; they must never move.
"""

from repro.service import PlanRequest
from repro.service.registry import routing_key
from repro.topology import dgx1


def test_pinned_request_key():
    request = PlanRequest("Allgather", "ring:4", chunks=1, steps=2, rounds=3)
    assert request.request_key() == (
        "3e21a84373484691bd268693f735f7a4584f12bbd02b1ab3ab89b68dfe116512"
    )


def test_routed_request_key():
    request = PlanRequest("Allgather", "dgx1", size_bytes=1 << 20, synchrony=1)
    assert request.request_key() == (
        "216e327f3ef9b614a6d24c49820d87e709884d638cff85002889c903d616f1e8"
    )


def test_routing_key():
    assert routing_key("Allgather", dgx1(), synchrony=1) == (
        "13489cc55f826dd5d37bda0be94150fba96c30771f9c301450a4daecf9b58835"
    )


def test_the_wire_accepts_only_the_keyed_formula():
    """``encoding``/``prune`` from earlier clients are accepted at exactly the
    values every key payload holds."""
    from repro.engine.cache import FORMULA
    from repro.service.api import _FIXED_FIELDS

    assert _FIXED_FIELDS == FORMULA
