"""PlanRequest/PlanResponse: validation, wire forms, content addressing."""

import pytest

from repro.engine import fingerprint
from repro.service import PlanRequest, PlanResponse, ServiceError
from repro.topology import ring


PINNED_JSON = {"collective": "Allgather", "topology": "ring:4", "chunks": 1, "steps": 2, "rounds": 3}


class TestRequestValidation:
    def test_pinned_and_routed_modes(self):
        pinned = PlanRequest("Allgather", "ring:4", chunks=1, steps=2, rounds=3)
        assert pinned.mode == "pinned"
        routed = PlanRequest("Allgather", "ring:4", size_bytes=1 << 20)
        assert routed.mode == "routed"

    def test_partial_pin_rejected(self):
        with pytest.raises(ServiceError):
            PlanRequest("Allgather", "ring:4", chunks=1, steps=2).mode

    def test_neither_mode_rejected(self):
        with pytest.raises(ServiceError):
            PlanRequest("Allgather", "ring:4").mode

    def test_bad_topology_spec_rejected(self):
        with pytest.raises(ServiceError):
            PlanRequest("Allgather", "mesh:4", chunks=1, steps=2, rounds=3).validate()

    def test_bad_ranges_rejected(self):
        with pytest.raises(ServiceError):
            PlanRequest("Allgather", "ring:4", chunks=0, steps=2, rounds=3).validate()
        with pytest.raises(ServiceError):
            PlanRequest("Allgather", "ring:4", size_bytes=0).validate()
        with pytest.raises(ServiceError):
            PlanRequest(
                "Allgather", "ring:4", chunks=1, steps=2, rounds=3, deadline_s=0
            ).validate()
        # A day is the longest deadline a request may name.
        PlanRequest(
            "Allgather", "ring:4", chunks=1, steps=2, rounds=3, deadline_s=24 * 3600.0
        ).validate()

    def test_synchrony_is_bounded(self):
        """A routed build enumerates its candidate lattice before any solve
        or deadline check: a k from the wire beyond the bound is refused
        when the request is parsed, and the bound itself is accepted."""
        routed = {"collective": "Allgather", "topology": "ring:4", "size_bytes": 1}
        with pytest.raises(ServiceError, match="synchrony"):
            PlanRequest.from_json(dict(routed, synchrony=2000))

        from repro.service.api import MAX_SYNCHRONY

        with pytest.raises(ServiceError, match="synchrony"):
            PlanRequest.from_json(dict(routed, synchrony=MAX_SYNCHRONY + 1))
        assert PlanRequest.from_json(dict(routed, synchrony=MAX_SYNCHRONY)).synchrony == 8
        with pytest.raises(ServiceError, match="synchrony"):
            PlanRequest("Allgather", "ring:4", size_bytes=1, synchrony=-1).validate()


class TestContentAddressing:
    def test_pinned_key_reuses_engine_fingerprint(self):
        request = PlanRequest("Allgather", "ring:4", chunks=1, steps=2, rounds=3)
        assert request.request_key() == fingerprint("Allgather", ring(4), 1, 2, 3)

    def test_deadline_does_not_affect_key(self):
        base = PlanRequest("Allgather", "ring:4", chunks=1, steps=2, rounds=3)
        patient = PlanRequest(
            "Allgather", "ring:4", chunks=1, steps=2, rounds=3, deadline_s=1.0,
        )
        assert base.request_key() == patient.request_key()

    def test_topology_spelling_does_not_affect_key(self):
        # Content addressing is structural: ring:4 at bandwidth 1 written
        # two ways must coalesce.
        a = PlanRequest("Allgather", "ring:4", chunks=1, steps=2, rounds=3)
        b = PlanRequest("Allgather", "ring:4:1", chunks=1, steps=2, rounds=3)
        assert a.request_key() == b.request_key()

    def test_routed_keys_distinguish_work(self):
        base = PlanRequest("Allgather", "ring:4", size_bytes=1 << 20)
        assert base.request_key() == PlanRequest(
            "Allgather", "ring:4", size_bytes=1 << 20
        ).request_key()
        assert base.request_key() != PlanRequest(
            "Allgather", "ring:4", size_bytes=1 << 21
        ).request_key()
        assert base.request_key() != PlanRequest(
            "Allgather", "ring:6", size_bytes=1 << 20
        ).request_key()
        assert base.request_key() != PlanRequest(
            "Broadcast", "ring:4", size_bytes=1 << 20
        ).request_key()


class TestDerivedOncePerObject:
    """Topology and key are functions of frozen fields: computed once."""

    def test_topology_and_key_are_remembered(self):
        request = PlanRequest("Allgather", "ring:4", chunks=1, steps=2, rounds=3)
        assert request.resolve_topology() is request.resolve_topology()
        assert request.request_key() == fingerprint("Allgather", ring(4), 1, 2, 3)

    def test_replace_starts_clean_and_identity_is_the_fields(self):
        import dataclasses
        import pickle

        request = PlanRequest("Allgather", "ring:4", chunks=1, steps=2, rounds=3)
        fresh = PlanRequest("Allgather", "ring:4", chunks=1, steps=2, rounds=3)
        request.resolve_topology(), request.request_key()
        assert request == fresh and hash(request) == hash(fresh) and repr(request) == repr(fresh)
        other = dataclasses.replace(request, topology="ring:6", steps=3, rounds=5)
        assert other.resolve_topology().num_nodes == 6
        assert other.request_key() == fingerprint("Allgather", ring(6), 1, 3, 5)
        assert pickle.loads(pickle.dumps(request)) == request

    def test_a_bad_spec_fails_every_time(self):
        request = PlanRequest("Allgather", "mesh:4", size_bytes=8)
        for _ in range(2):
            with pytest.raises(ServiceError, match="mesh"):
                request.resolve_topology()


class TestWireForms:
    def test_request_roundtrip(self):
        request = PlanRequest(
            "Allgather", "ring:4", chunks=2, steps=3, rounds=4, deadline_s=5.0,
        )
        wire = request.to_json()
        assert set(wire) == {
            "version", "collective", "topology", "chunks", "steps", "rounds",
            "root", "synchrony", "deadline_s",
        }
        again = PlanRequest.from_json(wire)
        assert again == request

    def test_routed_request_roundtrip(self):
        request = PlanRequest("Allgather", "dgx1", size_bytes=1 << 20, synchrony=1)
        again = PlanRequest.from_json(request.to_json())
        assert again == request
        assert again.request_key() == request.request_key()

    @pytest.mark.parametrize("payload, field", [
        ({"collective": "Allgather"}, "topology"),
        ("not an object", "JSON object"),
        # Nothing the wire cannot represent is coerced into something else.
        ({"chunks": 1.9}, "chunks"),
        ({"chunks": True}, "chunks"),
        ({"steps": "2"}, "steps"),
        ({"root": 1.5}, "root"),
        ({"synchrony": 2.5, "chunks": None, "steps": None, "rounds": None,
          "size_bytes": 1024}, "synchrony"),
        ({"size_bytes": True, "chunks": None, "steps": None, "rounds": None}, "size_bytes"),
        ({"prune": "false"}, "prune"),
        ({"prune": 0}, "prune"),
        # The formula is not a choice: only the values every older client
        # sends are accepted.
        ({"encoding": "naive"}, "'encoding' is gone"),
        ({"encoding": None}, "'encoding' is gone"),
        ({"prune": False}, "'prune' is gone"),
        ({"prune": 1}, "'prune' is gone"),
        ({"encoding": "naive", "chunks": None, "steps": None, "rounds": None,
          "size_bytes": 1024}, "'encoding' is gone"),
        ({"prune": False, "chunks": None, "steps": None, "rounds": None,
          "size_bytes": 1024}, "'prune' is gone"),
        ({"deadline_s": float("nan")}, "deadline_s"),
        ({"deadline_s": float("inf")}, "deadline_s"),
        # A deadline is a request's bound, and no request waits over a day.
        ({"deadline_s": 24 * 3600.0 + 1}, "deadline_s"),
        ({"deadline_s": True}, "deadline_s"),
        ({"deadline_s": "60"}, "deadline_s"),
        # The schema is closed: every key outside it is named, none ignored.
        ({"deadline": 0.5, "prun": False}, "unknown request field.*: deadline, prun"),
        ({"Chunks": 1}, "unknown request field.*Chunks"),
        ({"backend": 5}, "'backend' is gone"),
        ({"backend": "cdcl"}, "'backend' is gone"),
        ({"backend": "z3", "chunks": None, "steps": None, "rounds": None,
          "size_bytes": 1024}, "'backend' is gone"),
    ])
    def test_from_json_validates(self, payload, field):
        if isinstance(payload, dict) and "collective" not in payload:
            payload = {**PINNED_JSON, **payload}
        with pytest.raises(ServiceError, match=field):
            PlanRequest.from_json(payload)

    def test_from_json_takes_every_schema_key(self):
        payload = {
            "version": 1, "collective": "Allgather", "topology": "ring:4",
            "chunks": 1, "steps": 2, "rounds": 3, "root": 0, "size_bytes": None,
            "synchrony": 1, "deadline_s": 5, "encoding": "sccl", "prune": True,
        }
        assert PlanRequest.from_json(payload) == PlanRequest(
            "Allgather", "ring:4", chunks=1, steps=2, rounds=3, synchrony=1,
            deadline_s=5.0,
        )

    @pytest.mark.parametrize("request_", [
        PlanRequest("Allgather", "ring:4", chunks=1, steps=2, rounds=3),
        PlanRequest("Allgather", "ring:4", size_bytes=1 << 20, synchrony=1),
    ], ids=["pinned", "routed"])
    def test_older_clients_wire_form_is_the_same_request(self, request_):
        """Clients of earlier versions send ``encoding``/``prune`` at their one
        accepted value: the same request, the same key, as without them."""
        wire = request_.to_json()
        assert "encoding" not in wire and "prune" not in wire
        older = PlanRequest.from_json({**wire, "encoding": "sccl", "prune": True})
        assert older == request_ == PlanRequest.from_json(wire)
        assert older.request_key() == request_.request_key()

    def test_from_json_takes_integral_floats(self):
        routed = {**PINNED_JSON, "chunks": None, "steps": None, "rounds": None,
                  "size_bytes": 1048576.0, "root": 0.0}
        request = PlanRequest.from_json(routed)
        assert request.size_bytes == 1048576 and type(request.size_bytes) is int
        assert request == PlanRequest("Allgather", "ring:4", size_bytes=1 << 20)

    def test_response_roundtrip(self):
        response = PlanResponse(
            status="ok", request_key="abc", plan=None, source="cache",
            solve_time_s=0.5, wait_time_s=0.1, coalesced=True,
            route={"plan": "x"},
        )
        again = PlanResponse.from_json(response.to_json())
        assert again.status == "ok" and again.coalesced and again.route == {"plan": "x"}

    def test_response_rejects_bad_status(self):
        with pytest.raises(ServiceError):
            PlanResponse.from_json({"status": "weird"})

    def test_plan_object_requires_plan(self):
        with pytest.raises(ServiceError):
            PlanResponse(status="error", request_key="k").plan_object()
