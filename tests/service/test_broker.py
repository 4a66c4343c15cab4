"""Broker semantics under contention: coalescing and deadlines.

The acceptance criterion for the service PR lives here: N concurrent
identical requests perform exactly one unit of backend work, counted by a
shim resolver (and, one level up, by the real resolver's ladder rungs in
``test_workers.py``).
"""

import threading
import time
from dataclasses import replace

import pytest

from repro.service import (
    Broker,
    BrokerError,
    PlanRequest,
    PlanResponse,
    PlanningService,
    WorkerError,
    WorkerPool,
)
from repro.telemetry import Metrics, set_metrics

REQUEST = PlanRequest("Allgather", "ring:4", chunks=1, steps=2, rounds=3, deadline_s=10.0)
OTHER = PlanRequest("Allgather", "ring:4", chunks=1, steps=2, rounds=4, deadline_s=10.0)


@pytest.fixture
def metrics():
    """A registry of the test's own: the service keeps no counts but its
    series, and the process-wide registry holds every other test's too."""
    fresh = Metrics()
    previous = set_metrics(fresh)
    yield fresh
    set_metrics(previous)


class CountingResolver:
    """Shim backend: counts invocations, optionally gated on an event."""

    def __init__(self, *, gate: threading.Event = None, delay: float = 0.0):
        self.calls = 0
        self.keys = []
        self.gate = gate
        self.delay = delay
        self._lock = threading.Lock()

    def __call__(self, request, remaining_s=None):
        if self.gate is not None:
            assert self.gate.wait(10.0), "resolver gate never opened"
        if self.delay:
            time.sleep(self.delay)
        with self._lock:
            self.calls += 1
            self.keys.append(request.request_key())
        return PlanResponse(status="ok", request_key=request.request_key(), source="cache")


def requests(metrics) -> dict:
    return metrics.breakdown("repro_broker_requests_total", "outcome")


class TestCoalescing:
    def test_identical_queued_requests_coalesce_to_one_job(self, metrics):
        broker = Broker(key_fn=PlanRequest.request_key)
        tickets = [broker.submit(REQUEST) for _ in range(8)]
        assert requests(metrics) == {"enqueued": 1, "coalesced": 7}
        assert broker.gauges()["pending"] == 1  # one job for eight callers
        assert [ticket.coalesced for ticket in tickets] == [False] + [True] * 7
        assert all(ticket._job is tickets[0]._job for ticket in tickets)

    def test_eight_threads_one_synthesis(self, metrics):
        """8 concurrent identical PlanRequests -> exactly 1 backend call."""
        gate = threading.Event()
        resolver = CountingResolver(gate=gate)
        broker = Broker(key_fn=PlanRequest.request_key)
        pool = WorkerPool(broker, resolver, num_workers=4)
        pool.start()
        try:
            barrier = threading.Barrier(8)
            responses = [None] * 8

            def caller(index):
                barrier.wait()
                ticket = broker.submit(REQUEST)
                responses[index] = ticket.wait()

            threads = [threading.Thread(target=caller, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            # Open the gate only after every caller has submitted, so the
            # in-flight window provably spans all eight submissions.
            while metrics.total("repro_broker_requests_total") < 8:
                time.sleep(0.005)
            gate.set()
            for thread in threads:
                thread.join(10.0)
        finally:
            pool.stop()

        assert resolver.calls == 1
        assert all(r is not None and r.ok for r in responses)
        assert sum(1 for r in responses if r.coalesced) == 7
        assert sum(1 for r in responses if not r.coalesced) == 1
        assert requests(metrics) == {"enqueued": 1, "coalesced": 7}

    def test_distinct_requests_do_not_coalesce(self, metrics):
        resolver = CountingResolver()
        broker = Broker(key_fn=PlanRequest.request_key)
        pool = WorkerPool(broker, resolver, num_workers=2)
        pool.start()
        try:
            first = broker.submit(REQUEST)
            second = broker.submit(OTHER)
            assert first.wait().ok and second.wait().ok
        finally:
            pool.stop()
        assert resolver.calls == 2
        assert requests(metrics) == {"enqueued": 2}

    def test_completed_job_does_not_capture_later_requests(self):
        resolver = CountingResolver()
        broker = Broker(key_fn=PlanRequest.request_key)
        pool = WorkerPool(broker, resolver, num_workers=1)
        pool.start()
        try:
            assert broker.submit(REQUEST).wait().ok
            assert broker.submit(REQUEST).wait().ok
        finally:
            pool.stop()
        # No in-flight overlap: two submissions, two resolutions.
        assert resolver.calls == 2


class TestDeadlines:
    def test_wait_expires_into_timeout_response(self, metrics):
        gate = threading.Event()  # never opened: the job hangs
        broker = Broker(key_fn=PlanRequest.request_key)
        pool = WorkerPool(broker, CountingResolver(gate=gate), num_workers=1)
        pool.start()
        try:
            ticket = broker.submit(replace(REQUEST, deadline_s=0.2))
            response = ticket.wait()
            assert response.status == "timeout"
            assert "deadline" in response.error
            assert metrics.total("repro_broker_expired_total") == 1
        finally:
            gate.set()
            pool.stop()

    def test_request_deadline_is_the_default_wait(self):
        gate = threading.Event()
        broker = Broker(key_fn=PlanRequest.request_key)
        pool = WorkerPool(broker, CountingResolver(gate=gate), num_workers=1)
        pool.start()
        try:
            impatient = PlanRequest(
                "Allgather", "ring:4", chunks=1, steps=2, rounds=3, deadline_s=0.2
            )
            started = time.monotonic()
            response = broker.submit(impatient).wait()
            assert response.status == "timeout"
            assert time.monotonic() - started < 5.0
        finally:
            gate.set()
            pool.stop()

    def test_late_result_still_lands_for_patient_waiters(self):
        gate = threading.Event()
        broker = Broker(key_fn=PlanRequest.request_key)
        pool = WorkerPool(broker, CountingResolver(gate=gate), num_workers=1)
        pool.start()
        try:
            impatient = broker.submit(replace(REQUEST, deadline_s=0.1))
            patient = broker.submit(REQUEST)
            assert impatient.wait().status == "timeout"
            gate.set()
            response = patient.wait()
            assert response.ok and response.coalesced
        finally:
            pool.stop()


    def test_a_job_has_its_most_patient_tickets_deadline(self):
        """Coalesced tickets keep their own deadlines; the job they share
        runs until the latest of them."""
        broker = Broker(key_fn=PlanRequest.request_key)
        impatient = broker.submit(replace(REQUEST, deadline_s=0.5))
        patient = broker.submit(replace(REQUEST, deadline_s=5.0))
        broker.submit(replace(REQUEST, deadline_s=1.0))
        job = broker.next_job()
        assert job.deadline == patient.deadline > impatient.deadline
        assert 4.0 < job.remaining_s() <= 5.0


class TestExpiry:
    def test_expired_wait_before_start_drops_the_job(self, metrics):
        broker = Broker(key_fn=PlanRequest.request_key)  # no workers: the job stays queued
        ticket = broker.submit(replace(REQUEST, deadline_s=0.05))
        assert ticket.wait().status == "timeout"
        assert metrics.total("repro_broker_expired_total") == 1
        assert metrics.breakdown("repro_broker_jobs_total", "outcome") == {"dropped": 1}
        broker.close()
        assert broker.next_job() is None  # nothing left to run

    def test_one_expired_waiter_keeps_the_job(self, metrics):
        broker = Broker(key_fn=PlanRequest.request_key)
        first = broker.submit(replace(REQUEST, deadline_s=0.05))
        second = broker.submit(REQUEST)
        assert first.wait().status == "timeout"
        assert metrics.breakdown("repro_broker_jobs_total", "outcome") == {}
        pool = WorkerPool(broker, CountingResolver(), num_workers=1)
        pool.start()
        try:
            assert second.wait().ok
        finally:
            pool.stop()

    def test_dropped_job_is_recoalescable(self):
        broker = Broker(key_fn=PlanRequest.request_key)
        broker.submit(replace(REQUEST, deadline_s=0.05)).wait()
        fresh = broker.submit(REQUEST)
        assert not fresh.coalesced  # the dropped job must not capture it
        assert broker.gauges() == {"pending": 1, "inflight": 1}


class TestFailuresAndLimits:
    def test_resolver_exception_becomes_error_response(self, metrics):
        def explode(request, remaining_s=None):
            raise RuntimeError("backend on fire")

        broker = Broker(key_fn=PlanRequest.request_key)
        pool = WorkerPool(broker, explode, num_workers=1)
        pool.start()
        try:
            response = broker.submit(REQUEST).wait()
            assert response.status == "error"
            assert "backend on fire" in response.error
            # The pool survives a resolver crash and serves the next job.
            ok = broker.submit(OTHER).wait()
            assert ok.status == "error"
        finally:
            pool.stop()
        # A crash is its own job outcome, not a failed answer.
        assert metrics.breakdown("repro_broker_jobs_total", "outcome") == {"crashed": 2}

    def test_closed_broker_rejects_submissions(self):
        broker = Broker(key_fn=PlanRequest.request_key)
        broker.close()
        with pytest.raises(BrokerError):
            broker.submit(REQUEST)

    def test_invalid_request_rejected_at_submit(self):
        from repro.service import ServiceError

        broker = Broker(key_fn=PlanRequest.request_key)
        with pytest.raises(ServiceError):
            broker.submit(PlanRequest("Allgather", "ring:4", chunks=1))


class TestServiceFacade:
    def test_stop_drains_pending_jobs(self):
        """Stopping the service must not strand submitted tickets."""
        resolver = CountingResolver(delay=0.05)
        service = PlanningService(resolver=resolver, num_workers=1)
        service.start()
        tickets = [service.submit(r) for r in (REQUEST, OTHER)]
        service.stop()
        for ticket in tickets:
            assert ticket.wait().ok

    def test_a_stopped_service_does_not_start_again(self):
        """``stop()`` is final: it closed the broker for good, so a second
        ``start()`` is refused rather than spinning workers on it, and
        nothing more is submitted."""
        service = PlanningService(resolver=CountingResolver(), num_workers=1)
        service.start()
        service.stop()
        with pytest.raises(WorkerError):
            service.start()
        with pytest.raises(WorkerError):
            service.submit(REQUEST)
