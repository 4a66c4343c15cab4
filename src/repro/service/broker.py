"""Thread-safe request broker with in-flight coalescing.

The broker sits between N concurrent callers and a small pool of planning
workers.  Its one invariant is the serving economics of the ROADMAP's
north star: *identical in-flight requests trigger exactly one unit of
work*.  ``submit`` keys the request with the broker's key function — the
planning service's is ``(request key, fabric name)``
(:meth:`~repro.service.faults.FaultBoard.job_key`), the key of every
registry memo; if a job with the same key is already queued or running,
the caller's ticket joins that job instead of enqueueing a second one.
When the job completes, every attached ticket receives its own copy of
the shared response, annotated with the caller-specific wait time and a
``coalesced`` flag.  Every answer names the request's own
:meth:`~repro.service.api.PlanRequest.request_key`.

Each ticket gets one deadline at ``submit`` (``deadline_s``, or
:data:`~repro.service.api.DEFAULT_DEADLINE_S`), and a job its most patient
ticket's, which bounds the resolver.  :meth:`Ticket.wait` gives up at the
ticket's deadline, detaches the ticket and returns a ``timeout`` response.
The job keeps running if it has other waiters — and if it has *none* and
has not started yet, it is dropped from the queue entirely.  A started job
is never aborted: what it decided lands in the algorithm cache, so the
work benefits the next caller (opportunistic, in the PopPy sense).

The broker keeps its queue, not its history: every count — requests
enqueued or coalesced, jobs by outcome (``completed``, ``failed``,
``crashed``, ``dropped``), expired tickets — is a series of the process
metrics registry, where ``/v1/stats`` reads it.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, Hashable, List, Optional

from ..telemetry import get_metrics
from .api import DEFAULT_DEADLINE_S, PlanRequest, PlanResponse, ServiceError


class BrokerError(ServiceError):
    """Raised for invalid broker operations."""


class Job:
    """One unit of planning work shared by every coalesced ticket."""

    __slots__ = ("key", "request", "tickets", "started", "dropped", "deadline")

    def __init__(self, key: Hashable, request: PlanRequest) -> None:
        self.key = key
        self.request = request
        self.tickets: List["Ticket"] = []
        self.started = False
        self.dropped = False
        #: The most patient ticket's deadline (``time.monotonic()``).
        self.deadline = 0.0

    def remaining_s(self) -> float:
        """Seconds until the job's deadline, never negative: the time the
        resolver has to answer."""
        return max(0.0, self.deadline - time.monotonic())


class Ticket:
    """One caller's handle on a (possibly shared) job."""

    def __init__(self, broker: "Broker", job: Job, request: PlanRequest, *, coalesced: bool) -> None:
        self._broker = broker
        self._job = job
        self.request = request
        self.coalesced = coalesced
        self.submitted_at = time.monotonic()
        self.deadline = self.submitted_at + (request.deadline_s or DEFAULT_DEADLINE_S)
        self._event = threading.Event()
        self._response: Optional[PlanResponse] = None

    # ------------------------------------------------------------------
    def wait(self) -> PlanResponse:
        """Block until the job completes or the ticket's deadline passes.

        An expired wait detaches the ticket and returns a ``timeout``
        response — the job itself keeps running for any other waiters and
        for the cache.
        """
        if self._event.wait(max(0.0, self.deadline - time.monotonic())):
            return self._response
        with self._broker._lock:
            # The result may have landed between the wait and the lock.
            if self._event.is_set():
                return self._response
            self._detach_locked()
        get_metrics().inc("repro_broker_expired_total")
        return PlanResponse(
            status="timeout",
            request_key=self.request.request_key(),
            wait_time_s=time.monotonic() - self.submitted_at,
            coalesced=self.coalesced,
            error=f"deadline expired after {self.deadline - self.submitted_at:.3f}s",
        )

    def _detach_locked(self) -> None:
        job = self._job
        if self in job.tickets:
            job.tickets.remove(self)
        if not job.tickets and not job.started and not job.dropped:
            # Nobody wants this job and no worker has claimed it: drop it
            # so the queue never burns a worker on unclaimed work.
            job.dropped = True
            self._broker._inflight.pop(job.key, None)
            get_metrics().inc("repro_broker_jobs_total", outcome="dropped")

    # ------------------------------------------------------------------
    def _resolve(self, response: PlanResponse) -> None:
        with self._broker._lock:
            # An expiry that won the race already settled this ticket; the
            # job's result must not overwrite that outcome.
            if self._event.is_set():
                return
            self._response = response.with_wait(
                time.monotonic() - self.submitted_at, coalesced=self.coalesced
            )
            self._event.set()


class Broker:
    """Coalescing FIFO of planning jobs (see module docstring)."""

    def __init__(self, *, key_fn: Callable[[PlanRequest], Hashable]) -> None:
        # The coalescing identity (module docstring).
        self._key_fn = key_fn
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._queue: Deque[Job] = deque()
        self._inflight: Dict[Hashable, Job] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # Caller side
    # ------------------------------------------------------------------
    def submit(self, request: PlanRequest) -> Ticket:
        """Enqueue (or join) the job for ``request`` and return a ticket."""
        request.validate()
        key = self._key_fn(request)
        with self._lock:
            if self._closed:
                raise BrokerError("broker is closed")
            job = self._inflight.get(key)
            coalesced = job is not None and not job.dropped
            if not coalesced:
                job = self._inflight[key] = Job(key, request)
                self._queue.append(job)
                self._available.notify()
            ticket = Ticket(self, job, request, coalesced=coalesced)
            job.tickets.append(ticket)
            job.deadline = max(job.deadline, ticket.deadline)
            get_metrics().inc(
                "repro_broker_requests_total",
                outcome="coalesced" if coalesced else "enqueued",
            )
            return ticket

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def next_job(self) -> Optional[Job]:
        """Claim the next live job (skipping dropped ones), waiting for one;
        None once the broker is closed and drained."""
        with self._available:
            while True:
                while self._queue:
                    job = self._queue.popleft()
                    if job.dropped:
                        continue
                    job.started = True
                    return job
                if self._closed:
                    return None
                self._available.wait()

    def complete(self, job: Job, response: PlanResponse) -> None:
        """Fan a finished job's response out to every remaining waiter."""
        self._settle(job, response, "completed" if response.status == "ok" else "failed")

    def fail(self, job: Job, exc: BaseException) -> None:
        """Fail a job with a structured error response.

        Callers (the worker pool) route resolver exceptions here so every
        waiter gets a typed answer — the reason and the exception class —
        instead of a hung ticket.  The job counts as ``crashed``.
        """
        self._settle(
            job,
            PlanResponse(
                status="error",
                request_key=job.request.request_key(),
                error=f"resolver failed: {exc}",
                error_kind=type(exc).__name__,
            ),
            "crashed",
        )

    def _settle(self, job: Job, response: PlanResponse, outcome: str) -> None:
        with self._lock:
            self._inflight.pop(job.key, None)
            waiters = list(job.tickets)
            job.tickets.clear()
            get_metrics().inc("repro_broker_jobs_total", outcome=outcome)
        for ticket in waiters:
            ticket._resolve(response)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop accepting submissions and wake idle workers."""
        with self._available:
            self._closed = True
            self._available.notify_all()

    def gauges(self) -> Dict[str, int]:
        """Live queue state: jobs waiting for a worker and jobs in flight."""
        with self._lock:
            return {
                "pending": sum(1 for job in self._queue if not job.dropped),
                "inflight": len(self._inflight),
            }
