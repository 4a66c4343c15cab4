"""Thread-safe request broker with in-flight coalescing.

The broker sits between N concurrent callers and a small pool of planning
workers.  Its one invariant is the serving economics of the ROADMAP's
north star: *identical in-flight requests trigger exactly one unit of
work*.  ``submit`` hashes the request (content-addressed, see
:meth:`~repro.service.api.PlanRequest.request_key`); if a job with the same
key is already queued or running, the caller's ticket joins that job
instead of enqueueing a second one.  When the job completes, every
attached ticket receives its own copy of the shared response, annotated
with the caller-specific wait time and a ``coalesced`` flag.

Deadlines are caller-side: :meth:`Ticket.wait` gives up after the
request's deadline, detaches the ticket and returns a ``timeout``
response.  The underlying job keeps running if it has other waiters — and
if it has *none* and has not started yet, it is dropped from the queue
entirely.  A
job that already started is never aborted: its result still lands in the
algorithm cache and the registry, so the work benefits the next caller
(opportunistic, in the PopPy sense: extra completed work is never wasted,
merely unclaimed).

The broker keeps its queue, not its history: every count — requests
enqueued or coalesced, jobs by outcome (``completed``, ``failed``,
``crashed``, ``dropped``), expired tickets — is a series of the process
metrics registry, where ``/v1/stats`` reads it.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from ..telemetry import get_metrics
from .api import PlanRequest, PlanResponse, ServiceError

#: Server-side ceiling on deadline-less waits.  A ticket whose request has
#: no deadline must still not block its caller thread forever: a wedged
#: resolver would otherwise pin HTTP threads indefinitely.
DEFAULT_MAX_WAIT_S = 3600.0


class BrokerError(ServiceError):
    """Raised for invalid broker operations."""


class Job:
    """One unit of planning work shared by every coalesced ticket."""

    __slots__ = ("key", "request", "tickets", "started", "dropped", "created_at")

    def __init__(self, key: str, request: PlanRequest) -> None:
        self.key = key
        self.request = request
        self.tickets: List["Ticket"] = []
        self.started = False
        self.dropped = False
        self.created_at = time.monotonic()

    def remaining_s(self) -> Optional[float]:
        """The most patient waiter's remaining deadline (None = no limit).

        Workers pass this to the engine as the solve time limit: the job
        keeps solving as long as *some* waiter is still willing to wait,
        but a job whose every waiter is about to give up does not solve
        forever.
        """
        waiters = list(self.tickets)  # snapshot: callers may detach concurrently
        deadlines = [
            t.submitted_at + t.request.deadline_s
            for t in waiters
            if t.request.deadline_s is not None
        ]
        if not deadlines or len(deadlines) != len(waiters):
            return None  # at least one waiter is unbounded
        return max(0.0, max(deadlines) - time.monotonic())


class Ticket:
    """One caller's handle on a (possibly shared) job."""

    def __init__(self, broker: "Broker", job: Job, request: PlanRequest, *, coalesced: bool) -> None:
        self._broker = broker
        self._job = job
        self.request = request
        self.coalesced = coalesced
        self.submitted_at = time.monotonic()
        self._event = threading.Event()
        self._response: Optional[PlanResponse] = None

    @property
    def key(self) -> str:
        return self._job.key

    # ------------------------------------------------------------------
    def wait(self, timeout: Optional[float] = None) -> PlanResponse:
        """Block until the job completes, the timeout or the deadline.

        ``timeout`` defaults to the request's ``deadline_s``; a request
        with no deadline is still bounded by the broker's ``max_wait_s``
        so a wedged resolver cannot pin caller threads forever.  An
        expired wait detaches the ticket and returns a ``timeout``
        response — the job itself keeps running for any other waiters and
        for the cache.
        """
        if timeout is None:
            timeout = self.request.deadline_s
        if timeout is None:
            timeout = self._broker.max_wait_s
        if self._event.wait(timeout):
            return self._response
        with self._broker._lock:
            # The result may have landed between the wait and the lock.
            if self._event.is_set():
                return self._response
            self._detach_locked()
        get_metrics().inc("repro_broker_expired_total")
        return PlanResponse(
            status="timeout",
            request_key=self.key,
            wait_time_s=time.monotonic() - self.submitted_at,
            coalesced=self.coalesced,
            error=f"deadline expired after {timeout:.3f}s",
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

    def __init__(
        self,
        *,
        key_fn: Callable[[PlanRequest], str],
        max_wait_s: float = DEFAULT_MAX_WAIT_S,
    ) -> None:
        if max_wait_s <= 0:
            raise BrokerError("max_wait_s must be positive")
        self.max_wait_s = max_wait_s
        # The coalescing identity.  The planning service passes a fault-
        # aware key function so requests issued after a fault registration
        # never join an in-flight job that targets the healthy fabric.
        self._key_fn = key_fn
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._queue: Deque[Job] = deque()
        self._inflight: Dict[str, Job] = {}
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
            if job is not None and not job.dropped:
                ticket = Ticket(self, job, request, coalesced=True)
                job.tickets.append(ticket)
                get_metrics().inc("repro_broker_requests_total", outcome="coalesced")
                return ticket
            job = Job(key, request)
            ticket = Ticket(self, job, request, coalesced=False)
            job.tickets.append(ticket)
            self._inflight[key] = job
            self._queue.append(job)
            get_metrics().inc("repro_broker_requests_total", outcome="enqueued")
            self._available.notify()
            return ticket

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def next_job(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Claim the next live job (skipping dropped ones); None on timeout
        or when the broker is closed and drained."""
        deadline = None if timeout is None else time.monotonic() + timeout
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
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return None
                self._available.wait(remaining)

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
                request_key=job.key,
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
