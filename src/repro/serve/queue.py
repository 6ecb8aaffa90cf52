"""The job-queue state machine at the heart of the sweep coordinator.

A campaign is a set of :class:`Job` records keyed by the point's
content hash (:meth:`RunSpec.cache_key`), each carrying an opaque JSON
payload (the wire form of the spec).  Jobs move through four states::

    pending ----claim----> leased ---complete---> done
       ^                      |
       |   fail / lease expiry, attempts < max_attempts (backoff)
       +----------------------+
                              |   attempts >= max_attempts
                              +--------------------------> quarantined

Contract (enforced here, fuzz-tested in ``tests/test_serve_queue.py``):

* a job completes at most once -- a second ``complete`` (stale worker,
  expired lease, duplicate request) is rejected and has no effect;
* no job is ever lost -- every key stays in exactly one of the four
  states until the queue is :attr:`finished` (all done-or-quarantined);
* only the worker holding the current lease may complete, fail, or
  renew a job; claims after its lease expired supersede it.

The queue is **pure**: every transition takes an explicit ``now``
timestamp and the class never reads a clock, touches a socket, or does
I/O.  The coordinator owns the wall clock; tests drive simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

PENDING = "pending"
LEASED = "leased"
DONE = "done"
QUARANTINED = "quarantined"

#: Producer label for jobs satisfied by the result store, not a worker.
CACHE_PRODUCER = "cache"


@dataclass
class QueuePolicy:
    """Fault-tolerance knobs shared by coordinator and queue."""

    #: Seconds a claim stays valid without a heartbeat.
    lease_timeout: float = 30.0
    #: Total attempts (first run + retries) before quarantine.
    max_attempts: int = 3
    #: First retry delay; doubles per failure up to :attr:`backoff_cap`.
    backoff_base: float = 0.5
    backoff_cap: float = 30.0

    def __post_init__(self) -> None:
        # A lease that expires as it is granted is reaped by the next
        # expire(), so a healthy job would burn its attempts into
        # quarantine and its worker's completion would be refused.
        if not self.lease_timeout > 0:
            raise ValueError(f"lease_timeout must be positive, got "
                             f"{self.lease_timeout}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be at least 1, got "
                             f"{self.max_attempts}")

    def backoff(self, attempts: int) -> float:
        """Delay before the next attempt after ``attempts`` failures."""
        return min(self.backoff_cap,
                   self.backoff_base * (2 ** max(0, attempts - 1)))


@dataclass
class Job:
    """One sweep point's lifecycle record."""

    key: str
    payload: Dict
    state: str = PENDING
    #: Failures so far (lease expiries count as failures).
    attempts: int = 0
    #: Earliest time the job may be claimed again (retry backoff).
    not_before: float = 0.0
    lease_worker: Optional[str] = None
    lease_expiry: float = 0.0
    #: Last failure (traceback text or lease-expiry note).
    error: Optional[str] = None
    #: Who produced the result: a worker id, or ``"cache"``.
    producer: Optional[str] = None

    def snapshot(self) -> Dict:
        """JSON-ready view for ``/status`` and the campaign manifest."""
        return {
            "key": self.key,
            "state": self.state,
            "attempts": self.attempts,
            "worker": self.lease_worker,
            "producer": self.producer,
            "error": self.error,
        }


@dataclass
class QueueCounts:
    pending: int = 0
    leased: int = 0
    done: int = 0
    quarantined: int = 0

    @property
    def total(self) -> int:
        return self.pending + self.leased + self.done + self.quarantined


class JobQueue:
    """Ordered multi-worker job queue with leases, retries, quarantine.

    Jobs are claimed in insertion (sweep) order; any idle worker may
    claim any runnable job, which is the pull-based form of work
    stealing -- a fast worker drains the queue while a slow one is
    still on its first job.
    """

    def __init__(self, policy: Optional[QueuePolicy] = None) -> None:
        self.policy = policy or QueuePolicy()
        self._jobs: Dict[str, Job] = {}

    # -- population ----------------------------------------------------

    def add(self, key: str, payload: Dict) -> Job:
        """Enqueue one job; re-adding an existing key is a no-op."""
        job = self._jobs.get(key)
        if job is None:
            job = Job(key=key, payload=payload)
            self._jobs[key] = job
        return job

    def mark_done(self, key: str, producer: str) -> None:
        """Complete a job without a lease (cache hits at campaign
        start, resumed manifests)."""
        job = self._jobs[key]
        job.state = DONE
        job.producer = producer
        job.lease_worker = None

    def mark_quarantined(self, key: str, attempts: int,
                         error: Optional[str]) -> None:
        """Restore a quarantined job from a resumed manifest."""
        job = self._jobs[key]
        job.state = QUARANTINED
        job.attempts = attempts
        job.error = error

    # -- worker protocol -----------------------------------------------

    def claim(self, worker: str, now: float) -> Optional[Job]:
        """Lease the first runnable job to ``worker``, or ``None``.

        Expired leases are reaped first, so a claim arriving after a
        worker died re-issues that worker's job without waiting for
        the coordinator's periodic sweep.
        """
        self.expire(now)
        for job in self._jobs.values():
            if job.state == PENDING and job.not_before <= now:
                job.state = LEASED
                job.lease_worker = worker
                job.lease_expiry = now + self.policy.lease_timeout
                return job
        return None

    def holds(self, worker: str, key: str) -> bool:
        """Whether ``worker`` holds the current lease on job ``key``."""
        job = self._jobs.get(key)
        return (job is not None and job.state == LEASED
                and job.lease_worker == worker)

    def heartbeat(self, worker: str, key: str, now: float) -> bool:
        """Renew ``worker``'s lease; ``False`` means the lease is gone
        (expired/reassigned) and the worker must abandon the job."""
        if not self.holds(worker, key):
            return False
        self._jobs[key].lease_expiry = now + self.policy.lease_timeout
        return True

    def complete(self, worker: str, key: str) -> bool:
        """Transition ``leased -> done``; at most one completion ever
        succeeds per job.  Stale completions (lost lease, already done)
        return ``False`` and change nothing."""
        if not self.holds(worker, key):
            return False
        job = self._jobs[key]
        job.state = DONE
        job.producer = worker
        job.lease_worker = None
        job.error = None
        return True

    def fail(self, worker: str, key: str, error: str, now: float) -> str:
        """Record a worker-reported failure; returns the job's new
        state (``pending`` for a retry, ``quarantined``, or its current
        state when the report is stale)."""
        job = self._jobs.get(key)
        if job is None:
            return "unknown"
        if self.holds(worker, key):
            self._retry(job, error, now)
        return job.state

    def expire(self, now: float) -> List[str]:
        """Reap leases whose deadline passed; each expiry counts as one
        failed attempt (a job that kills every worker that touches it
        still converges to quarantine).  Returns the reaped keys."""
        reaped = []
        for job in self._jobs.values():
            if job.state == LEASED and job.lease_expiry < now:
                self._retry(job,
                            f"lease expired (worker "
                            f"{job.lease_worker!r} missed its "
                            f"heartbeat)", now)
                reaped.append(job.key)
        return reaped

    def _retry(self, job: Job, error: str, now: float) -> None:
        job.attempts += 1
        job.error = error
        job.lease_worker = None
        if job.attempts >= self.policy.max_attempts:
            job.state = QUARANTINED
        else:
            job.state = PENDING
            job.not_before = now + self.policy.backoff(job.attempts)

    # -- inspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._jobs)

    def get(self, key: str) -> Optional[Job]:
        return self._jobs.get(key)

    def jobs(self) -> List[Job]:
        """All jobs in insertion (sweep) order."""
        return list(self._jobs.values())

    def counts(self) -> QueueCounts:
        counts = QueueCounts()
        for job in self._jobs.values():
            if job.state == PENDING:
                counts.pending += 1
            elif job.state == LEASED:
                counts.leased += 1
            elif job.state == DONE:
                counts.done += 1
            else:
                counts.quarantined += 1
        return counts

    @property
    def finished(self) -> bool:
        """Terminal: every job is done or quarantined."""
        return all(job.state in (DONE, QUARANTINED)
                   for job in self._jobs.values())

    def next_runnable_at(self) -> Optional[float]:
        """Earliest ``not_before`` over pending jobs (backoff hint for
        idle workers), or ``None`` when nothing is pending."""
        times = [job.not_before for job in self._jobs.values()
                 if job.state == PENDING]
        return min(times) if times else None
