"""Unit + seeded-fuzz tests for the distributed job-queue state machine.

The :class:`JobQueue` is pure (explicit ``now`` everywhere), so these
tests drive simulated wall-clock time deterministically.  The fuzz
suite hammers random claim/complete/fail/heartbeat/timeout/steal
sequences and checks the three contract properties the distributed
sweep relies on:

* **no double completion** -- a job's result is accepted at most once,
  however many stale workers race on it;
* **no lost jobs** -- every key is always in exactly one state;
* **convergence** -- with live workers draining it, every campaign
  terminates with all jobs done or quarantined.
"""

from __future__ import annotations

import random

import pytest

from repro.serve.queue import (DONE, LEASED, PENDING, QUARANTINED,
                               JobQueue, QueuePolicy)

POLICY = QueuePolicy(lease_timeout=10.0, max_attempts=3,
                     backoff_base=1.0, backoff_cap=8.0)


def make_queue(n: int = 3, policy: QueuePolicy = POLICY) -> JobQueue:
    queue = JobQueue(policy)
    for index in range(n):
        queue.add(f"job{index}", {"index": index})
    return queue


class TestLifecycle:
    def test_claims_are_fifo_in_sweep_order(self):
        queue = make_queue(3)
        assert queue.claim("w1", now=0.0).key == "job0"
        assert queue.claim("w2", now=0.0).key == "job1"
        assert queue.claim("w1", now=0.0).key == "job2"
        assert queue.claim("w2", now=0.0) is None

    def test_complete_requires_the_lease(self):
        queue = make_queue(1)
        queue.claim("w1", now=0.0)
        assert not queue.complete("w2", "job0")  # not the lease holder
        assert queue.complete("w1", "job0")
        assert queue.get("job0").state == DONE
        assert queue.get("job0").producer == "w1"

    def test_complete_is_idempotent_rejected(self):
        queue = make_queue(1)
        queue.claim("w1", now=0.0)
        assert queue.complete("w1", "job0")
        assert not queue.complete("w1", "job0")  # only one wins

    def test_lease_expiry_requeues_and_counts_attempt(self):
        queue = make_queue(1)
        queue.claim("w1", now=0.0)
        reaped = queue.expire(now=POLICY.lease_timeout + 0.1)
        assert reaped == ["job0"]
        job = queue.get("job0")
        assert job.state == PENDING
        assert job.attempts == 1
        assert "lease expired" in job.error

    def test_expired_job_respects_backoff(self):
        queue = make_queue(1)
        queue.claim("w1", now=0.0)
        queue.expire(now=11.0)
        # Backoff: not claimable until 11.0 + backoff_base.
        assert queue.claim("w2", now=11.0) is None
        assert queue.claim("w2", now=11.0 + POLICY.backoff_base).key \
            == "job0"

    def test_stale_completion_after_reassignment_is_rejected(self):
        queue = make_queue(1)
        queue.claim("w1", now=0.0)
        queue.expire(now=11.0)
        queue.claim("w2", now=12.5)
        assert not queue.complete("w1", "job0")  # zombie worker
        assert queue.get("job0").state == LEASED
        assert queue.complete("w2", "job0")

    def test_heartbeat_renews_and_detects_lost_lease(self):
        queue = make_queue(1)
        queue.claim("w1", now=0.0)
        assert queue.heartbeat("w1", "job0", now=8.0)
        # Renewed at 8.0 -> survives past the original deadline.
        assert queue.expire(now=12.0) == []
        assert queue.get("job0").state == LEASED
        # Let it lapse; the old worker's heartbeat is refused.
        queue.expire(now=30.0)
        assert not queue.heartbeat("w1", "job0", now=30.0)

    def test_failures_quarantine_after_max_attempts(self):
        queue = make_queue(1)
        now = 0.0
        for attempt in range(POLICY.max_attempts):
            job = queue.claim("w1", now=now)
            assert job is not None, f"attempt {attempt} not claimable"
            state = queue.fail("w1", "job0", "boom", now=now)
            now += POLICY.backoff_cap + 1.0
        assert state == QUARANTINED
        assert queue.get("job0").error == "boom"
        assert queue.finished

    def test_backoff_doubles_up_to_cap(self):
        policy = QueuePolicy(backoff_base=1.0, backoff_cap=8.0)
        assert [policy.backoff(n) for n in (1, 2, 3, 4, 5)] == \
            [1.0, 2.0, 4.0, 8.0, 8.0]

    def test_mark_done_counts_as_cache_hit_producer(self):
        queue = make_queue(2)
        queue.mark_done("job0", "cache")
        assert queue.get("job0").producer == "cache"
        assert not queue.finished
        queue.mark_done("job1", "cache")
        assert queue.finished

    def test_next_runnable_at_reports_backoff_horizon(self):
        queue = make_queue(2)
        assert queue.next_runnable_at() == 0.0
        queue.claim("w1", now=0.0)
        queue.fail("w1", "job0", "x", now=0.0)
        queue.claim("w1", now=0.0)  # job1
        assert queue.next_runnable_at() == POLICY.backoff_base


class TestPolicy:
    """A lease that expires as it is granted would reap a healthy job
    on the next ``expire()`` and quarantine it after ``max_attempts``
    claims, refusing its worker's completion."""

    @pytest.mark.parametrize("lease_timeout", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive_lease(self, lease_timeout):
        with pytest.raises(ValueError, match="^lease_timeout must be "
                                             "positive"):
            QueuePolicy(lease_timeout=lease_timeout)

    @pytest.mark.parametrize("max_attempts", [0, -1])
    def test_rejects_fewer_than_one_attempt(self, max_attempts):
        with pytest.raises(ValueError, match="^max_attempts must be at "
                                             "least 1"):
            QueuePolicy(max_attempts=max_attempts)

    def test_smallest_valid_policy_completes_a_healthy_job(self):
        queue = make_queue(1, QueuePolicy(lease_timeout=1e-9,
                                          max_attempts=1))
        queue.claim("w1", now=0.0)
        assert queue.expire(now=0.0) == []
        assert queue.complete("w1", "job0")
        assert queue.get("job0").state == DONE


class TestFuzz:
    """Seeded random claim/complete/timeout/steal sequences."""

    WORKERS = ("w0", "w1", "w2", "w3")

    @pytest.mark.parametrize("seed", range(20))
    def test_no_double_completion_and_no_lost_jobs(self, seed):
        rng = random.Random(seed)
        policy = QueuePolicy(lease_timeout=5.0, max_attempts=3,
                             backoff_base=0.5, backoff_cap=4.0)
        n_jobs = rng.randrange(1, 12)
        queue = make_queue(n_jobs, policy)
        keys = [f"job{i}" for i in range(n_jobs)]
        accepted = {key: 0 for key in keys}
        now = 0.0
        for _ in range(400):
            op = rng.randrange(6)
            worker = rng.choice(self.WORKERS)
            key = rng.choice(keys)
            if op == 0:
                job = queue.claim(worker, now)
                if job is not None:
                    assert job.state == LEASED
            elif op == 1:
                if queue.complete(worker, key):
                    accepted[key] += 1
            elif op == 2:
                queue.fail(worker, key, "fuzz failure", now)
            elif op == 3:
                queue.heartbeat(worker, key, now)
            elif op == 4:
                now += rng.uniform(0.0, 4.0)
                queue.expire(now)
            else:
                now += rng.uniform(0.0, 1.0)
            # No lost jobs: every key in exactly one legal state.
            states = {job.key: job.state for job in queue.jobs()}
            assert sorted(states) == sorted(keys)
            assert set(states.values()) <= {PENDING, LEASED, DONE,
                                            QUARANTINED}
            # Done jobs stay done (a completion is never revoked).
            for key_, count in accepted.items():
                assert count <= 1, f"{key_} completed twice"
                if count:
                    assert states[key_] == DONE

    @pytest.mark.parametrize("seed", range(10))
    def test_drain_terminates_all_done_or_quarantined(self, seed):
        """With cooperative workers (claim -> mostly complete,
        sometimes fail/vanish), every campaign reaches the terminal
        state in bounded time."""
        rng = random.Random(1000 + seed)
        policy = QueuePolicy(lease_timeout=2.0, max_attempts=3,
                             backoff_base=0.25, backoff_cap=1.0)
        n_jobs = rng.randrange(1, 10)
        queue = make_queue(n_jobs, policy)
        now = 0.0
        for _ in range(10_000):
            if queue.finished:
                break
            worker = rng.choice(self.WORKERS)
            job = queue.claim(worker, now)
            if job is None:
                # Nothing runnable right now: let backoff/leases lapse.
                now += 0.5
                queue.expire(now)
                continue
            roll = rng.random()
            if roll < 0.70:
                assert queue.complete(worker, job.key)
            elif roll < 0.85:
                queue.fail(worker, job.key, "fuzz failure", now)
            # else: worker vanishes (SIGKILL); lease expiry reclaims.
            now += rng.uniform(0.0, 0.5)
        assert queue.finished, "drain did not terminate"
        counts = queue.counts()
        assert counts.done + counts.quarantined == n_jobs
        for job in queue.jobs():
            if job.state == QUARANTINED:
                assert job.attempts >= policy.max_attempts
            else:
                assert job.producer in self.WORKERS
