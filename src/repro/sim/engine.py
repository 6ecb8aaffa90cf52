"""Discrete-event / cycle-hybrid simulation engine.

Cores are cycle-stepped components exposing ``tick(cycle)`` and a
``next_wake`` estimate; everything in the memory system is event-driven.
Each iteration the engine jumps straight to the earliest interesting cycle
(the next event or the next core wake), drains that cycle's events, then
ticks every core due at that cycle.  Skipping the dead cycles in which all
cores wait on memory is what makes a pure-Python many-core simulation
tractable (DESIGN.md section 2).

Events live in per-cycle FIFO buckets plus a heap of the distinct
pending cycles, instead of one heap of ``(cycle, seq, callback)``
tuples.  Same-cycle events -- the common case, since the hierarchy
batches at fixed latencies -- then cost one list append to schedule and
one list index to drain, with no per-event tuple.  Zero-argument
callbacks (the nodes' pre-bound completion methods) are stored bare;
``schedule(cycle, cb, *args)`` keeps closure-free call sites for the
few callbacks that need arguments.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Protocol

from repro.analysis.invariants import SimulationInvariantError


class Tickable(Protocol):
    """A cycle-stepped component (a core)."""

    next_wake: float
    done: bool

    def tick(self, cycle: int) -> None: ...


class Engine:
    """Bucketed event queue plus the skip-ahead main loop."""

    def __init__(self) -> None:
        self.now = 0
        #: cycle -> FIFO of events due then.  An entry is either a bare
        #: zero-argument callable or a ``(callable, args)`` pair.
        self._buckets: Dict[int, List] = {}
        #: Min-heap of the distinct cycles present in ``_buckets``; each
        #: cycle appears exactly once (pushed when its bucket is
        #: created, popped when the bucket is drained and deleted).
        self._cycle_heap: List[int] = []
        self.events_processed = 0
        #: Cycle at which the post-run quiescence drain finished (the last
        #: in-flight memory event); equals the finish cycle when nothing
        #: was in flight.  ``now`` stays monotonic through the drain and
        #: ends here -- it is never rewound.
        self.quiesce_cycle = 0

    def schedule(self, cycle: int, callback: Callable[..., None],
                 *args) -> None:
        """Run ``callback(*args)`` at ``cycle`` (>= now)."""
        if cycle < self.now:
            raise ValueError(
                f"cannot schedule at {cycle}, now is {self.now}")
        bucket = self._buckets.get(cycle)
        if bucket is None:
            self._buckets[cycle] = [(callback, args) if args else callback]
            heapq.heappush(self._cycle_heap, cycle)
        elif args:
            bucket.append((callback, args))
        else:
            bucket.append(callback)

    @property
    def pending_events(self) -> int:
        """Number of scheduled events not yet drained."""
        return sum(len(bucket) for bucket in self._buckets.values())

    @property
    def next_event_cycle(self) -> int:
        """Cycle of the earliest pending event; -1 when none pending."""
        return self._cycle_heap[0] if self._cycle_heap else -1

    def _drain_events_at(self, cycle: int) -> None:
        heap = self._cycle_heap
        buckets = self._buckets
        heappop = heapq.heappop
        processed = 0
        while heap and heap[0] <= cycle:
            front = heappop(heap)
            bucket = buckets[front]
            # The bucket can grow while we walk it: a callback may
            # schedule at the cycle being drained, and FIFO order says
            # it runs after everything already queued there.  A list
            # iterator re-checks the length each step, so it visits
            # entries appended behind the cursor -- exactly that order.
            for event in bucket:
                if event.__class__ is tuple:
                    callback, args = event
                    callback(*args)
                else:
                    event()
            processed += len(bucket)
            del buckets[front]
        self.events_processed += processed

    def run(self, cores: List[Tickable],
            max_cycles: int = 1_000_000_000) -> int:
        """Run until every core is done; returns the final cycle.

        After the last core retires, remaining memory events (in-flight
        prefetches, writebacks) are drained so the hardware ends quiescent
        and statistics are complete.  ``now`` advances monotonically
        through that drain (the sanitizer's time-monotonicity invariant
        holds end to end) and is left at :attr:`quiesce_cycle`; the
        *returned* value is still the cycle the last core retired.
        """
        heap = self._cycle_heap
        active = [core for core in cores if not core.done]
        while active:
            # float("inf") is the "no pending work" sentinel; int() below
            # makes the chosen cycle integral before it becomes engine
            # time.
            next_cycle = (  # sim-lint: ignore[SIM002]
                heap[0] if heap else float("inf"))
            for core in active:
                wake = core.next_wake
                if wake < next_cycle:
                    next_cycle = wake
            if next_cycle == float("inf"):
                raise SimulationInvariantError(
                    "deadlock: no pending events and no core can progress "
                    f"(cycle {self.now}, {len(active)} cores active)")
            cycle = int(next_cycle)
            if cycle < self.now:
                cycle = self.now
            if cycle > max_cycles:
                raise SimulationInvariantError(
                    f"exceeded max_cycles={max_cycles}; likely livelock")
            self.now = cycle
            # Dynamic attribute lookup on purpose: the sanitizer installs
            # a checking shim as an instance attribute.  Draining is
            # skipped outright when no event is due by ``cycle`` (a
            # core-wake iteration): the call would be a no-op.
            if heap and heap[0] <= cycle:
                self._drain_events_at(cycle)
            retired = False
            for core in active:
                if not core.done and core.next_wake <= cycle:
                    core.tick(cycle)
                    retired = retired or core.done
            if retired:
                active = [core for core in active if not core.done]
        finish = self.now
        while heap:
            front = heap[0]
            if front > self.now:
                self.now = front
            self._drain_events_at(self.now)
        self.quiesce_cycle = self.now
        return finish
