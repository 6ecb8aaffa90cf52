"""Miss status holding registers.

MSHRs bound the number of outstanding misses per cache (Table 3: 8/16/32 at
L1I/L1D/L2, 64 per LLC slice).  Requests to a line already outstanding merge
into the existing entry; a demand merging into a prefetch-initiated entry is
the paper's *late prefetch* (still counted as accurate, section 1).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.analysis.invariants import SimulationInvariantError


class Mshr:
    """One outstanding miss."""

    __slots__ = ("line", "is_prefetch", "crit", "trigger_ip", "waiters",
                 "demand_merged", "allocated_at", "address", "dirty")

    def __init__(self, line: int, is_prefetch: bool, crit: bool,
                 trigger_ip: int, allocated_at: int) -> None:
        self.line = line
        self.is_prefetch = is_prefetch
        self.crit = crit
        self.trigger_ip = trigger_ip
        self.waiters: List[Callable] = []
        self.demand_merged = False
        self.allocated_at = allocated_at
        #: Original (un-privatised) byte address, for prefetcher training.
        self.address = 0
        #: A store merged in: fill the line dirty.
        self.dirty = False


class MshrFile:
    """A bounded set of MSHRs plus an overflow pending queue.

    When every register is busy, new misses wait in ``pending`` and are
    replayed by the owning cache as registers free up -- this is the queueing
    back-pressure that inflates miss latency when DRAM bandwidth is
    constrained (paper Fig. 3).
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: Dict[int, Mshr] = {}
        self.pending: Deque[Tuple] = deque()
        self.peak_occupancy = 0
        self.late_prefetch_merges = 0

    def lookup(self, line: int) -> Optional[Mshr]:
        return self.entries.get(line)

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.capacity

    def allocate(self, line: int, is_prefetch: bool, crit: bool,
                 trigger_ip: int, now: int) -> Mshr:
        entries = self.entries
        if line in entries:
            raise ValueError(f"line {line:#x} already outstanding")
        occupancy = len(entries)
        if occupancy >= self.capacity:
            raise SimulationInvariantError(
                "MSHR file full; caller must check first")
        mshr = Mshr(line, is_prefetch, crit, trigger_ip, now)
        entries[line] = mshr
        if occupancy >= self.peak_occupancy:
            self.peak_occupancy = occupancy + 1
        return mshr

    def merge(self, mshr: Mshr, waiter: Optional[Callable],
              is_prefetch: bool) -> None:
        """Merge a new request for the same line into ``mshr``."""
        if waiter is not None:
            mshr.waiters.append(waiter)
        if not is_prefetch:
            if mshr.is_prefetch and not mshr.demand_merged:
                self.late_prefetch_merges += 1
            mshr.demand_merged = True

    def release(self, line: int) -> Mshr:
        """Remove and return the completed entry for ``line``."""
        return self.entries.pop(line)
