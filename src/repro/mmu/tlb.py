"""TLB hierarchy (Table 3, row "TLBs").

The baseline system carries 64-entry 4-way L1 I/D TLBs (1 cycle) and a
2048-entry 16-way shared STLB (8 cycles); ChampSim's "detailed memory
hierarchy support for address translation" is one of the paper's simulator
extensions.  Here the data-side hierarchy is modelled: a demand access pays

* nothing extra on a DTLB hit,
* the STLB latency on a DTLB miss that hits the STLB,
* the STLB latency plus a page-walk charge on a full miss.

Translation is identity (addresses are already core-private physical
frames); only the *latency* and reach effects matter to the paper's
phenomena.  Disabled by default at benchmark scale -- footprints are
engineered against cache reach, so enabling TLBs shifts absolute latency
without changing any figure's shape; turn it on via
``SystemConfig.tlb.enabled`` for full-fidelity runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass
class TlbStats:
    accesses: int = 0
    hits: int = 0

    @property
    def hit_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses


class Tlb:
    """A set-associative TLB over virtual page numbers (true-LRU)."""

    def __init__(self, entries: int, ways: int,
                 page_shift: int = 12) -> None:
        self.num_sets = entries // ways
        self.ways = ways
        self.page_shift = page_shift
        self._sets: List[Dict[int, int]] = [dict()
                                            for _ in range(self.num_sets)]
        self._clock = 0
        self.stats = TlbStats()

    def lookup(self, address: int) -> bool:
        """True on a TLB hit; updates recency."""
        page = address >> self.page_shift
        bucket = self._sets[page % self.num_sets]
        self.stats.accesses += 1
        self._clock += 1
        if page in bucket:
            bucket[page] = self._clock
            self.stats.hits += 1
            return True
        return False

    def fill(self, address: int) -> None:
        page = address >> self.page_shift
        bucket = self._sets[page % self.num_sets]
        if page in bucket:
            return
        if len(bucket) >= self.ways:
            victim = min(bucket, key=bucket.get)
            del bucket[victim]
        self._clock += 1
        bucket[page] = self._clock

    @property
    def occupancy(self) -> int:
        return sum(len(bucket) for bucket in self._sets)


class Mmu:
    """Per-core data-side translation: DTLB -> STLB -> page walk."""

    def __init__(self, dtlb_entries: int = 64, dtlb_ways: int = 4,
                 stlb_entries: int = 2048, stlb_ways: int = 16,
                 stlb_latency: int = 8, page_walk_latency: int = 100,
                 page_shift: int = 12) -> None:
        self.dtlb = Tlb(dtlb_entries, dtlb_ways, page_shift)
        self.stlb = Tlb(stlb_entries, stlb_ways, page_shift)
        self.stlb_latency = stlb_latency
        self.page_walk_latency = page_walk_latency
        self.page_walks = 0

    def translate(self, address: int) -> int:
        """Extra cycles this access pays for address translation."""
        if self.dtlb.lookup(address):
            return 0
        if self.stlb.lookup(address):
            self.dtlb.fill(address)
            return self.stlb_latency
        self.page_walks += 1
        self.stlb.fill(address)
        self.dtlb.fill(address)
        return self.stlb_latency + self.page_walk_latency
