"""Set-associative cache with per-line prefetch metadata.

The cache is *functional* (tags and metadata only); timing is composed by
the memory system around it.  Per-line metadata carries what the paper's
accounting needs: dirty bits for writeback bandwidth, and prefetch/useful
bits for prefetch accuracy and coverage measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.invariants import SimulationInvariantError, check
from repro.config import CacheConfig
from repro.cache.replacement import make_policy


class LineState:
    """Metadata of one resident cache line."""

    __slots__ = ("tag", "dirty", "prefetched", "useful", "trigger_ip")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.dirty = False
        self.prefetched = False
        self.useful = False
        self.trigger_ip = 0


@dataclass(slots=True)
class EvictedLine:
    """What fell out of the cache on a fill."""

    line: int
    dirty: bool
    prefetched: bool
    useful: bool


class CacheStats:
    """Access-side statistics for one cache instance."""

    def __init__(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.demand_accesses = 0
        self.demand_hits = 0
        self.demand_misses = 0
        self.prefetch_fills = 0
        self.useful_prefetches = 0
        self.useless_evictions = 0
        self.writebacks = 0

    @property
    def miss_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return self.misses / self.accesses

    @property
    def prefetch_accuracy(self) -> float:
        if not self.prefetch_fills:
            return 0.0
        return self.useful_prefetches / self.prefetch_fills

    def counters(self) -> Dict[str, int]:
        """The activity counters every cache's counter group reports."""
        return {
            "demand_accesses": self.demand_accesses,
            "demand_hits": self.demand_hits,
            "demand_misses": self.demand_misses,
            "prefetch_fills": self.prefetch_fills,
            "useful_prefetches": self.useful_prefetches,
            "useless_evictions": self.useless_evictions,
            "writebacks": self.writebacks,
        }


class Cache:
    """One cache level (or one LLC slice)."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.num_sets = config.num_sets
        self.ways = config.ways
        self.policy = make_policy(config.replacement, self.num_sets,
                                  self.ways)
        # Per-set tag -> way map plus way-indexed line state.
        self._map: List[Dict[int, int]] = [dict() for _ in range(self.num_sets)]
        self._lines: List[List[Optional[LineState]]] = [
            [None] * self.ways for _ in range(self.num_sets)
        ]
        self.stats = CacheStats()
        #: Called with (line, trigger_ip) on the first demand use of a
        #: prefetched line (prefetch-usefulness feedback, PPF training).
        self.prefetch_use_listener = None
        #: Called with (line,) when a never-used prefetched line is evicted.
        self.useless_eviction_listener = None

    # ------------------------------------------------------------------

    def set_index(self, line: int) -> int:
        return line % self.num_sets

    def probe(self, line: int) -> bool:
        """Tag check without touching replacement or statistics."""
        num_sets = self.num_sets
        return (line // num_sets) in self._map[line % num_sets]

    def access(self, line: int, pc: int, now: int, is_write: bool = False,
               is_demand: bool = True) -> bool:
        """Look up ``line``; returns hit/miss and updates recency + stats."""
        num_sets = self.num_sets
        set_index = line % num_sets
        tag = line // num_sets
        stats = self.stats
        stats.accesses += 1
        if is_demand:
            stats.demand_accesses += 1
        way = self._map[set_index].get(tag)
        if way is None:
            stats.misses += 1
            if is_demand:
                stats.demand_misses += 1
            return False
        stats.hits += 1
        if is_demand:
            stats.demand_hits += 1
        state = self._lines[set_index][way]
        if state is None:
            raise SimulationInvariantError(
                f"{self.config.name}: tag map points at empty way "
                f"{way} of set {set_index}")
        if is_write:
            state.dirty = True
        if state.prefetched and not state.useful and is_demand:
            state.useful = True
            stats.useful_prefetches += 1
            if self.prefetch_use_listener is not None:
                self.prefetch_use_listener(line, state.trigger_ip)
        self.policy.on_hit(set_index, way, now, pc)
        return True

    def fill(self, line: int, pc: int, now: int, dirty: bool = False,
             prefetch: bool = False, trigger_ip: int = 0,
             ) -> Optional[EvictedLine]:
        """Install ``line``; returns the evicted line, if any.

        Filling a line that is already resident only updates metadata (this
        happens when a demand and a prefetch race through different paths).
        """
        num_sets = self.num_sets
        set_index = line % num_sets
        tag = line // num_sets
        existing = self._map[set_index].get(tag)
        if existing is not None:
            state = self._lines[set_index][existing]
            check(state is not None,
                  "%s: tag map points at empty way %d of set %d",
                  self.config.name, existing, set_index)
            state.dirty = state.dirty or dirty
            return None
        way = self._find_way(set_index, now)
        evicted = self._evict(set_index, way)
        state = LineState(tag)
        state.dirty = dirty
        state.prefetched = prefetch
        state.trigger_ip = trigger_ip
        self._lines[set_index][way] = state
        self._map[set_index][tag] = way
        self.policy.on_fill(set_index, way, now, pc, prefetch=prefetch)
        if prefetch:
            self.stats.prefetch_fills += 1
        return evicted

    def invalidate(self, line: int) -> Optional[EvictedLine]:
        """Remove ``line`` if resident; returns its state for writeback."""
        set_index = self.set_index(line)
        tag = line // self.num_sets
        way = self._map[set_index].get(tag)
        if way is None:
            return None
        return self._evict(set_index, way)

    # ------------------------------------------------------------------

    def _find_way(self, set_index: int, now: int) -> int:
        lines = self._lines[set_index]
        for way in range(self.ways):
            if lines[way] is None:
                return way
        valid = [True] * self.ways
        return self.policy.victim(set_index, now, valid)

    def _evict(self, set_index: int, way: int) -> Optional[EvictedLine]:
        state = self._lines[set_index][way]
        if state is None:
            return None
        self._lines[set_index][way] = None
        del self._map[set_index][state.tag]
        line = state.tag * self.num_sets + set_index
        if state.prefetched and not state.useful:
            self.stats.useless_evictions += 1
            if self.useless_eviction_listener is not None:
                self.useless_eviction_listener(line)
        return EvictedLine(line=line, dirty=state.dirty,
                           prefetched=state.prefetched, useful=state.useful)

    @property
    def occupancy(self) -> int:
        return sum(len(m) for m in self._map)
