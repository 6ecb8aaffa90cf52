"""Wall-clock microbenchmarks of two simulator primitives.

* ``engine_drain`` -- raw event throughput of the bucketed
  :class:`repro.sim.engine.Engine` (schedule + drain, the shape the
  hierarchy produces: many same-cycle events at fixed latencies);
* ``cache_access`` -- the per-set tag->way fast path of
  :class:`repro.cache.cache.Cache` under a mixed hit/miss stream.

``bench/run.py`` reports them as ``engine.drain_events_per_s`` and
``cache.accesses_per_s``; see ``bench/README.md``.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.cache.cache import Cache
from repro.config import CacheConfig
from repro.sim.engine import Engine


def bench_engine_drain(events: int = 200_000) -> Dict:
    """Schedule ``events`` events (8 per cycle, mixed bare/args entries)
    and drain them all; reports events per second."""
    engine = Engine()
    counter = [0]

    def tick() -> None:
        counter[0] += 1

    def tick_args(amount: int) -> None:
        counter[0] += amount

    start = time.perf_counter()
    schedule = engine.schedule
    for i in range(events):
        if i & 7:
            schedule(i >> 3, tick)
        else:
            schedule(i >> 3, tick_args, 1)
    engine.run([])  # no cores: drains the whole queue to quiescence
    seconds = time.perf_counter() - start
    if counter[0] != events:
        raise RuntimeError(
            f"engine drained {counter[0]} of {events} events")
    return {"events": events, "seconds": seconds,
            "events_per_sec": events / seconds}


def bench_cache_access(accesses: int = 200_000) -> Dict:
    """Mixed hit/miss stream over an L1-sized cache; misses are filled,
    so the run exercises access, fill, and eviction paths."""
    cache = Cache(CacheConfig(name="bench", size_kib=48, ways=12))
    # Three accesses to a hot set that fits in cache for every one access
    # streaming through 4x the capacity: hits dominate (the fast path)
    # while the stream keeps fills and evictions continuous.
    capacity = 48 * 1024 // 64
    hot_lines = capacity // 2
    cold_lines = 4 * capacity
    start = time.perf_counter()
    access = cache.access
    fill = cache.fill
    for i in range(accesses):
        if i & 3:
            line = (i * 13) % hot_lines
        else:
            line = hot_lines + (i * 97) % cold_lines
        if not access(line, line & 0xFFF, i):
            fill(line, line & 0xFFF, i)
    seconds = time.perf_counter() - start
    return {"accesses": accesses, "seconds": seconds,
            "accesses_per_sec": accesses / seconds,
            "hit_rate": cache.stats.demand_hits / cache.stats.demand_accesses}
