"""Hot-path microbenchmark suite behind ``repro bench``.

Three benchmarks pin the simulator's performance baseline:

* ``engine_drain`` -- raw event throughput of the bucketed
  :class:`repro.sim.engine.Engine` (schedule + drain, the shape the
  hierarchy produces: many same-cycle events at fixed latencies);
* ``cache_access`` -- the per-set tag->way fast path of
  :class:`repro.cache.cache.Cache` under a mixed hit/miss stream;
* ``end_to_end`` -- one full simulated point (heterogeneous 4-core mix,
  Berti + CLIP, 10k instructions/core at 2 scaled channels); this is the
  number the perf-smoke CI job guards against regression.

The committed baseline lives in ``BENCH_PR7.json`` at the repo root.
Regenerate it with ``repro bench -o BENCH_PR7.json`` on an otherwise
idle machine, and commit the result only alongside intentional
performance work: wall-clock numbers are machine-dependent, which is why
the regression check (:func:`compare_to_baseline`) only gates the
end-to-end points and allows a generous tolerance.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.cache.cache import Cache
from repro.config import CacheConfig, scaled_config
from repro.sim.engine import Engine
from repro.sim.system import run_system

#: The end-to-end reference point: one memory-bound, one irregular, one
#: graph and one streaming workload sharing 2 scaled channels.
END_TO_END_MIX = ["605.mcf_s-1536B", "623.xalancbmk_s-10B", "tc-14",
                  "619.lbm_s-2676B"]


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
            "hit_rate": cache.stats.hits / cache.stats.accesses}


def bench_end_to_end(repeats: int = 3) -> Dict:
    """Best-of-``repeats`` wall clock for the reference simulated point."""
    config = scaled_config(num_cores=4, channels=2,
                           sim_instructions=10_000)
    config.l1_prefetcher = dataclasses.replace(config.l1_prefetcher,
                                               name="berti")
    config.clip.enabled = True
    result = run_system(config, END_TO_END_MIX)  # warm-up run
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = run_system(config, END_TO_END_MIX)
        best = min(best, time.perf_counter() - start)
    instructions = result.total_instructions
    return {"seconds_best": best, "repeats": max(1, repeats),
            "instructions": instructions,
            "total_cycles": result.total_cycles,
            "instructions_per_sec": instructions / best,
            "scheme": "berti+clip", "num_cores": 4, "channels": 2}


def run_suite(repeats: int = 3, quiet: bool = False) -> Dict:
    """Run all benchmarks; returns the ``BENCH_PR7.json`` payload."""
    payload: Dict = {
        "bench": "hotpath",
        "python": ".".join(str(part) for part in sys.version_info[:3]),
    }
    for name, bench in (("engine_drain", bench_engine_drain),
                        ("cache_access", bench_cache_access)):
        payload[name] = bench()
        if not quiet:
            print(f"{name:>14}: {payload[name]['seconds']:.3f}s")
    end = payload["end_to_end"] = bench_end_to_end(repeats)
    if not quiet:
        print(f"{'end_to_end':>14}: {end['seconds_best']:.3f}s best of "
              f"{end['repeats']} ({end['instructions_per_sec']:,.0f} "
              f"instructions/s)")
    return payload


def compare_to_baseline(payload: Dict, baseline: Dict,
                        tolerance: float = 0.25) -> List[str]:
    """Regression check: the end-to-end point may be at most
    ``tolerance`` slower than the baseline.  The microbenchmarks are
    informational only (they are too machine-sensitive to gate on)."""
    current = payload["end_to_end"]["seconds_best"]
    base = baseline["end_to_end"]["seconds_best"]
    limit = base * (1.0 + tolerance)
    if current > limit:
        return [f"end_to_end regressed: {current:.3f}s vs baseline "
                f"{base:.3f}s (limit {limit:.3f}s at +{tolerance:.0%})"]
    return []


def load_baseline(path: Path) -> Optional[Dict]:
    """The committed baseline payload, or ``None`` when absent."""
    if not path.exists():
        return None
    return json.loads(path.read_text())


def write_payload(payload: Dict, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
