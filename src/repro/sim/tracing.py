"""Request-level latency tracing.

When enabled (``SystemConfig.capture_request_trace``), the memory system
records one :class:`RequestRecord` per completed demand load: who issued
it, where it was serviced, and how long it took.  The records feed latency
histograms and percentile analysis -- the right tool when an average (as
in Fig. 3) hides a bimodal queueing story.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.cpu.core_model import ServiceLevel


@dataclass(frozen=True)
class RequestRecord:
    """One completed demand load."""

    core_id: int
    address: int
    issued_at: int
    completed_at: int
    level: ServiceLevel
    #: The demand merged into an in-flight prefetch (late prefetch).
    merged_into_prefetch: bool

    @property
    def latency(self) -> int:
        return self.completed_at - self.issued_at


class RequestTrace:
    """Bounded collector of demand-load records."""

    def __init__(self, capacity: int = 100_000) -> None:
        self.capacity = capacity
        self.records: List[RequestRecord] = []
        self.dropped = 0

    def append(self, record: RequestRecord) -> None:
        if len(self.records) >= self.capacity:
            self.dropped += 1
            return
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------

    def latencies(self, level: ServiceLevel | None = None) -> List[int]:
        """All latencies, optionally only for loads serviced at ``level``."""
        return [r.latency for r in self.records
                if level is None or r.level == level]

    def percentile(self, fraction: float,
                   level: ServiceLevel | None = None) -> float:
        """Latency percentile (e.g. 0.5 = median, 0.99 = tail)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        values = sorted(self.latencies(level))
        if not values:
            return 0.0
        index = min(len(values) - 1, int(fraction * len(values)))
        return float(values[index])

    def level_breakdown(self) -> Dict[str, int]:
        """How many demand loads each level serviced."""
        breakdown: Dict[str, int] = {}
        for record in self.records:
            breakdown[record.level.name] = \
                breakdown.get(record.level.name, 0) + 1
        return breakdown

    def histogram(self, bucket_cycles: int = 50,
                  max_buckets: int = 40) -> Dict[str, int]:
        """Latency histogram with fixed-width buckets."""
        if bucket_cycles < 1:
            raise ValueError("bucket width must be positive")
        counts: Dict[int, int] = {}
        for record in self.records:
            counts[record.latency // bucket_cycles] = \
                counts.get(record.latency // bucket_cycles, 0) + 1
        buckets = {}
        overflow = 0
        for bucket, count in sorted(counts.items()):
            if bucket >= max_buckets:
                overflow += count
                continue
            low = bucket * bucket_cycles
            buckets[f"{low}-{low + bucket_cycles - 1}"] = count
        if overflow:
            buckets[f">={max_buckets * bucket_cycles}"] = overflow
        return buckets


def format_latency_report(trace: RequestTrace) -> str:
    """Human-readable latency summary of a request trace."""
    lines = [f"demand loads traced : {len(trace)}"
             + (f" (+{trace.dropped} dropped)" if trace.dropped else "")]
    breakdown = trace.level_breakdown()
    if breakdown:
        parts = ", ".join(f"{name}: {count}"
                          for name, count in sorted(breakdown.items()))
        lines.append(f"serviced by         : {parts}")
    for label, fraction in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99)):
        lines.append(f"latency {label}         : "
                     f"{trace.percentile(fraction):.0f} cycles")
    late = sum(1 for r in trace.records if r.merged_into_prefetch)
    if trace.records:
        lines.append(f"merged into prefetch: {late} "
                     f"({late / len(trace.records):.0%})")
    return "\n".join(lines)
