"""Off-chip port: the hierarchy's one gateway to the DRAM system.

Wraps :class:`repro.dram.controller.DramSystem` with the exact surface
the on-chip components need -- line reads/writes plus the two bandwidth
signals the paper's mechanisms consume: global utilization (CLIP's
probe, throttler snapshots) and per-channel utilization (DSPatch's
deliberately myopic local signal).
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.dram.controller import DramSystem
from repro.sim.engine import Engine


class DramPort:
    """Read/write access plus bandwidth-utilization probes."""

    __slots__ = ("dram", "engine")

    def __init__(self, dram: DramSystem, engine: Engine) -> None:
        self.dram = dram
        self.engine = engine

    def channel_counters(self, channel: int) -> Dict[str, int]:
        """Counter group of one channel (``dram.ch{N}``).

        Includes the per-bank activate counts (``bank{J}_activates``)
        the Micron-style DRAM power model consumes; ``activates`` is
        their sum (and the row-miss count: every row miss issues
        exactly one ACT).  ``total_read_latency`` sums each read's
        enqueue-to-data cycles.
        """
        stats = self.dram.channels[channel].stats
        values = {
            "reads": stats.reads,
            "writes": stats.writes,
            "prefetch_reads": stats.prefetch_reads,
            "row_hits": stats.row_hits,
            "activates": sum(stats.bank_activates),
            "busy_cycles": stats.busy_cycles,
            "total_read_latency": stats.total_read_latency,
        }
        for bank, activates in enumerate(stats.bank_activates):
            values[f"bank{bank}_activates"] = activates
        return values

    def read(self, line: int, now: int, callback: Callable[[int], None],
             is_prefetch: bool, crit: bool) -> None:
        self.dram.read(line, now, callback, is_prefetch=is_prefetch,
                       crit=crit)

    def write(self, line: int, now: int) -> None:
        self.dram.write(line, now)

    def utilization(self, at: int) -> float:
        """Global DRAM data-bus utilization up to cycle ``at``."""
        return self.dram.utilization(max(1, at))

    def utilization_now(self) -> float:
        """CLIP's bandwidth probe: utilization at the current cycle."""
        return self.dram.utilization(max(1, self.engine.now))

    def channel_utilization(self, line: int) -> float:
        """DSPatch's myopic signal: utilization of ``line``'s channel."""
        where = self.dram.mapping.locate(line)
        channel = self.dram.channels[where.channel]
        return channel.stats.utilization(max(1, self.engine.now))
