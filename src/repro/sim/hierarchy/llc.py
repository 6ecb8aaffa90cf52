"""Shared LLC slice: cache bank + MSHR file and port + DRAM-side traffic.

Each slice owns ``1/num_slices`` of the shared LLC.  Lines are mapped
slice-local before touching the bank: ``line // num_slices`` strips
the slice-selection bits so the set index uses fresh bits (otherwise
only 1-in-num_slices of each slice's sets would ever be used); dirty
victims reconstruct the global line address before the DRAM write.
Responses travel back to the requesting core's L2 node as data packets
over the NoC.
"""

from __future__ import annotations

from typing import Dict, TYPE_CHECKING

from repro.cache.cache import Cache
from repro.cpu.core_model import ServiceLevel
from repro.sim.hierarchy.dram_port import DramPort
from repro.sim.hierarchy.messages import MemoryRequest, MemoryResponse
from repro.sim.hierarchy.noc_link import NocLink
from repro.sim.hierarchy.port import Port

if TYPE_CHECKING:
    from repro.sim.hierarchy.node import CoreNode

_LEVEL_LLC = ServiceLevel.LLC
_LEVEL_DRAM = ServiceLevel.DRAM


class LlcSlice:
    """One bank of the shared LLC plus its MSHR and DRAM gateway."""

    __slots__ = ("slice_id", "cache", "mshr", "port", "latency",
                 "num_slices", "link", "dram")

    def __init__(self, slice_id: int, cache: Cache, port: Port,
                 latency: int, num_slices: int, link: NocLink,
                 dram: DramPort) -> None:
        self.slice_id = slice_id
        self.cache = cache
        self.mshr = port.mshr
        self.port = port
        self.latency = latency
        self.num_slices = num_slices
        self.link = link
        self.dram = dram

    def counters(self) -> Dict[str, int]:
        """This slice's counter group (``llc.slice{N}``): bank activity."""
        return self.cache.stats.counters()

    def lookup(self, req: MemoryRequest, origin: "CoreNode") -> None:
        """Serve ``req`` for ``origin``'s L2: hit, merge, or go to DRAM."""
        now = self.port.engine.now
        line = req.line
        # The request's service class (``MemoryRequest.high_priority``).
        high = not req.is_prefetch or req.crit
        hit = self.cache.access(line // self.num_slices, req.ip, now,
                                is_demand=not req.is_prefetch)
        if hit:
            ready = now + self.latency
            self.link.data(self.slice_id, origin.core_id, ready, high,
                           self._deliver, origin, line, _LEVEL_LLC)
            return
        # Hermes may already have the line in flight from DRAM.
        l1 = origin.l1
        if l1.hermes is not None and line in l1.hermes_pending:
            l1.hermes_pending[line].append(
                lambda t: self.link.data(
                    self.slice_id, origin.core_id,
                    max(t, now + self.latency), high, self._deliver,
                    origin, line, _LEVEL_DRAM))
            return
        mshr_file = self.mshr
        mshr = mshr_file.lookup(line)
        # DRAM-side waiters are stored as plain (origin, high) pairs --
        # :meth:`_dram_done` knows how to route them -- so the hot miss
        # path allocates no closures.
        if mshr is not None:
            mshr_file.merge(mshr, (origin, high), req.is_prefetch)
            return
        if mshr_file.full:
            # Every request reaching the LLC holds an L2 MSHR upstream, so
            # nothing may be dropped here -- queue until a register frees.
            self.port.defer(lambda: self.lookup(req, origin))
            return
        mshr = mshr_file.allocate(line, req.is_prefetch, req.crit, req.ip,
                                  now)
        mshr.waiters.append((origin, high))
        ready = now + self.latency
        self.port.schedule(ready, self._issue_dram_read, line,
                           req.is_prefetch, req.crit)

    def _issue_dram_read(self, line: int, is_prefetch: bool,
                         crit: bool) -> None:
        self.dram.read(line, self.port.engine.now,
                       lambda t: self._dram_done(line, t),
                       is_prefetch=is_prefetch, crit=crit)

    def _dram_done(self, line: int, t: int) -> None:
        mshr_file = self.mshr
        mshr = mshr_file.release(line)
        prefetch_fill = mshr.is_prefetch and not mshr.demand_merged
        self.fill(line, t, pc=mshr.trigger_ip, prefetch=prefetch_fill)
        # Return the data to every waiter's L2, in merge order.
        for origin, high in mshr.waiters:
            self.link.data(self.slice_id, origin.core_id, t, high,
                           self._deliver, origin, line, _LEVEL_DRAM)
        if mshr_file.pending:
            self.port.replay()

    def fill(self, line: int, t: int, pc: int, prefetch: bool,
             dirty: bool = False) -> None:
        """Install ``line`` into the bank; dirty victims write to DRAM."""
        evicted = self.cache.fill(line // self.num_slices, pc, t,
                                  dirty=dirty, prefetch=prefetch)
        if evicted is not None and evicted.dirty:
            self.cache.stats.writebacks += 1
            # Reconstruct the global line address from the slice-local one.
            victim_line = evicted.line * self.num_slices + self.slice_id
            self.dram.write(victim_line, t)

    def _deliver(self, origin: "CoreNode", line: int,
                 level: ServiceLevel) -> None:
        """Arrival handler: hand the fill to the origin core's L2."""
        origin.l2.complete(MemoryResponse(line, self.port.engine.now,
                                          level))
