"""Private L2 node: cache + MSHR file and port + L2 prefetcher + NoC egress.

Requests arrive from the core's :class:`~repro.sim.hierarchy.l1.L1Node`
(demand misses and L1-fill prefetches) or directly from the issuing
logic (L2-fill prefetches, ``respond=None``).  Misses cross the NoC to
the line's LLC slice; fills come back through :meth:`complete`, which
wakes every response callback merged into the MSHR entry.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.cache.cache import Cache
from repro.cpu.core_model import ServiceLevel
from repro.sim.hierarchy.messages import MemoryRequest, MemoryResponse
from repro.sim.hierarchy.noc_link import NocLink
from repro.sim.hierarchy.port import Port

if TYPE_CHECKING:
    from repro.sim.hierarchy.llc import LlcSlice
    from repro.sim.hierarchy.node import CoreNode

#: A response callback: receives the fill's :class:`MemoryResponse`.
Respond = Callable[[MemoryResponse], None]

_LEVEL_L2 = ServiceLevel.L2


class L2Node:
    """Per-core private L2 between the L1 node and the shared LLC."""

    __slots__ = ("node", "cache", "mshr", "port", "prefetcher", "latency",
                 "link", "slices", "num_slices")

    def __init__(self, node: "CoreNode", cache: Cache, port: Port,
                 prefetcher, latency: int) -> None:
        self.node = node
        self.cache = cache
        self.mshr = port.mshr
        self.port = port
        self.prefetcher = prefetcher
        self.latency = latency
        # Wired after construction.  A line's home slice is
        # ``line % num_slices``.
        self.link: NocLink
        self.slices: List["LlcSlice"]
        self.num_slices: int

    def counters(self) -> Dict[str, int]:
        """This L2's counter group (``core{N}.l2``): cache activity and
        late prefetch merges in its MSHR."""
        values = self.cache.stats.counters()
        values["late_prefetch_merges"] = self.mshr.late_prefetch_merges
        return values

    def request(self, req: MemoryRequest, cycle: int,
                respond: Optional[Respond]) -> None:
        """Look up ``req.line``; miss descends to the LLC slice."""
        node = self.node
        line = req.line
        hit = self.cache.access(line, req.ip, cycle,
                                is_demand=not req.is_prefetch)
        if not req.is_prefetch and self.prefetcher is not None:
            candidates = self.prefetcher.on_access(req.ip, req.address, hit,
                                                   cycle)
            if candidates:
                node.chain.handle(candidates, cycle)
        if hit:
            if respond is not None:
                done = cycle + self.latency
                self.port.schedule(done, respond,
                                   MemoryResponse(line, done, _LEVEL_L2))
            return
        mshr_file = self.mshr
        mshr = mshr_file.lookup(line)
        if mshr is not None:
            waiter = respond
            was_late = mshr.is_prefetch and not mshr.demand_merged
            mshr_file.merge(mshr, waiter, req.is_prefetch)
            if was_late and not req.is_prefetch:
                # Late but useful: the paper counts these as accurate
                # (the MSHR counts them as late_prefetch_merges).
                node.pf_useful += 1
            return
        if mshr_file.full:
            # A prefetch holding no upstream MSHR (respond is None) may be
            # dropped; one that allocated an L1 MSHR must queue like a
            # demand, or the L1 entry would leak and deadlock its waiters.
            if req.is_prefetch and respond is None:
                node.pf_dropped_mshr += 1
                # Un-count it: it never entered the hierarchy.
                node.pf_issued -= 1
                return
            self.port.defer(
                lambda: self.request(req, self.port.engine.now, respond))
            return
        mshr = mshr_file.allocate(line, req.is_prefetch, req.crit, req.ip,
                                  cycle)
        mshr.address = req.address
        if respond is not None:
            mshr.waiters.append(respond)
        self.port.schedule(cycle + self.latency, self._to_llc, req)

    def _to_llc(self, req: MemoryRequest) -> None:
        """Cross the NoC to the line's LLC slice, in the request's
        service class (``MemoryRequest.high_priority``, inlined)."""
        slice_ = self.slices[req.line % self.num_slices]
        self.link.request(
            self.node.core_id, slice_.slice_id, self.port.engine.now,
            not req.is_prefetch or req.crit, slice_.lookup, req, self.node)

    def complete(self, resp: MemoryResponse) -> None:
        """Fill from the LLC side: release, fill, wake response callbacks."""
        line, t = resp.line, resp.at
        mshr_file = self.mshr
        mshr = mshr_file.release(line)
        prefetch_fill = mshr.is_prefetch and not mshr.demand_merged
        evicted = self.cache.fill(line, mshr.trigger_ip, t,
                                  prefetch=prefetch_fill,
                                  trigger_ip=mshr.trigger_ip)
        if evicted is not None and evicted.dirty:
            self._writeback(evicted.line, t)
        for waiter in mshr.waiters:
            waiter(resp)
        if mshr_file.pending:
            self.port.replay()

    def _writeback(self, line: int, t: int) -> None:
        self.cache.stats.writebacks += 1
        slice_id = line % self.num_slices
        # Fire-and-forget data packet occupying NoC links (low priority).
        self.link.data(self.node.core_id, slice_id, t, high_priority=False)
        self.slices[slice_id].fill(line, t, pc=0, prefetch=False,
                                   dirty=True)

    def accept_writeback(self, line: int, t: int) -> None:
        """Absorb an L1 dirty victim (no allocation cascade modeled)."""
        self.cache.fill(line, 0, t, dirty=True)
