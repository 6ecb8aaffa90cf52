"""L1D node: the hierarchy's issuing layer for one core.

Owns the private L1D cache, its MSHR file and port, the L1 prefetcher,
and the core-facing mechanisms that act at issue time: MMU translation,
CLIP's access/miss observation, DSPatch's candidate generation, and
Hermes' off-chip prediction.  Demands enter here: ``issue_load`` /
``issue_store`` translate first on a core with an MMU, and
:class:`~repro.sim.hierarchy.wiring.Hierarchy` binds a core without
one straight to ``_load_translated`` / ``_store_translated``.
Filtered prefetch candidates re-enter through ``issue_prefetch`` (the
:class:`~repro.sim.hierarchy.filters.PrefetchFilterChain`'s issue hook)
and descend the same miss path.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.cache.cache import Cache
from repro.cpu.core_model import ServiceLevel
from repro.prefetch.base import PrefetchRequest
from repro.sim.hierarchy.messages import (CORE_SPACE_SHIFT, LINE_SHIFT,
                                          MemoryRequest)
from repro.sim.hierarchy.port import Port
from repro.sim.tracing import RequestRecord, RequestTrace

if TYPE_CHECKING:
    from repro.sim.hierarchy.dram_port import DramPort
    from repro.sim.hierarchy.l2 import L2Node
    from repro.sim.hierarchy.llc import LlcSlice
    from repro.sim.hierarchy.node import CoreNode

#: Enum member lookups are attribute loads on the metaclass -- hoisted
#: once, they cost a plain global load on the hit path.
_LEVEL_L1 = ServiceLevel.L1
_LEVEL_DRAM = ServiceLevel.DRAM

#: Demand-latency counter prefix per level a load can miss at.
_MISS_LATENCY_LEVELS = (("l1d", ServiceLevel.L1), ("l2", ServiceLevel.L2),
                        ("llc", ServiceLevel.LLC))


class L1Node:
    """Private L1D: cache + MSHR port + prefetcher + issue mechanisms."""

    __slots__ = ("node", "core_id", "core_bits", "cache", "mshr", "port",
                 "prefetcher", "latency", "mmu", "clip", "hermes",
                 "hermes_pending", "trace", "downstream", "offchip",
                 "slices")

    def __init__(self, node: "CoreNode", cache: Cache, port: Port,
                 prefetcher, latency: int,
                 trace: Optional[RequestTrace], mmu=None, clip=None,
                 hermes=None) -> None:
        self.node = node
        self.core_id = node.core_id
        #: This core's private address-space bits: a byte address's
        #: line is ``(address >> LINE_SHIFT) | core_bits``, which is
        #: :func:`~repro.sim.hierarchy.messages.privatize` inlined.
        self.core_bits = node.core_id << CORE_SPACE_SHIFT
        self.cache = cache
        self.mshr = port.mshr
        self.port = port
        self.prefetcher = prefetcher
        self.latency = latency
        self.trace = trace
        self.mmu = mmu
        self.clip = clip
        self.hermes = hermes
        #: Hermes launches in flight: line -> continuations awaiting it.
        self.hermes_pending: Dict[int, List[Callable]] = {}
        # Wired after construction.
        self.downstream: "L2Node"
        self.offchip: "DramPort"
        self.slices: List["LlcSlice"]

    def counters(self) -> Dict[str, int]:
        """This L1D's counter group (``core{N}.l1d``): cache activity,
        late prefetch merges in its MSHR, and the core's demand-load
        latency sum and count by the level each load missed at
        (``{l1d,l2,llc}_miss_latency_{sum,count}``)."""
        node = self.node
        values = self.cache.stats.counters()
        values["late_prefetch_merges"] = self.mshr.late_prefetch_merges
        for prefix, level in _MISS_LATENCY_LEVELS:
            values[f"{prefix}_miss_latency_sum"] = node.lat_sum[level]
            values[f"{prefix}_miss_latency_count"] = node.lat_count[level]
        return values

    # ------------------------------------------------------------------
    # Core-facing interface
    # ------------------------------------------------------------------

    def issue_load(self, address: int, ip: int, cycle: int,
                   callback: Callable) -> None:
        """A demand load, translated first when the core has an MMU.
        :class:`~repro.sim.hierarchy.wiring.Hierarchy` binds a core
        without one straight to :meth:`_load_translated`."""
        if self.mmu is not None:
            translation = self.mmu.translate(address)
            if translation:
                # Re-enter after the TLB/page-walk latency has elapsed.
                self.port.schedule(cycle + translation,
                                   self._load_after_translation,
                                   address, ip, callback)
                return
        self._load_translated(address, ip, cycle, callback)

    def _load_after_translation(self, address: int, ip: int,
                                callback: Callable) -> None:
        self._load_translated(address, ip, self.port.engine.now, callback)

    def _load_translated(self, address: int, ip: int, cycle: int,
                         callback: Callable) -> None:
        chain = self.node.chain
        clip = self.clip
        line = (address >> LINE_SHIFT) | self.core_bits
        if clip is not None:
            clip.on_l1d_access(line, cycle)
        # Both read per access: ``chain.policy`` is the documented
        # stubbing seam, and a stub may arrive after wiring.
        if chain.policy is not None or chain.throttler is not None:
            chain.note_demand_access(cycle)
        hit = self.cache.access(line, ip, cycle)
        prefetcher = self.prefetcher
        if prefetcher is not None:
            candidates = prefetcher.on_access(ip, address, hit, cycle)
            if candidates:
                chain.handle(candidates, cycle)
        dspatch = chain.dspatch
        if dspatch is not None:
            extra = dspatch.observe(ip, address,
                                    chain.channel_utilization)
            if extra:
                chain.handle(extra, cycle, dspatch_generated=True)
        if self.hermes is not None:
            callback = self._wrap_hermes(ip, address, callback)
        if hit:
            done = cycle + self.latency
            if self.trace is not None:
                self.trace.append(RequestRecord(
                    self.core_id, address, cycle, done, _LEVEL_L1,
                    False))
            self.port.schedule(done, callback, done, _LEVEL_L1)
            return
        if clip is not None:
            clip.on_l1d_miss(cycle)
        if self.hermes is not None and self.hermes.predict_offchip(ip,
                                                                   address):
            self._hermes_launch(line, cycle)
        self.request(
            MemoryRequest(line=line, address=address, ip=ip,
                          core_id=self.core_id, t0=cycle),
            cycle, callback)

    def issue_store(self, address: int, ip: int, cycle: int) -> None:
        """A store, translated first when the core has an MMU (bound
        like :meth:`issue_load`)."""
        if self.mmu is not None:
            translation = self.mmu.translate(address)
            if translation:
                self.port.schedule(cycle + translation,
                                   self._store_after_translation,
                                   address, ip)
                return
        self._store_translated(address, ip, cycle)

    def _store_after_translation(self, address: int, ip: int) -> None:
        self._store_translated(address, ip, self.port.engine.now)

    def _store_translated(self, address: int, ip: int, cycle: int) -> None:
        chain = self.node.chain
        line = (address >> LINE_SHIFT) | self.core_bits
        if self.clip is not None:
            self.clip.on_l1d_access(line, cycle)
        if chain.policy is not None or chain.throttler is not None:
            chain.note_demand_access(cycle)
        hit = self.cache.access(line, ip, cycle, is_write=True)
        if hit:
            return
        if self.clip is not None:
            self.clip.on_l1d_miss(cycle)
        # Write-allocate: fetch the line (RFO) and fill it dirty.
        self.request(
            MemoryRequest(line=line, address=address, ip=ip,
                          core_id=self.core_id, is_store=True, t0=cycle),
            cycle, callback=None)

    # ------------------------------------------------------------------
    # Hermes
    # ------------------------------------------------------------------

    def _wrap_hermes(self, ip: int, address: int,
                     callback: Callable) -> Callable:
        def trained(done: int, level: ServiceLevel) -> None:
            self.hermes.train(ip, address, level == ServiceLevel.DRAM)
            callback(done, level)
        return trained

    def _hermes_launch(self, line: int, cycle: int) -> None:
        if line in self.hermes_pending or len(self.hermes_pending) > 256:
            return
        self.hermes_pending[line] = []
        self.offchip.read(line, cycle,
                          lambda t: self._hermes_done(line, t),
                          is_prefetch=False, crit=False)

    def _hermes_done(self, line: int, t: int) -> None:
        waiters = self.hermes_pending.pop(line, [])
        slice_ = self.slices[line % len(self.slices)]
        slice_.fill(line, t, pc=0, prefetch=not waiters)
        for continuation in waiters:
            continuation(t)

    # ------------------------------------------------------------------
    # Prefetch issuing (the filter chain's issue hook)
    # ------------------------------------------------------------------

    def issue_prefetch(self, request: PrefetchRequest, cycle: int,
                       crit: bool) -> None:
        node = self.node
        line = (request.address >> LINE_SHIFT) | self.core_bits
        # CLIP-selected prefetches from an L1 prefetcher always fill to L1
        # (section 4.2: the requests are known critical and accurate);
        # otherwise the prefetcher's requested fill level stands.
        if self.clip is not None and self.prefetcher is not None:
            fill_level = 1
        else:
            fill_level = request.fill_level
        l2 = self.downstream
        if (self.cache.probe(line) or l2.cache.probe(line)
                or l2.mshr.lookup(line) is not None
                or self.mshr.lookup(line) is not None):
            node.pf_dropped_duplicate += 1
            return
        if fill_level == 1 and self.mshr.full:
            # Demote to an L2 fill (Berti orchestrates fills across L1..L3;
            # a prefetch that cannot park at L1 still moves the line on
            # chip).
            fill_level = 2
        if fill_level != 1 and l2.mshr.full:
            node.pf_dropped_mshr += 1
            return
        node.pf_issued += 1
        if self.clip is not None:
            self.clip.on_prefetch_issued(line, request.trigger_ip)
        req = MemoryRequest(line=line, address=request.address,
                            ip=request.trigger_ip, core_id=self.core_id,
                            is_prefetch=True, crit=crit, t0=cycle)
        if fill_level == 1:
            self.request(req, cycle, callback=None)
        else:
            l2.request(req, cycle, respond=None)

    # ------------------------------------------------------------------
    # Miss path
    # ------------------------------------------------------------------

    def request(self, req: MemoryRequest, cycle: int,
                callback: Optional[Callable]) -> None:
        """Handle an L1 miss (or L1-fill prefetch) for ``req.line``."""
        node = self.node
        line = req.line
        if req.is_prefetch and self.cache.probe(line):
            # A demand fetched the line while this prefetch queued.
            node.pf_dropped_duplicate += 1
            return
        mshr_file = self.mshr
        mshr = mshr_file.lookup(line)
        if mshr is not None:
            waiter = (callback, req.t0) if callback is not None else None
            was_late = mshr.is_prefetch and not mshr.demand_merged
            mshr_file.merge(mshr, waiter, req.is_prefetch)
            if was_late and not req.is_prefetch:
                # Late but useful: the paper counts these as accurate
                # (the MSHR counts them as late_prefetch_merges).
                node.pf_useful += 1
            if req.is_store:
                mshr.dirty = True
            return
        if mshr_file.full:
            if req.is_prefetch:
                # Lost a race with demand allocations since the issue-time
                # check; fall back to the L2 fill path.
                self.downstream.request(req, cycle, respond=None)
                return
            self.port.defer(
                lambda: self.request(req, self.port.engine.now, callback))
            return
        mshr = mshr_file.allocate(line, req.is_prefetch, req.crit, req.ip,
                                  cycle)
        mshr.address = req.address
        mshr.dirty = req.is_store
        # Berti times deltas against the *demand* cycle; when the miss sat
        # in the pending queue first, allocation time would understate the
        # latency and invert the timeliness test.
        mshr.allocated_at = req.t0
        if callback is not None:
            mshr.waiters.append((callback, req.t0))
        self.port.schedule(cycle + self.latency, self._forward_to_l2, req)

    def _forward_to_l2(self, req: MemoryRequest) -> None:
        self.downstream.request(req, self.port.engine.now,
                                respond=self._complete)

    def _complete(self, resp) -> None:
        """Fill from below: release the MSHR, fill the cache, wake waiters."""
        node = self.node
        line, t, level = resp.line, resp.at, resp.level
        mshr_file = self.mshr
        mshr = mshr_file.release(line)
        prefetch_fill = mshr.is_prefetch and not mshr.demand_merged
        evicted = self.cache.fill(line, mshr.trigger_ip, t,
                                  dirty=mshr.dirty, prefetch=prefetch_fill,
                                  trigger_ip=mshr.trigger_ip)
        if evicted is not None and evicted.dirty:
            self.downstream.accept_writeback(evicted.line, t)
        if self.prefetcher is not None and not mshr.is_prefetch:
            more = self.prefetcher.on_fill(mshr.address, t, prefetch=False,
                                           ip=mshr.trigger_ip,
                                           issued_at=mshr.allocated_at)
            if more:
                node.chain.handle(more, t)
        for callback, t0 in mshr.waiters:
            latency = t - t0
            if self.trace is not None:
                self.trace.append(RequestRecord(
                    self.core_id, mshr.address, t0, t, ServiceLevel(level),
                    mshr.is_prefetch))
            for lvl in range(_LEVEL_L1, min(level, _LEVEL_DRAM) + 1):
                if lvl < level:
                    # The load missed at lvl; its latency counts toward
                    # lvl's demand miss latency (Fig. 3 accounting).
                    node.lat_sum[lvl] += latency
                    node.lat_count[lvl] += 1
            callback(t, level)
        if mshr_file.pending:
            self.port.replay()
