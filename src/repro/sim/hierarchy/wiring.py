"""Configuration-driven construction of the memory hierarchy.

:class:`Hierarchy` turns a :class:`repro.config.SystemConfig` into the
component graph -- per-core :class:`~repro.sim.hierarchy.node.CoreNode`
(L1 node, L2 node, filter chain), shared :class:`~repro.sim.hierarchy.
llc.LlcSlice` banks, one :class:`~repro.sim.hierarchy.noc_link.NocLink`
and one :class:`~repro.sim.hierarchy.dram_port.DramPort` -- and exposes
the core-facing memory interface (``issue_load`` / ``issue_store``).
All mechanism objects are built here, fully, before any request flows.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional

from repro.cache.cache import Cache
from repro.cache.mshr import MshrFile
from repro.config import SystemConfig
from repro.core.clip import Clip
from repro.criticality import make_criticality_predictor
from repro.dram.controller import DramSystem
from repro.mmu.tlb import Mmu
from repro.noc.mesh import MeshNoc
from repro.prefetch.base import make_prefetcher
from repro.prefetch.learned import SelectedPrefetcher, make_policy
from repro.related.dspatch import DspatchModulator
from repro.sim.counters import CounterRegistry
from repro.related.hermes import HermesPredictor
from repro.sim.engine import Engine
from repro.sim.hierarchy.dram_port import DramPort
from repro.sim.hierarchy.filters import PrefetchFilterChain
from repro.sim.hierarchy.l1 import L1Node
from repro.sim.hierarchy.l2 import L2Node
from repro.sim.hierarchy.llc import LlcSlice
from repro.sim.hierarchy.messages import LINE_SHIFT, privatize
from repro.sim.hierarchy.noc_link import NocLink
from repro.sim.hierarchy.node import CoreNode
from repro.sim.hierarchy.port import Port
from repro.sim.tracing import RequestTrace
from repro.throttle import make_throttler


class Hierarchy:
    """The wired memory system below the cores."""

    def __init__(self, config: SystemConfig, engine: Engine, noc: MeshNoc,
                 dram: DramSystem, trace: Optional[RequestTrace]) -> None:
        self.config = config
        self.engine = engine
        self.num_slices = config.num_cores
        self.dram_port = DramPort(dram, engine)
        #: Shared NoC adapter; its port carries no MSHR (links do not
        #: back-pressure in this model), only delivery scheduling.
        self.link = NocLink(noc, Port(engine, mshr=None))
        self.slices: List[LlcSlice] = [
            LlcSlice(slice_id, Cache(config.llc_slice),
                     Port(engine, MshrFile(config.llc_slice.mshr_entries)),
                     config.llc_slice.latency, self.num_slices, self.link,
                     self.dram_port)
            for slice_id in range(self.num_slices)]
        self.nodes: List[CoreNode] = [
            self._build_node(core_id, trace)
            for core_id in range(config.num_cores)]
        # Per-core demand entries, bound once: a core with an MMU
        # translates first, one without enters its L1 translated.
        self._load_entries: List[Callable[..., None]] = [
            node.l1.issue_load if node.l1.mmu is not None
            else node.l1._load_translated for node in self.nodes]
        self._store_entries: List[Callable[..., None]] = [
            node.l1.issue_store if node.l1.mmu is not None
            else node.l1._store_translated for node in self.nodes]
        #: Typed per-component counter layer: one registered
        #: :class:`~repro.sim.counters.CounterGroup` per component,
        #: snapshotted into ``SimulationResult.counters`` at collection
        #: time (pull model -- zero hot-path cost); every result view
        #: derives from that snapshot.
        self.counters = CounterRegistry()
        self._register_counters()

    def _register_counters(self) -> None:
        registry = self.counters
        for node in self.nodes:
            registry.register(f"core{node.core_id}.l1d", node.l1.counters)
            registry.register(f"core{node.core_id}.l2", node.l2.counters)
            registry.register(f"core{node.core_id}.chain",
                              node.chain.counters)
        for slice_ in self.slices:
            registry.register(f"llc.slice{slice_.slice_id}",
                              slice_.counters)
        registry.register("noc", self.link.counters)
        for channel in range(len(self.dram_port.dram.channels)):
            registry.register(
                f"dram.ch{channel}",
                partial(self.dram_port.channel_counters, channel))

    # ------------------------------------------------------------------
    # Core-facing memory interface
    # ------------------------------------------------------------------

    def issue_load(self, core_id: int, address: int, ip: int, cycle: int,
                   callback: Callable) -> None:
        self._load_entries[core_id](address, ip, cycle, callback)

    def issue_store(self, core_id: int, address: int, ip: int,
                    cycle: int) -> None:
        self._store_entries[core_id](address, ip, cycle)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build_node(self, core_id: int,
                    trace: Optional[RequestTrace]) -> CoreNode:
        config = self.config
        node = CoreNode(core_id)
        l1_pf = l2_pf = None
        policy = None
        if config.learned.policy != "none":
            policy = make_policy(config.learned, core_id)
        if config.learned.policy == "bandit":
            # The selector owns the L1 slot (validate() guarantees the
            # static l1 prefetcher is "none" here).
            l1_pf = SelectedPrefetcher(config.learned.arms,
                                       config.l1_prefetcher.degree)
        elif config.l1_prefetcher.name != "none":
            l1_pf = make_prefetcher(config.l1_prefetcher.name,
                                    config.l1_prefetcher.degree)
        if config.l2_prefetcher.name != "none":
            l2_pf = make_prefetcher(config.l2_prefetcher.name,
                                    config.l2_prefetcher.degree)
        clip = None
        if config.clip.enabled:
            clip = Clip(config.clip)
            clip.bandwidth_probe = self.dram_port.utilization_now
        mmu = None
        if config.tlb.enabled:
            mmu = Mmu(
                dtlb_entries=config.tlb.dtlb_entries,
                dtlb_ways=config.tlb.dtlb_ways,
                stlb_entries=config.tlb.stlb_entries,
                stlb_ways=config.tlb.stlb_ways,
                stlb_latency=config.tlb.stlb_latency,
                page_walk_latency=config.tlb.page_walk_latency,
                page_shift=config.tlb.page_shift)
        hermes = HermesPredictor() if config.related.hermes else None
        chain = PrefetchFilterChain(
            node, self.dram_port,
            lambda a: self.dram_port.channel_utilization(
                privatize(core_id, a)),
            gate_enabled=config.criticality.gate)
        if config.criticality.name != "none":
            chain.crit_gate = make_criticality_predictor(
                config.criticality.name)
        if config.throttle.name != "none":
            chain.throttler = make_throttler(config.throttle.name)
        if config.related.dspatch:
            chain.dspatch = DspatchModulator()
        chain.clip = clip
        if policy is not None:
            chain.policy = policy
            chain.policy_epoch = config.learned.epoch_accesses
            chain.noc_flits = self._noc_flit_hops
            if config.learned.policy == "bandit":
                chain.policy_target = l1_pf
        node.chain = chain
        node.l1 = L1Node(node, Cache(config.l1d),
                         Port(self.engine, MshrFile(config.l1d.mshr_entries)),
                         l1_pf, config.l1d.latency, trace,
                         mmu=mmu, clip=clip, hermes=hermes)
        node.l2 = L2Node(node, Cache(config.l2),
                         Port(self.engine, MshrFile(config.l2.mshr_entries)),
                         l2_pf, config.l2.latency)
        # Inter-layer wiring.
        node.l1.downstream = node.l2
        node.l1.offchip = self.dram_port
        node.l1.slices = self.slices
        node.l2.link = self.link
        node.l2.slices = self.slices
        node.l2.num_slices = self.num_slices
        chain.issue = node.l1.issue_prefetch
        self._wire_feedback(node)
        return node

    def _noc_flit_hops(self) -> int:
        """Policy-feature probe: exact mesh flit-hops so far."""
        return self.link.noc.stats.flit_hops

    def _wire_feedback(self, node: CoreNode) -> None:
        policy = node.chain.policy

        def l1_use(line: int, trigger_ip: int) -> None:
            node.pf_useful += 1

        def l2_use(line: int, trigger_ip: int) -> None:
            node.pf_useful += 1
            if node.l2.prefetcher is not None:
                node.l2.prefetcher.on_prefetch_feedback(
                    line << LINE_SHIFT, True)

        def l2_useless(line: int) -> None:
            if node.l2.prefetcher is not None:
                node.l2.prefetcher.on_prefetch_feedback(
                    line << LINE_SHIFT, False)

        if policy is not None:
            # Documented ``update`` points: prefetch-use and
            # useless-eviction fates, at both private levels.  The
            # policy-aware closures exist only on learned runs, so
            # static schemes keep their exact pre-policy listeners.
            # They read ``node.chain.policy`` at call time -- that
            # attribute is the one documented stubbing seam, so a test
            # swapping it redirects *every* hook, not just decide().
            base_l1_use, base_l2_use = l1_use, l2_use
            base_l2_useless = l2_useless
            chain = node.chain

            def l1_use(line: int, trigger_ip: int) -> None:
                base_l1_use(line, trigger_ip)
                chain.policy.update(line, trigger_ip, True)

            def l2_use(line: int, trigger_ip: int) -> None:
                base_l2_use(line, trigger_ip)
                chain.policy.update(line, trigger_ip, True)

            def l2_useless(line: int) -> None:
                base_l2_useless(line)
                chain.policy.update(line, 0, False)

            def l1_useless(line: int) -> None:
                chain.policy.update(line, 0, False)

            node.l1.cache.useless_eviction_listener = l1_useless

        node.l1.cache.prefetch_use_listener = l1_use
        node.l2.cache.prefetch_use_listener = l2_use
        node.l2.cache.useless_eviction_listener = l2_useless
