"""The full many-core system: cores plus the component-based memory
hierarchy (:mod:`repro.sim.hierarchy`), built per
:class:`repro.config.SystemConfig`.

Memory request flow (demand load):

    core -> L1Node (hit: +l1_lat) -> L1 MSHR port -> L2Node (+l2_lat)
         -> L2 MSHR port -> NocLink request -> LlcSlice (+llc_lat)
         -> LLC MSHR port -> DramPort -> fill LLC -> NocLink data
         -> fill L2 -> fill L1 -> core callback(level)

The request-flow logic lives in the hierarchy components; this module
only owns configuration-driven wiring (cores attached to the hierarchy,
CLIP/criticality predictors attached to cores, the counter registry
holding the hierarchy's groups and each core's) and result collection:
the counter snapshot, the views derived from it
(:func:`repro.sim.stats.derive_views`), and their energy.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.analysis.sanitizer import (Sanitizer, install_sanitizer,
                                      sanitize_enabled)
from repro.config import BranchPredictorConfig, SystemConfig
from repro.cpu.branch import HashedPerceptronPredictor, outcome_stream
from repro.cpu.core_model import Core
from repro.dram.controller import DramSystem
from repro.noc.mesh import MeshNoc
from repro.sim.counters import CounterRegistry
from repro.sim.engine import Engine
from repro.sim.hierarchy import CoreNode, Hierarchy
from repro.sim.tracing import RequestTrace
from repro.sim.stats import SimulationResult, derive_views
from repro.trace.record import TraceRecord
from repro.trace.synthetic import SyntheticWorkload
from repro.trace.workloads import get_workload

#: Generated synthetic traces, shared across runs, each with its branch
#: outcome streams (``repr(BranchPredictorConfig)`` -> bytes, see
#: :func:`repro.cpu.branch.outcome_stream`).  Generation is deterministic
#: in (spec content, core_id, length), the predictor's right/wrong
#: sequence in (trace, branch config), and the simulator never mutates
#: either, so a sweep running the same mix under many schemes pays trace
#: generation and branch replay once instead of once per scheme.  The
#: spec ``repr`` keys by content, not identity: ad-hoc specs reusing a
#: registered name cannot collide.  A small LRU bounds memory.  A trace
#: is a list of shared, immutable records, one object per distinct
#: record (see ``SyntheticWorkload.generate``), so an entry costs about
#: 21 bytes per instruction plus one per instruction for each outcome
#: stream: 0.85 MB + 40 KB for a 40,000-instruction ``657.xz_s-1306B``
#: trace (3.3k distinct records), about 114 MB for 128 such entries.
_CachedTrace = Tuple[List[TraceRecord], Dict[str, bytes]]
_TRACE_CACHE: "OrderedDict[Tuple, _CachedTrace]" = OrderedDict()
_TRACE_CACHE_ENTRIES = 128


def _workload_trace(name: str, length: int, core_id: int,
                    branch: BranchPredictorConfig,
                    ) -> Tuple[List[TraceRecord], bytes]:
    """The (cached) trace and its outcome stream under ``branch``."""
    spec = get_workload(name)
    key = (name, repr(spec), core_id, length)
    entry = _TRACE_CACHE.get(key)
    if entry is None:
        entry = (SyntheticWorkload(spec).generate(length, core_id=core_id),
                 {})
        _TRACE_CACHE[key] = entry
        if len(_TRACE_CACHE) > _TRACE_CACHE_ENTRIES:
            _TRACE_CACHE.popitem(last=False)
    else:
        _TRACE_CACHE.move_to_end(key)
    trace, streams = entry
    branch_key = repr(branch)
    outcomes = streams.get(branch_key)
    if outcomes is None:
        outcomes = streams[branch_key] = outcome_stream(trace, branch)
    return trace, outcomes


class MulticoreSystem:
    """Builds and runs one simulation."""

    def __init__(self, config: SystemConfig, workloads: List[str],
                 label: str = "") -> None:
        config.validate()
        if len(workloads) != config.num_cores:
            raise ValueError(
                f"{len(workloads)} workloads for {config.num_cores} cores")
        self.config = config
        self.workload_names = list(workloads)
        self.label = label or self._default_label()
        self.engine = Engine()
        # Opt-in runtime invariant sanitizer: the guard is evaluated once
        # here, at wiring time -- a disabled run installs no wrappers and
        # the hot paths stay untouched (repro.analysis.sanitizer).  The
        # engine is wrapped before anything is built, because every
        # hierarchy port binds ``engine.schedule`` at construction.
        self.sanitizer: Optional[Sanitizer] = None
        if sanitize_enabled(config):
            self.sanitizer = Sanitizer()
            self.sanitizer.wrap_engine(self.engine)
        self.noc = MeshNoc(config.mesh_dim, config.noc)
        self.dram = DramSystem(config.dram, self.engine)
        self.request_trace: Optional[RequestTrace] = (
            RequestTrace(config.capture_request_trace)
            if config.capture_request_trace else None)
        self.hierarchy = Hierarchy(config, self.engine, self.noc,
                                   self.dram, self.request_trace)
        #: One counter group per hierarchy component and per core; every
        #: result field but the label and energy derives from its
        #: snapshot.  The system owns it because a core references the
        #: hierarchy, so a registry held there would keep every core in
        #: a reference cycle until the cyclic collector runs.
        self.counters = CounterRegistry()
        self.hierarchy.register_counters(self.counters)
        self.cores: List[Core] = []
        self._build_cores()
        if self.sanitizer is not None:
            install_sanitizer(self, self.sanitizer)

    # -- flat views over the hierarchy ---------------------------------

    @property
    def nodes(self) -> List[CoreNode]:
        return self.hierarchy.nodes

    @property
    def num_slices(self) -> int:
        return self.hierarchy.num_slices

    @property
    def llc(self):
        return [s.cache for s in self.hierarchy.slices]

    @property
    def llc_mshr(self):
        return [s.mshr for s in self.hierarchy.slices]

    def _default_label(self) -> str:
        parts = [self.config.l1_prefetcher.name]
        if self.config.l2_prefetcher.name != "none":
            parts.append(self.config.l2_prefetcher.name)
        if self.config.clip.enabled:
            parts.append("clip")
        if self.config.criticality.name != "none":
            parts.append(self.config.criticality.name)
        if self.config.throttle.name != "none":
            parts.append(self.config.throttle.name)
        if self.config.related.hermes:
            parts.append("hermes")
        if self.config.related.dspatch:
            parts.append("dspatch")
        if self.config.learned.policy != "none":
            if parts[0] == "none":
                parts[0] = self.config.learned.policy
            else:
                parts.append(self.config.learned.policy)
        return "+".join(parts)

    def _build_cores(self) -> None:
        config = self.config
        length = config.warmup_instructions + config.sim_instructions
        for core_id, name in enumerate(self.workload_names):
            trace, outcomes = _workload_trace(name, length, core_id,
                                              config.branch)
            core = Core(core_id, config.core_for(core_id), trace,
                        memory=self.hierarchy, engine=self.engine,
                        branch_predictor=HashedPerceptronPredictor(
                            config.branch),
                        warmup_instructions=config.warmup_instructions,
                        branch_outcomes=outcomes)
            node = self.hierarchy.nodes[core_id]
            if node.clip is not None:
                node.clip.attach(core)
            if node.crit_gate is not None:
                node.crit_gate.attach(core)
            self.counters.register(f"core{core_id}.cpu", core.counters)
            self.cores.append(core)

    # ------------------------------------------------------------------
    # Running and result collection
    # ------------------------------------------------------------------

    def run(self, max_cycles: int = 200_000_000) -> SimulationResult:
        final_cycle = self.engine.run(self.cores, max_cycles=max_cycles)
        if self.sanitizer is not None:
            self.sanitizer.final_check(self)
        return self._collect(final_cycle)

    def _collect(self, final_cycle: int) -> SimulationResult:
        counters = self.counters.snapshot()
        result = SimulationResult(
            config_label=self.label, total_cycles=final_cycle,
            counters=counters,
            **derive_views(counters, final_cycle,
                           self.config.criticality.name,
                           self.workload_names))
        self._attach_energy(result)
        return result

    def _attach_energy(self, result: SimulationResult) -> None:
        """Counter-driven energy and EDP at the configured frequency."""
        # Deferred import: repro.energy.model imports repro.sim.stats,
        # which resolves through repro.sim's package __init__ and lands
        # back in this module while it is still initialising.
        from repro.energy.model import dynamic_energy
        breakdown = dynamic_energy(result)
        result.energy_breakdown_mj = breakdown.components_mj
        result.energy_mj = breakdown.total_mj
        delay_s = result.total_cycles / (self.config.core.frequency_ghz
                                         * 1e9)
        result.edp_mj_s = result.energy_mj * delay_s


def run_system(config: SystemConfig, workloads: List[str],
               label: str = "") -> SimulationResult:
    """Convenience wrapper: build, run, collect."""
    return MulticoreSystem(config, workloads, label=label).run()
