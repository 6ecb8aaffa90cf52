"""Per-core prefetch filter chain: DSPatch -> CLIP / criticality gate.

Every prefetch candidate a core's prefetchers produce passes through one
:class:`PrefetchFilterChain` before reaching the issuing layer:

1. **DSPatch modulation** (when enabled) rewrites the candidate list
   against its myopic per-channel bandwidth signal;
2. **CLIP** (paper section 4.2) admits only candidates whose trigger is
   predicted load-critical under the current bandwidth regime, tagging
   survivors with the criticality flag; *or*, when a baseline
   criticality predictor is configured as a gate, that predictor admits
   by trigger IP;
3. survivors are handed to the chain's ``issue`` hook -- the L1 node's
   issuing logic (duplicate suppression, MSHR reservation, fill-level
   demotion).

The chain also owns the **throttling epoch** (FDP/HPAC/SPAC/NST): every
``_THROTTLE_EPOCH`` demand L1D accesses it snapshots accuracy/lateness/
pollution/occupancy and rescales the prefetchers' degree.  When a
learned :class:`~repro.prefetch.learned.policy.OnlinePolicy` is
attached, the chain additionally drives the **policy epoch**
(``observe`` with a :class:`~repro.prefetch.learned.policy.
PolicyFeatures` snapshot, applied to the ``policy_target`` arm
multiplexer) and consults ``policy.decide`` on every candidate that
survived the static filters.
"""

from __future__ import annotations

from typing import Callable, Dict, List, TYPE_CHECKING

from repro.prefetch.base import PrefetchRequest
from repro.prefetch.learned.policy import PolicyFeatures
from repro.sim.hierarchy.messages import privatize
from repro.throttle.base import ThrottleSnapshot

if TYPE_CHECKING:
    from repro.prefetch.learned.bandit import SelectedPrefetcher
    from repro.prefetch.learned.policy import OnlinePolicy
    from repro.sim.hierarchy.dram_port import DramPort
    from repro.sim.hierarchy.node import CoreNode

#: Demand L1D accesses per throttling epoch.
_THROTTLE_EPOCH = 1024


class PrefetchFilterChain:
    """The CLIP / criticality-gate / DSPatch / throttle hook stack."""

    __slots__ = ("node", "clip", "crit_gate", "gate_enabled", "dspatch",
                 "throttler", "dram", "channel_utilization",
                 "issue", "policy", "policy_target", "policy_epoch",
                 "noc_flits")

    def __init__(self, node: "CoreNode", dram: "DramPort",
                 channel_utilization: Callable[[int], float],
                 gate_enabled: bool) -> None:
        self.node = node
        self.clip = None
        self.crit_gate = None
        #: Baseline predictors can *measure* without gating; only a
        #: configured gate may drop candidates.
        self.gate_enabled = gate_enabled
        self.dspatch = None
        self.throttler = None
        self.dram = dram
        self.channel_utilization = channel_utilization
        #: Issuing-layer hook, wired to ``L1Node.issue_prefetch``.
        self.issue: Callable[[PrefetchRequest, int, bool], None] = (
            lambda request, cycle, crit: None)
        #: Learned online policy (None for every static scheme).
        self.policy: "OnlinePolicy | None" = None
        #: The arm multiplexer ``observe`` actions re-target (bandit).
        self.policy_target: "SelectedPrefetcher | None" = None
        #: Demand L1D accesses per policy epoch.
        self.policy_epoch = 0
        #: NoC flit-hop probe (wired by the hierarchy builder).
        self.noc_flits: Callable[[], int] = lambda: 0

    def counters(self) -> Dict[str, int]:
        """This chain's counter group (``core{N}.chain``).

        Per-core prefetch candidate/issue/drop/use accounting, plus the
        ``clip_*`` counters of an attached CLIP, the ``crit_*`` ones of
        a baseline criticality predictor, and a learned policy's.
        """
        node = self.node
        values = {
            "pf_candidates": node.pf_candidates,
            "pf_issued": node.pf_issued,
            "pf_dropped_filter": node.pf_dropped_filter,
            "pf_dropped_duplicate": node.pf_dropped_duplicate,
            "pf_dropped_mshr": node.pf_dropped_mshr,
            "pf_useful": node.pf_useful,
        }
        for source in (self.clip, self.crit_gate, self.policy):
            if source is not None:
                values.update(source.counters())
        return values

    # ------------------------------------------------------------------
    # Candidate filtering
    # ------------------------------------------------------------------

    def handle(self, candidates: List[PrefetchRequest], cycle: int,
               dspatch_generated: bool = False) -> None:
        """Filter ``candidates`` and hand survivors to the issuing layer."""
        node = self.node
        if self.dspatch is not None and not dspatch_generated:
            candidates = self.dspatch.filter_candidates(
                candidates, self.channel_utilization)
        for request in candidates:
            node.pf_candidates += 1
            crit = False
            if self.clip is not None:
                allowed, crit = self.clip.filter_request(
                    request.trigger_ip, request.address, cycle)
                if not allowed:
                    node.pf_dropped_filter += 1
                    continue
            elif self.crit_gate is not None and self.gate_enabled:
                if not self.crit_gate.predicts_critical_ip(
                        request.trigger_ip):
                    node.pf_dropped_filter += 1
                    continue
            if self.policy is not None:
                # Documented ``decide`` point: once per candidate that
                # survived the static filters, keyed by the privatised
                # line so fate feedback finds the same record.
                if not self.policy.decide(
                        request.trigger_ip,
                        privatize(node.core_id, request.address), cycle):
                    node.pf_dropped_filter += 1
                    continue
            self.issue(request, cycle, crit)

    # ------------------------------------------------------------------
    # Throttling epochs
    # ------------------------------------------------------------------

    def note_demand_access(self, cycle: int) -> None:
        """Count one demand L1D access; close epochs when they fill.

        The policy epoch (when a policy is attached) closes before the
        throttling epoch, so an arm switch lands under the degree scale
        the throttler chose for the regime being measured.
        """
        node = self.node
        if self.policy is not None:
            node.policy_accesses += 1
            if node.policy_accesses >= self.policy_epoch:
                node.policy_accesses = 0
                self._close_policy_epoch(cycle)
        if self.throttler is None:
            return
        node.epoch_accesses += 1
        if node.epoch_accesses < _THROTTLE_EPOCH:
            return
        node.epoch_accesses = 0
        l1, l2 = node.l1, node.l2
        late = (l1.mshr.late_prefetch_merges
                + l2.mshr.late_prefetch_merges)
        pollution = (l1.cache.stats.useless_evictions
                     + l2.cache.stats.useless_evictions)
        issued, useful, base_late, base_pollution = node.epoch_base
        d_issued = node.pf_issued - issued
        d_useful = node.pf_useful - useful
        d_late = late - base_late
        d_pollution = pollution - base_pollution
        node.epoch_base = (node.pf_issued, node.pf_useful, late, pollution)
        accuracy = d_useful / d_issued if d_issued else 0.0
        lateness = d_late / d_useful if d_useful else 0.0
        poll = d_pollution / d_issued if d_issued else 0.0
        occupancy = ((len(l1.mshr.entries) + len(l2.mshr.entries))
                     / (l1.mshr.capacity + l2.mshr.capacity))
        snapshot = ThrottleSnapshot(
            accuracy=min(1.0, accuracy), lateness=min(1.0, lateness),
            pollution=min(1.0, poll),
            dram_utilization=self.dram.utilization(cycle),
            mshr_occupancy=occupancy, issued=d_issued)
        scale = self.throttler.decide(snapshot)
        if l1.prefetcher is not None:
            l1.prefetcher.set_degree_scale(scale)
        if l2.prefetcher is not None:
            l2.prefetcher.set_degree_scale(scale)

    # ------------------------------------------------------------------
    # Policy epochs
    # ------------------------------------------------------------------

    def _close_policy_epoch(self, cycle: int) -> None:
        """Documented ``observe`` point: snapshot integer features,
        let the policy digest them, apply any arm-switch action."""
        node = self.node
        l1, l2 = node.l1, node.l2
        occupancy = ((len(l1.mshr.entries)
                      + len(l2.mshr.entries)) * 1000
                     // (l1.mshr.capacity + l2.mshr.capacity))
        features = PolicyFeatures(
            cycle=cycle,
            pf_issued=node.pf_issued,
            pf_useful=node.pf_useful,
            pf_dropped=node.pf_dropped_filter,
            demand_misses=l1.cache.stats.demand_misses,
            useless_evictions=(l1.cache.stats.useless_evictions
                               + l2.cache.stats.useless_evictions),
            dram_busy_permille=int(self.dram.utilization(cycle) * 1000),
            noc_flit_hops=self.noc_flits(),
            mshr_occupancy_permille=occupancy)
        action = self.policy.observe(features)
        if action >= 0 and self.policy_target is not None:
            self.policy_target.activate(action)
