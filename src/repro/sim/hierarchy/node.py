"""Per-core vertical slice of the hierarchy: L1 + L2 + filter chain.

:class:`CoreNode` aggregates the two private levels of one core and the
per-core accounting both levels update (prefetch candidate/issue/drop/
use counters, demand-latency sums indexed by service level, throttling-
epoch state).  These plain ints are the only copy of each count: the
chain's and the L1D's counter groups report them (``core{N}.chain``
``pf_*``, ``core{N}.l1d`` ``*_miss_latency_*``) and every result view
is derived from that snapshot (:func:`repro.sim.stats.derive_views`).
The flow logic lives in the layer components (:class:`~repro.sim.
hierarchy.l1.L1Node`, :class:`~repro.sim.hierarchy.l2.L2Node`); the
node exposes flat views (``l1d``, ``l1_mshr``, ``hermes``, ...) so
the sanitizer and tests address per-core state without caring which
layer owns it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.sim.hierarchy.filters import PrefetchFilterChain
    from repro.sim.hierarchy.l1 import L1Node
    from repro.sim.hierarchy.l2 import L2Node


class CoreNode:
    """One core's private memory-side state and counters."""

    __slots__ = ("core_id", "l1", "l2", "chain", "pf_candidates",
                 "pf_issued", "pf_dropped_filter", "pf_dropped_duplicate",
                 "pf_dropped_mshr", "pf_useful", "lat_sum", "lat_count",
                 "epoch_accesses", "epoch_base", "policy_accesses")

    def __init__(self, core_id: int) -> None:
        self.core_id = core_id
        # Layer components, attached by the hierarchy builder right
        # after construction (the node exists first so the layers can
        # hold a back-reference to their shared counters).
        self.l1: "L1Node"
        self.l2: "L2Node"
        self.chain: "PrefetchFilterChain"
        #: Every prefetch candidate that reached the filter chain.
        self.pf_candidates = 0
        self.pf_issued = 0
        self.pf_dropped_filter = 0
        self.pf_dropped_duplicate = 0
        self.pf_dropped_mshr = 0
        self.pf_useful = 0
        # Demand-latency accounting indexed by ServiceLevel value.
        self.lat_sum = [0, 0, 0, 0, 0]
        self.lat_count = [0, 0, 0, 0, 0]
        self.epoch_accesses = 0
        #: Snapshot of (issued, useful, late, pollution) at last epoch end.
        self.epoch_base = (0, 0, 0, 0)
        #: Demand accesses into the current learned-policy epoch.
        self.policy_accesses = 0

    # -- flat views over the layer components --------------------------

    @property
    def l1d(self):
        return self.l1.cache

    @property
    def l1_mshr(self):
        return self.l1.mshr

    @property
    def l2_cache(self):
        return self.l2.cache

    @property
    def l2_mshr(self):
        return self.l2.mshr

    @property
    def l1_pf(self):
        return self.l1.prefetcher

    @property
    def l2_pf(self):
        return self.l2.prefetcher

    @property
    def clip(self):
        return self.l1.clip

    @property
    def mmu(self):
        return self.l1.mmu

    @property
    def hermes(self):
        return self.l1.hermes

    @property
    def hermes_pending(self):
        return self.l1.hermes_pending

    @property
    def dspatch(self):
        return self.chain.dspatch

    @property
    def crit_gate(self):
        return self.chain.crit_gate

    @property
    def throttler(self):
        return self.chain.throttler

    @property
    def policy(self):
        return self.chain.policy
