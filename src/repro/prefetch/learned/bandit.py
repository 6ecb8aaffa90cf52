"""Contextual-bandit per-core prefetcher selection.

The lightweight-ML runtime-selection idiom (arxiv 2307.08635): instead
of committing one L1 prefetcher per scheme, each core carries a small
zoo of *arms* (:class:`SelectedPrefetcher`) and a :class:`BanditSelector`
re-picks the active arm every policy epoch from an integer reward that
trades demand coverage against bandwidth spent while the DRAM bus is
under pressure -- exactly the trade CLIP makes by hand.

All estimates are fixed-point integers (``REWARD_SHIFT`` fractional
bits); exploration draws come from the per-core seeded xorshift stream.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, TYPE_CHECKING

from repro.prefetch.base import Prefetcher, PrefetchRequest, make_prefetcher
from repro.prefetch.learned.policy import (OnlinePolicy, PolicyFeatures,
                                           XorShift, core_seed)

if TYPE_CHECKING:
    from repro.config import LearnedConfig

#: Fixed-point fractional bits of rewards and Q estimates.
REWARD_SHIFT = 8
#: Exponential-window shift of the Q update (weight 1/2**EW_SHIFT).
EW_SHIFT = 2


class SelectedPrefetcher(Prefetcher):
    """Arm multiplexer standing in the L1 prefetcher slot.

    Delegates the training/candidate hooks to the *active* arm only --
    switching arms therefore starts the newcomer cold, which is the
    honest cost of runtime selection the bandit has to amortise.
    Degree-scale throttling applies to every arm so a swap lands in the
    regime the throttler already chose.
    """

    name = "selected"

    def __init__(self, arms: Sequence[str], degree: int) -> None:
        self.arms = tuple(arms)
        self.prefetchers: List[Prefetcher] = [
            make_prefetcher(arm, degree) for arm in self.arms]
        self.active = 0
        self.switches = 0

    def activate(self, arm: int) -> None:
        """Point the multiplexer at ``arm`` (a ``self.arms`` index)."""
        if not 0 <= arm < len(self.prefetchers):
            raise ValueError(f"arm {arm} outside [0, "
                             f"{len(self.prefetchers)})")
        if arm != self.active:
            self.active = arm
            self.switches += 1

    def on_access(self, ip: int, address: int, hit: bool,
                  cycle: int) -> List[PrefetchRequest]:
        return self.prefetchers[self.active].on_access(ip, address, hit,
                                                       cycle)

    def on_fill(self, address: int, cycle: int, prefetch: bool,
                ip: int = 0, issued_at: int = 0) -> List[PrefetchRequest]:
        return self.prefetchers[self.active].on_fill(address, cycle,
                                                     prefetch, ip,
                                                     issued_at)

    def on_prefetch_feedback(self, address: int, useful: bool) -> None:
        self.prefetchers[self.active].on_prefetch_feedback(address, useful)

    def set_degree_scale(self, scale: float) -> None:
        for prefetcher in self.prefetchers:
            prefetcher.set_degree_scale(scale)


class BanditSelector(OnlinePolicy):
    """Epsilon-greedy bandit over the prefetcher arms.

    Every epoch the selector settles the reward of the arm that just
    ran, updates that arm's exponentially-windowed Q estimate, and
    returns the next arm to activate.  The first ``len(arms)`` epochs
    are a deterministic round-robin warm-up so every estimate starts
    from one real measurement.
    """

    name = "bandit"

    __slots__ = ("arms", "counts", "q", "active", "epsilon_permille",
                 "rng", "_base", "epochs", "switches", "explorations",
                 "updates", "feedback")

    def __init__(self, config: "LearnedConfig", core_id: int) -> None:
        self.arms = tuple(config.arms)
        n = len(self.arms)
        #: Epochs each arm has been charged with (settled rewards).
        self.counts = [0] * n
        #: Fixed-point (<< REWARD_SHIFT) reward estimates.
        self.q = [0] * n
        self.active = 0
        self.epsilon_permille = config.epsilon_permille
        self.rng = XorShift(core_seed(config.seed, core_id))
        self._base: PolicyFeatures | None = None
        self.epochs = 0
        self.switches = 0
        self.explorations = 0
        self.updates = 0
        self.feedback = 0

    # -- protocol hooks ------------------------------------------------

    def observe(self, features: PolicyFeatures) -> int:
        self.epochs += 1
        base = self._base
        self._base = features
        if base is not None:
            arm = self.active
            reward = self._reward(base, features)
            self.counts[arm] += 1
            # Exponentially-windowed integer estimate; arithmetic shift
            # floors consistently, so the update is order-free exact.
            self.q[arm] += (reward - self.q[arm]) >> EW_SHIFT
            self.updates += 1
        chosen = self._choose()
        if chosen != self.active:
            self.switches += 1
            self.active = chosen
        return chosen

    def update(self, line: int, trigger_ip: int, useful: bool) -> None:
        # Per-prefetch fates are already folded into the epoch counters
        # the reward diffs; just account the feedback volume.
        self.feedback += 1

    def counters(self) -> Dict[str, int]:
        return {
            "policy_epochs": self.epochs,
            "policy_switches": self.switches,
            "policy_explorations": self.explorations,
            "policy_updates": self.updates,
            "policy_feedback": self.feedback,
            # One Q-table read-modify-write per settled epoch.
            "policy_table_accesses": self.updates,
        }

    # -- learning ------------------------------------------------------

    def _reward(self, prev: PolicyFeatures, now: PolicyFeatures) -> int:
        """Epoch reward, in REWARD_SHIFT fixed point.

        Useful prefetches pay +1 each; issued prefetches cost in
        proportion to the DRAM bus pressure they compete with (up to
        1/4 each at a saturated bus); pollution evictions cost 1/2
        each.  The "none" arm scores exactly 0, so prefetching arms
        must beat doing nothing *under the current bandwidth regime*.
        """
        d_useful = now.pf_useful - prev.pf_useful
        d_issued = now.pf_issued - prev.pf_issued
        d_pollution = now.useless_evictions - prev.useless_evictions
        busy = now.dram_busy_permille
        return ((d_useful << REWARD_SHIFT)
                - ((d_issued * busy) << REWARD_SHIFT) // 4000
                - (d_pollution << REWARD_SHIFT) // 2)

    def _choose(self) -> int:
        counts = self.counts
        n = len(self.arms)
        # Deterministic warm-up: measure every arm once, in order.
        for arm in range(n):
            if counts[arm] == 0:
                return arm
        if self.rng.below(1000) < self.epsilon_permille:
            self.explorations += 1
            return self.rng.below(n)
        return self._argmax(self.q)

    @staticmethod
    def _argmax(values: List[int]) -> int:
        """Index of the maximum; ties break to the lowest index."""
        best = 0
        best_value = values[0]
        for index in range(1, len(values)):
            if values[index] > best_value:
                best = index
                best_value = values[index]
        return best


__all__ = ["BanditSelector", "SelectedPrefetcher", "EW_SHIFT",
           "REWARD_SHIFT"]
