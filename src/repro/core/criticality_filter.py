"""The criticality filter with its prefetch accuracy tracker (section 4.1).

A 32-set x 4-way structure holding the IPs that stalled the ROB head while
being serviced beyond L1.  Each entry carries (Table 2): a 6-bit IP tag, a
2-bit saturating criticality count, 6-bit prefetch hit and issue counters,
and the is-critical-and-accurate bit.  Victim selection is
least-frequently-used by criticality count.

Lifecycle of an IP:

1. inserted on its first stalling L1-miss response (criticality count 1);
2. once the count reaches the threshold (4), prefetching for the IP is
   *triggered* and the accuracy tracker starts measuring its per-IP hit
   rate via the utility buffer;
3. at every exploration-window boundary the is-critical-and-accurate bit is
   recomputed from the window's hit rate and criticality count, and the
   hit/issue counters are halved (hysteresis);
4. an IP that fails the accuracy test stops prefetching but periodically
   re-enters exploration (every ``REEXPLORE_WINDOWS`` windows) so a phase
   that turns an IP accurate can be discovered -- an implementation
   liveness choice the paper leaves implicit.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class FilterEntry:
    """One tracked IP."""

    __slots__ = ("tag", "crit_count", "hit_count", "issue_count",
                 "is_crit_accurate", "exploring", "blocked_windows")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.crit_count = 0
        self.hit_count = 0
        self.issue_count = 0
        self.is_crit_accurate = False
        self.exploring = False
        self.blocked_windows = 0

    def hit_rate(self) -> Optional[float]:
        if not self.issue_count:
            return None
        return self.hit_count / self.issue_count


class CriticalityFilter:
    """Set-associative IP filter + per-IP accuracy tracker."""

    REEXPLORE_WINDOWS = 4
    #: Prefetch issues an *exploring* (not yet certified) IP may trigger per
    #: window -- enough to estimate its per-IP hit rate without letting an
    #: inaccurate IP flood the constrained bus during exploration.
    EXPLORATION_PROBES = 16

    def __init__(self, sets: int = 32, ways: int = 4, tag_bits: int = 6,
                 crit_count_bits: int = 2, hit_count_bits: int = 6,
                 issue_count_bits: int = 6,
                 crit_threshold: int = 4,
                 accuracy_threshold: float = 0.90) -> None:
        if sets < 1 or ways < 1:
            raise ValueError("filter geometry must be positive")
        self.num_sets = sets
        self.ways = ways
        self.tag_mask = (1 << tag_bits) - 1
        #: Saturation values of the three counters.
        self.crit_count_max = (1 << crit_count_bits) - 1
        self.hit_count_max = (1 << hit_count_bits) - 1
        self.issue_count_max = (1 << issue_count_bits) - 1
        self.crit_threshold = min(crit_threshold, self.crit_count_max + 1)
        #: The criticality count at which an IP counts as critical.  A
        #: 2-bit counter saturates at 3; the paper's threshold of 4 is
        #: reached by treating the saturated value as "threshold crossed".
        self.effective_threshold = min(self.crit_threshold,
                                       self.crit_count_max)
        self.accuracy_threshold = accuracy_threshold
        self._sets: List[Dict[int, FilterEntry]] = [
            dict() for _ in range(sets)
        ]
        self.evictions = 0

    # ------------------------------------------------------------------
    # An IP hashes to ``(ip >> 2) ^ (ip >> 13)``; the hash modulo the set
    # count picks the set and the rest, masked, is the tag.

    def get(self, ip: int) -> Optional[FilterEntry]:
        tag, set_index = divmod((ip >> 2) ^ (ip >> 13), self.num_sets)
        return self._sets[set_index].get(tag & self.tag_mask)

    def record_critical(self, ip: int) -> FilterEntry:
        """An instance of ``ip`` stalled the ROB head beyond L1."""
        tag, set_index = divmod((ip >> 2) ^ (ip >> 13), self.num_sets)
        tag &= self.tag_mask
        bucket = self._sets[set_index]
        entry = bucket.get(tag)
        if entry is None:
            if len(bucket) >= self.ways:
                # Least-frequently-used by criticality count (section 4.3).
                victim_tag = min(bucket,
                                 key=lambda t: bucket[t].crit_count)
                del bucket[victim_tag]
                self.evictions += 1
            entry = FilterEntry(tag)
            bucket[tag] = entry
        if entry.crit_count < self.crit_count_max:
            entry.crit_count += 1
        if entry.crit_count >= self.effective_threshold \
                and not entry.is_crit_accurate and not entry.exploring:
            entry.exploring = True
        return entry

    # ------------------------------------------------------------------
    # Accuracy tracker
    # ------------------------------------------------------------------

    def note_issue(self, ip: int) -> None:
        entry = self.get(ip)
        if entry is None:
            return
        if entry.issue_count >= self.issue_count_max:
            # Halve both counters so the ratio keeps moving instead of
            # pinning at 1.0 once the small counters saturate.
            entry.issue_count //= 2
            entry.hit_count //= 2
        entry.issue_count += 1

    def note_hit(self, ip: int) -> None:
        entry = self.get(ip)
        if entry is None:
            return
        if entry.hit_count < self.hit_count_max:
            entry.hit_count += 1

    def allows_prefetch(self, ip: int,
                        use_accuracy_filter: bool = True) -> bool:
        """Stage-gate: is prefetching currently enabled for this IP?"""
        entry = self.get(ip)
        if entry is None:
            return False
        if entry.crit_count < self.effective_threshold:
            return False
        if not use_accuracy_filter:
            return True
        if entry.is_crit_accurate:
            return True
        return entry.exploring and entry.issue_count < self.EXPLORATION_PROBES

    # ------------------------------------------------------------------

    def end_window(self) -> None:
        """Exploration-window boundary: recompute bits, halve counters."""
        threshold = self.effective_threshold
        for bucket in self._sets:
            for entry in bucket.values():
                crit_ok = entry.crit_count >= threshold
                rate = entry.hit_rate()
                if rate is not None:
                    entry.is_crit_accurate = (
                        crit_ok and rate >= self.accuracy_threshold)
                    entry.exploring = False
                elif not entry.is_crit_accurate:
                    # Nothing issued this window; periodically re-explore.
                    if crit_ok:
                        entry.blocked_windows += 1
                        if entry.blocked_windows >= self.REEXPLORE_WINDOWS:
                            entry.blocked_windows = 0
                            entry.exploring = True
                # Hysteresis: keep half of the window's evidence.
                entry.hit_count //= 2
                entry.issue_count //= 2

    def reset(self) -> None:
        """Phase change: drop everything."""
        for bucket in self._sets:
            bucket.clear()

    def critical_accurate_ips(self) -> int:
        return sum(1 for bucket in self._sets
                   for entry in bucket.values() if entry.is_crit_accurate)

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._sets)
