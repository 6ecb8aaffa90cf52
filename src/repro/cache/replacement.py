"""Cache replacement policies.

The baseline system (Table 3) uses LRU-class policies at L1, SRRIP at L2,
and Mockingjay at the LLC.  Mockingjay proper samples reuse intervals and
mimics Belady's MIN; ``MockingjayLite`` here keeps its essence -- a PC-
indexed reuse-interval predictor steering eviction toward the line whose
next use is farthest in the future -- without the full sampled-cache
machinery (see DESIGN.md section 2).
"""

from __future__ import annotations

from typing import List


class ReplacementPolicy:
    """Per-cache replacement state; one instance per cache."""

    def __init__(self, num_sets: int, ways: int) -> None:
        self.num_sets = num_sets
        self.ways = ways

    def on_hit(self, set_index: int, way: int, now: int, pc: int) -> None:
        raise NotImplementedError

    def on_fill(self, set_index: int, way: int, now: int, pc: int,
                prefetch: bool = False) -> None:
        raise NotImplementedError

    def victim(self, set_index: int, now: int,
               valid: List[bool]) -> int:
        """Pick a victim way; empty ways are chosen by the cache itself."""
        raise NotImplementedError


class LruPolicy(ReplacementPolicy):
    """Least recently used."""

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        self._stamp = [[0] * ways for _ in range(num_sets)]
        self._clock = 0

    def on_hit(self, set_index: int, way: int, now: int, pc: int) -> None:
        self._clock += 1
        self._stamp[set_index][way] = self._clock

    def on_fill(self, set_index: int, way: int, now: int, pc: int,
                prefetch: bool = False) -> None:
        self._clock += 1
        self._stamp[set_index][way] = self._clock

    def victim(self, set_index: int, now: int, valid: List[bool]) -> int:
        stamps = self._stamp[set_index]
        best_way = 0
        best_stamp = stamps[0]
        for way in range(1, self.ways):
            if stamps[way] < best_stamp:
                best_stamp = stamps[way]
                best_way = way
        return best_way


class NruPolicy(ReplacementPolicy):
    """Not-recently-used (single reference bit per line)."""

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        self._referenced = [[False] * ways for _ in range(num_sets)]

    def _mark(self, set_index: int, way: int) -> None:
        bits = self._referenced[set_index]
        bits[way] = True
        if all(bits):
            for other in range(self.ways):
                if other != way:
                    bits[other] = False

    def on_hit(self, set_index: int, way: int, now: int, pc: int) -> None:
        self._mark(set_index, way)

    def on_fill(self, set_index: int, way: int, now: int, pc: int,
                prefetch: bool = False) -> None:
        self._mark(set_index, way)

    def victim(self, set_index: int, now: int, valid: List[bool]) -> int:
        bits = self._referenced[set_index]
        for way in range(self.ways):
            if not bits[way]:
                return way
        return 0


class SrripPolicy(ReplacementPolicy):
    """Static re-reference interval prediction (2-bit RRPV)."""

    MAX_RRPV = 3

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        self._rrpv = [[self.MAX_RRPV] * ways for _ in range(num_sets)]

    def on_hit(self, set_index: int, way: int, now: int, pc: int) -> None:
        self._rrpv[set_index][way] = 0

    def on_fill(self, set_index: int, way: int, now: int, pc: int,
                prefetch: bool = False) -> None:
        # Long re-reference prediction on insert; prefetched lines get the
        # distant value so inaccurate prefetches age out quickly.
        self._rrpv[set_index][way] = (self.MAX_RRPV - 1 if not prefetch
                                      else self.MAX_RRPV)

    def victim(self, set_index: int, now: int, valid: List[bool]) -> int:
        rrpvs = self._rrpv[set_index]
        while True:
            for way in range(self.ways):
                if rrpvs[way] >= self.MAX_RRPV:
                    return way
            for way in range(self.ways):
                rrpvs[way] += 1


class MockingjayLitePolicy(ReplacementPolicy):
    """Belady-mimicking eviction via a PC-indexed reuse-interval predictor.

    On a hit we observe the line's actual reuse interval and fold it into an
    exponentially weighted estimate for the filling PC.  The victim is the
    line whose *estimated time to reuse* is farthest away (lines whose PC has
    no history are assumed streaming and evicted first), which is the core
    idea of Mockingjay's ETR ranking.
    """

    _TABLE_SIZE = 2048
    _NEVER = 1 << 30

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        self._last_access = [[0] * ways for _ in range(num_sets)]
        self._fill_pc = [[0] * ways for _ in range(num_sets)]
        self._predicted: dict[int, float] = {}

    def _pc_index(self, pc: int) -> int:
        return (pc ^ (pc >> 11)) % self._TABLE_SIZE

    def on_hit(self, set_index: int, way: int, now: int, pc: int) -> None:
        observed = now - self._last_access[set_index][way]
        index = self._pc_index(self._fill_pc[set_index][way])
        previous = self._predicted.get(index)
        if previous is None:
            self._predicted[index] = float(observed)
        else:
            self._predicted[index] = 0.75 * previous + 0.25 * observed
        self._last_access[set_index][way] = now

    def on_fill(self, set_index: int, way: int, now: int, pc: int,
                prefetch: bool = False) -> None:
        self._last_access[set_index][way] = now
        self._fill_pc[set_index][way] = pc

    def victim(self, set_index: int, now: int, valid: List[bool]) -> int:
        best_way = 0
        best_score = -1.0
        for way in range(self.ways):
            index = self._pc_index(self._fill_pc[set_index][way])
            predicted = self._predicted.get(index)
            if predicted is None:
                # No reuse history: assume streaming, evict immediately.
                score = float(self._NEVER)
            else:
                elapsed = now - self._last_access[set_index][way]
                score = predicted - elapsed
                if score < 0:
                    # Overdue for reuse and has not come back: likely dead.
                    score = float(self._NEVER) + elapsed
            # Highest estimated time-to-reuse loses its slot.
            if score > best_score:
                best_score = score
                best_way = way
        return best_way


class LfuPolicy(ReplacementPolicy):
    """Least frequently used (the victim-selection rule CLIP's criticality
    filter applies to its entries; offered for caches too)."""

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        self._count = [[0] * ways for _ in range(num_sets)]

    def on_hit(self, set_index: int, way: int, now: int, pc: int) -> None:
        self._count[set_index][way] += 1

    def on_fill(self, set_index: int, way: int, now: int, pc: int,
                prefetch: bool = False) -> None:
        self._count[set_index][way] = 1

    def victim(self, set_index: int, now: int, valid: List[bool]) -> int:
        counts = self._count[set_index]
        best_way = 0
        for way in range(1, self.ways):
            if counts[way] < counts[best_way]:
                best_way = way
        return best_way


_POLICIES = {
    "lru": LruPolicy,
    "nru": NruPolicy,
    "lfu": LfuPolicy,
    "srrip": SrripPolicy,
    "mockingjay": MockingjayLitePolicy,
}


def make_policy(name: str, num_sets: int, ways: int) -> ReplacementPolicy:
    """Instantiate a replacement policy by configuration name."""
    try:
        factory = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; "
            f"choose from {sorted(_POLICIES)}") from None
    return factory(num_sets, ways)


def policy_names() -> List[str]:
    return sorted(_POLICIES)
