"""The criticality predictor (section 4.2, Fig. 7b).

A 128-set x 4-way table indexed by the critical signature.  Each entry
holds a 6-bit criticality tag, a k-bit saturating counter initialised to
its midpoint (2^(k-1)), and an NRU replacement bit.  The counter increments
on an L1 miss that stalls the ROB head and decrements on an L1 hit or a
non-stalling miss; the MSB is the prediction.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class _PredictorEntry:
    __slots__ = ("tag", "counter", "nru")

    def __init__(self, tag: int, counter: int) -> None:
        self.tag = tag
        self.counter = counter
        self.nru = False


class CriticalityPredictor:
    """Signature-indexed saturating-counter criticality predictor."""

    def __init__(self, sets: int = 128, ways: int = 4, tag_bits: int = 6,
                 counter_bits: int = 3) -> None:
        if sets < 1 or ways < 1:
            raise ValueError("predictor geometry must be positive")
        if counter_bits < 1:
            raise ValueError("counter needs at least one bit")
        self.num_sets = sets
        self.ways = ways
        self.tag_mask = (1 << tag_bits) - 1
        self.counter_max = (1 << counter_bits) - 1
        self.counter_init = 1 << (counter_bits - 1)
        #: MSB set <=> counter >= this value.
        self.msb_threshold = 1 << (counter_bits - 1)
        self._sets: List[Dict[int, _PredictorEntry]] = [
            dict() for _ in range(sets)
        ]

    # ------------------------------------------------------------------
    # The signature's low part (modulo the set count) picks the set and
    # the rest, masked, is the tag.

    def predict(self, signature: int) -> Optional[bool]:
        """MSB of the counter, or ``None`` on a table miss (drop)."""
        tag, set_index = divmod(signature, self.num_sets)
        entry = self._sets[set_index].get(tag & self.tag_mask)
        if entry is None:
            return None
        entry.nru = True
        return entry.counter >= self.msb_threshold

    def train(self, signature: int, critical: bool) -> None:
        """Counter update from an observed load outcome."""
        tag, set_index = divmod(signature, self.num_sets)
        tag &= self.tag_mask
        bucket = self._sets[set_index]
        entry = bucket.get(tag)
        if entry is None:
            if len(bucket) >= self.ways:
                victim = self._nru_victim(bucket)
                del bucket[victim]
            entry = _PredictorEntry(tag, self.counter_init)
            bucket[tag] = entry
        if critical:
            if entry.counter < self.counter_max:
                entry.counter += 1
        elif entry.counter > 0:
            entry.counter -= 1
        entry.nru = True

    def _nru_victim(self, bucket: Dict[int, _PredictorEntry]) -> int:
        for tag, entry in bucket.items():
            if not entry.nru:
                return tag
        # Every way referenced: age them and evict the first.
        for entry in bucket.values():
            entry.nru = False
        return next(iter(bucket))

    def reset(self) -> None:
        for bucket in self._sets:
            bucket.clear()

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._sets)
