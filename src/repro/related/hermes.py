"""Hermes: perceptron-based off-chip load prediction (MICRO 2022).

Hermes predicts, at load issue, whether a load will be serviced by DRAM and
-- if so -- launches the DRAM access immediately, in parallel with the cache
walk, hiding the on-chip lookup latency.  Crucially it does *not* reduce
DRAM traffic (the early request *is* the DRAM request, and mispredictions
add requests), which is why the paper finds CLIP ahead of Hermes at low
bandwidth and behind it at 16 channels.
"""

from __future__ import annotations

from typing import List

from repro.config import LINE_SHIFT

_PAGE_SHIFT = 12


class HermesPredictor:
    """POPET-style perceptron off-chip predictor."""

    TABLE = 512
    WEIGHT_MAX = 31
    #: Perceptron sum needed to launch a speculative DRAM access.
    ACTIVATION = 2

    def __init__(self) -> None:
        self._tables: List[List[int]] = [[0] * self.TABLE for _ in range(4)]
        self.predictions = 0
        self.predicted_offchip = 0
        self.correct = 0

    def _indices(self, ip: int, address: int) -> List[int]:
        page = address >> _PAGE_SHIFT
        offset = (address >> LINE_SHIFT) & 0x3F
        return [
            (ip >> 2) % self.TABLE,
            ((ip >> 2) ^ page) % self.TABLE,
            ((ip << 6) | offset) % self.TABLE,
            (page ^ (page >> 9)) % self.TABLE,
        ]

    def _score(self, ip: int, address: int) -> int:
        return sum(self._tables[t][i]
                   for t, i in enumerate(self._indices(ip, address)))

    def predict_offchip(self, ip: int, address: int) -> bool:
        """Should an early DRAM access be launched for this load?"""
        self.predictions += 1
        predicted = self._score(ip, address) >= self.ACTIVATION
        if predicted:
            self.predicted_offchip += 1
        return predicted

    def train(self, ip: int, address: int, went_offchip: bool) -> None:
        """Learn the resolved outcome of a load."""
        score = self._score(ip, address)
        predicted = score >= self.ACTIVATION
        if predicted == went_offchip:
            self.correct += 1
            if abs(score) > 2 * self.ACTIVATION:
                return  # Confident and correct: no update.
        step = 1 if went_offchip else -1
        for table, index in enumerate(self._indices(ip, address)):
            weight = self._tables[table][index] + step
            self._tables[table][index] = max(-self.WEIGHT_MAX,
                                             min(self.WEIGHT_MAX, weight))

    @property
    def accuracy(self) -> float:
        if not self.predictions:
            return 0.0
        return self.correct / self.predictions
