"""Hashed perceptron branch predictor (Table 3, "hashed perceptron").

A faithful-in-spirit implementation of Jimenez-style hashed perceptron
prediction: several weight tables, each indexed by a hash of the branch IP
and a different-length slice of global history.  The prediction is the sign
of the summed weights; training bumps weights when the prediction was wrong
or the confidence was below threshold.

The simulator is trace-driven (outcomes come from the trace), so the
predictor's only architectural effect is whether a mispredict bubble is
charged -- but its accuracy still shapes which loads become critical, which
is exactly the dynamic the paper's ``hotcold`` loads exercise.

Because nothing about memory timing feeds back into the predictor, its
whole right/wrong sequence is a function of (trace, config):
:func:`outcome_stream` computes it once, and the core model reads it
instead of predicting each branch again on every run of the trace.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.config import BranchPredictorConfig
from repro.trace.record import Op, TraceRecord


class HashedPerceptronPredictor:
    """Multi-table hashed perceptron predictor with global history."""

    def __init__(self, config: BranchPredictorConfig | None = None) -> None:
        self.config = config or BranchPredictorConfig()
        c = self.config
        self._tables: List[List[int]] = [
            [0] * c.table_entries for _ in range(c.num_tables)
        ]
        self._history = 0
        self._history_mask = (1 << c.history_bits) - 1
        self._weight_max = (1 << (c.weight_bits - 1)) - 1
        self._weight_min = -(1 << (c.weight_bits - 1))
        # Each table sees a progressively longer history slice.
        self._segment_bits = [
            max(1, (i * c.history_bits) // max(1, c.num_tables - 1))
            for i in range(c.num_tables)
        ]
        # Per-table (weights, history mask, hash salt) lanes plus a
        # preallocated index scratch list: predict_and_train runs once per
        # branch and must not build lists or re-derive constants.
        self._lanes = [
            (self._tables[i], (1 << bits) - 1, i * 0x85EBCA6B)
            for i, bits in enumerate(self._segment_bits)
        ]
        self._scratch = [0] * c.num_tables
        self._entries = c.table_entries
        self._threshold = c.threshold
        self.predictions = 0
        self.mispredictions = 0

    def _indices(self, ip: int) -> List[int]:
        entries = self.config.table_entries
        indices = []
        for table, bits in enumerate(self._segment_bits):
            segment = self._history & ((1 << bits) - 1)
            mixed = (ip >> 2) ^ (segment * 0x9E3779B1) ^ (table * 0x85EBCA6B)
            indices.append((mixed ^ (mixed >> 13)) % entries)
        return indices

    def predict(self, ip: int) -> bool:
        """Predict taken/not-taken for the branch at ``ip``."""
        total = 0
        for table, index in enumerate(self._indices(ip)):
            total += self._tables[table][index]
        return total >= 0

    def predict_and_train(self, ip: int, taken: bool) -> bool:
        """Predict, then train with the trace outcome.

        Returns ``True`` when the prediction was correct.
        """
        # Fused index/sum loop over the precomputed lanes -- arithmetic is
        # exactly :meth:`_indices` followed by the weight summation.
        ip_hash = ip >> 2
        history = self._history
        entries = self._entries
        scratch = self._scratch
        total = 0
        lane = 0
        for weights, segment_mask, salt in self._lanes:
            mixed = ip_hash ^ ((history & segment_mask) * 0x9E3779B1) ^ salt
            index = (mixed ^ (mixed >> 13)) % entries
            scratch[lane] = index
            lane += 1
            total += weights[index]
        prediction = total >= 0
        correct = prediction == taken
        self.predictions += 1
        if not correct:
            self.mispredictions += 1
        if not correct or abs(total) <= self._threshold:
            delta = 1 if taken else -1
            weight_max = self._weight_max
            weight_min = self._weight_min
            lane = 0
            for weights, _segment_mask, _salt in self._lanes:
                weight = weights[scratch[lane]] + delta
                if weight > weight_max:
                    weight = weight_max
                elif weight < weight_min:
                    weight = weight_min
                weights[scratch[lane]] = weight
                lane += 1
        self._history = ((history << 1) | int(taken)) \
            & self._history_mask
        return correct

    @property
    def accuracy(self) -> float:
        """Fraction of correctly predicted branches so far."""
        if not self.predictions:
            return 1.0
        return 1.0 - self.mispredictions / self.predictions


def outcome_stream(trace: Sequence[TraceRecord],
                   config: BranchPredictorConfig) -> bytes:
    """One flag per record of ``trace``: 0 where a fresh predictor,
    trained on the trace's branches in program order, mispredicts that
    branch; 1 everywhere else (every non-branch is 1).

    The core dispatches branches in exactly this order and trains on
    the trace's outcomes, so the stream equals what a live
    :meth:`HashedPerceptronPredictor.predict_and_train` walk returns.
    """
    predict_and_train = HashedPerceptronPredictor(config).predict_and_train
    branch = Op.BRANCH
    flags = bytearray(b"\x01") * len(trace)
    for index, record in enumerate(trace):
        if record.op == branch and not predict_and_train(record.ip,
                                                         record.taken):
            flags[index] = 0
    return bytes(flags)
