"""Hashed-perceptron prefetch filter: a learned utility CAM.

The PPF / two-level-predictor idiom (arxiv 2403.15181): each prefetch
candidate is scored by summing one small signed weight per feature
table (trigger IP, page, line offset, IP x page), hashed exactly like
the :class:`repro.cpu.branch.HashedPerceptronPredictor` lanes.  The
candidate is admitted when the sum clears an admission threshold that
*rises with DRAM bus pressure* -- under a saturated bus only candidates
the perceptron is confident about spend bandwidth, which is the same
bandwidth-regime adaptivity CLIP gets from its utility CAM.

Training is delayed until the prefetch's fate is known: a demand hit on
the prefetched line trains the contributing weights up, a useless
eviction trains them down (branch-predictor style, only below the
training margin).  The pending-index map is a bounded insertion-ordered
dict, so state stays finite and eviction order is deterministic.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, TYPE_CHECKING

from repro.prefetch.learned.policy import (ACTION_KEEP, OnlinePolicy,
                                           PolicyFeatures, mix64)

if TYPE_CHECKING:
    from repro.config import LearnedConfig

#: Extra admission threshold at a fully saturated DRAM bus.
PRESSURE_GAIN = 24
#: Train-on-correct margin (branch.py's theta): confident admissions
#: whose sum already exceeds threshold + margin stop training up.
TRAIN_MARGIN = 16


class PerceptronFilter(OnlinePolicy):
    """Per-core hashed-perceptron admission filter."""

    name = "perceptron"

    __slots__ = ("_lanes", "_entries", "_weight_max", "_weight_min",
                 "_base_threshold", "threshold", "_pending",
                 "_pending_cap", "_probe_interval", "_since_probe",
                 "epochs", "decisions", "admits", "drops", "trainings",
                 "weight_updates", "feedback", "probes",
                 "table_accesses")

    def __init__(self, config: "LearnedConfig", core_id: int) -> None:
        # Per-table (weights, salt) lanes; salts are whitened from the
        # seed so tables disagree on aliasing, identically on every
        # core (one hardware design, many instances).
        self._lanes: List[Tuple[List[int], int]] = [
            ([0] * config.table_entries,
             mix64(config.seed ^ (table * 0x85EBCA6B)))
            for table in range(config.tables)]
        self._entries = config.table_entries
        self._weight_max = (1 << (config.weight_bits - 1)) - 1
        self._weight_min = -(1 << (config.weight_bits - 1))
        self._base_threshold = config.threshold
        #: Current admission threshold (re-derived each epoch).
        self.threshold = config.threshold
        #: line -> (table indices, perceptron sum) of in-flight
        #: admissions awaiting fate feedback, insertion-ordered.
        self._pending: Dict[int, Tuple[Tuple[int, ...], int]] = {}
        self._pending_cap = config.pending_entries
        #: Admit every Nth below-threshold candidate as a probe: the
        #: filter's only training signal is the fate of lines it
        #: admits, so a cold or over-strict filter must keep sampling
        #: (CLIP's exploration-window idea, counter-deterministic).
        self._probe_interval = config.probe_interval
        self._since_probe = 0
        self.epochs = 0
        self.decisions = 0
        self.admits = 0
        self.drops = 0
        self.trainings = 0
        self.weight_updates = 0
        self.feedback = 0
        self.probes = 0
        self.table_accesses = 0

    # -- protocol hooks ------------------------------------------------

    def observe(self, features: PolicyFeatures) -> int:
        self.epochs += 1
        # Bandwidth-adaptive admission bar: 0 extra on an idle bus,
        # PRESSURE_GAIN extra at full saturation.
        self.threshold = (self._base_threshold
                          + (features.dram_busy_permille
                             * PRESSURE_GAIN) // 1000)
        return ACTION_KEEP

    def decide(self, trigger_ip: int, line: int, cycle: int) -> bool:
        self.decisions += 1
        self.table_accesses += len(self._lanes)
        ip_hash = trigger_ip >> 2
        page = line >> 6
        offset = line & 0x3F
        features = (ip_hash, page, offset * 0x9E3779B1, ip_hash ^ page)
        entries = self._entries
        total = 0
        indices = []
        lane = 0
        for weights, salt in self._lanes:
            # The finalizer is deliberately nonlinear (multiplies): a
            # plain xor-shift fold is GF(2)-linear, which makes the
            # collision structure between any two features independent
            # of the salt -- the seed would then be decorative.
            index = mix64(features[lane & 3] ^ salt) % entries
            indices.append(index)
            total += weights[index]
            lane += 1
        if total < self.threshold:
            self._since_probe += 1
            if self._since_probe < self._probe_interval:
                self.drops += 1
                return False
            # Probe admission: let this one through so its fate can
            # train the weights that would otherwise stay cold.
            self._since_probe = 0
            self.probes += 1
        self.admits += 1
        pending = self._pending
        if line not in pending and len(pending) >= self._pending_cap:
            # Drop the oldest in-flight record (insertion order).
            del pending[next(iter(pending))]
        pending[line] = (tuple(indices), total)
        return True

    def update(self, line: int, trigger_ip: int, useful: bool) -> None:
        self.feedback += 1
        entry = self._pending.pop(line, None)
        if entry is None:
            return
        indices, total = entry
        # Train on every miss-prediction (useless admission) and on
        # correct admissions that were not confidently above the bar.
        if useful and total > self.threshold + TRAIN_MARGIN:
            return
        delta = 1 if useful else -1
        weight_max = self._weight_max
        weight_min = self._weight_min
        lane = 0
        for weights, _salt in self._lanes:
            weight = weights[indices[lane]] + delta
            if weight > weight_max:
                weight = weight_max
            elif weight < weight_min:
                weight = weight_min
            weights[indices[lane]] = weight
            lane += 1
        self.trainings += 1
        self.weight_updates += lane

    def counters(self) -> Dict[str, int]:
        return {
            "policy_epochs": self.epochs,
            "policy_decisions": self.decisions,
            "policy_admits": self.admits,
            "policy_drops": self.drops,
            "policy_trainings": self.trainings,
            "policy_weight_updates": self.weight_updates,
            "policy_feedback": self.feedback,
            "policy_probes": self.probes,
            "policy_table_accesses": self.table_accesses,
        }


__all__ = ["PerceptronFilter", "PRESSURE_GAIN", "TRAIN_MARGIN"]
