"""Shared harness for baseline criticality predictors.

Ground truth follows the paper's definition: a load instance is *critical*
if it stalls the head of the ROB while being serviced by L2, LLC or DRAM.
Accuracy = correct critical predictions / all critical predictions;
coverage = critical instances predicted / all critical instances -- both
measured at instance granularity, which is exactly where IP-indexed
predictors lose (Fig. 4, Table 1).
"""

from __future__ import annotations

from typing import Dict

from repro.cpu.core_model import Core, RobEntry, ServiceLevel


class CriticalityMeasurement:
    """Instance-level accuracy/coverage accounting."""

    def __init__(self) -> None:
        self.predicted = 0
        self.predicted_correct = 0
        self.actual = 0
        self.covered = 0

    def note(self, predicted: bool, actual: bool) -> None:
        if predicted:
            self.predicted += 1
            if actual:
                self.predicted_correct += 1
        if actual:
            self.actual += 1
            if predicted:
                self.covered += 1

    @property
    def accuracy(self) -> float:
        if not self.predicted:
            return 0.0
        return self.predicted_correct / self.predicted

    @property
    def coverage(self) -> float:
        if not self.actual:
            return 0.0
        return self.covered / self.actual


class BaselineCriticalityPredictor:
    """Base class: hook registration + measurement; subclasses implement
    ``predict`` (before training) and ``train`` (after)."""

    name = "base"

    def __init__(self) -> None:
        self.measurement = CriticalityMeasurement()

    def attach(self, core: Core) -> None:
        core.load_response_hooks.append(self._on_load_response)
        core.retire_hooks.append(self._on_retire)
        core.branch_hooks.append(self._on_branch)

    # -- subclass surface ----------------------------------------------

    def predict(self, entry: RobEntry) -> bool:
        """Would this predictor call the load instance critical?"""
        raise NotImplementedError

    def train(self, core: Core, entry: RobEntry, cycle: int,
              critical: bool) -> None:
        """Learn from the resolved outcome."""

    def on_retire(self, core: Core, entry: RobEntry, cycle: int,
                  head_wait: int) -> None:
        """Optional retirement-side learning."""

    def on_branch(self, core: Core, ip: int, taken: bool,
                  mispredicted: bool, cycle: int) -> None:
        """Optional branch-side learning (CATCH uses this)."""

    def predicts_critical_ip(self, ip: int) -> bool:
        """Prefetch gating interface (Fig. 5): is this IP critical?"""
        raise NotImplementedError

    def counters(self) -> Dict[str, int]:
        """The measurement's ``crit_*`` counters in its core's
        ``core{N}.chain`` group (Fig. 4 accuracy and coverage)."""
        measurement = self.measurement
        return {
            "crit_predicted": measurement.predicted,
            "crit_predicted_correct": measurement.predicted_correct,
            "crit_actual": measurement.actual,
            "crit_covered": measurement.covered,
        }

    # -- plumbing --------------------------------------------------------

    def _on_load_response(self, core: Core, entry: RobEntry, cycle: int,
                          rob_stalled: bool, self_stalled: bool) -> None:
        if entry.service_level < ServiceLevel.L2:
            return
        critical = self_stalled
        predicted = self.predict(entry)
        self.measurement.note(predicted, critical)
        self.train(core, entry, cycle, critical)

    def _on_retire(self, core: Core, entry: RobEntry, cycle: int,
                   head_wait: int) -> None:
        self.on_retire(core, entry, cycle, head_wait)

    def _on_branch(self, core: Core, ip: int, taken: bool,
                   mispredicted: bool, cycle: int) -> None:
        self.on_branch(core, ip, taken, mispredicted, cycle)
