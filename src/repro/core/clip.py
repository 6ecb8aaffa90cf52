"""The CLIP controller: wiring of filter, predictor, tracker, histories.

One :class:`Clip` instance attaches to one core.  It observes:

* branch dispatches        -> global branch history;
* load responses           -> predictor training, criticality filter
                              population, criticality history, and the
                              accuracy/coverage measurement behind
                              Figs. 13-15;
* L1D accesses and misses  -> utility-buffer CAM matching, exploration
                              windows, APC phase detection;
* prefetch candidates      -> the two-stage drop/issue decision
                              (``filter_request``), the paper's Fig. 8 flow.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.config import LINE_SHIFT, ClipConfig
from repro.core.criticality_filter import CriticalityFilter
from repro.core.criticality_predictor import CriticalityPredictor
from repro.core.history import ShiftRegister
from repro.core.phase import ApcPhaseDetector
from repro.core.signature import (closed_form_signature, history_term,
                                  signature_masks)
from repro.core.utility_buffer import UtilityBuffer
from repro.cpu.core_model import Core, RobEntry, ServiceLevel
from repro.criticality.base import CriticalityMeasurement

_LEVEL_L2 = ServiceLevel.L2


class ClipStats:
    """Filtering and structure-activity statistics for one core."""

    def __init__(self) -> None:
        self.prefetches_seen = 0
        self.prefetches_allowed = 0
        self.dropped_not_critical = 0
        self.dropped_low_accuracy = 0
        self.dropped_predictor = 0
        self.dropped_phase_pause = 0
        self.windows = 0
        self.phase_changes = 0
        # Structure activity (energy-model inputs): every lookup/update
        # of the criticality filter, the critical-signature predictor,
        # and the utility-buffer CAM.
        self.filter_accesses = 0
        self.predictor_accesses = 0
        self.utility_cam_accesses = 0


class Clip:
    """Per-core CLIP instance."""

    def __init__(self, config: ClipConfig, core: Optional[Core] = None,
                 ) -> None:
        self.config = config
        self.filter = CriticalityFilter(
            sets=config.filter_sets, ways=config.filter_ways,
            tag_bits=config.ip_tag_bits,
            crit_count_bits=config.criticality_count_bits,
            hit_count_bits=config.hit_count_bits,
            issue_count_bits=config.issue_count_bits,
            crit_threshold=config.criticality_count_threshold,
            accuracy_threshold=config.accuracy_threshold)
        self.predictor = CriticalityPredictor(
            sets=config.predictor_sets, ways=config.predictor_ways,
            tag_bits=config.predictor_tag_bits,
            counter_bits=config.saturating_counter_bits)
        self.utility_buffer = UtilityBuffer(config.utility_buffer_entries)
        self.branch_history = ShiftRegister(config.branch_history_bits)
        self.criticality_history = ShiftRegister(
            config.criticality_history_bits)
        self.phase_detector = ApcPhaseDetector(
            history_windows=config.apc_history_windows,
            threshold=config.phase_change_threshold)
        # Config fields read on every load response / prefetch candidate,
        # hoisted once (attribute chains through ``config`` showed up in
        # profiles).
        self._index_by_page = config.index_by_page
        self._dynamic = config.dynamic
        self._use_criticality_filter = config.use_criticality_filter
        self._use_accuracy_filter = config.use_accuracy_filter
        self._crit_flag = config.criticality_conscious_noc_dram
        #: The signature toggles, as the masks of the closed form.
        self._address_mask, self._branch_mask, self._criticality_mask = \
            signature_masks(config.signature_use_address,
                            config.signature_use_branch_history,
                            config.signature_use_criticality_history)
        self.stats = ClipStats()
        #: Criticality prediction quality, measured on L1-miss loads.
        self.measurement = CriticalityMeasurement()
        self._window_misses = 0
        self._paused_for_window = False
        #: Dynamic CLIP (section 5.3): when the system reports ample
        #: bandwidth, filtering is bypassed.  The memory system installs
        #: ``bandwidth_probe`` (a zero-arg callable returning the current
        #: DRAM data-bus utilisation); it is polled at window boundaries.
        self.bandwidth_probe = None
        self._dynamic_bypassed = False
        #: per-IP (critical instances, non-critical L1-miss instances),
        #: for the static/dynamic critical IP census (Fig. 15).
        self.ip_census: Dict[int, list] = {}
        if core is not None:
            self.attach(core)

    # ------------------------------------------------------------------
    # Core-side events
    # ------------------------------------------------------------------

    def attach(self, core: Core) -> None:
        core.branch_hooks.append(self._on_branch)
        core.dispatch_hooks.append(self._on_load_dispatch)
        core.load_response_hooks.append(self._on_load_response)

    def _on_load_dispatch(self, core: Core, entry: RobEntry,
                          cycle: int) -> None:
        entry.history_snapshot = history_term(
            self.branch_history.value, self.criticality_history.value,
            self._branch_mask, self._criticality_mask)

    def _on_branch(self, core: Core, ip: int, taken: bool,
                   mispredicted: bool, cycle: int) -> None:
        self.branch_history.push(taken)

    def _signature(self, key: int, line: int) -> int:
        """The critical signature of ``key`` and ``line`` under the live
        histories."""
        return closed_form_signature(
            key, line,
            history_term(self.branch_history.value,
                         self.criticality_history.value,
                         self._branch_mask, self._criticality_mask),
            self._address_mask)

    def _on_load_response(self, core: Core, entry: RobEntry, cycle: int,
                          rob_stalled: bool, self_stalled: bool) -> None:
        line = entry.address >> LINE_SHIFT
        beyond_l1 = entry.service_level >= _LEVEL_L2
        # Ground truth: this load itself blocked the ROB head.
        critical = self_stalled and beyond_l1
        key = (entry.address >> 12 if self._index_by_page else entry.ip)
        # Train with the histories captured at the load's dispatch: that is
        # the context a future prefetch trigger for the same code will see.
        # A load dispatched without this hook has no snapshot.
        history = entry.history_snapshot
        signature = (self._signature(key, line) if history is None
                     else closed_form_signature(key, line, history,
                                                self._address_mask))
        # --- measurement (Figs. 13-15): what would CLIP have predicted? --
        if beyond_l1:
            self.measurement.note(self._predict_critical(key, signature),
                                  critical)
            census = self.ip_census.get(entry.ip)
            if census is None:
                census = [0, 0]
                self.ip_census[entry.ip] = census
            census[0 if critical else 1] += 1
        # --- training ----------------------------------------------------
        self.stats.predictor_accesses += 1
        self.predictor.train(signature, critical)
        # Filter insertion follows the paper's hardware flow: the global
        # ROB-stall flag checked on a beyond-L1 response (section 4.1).
        if beyond_l1 and (critical or rob_stalled):
            self.stats.filter_accesses += 1
            self.filter.record_critical(key)
        self.criticality_history.push(critical)

    def _key(self, ip: int, address: int) -> int:
        """Tracking key: the trigger IP, or the 4 KiB page for the paper's
        non-IP-based L2 prefetcher variant (section 4.2)."""
        if self._index_by_page:
            return address >> 12
        return ip

    def _predict_critical(self, ip: int, signature: int) -> bool:
        self.stats.filter_accesses += 1
        entry = self.filter.get(ip)
        if entry is None or entry.crit_count < self.filter.effective_threshold:
            return False
        self.stats.predictor_accesses += 1
        prediction = self.predictor.predict(signature)
        return bool(prediction)

    # ------------------------------------------------------------------
    # Memory-side events
    # ------------------------------------------------------------------

    def on_l1d_access(self, line: int, cycle: int) -> None:
        """Every demand L1D access: APC count + utility CAM check."""
        self.phase_detector.note_access()
        self.stats.utility_cam_accesses += 1
        trigger_ip = self.utility_buffer.match(line)
        if trigger_ip is not None:
            self.stats.filter_accesses += 1
            self.filter.note_hit(trigger_ip)

    def on_l1d_miss(self, cycle: int) -> None:
        """Demand L1D miss: advances the exploration window."""
        self._window_misses += 1
        if self._window_misses >= self.config.exploration_window_misses:
            self._window_misses = 0
            self._end_window(cycle)

    def _end_window(self, cycle: int) -> None:
        self.stats.windows += 1
        self._paused_for_window = False
        if self.config.dynamic and self.bandwidth_probe is not None:
            utilization = self.bandwidth_probe()
            if self._dynamic_bypassed:
                if utilization >= self.config.dynamic_on_utilization:
                    self._dynamic_bypassed = False
            elif utilization <= self.config.dynamic_off_utilization:
                self._dynamic_bypassed = True
        phase_change = self.phase_detector.end_window(cycle)
        if phase_change:
            self.stats.phase_changes += 1
            self.filter.reset()
            self.predictor.reset()
            self.utility_buffer.clear()
            self._paused_for_window = True
        else:
            self.filter.end_window()

    # ------------------------------------------------------------------
    # The two-stage filtering decision (Fig. 8, steps 3-4)
    # ------------------------------------------------------------------

    def filter_request(self, trigger_ip: int, address: int,
                       cycle: int) -> Tuple[bool, bool]:
        """Decide one prefetch candidate; returns (allow, criticality flag).

        Drops when: prefetching is paused after a phase change; the trigger
        IP is not shortlisted as critical (stage I); the critical-signature
        predictor says non-critical or misses (stage I); or the IP's per-IP
        prefetch hit rate is below threshold (stage II).
        """
        stats = self.stats
        stats.prefetches_seen += 1
        if self._dynamic and self._dynamic_bypassed:
            # Dynamic CLIP: ample bandwidth, let the prefetcher run free.
            stats.prefetches_allowed += 1
            return True, False
        if self._paused_for_window:
            stats.dropped_phase_pause += 1
            return False, False
        key = (address >> 12 if self._index_by_page else trigger_ip)
        filt = self.filter
        if self._use_criticality_filter:
            stats.filter_accesses += 1
            entry = filt.get(key)
            if entry is None or entry.crit_count < filt.effective_threshold:
                stats.dropped_not_critical += 1
                return False, False
            if self._use_accuracy_filter and not (
                    entry.is_crit_accurate
                    or (entry.exploring and entry.issue_count
                        < filt.EXPLORATION_PROBES)):
                stats.dropped_low_accuracy += 1
                return False, False
            stats.predictor_accesses += 1
            # _signature under the live histories, inlined: this runs for
            # most candidates.
            signature = closed_form_signature(
                key, address >> LINE_SHIFT,
                history_term(self.branch_history.value,
                             self.criticality_history.value,
                             self._branch_mask, self._criticality_mask),
                self._address_mask)
            if not self.predictor.predict(signature):
                stats.dropped_predictor += 1
                return False, False
        elif self._use_accuracy_filter:
            stats.filter_accesses += 1
            entry = filt.get(key)
            if entry is not None and not (
                    entry.is_crit_accurate
                    or (entry.exploring and entry.issue_count
                        < filt.EXPLORATION_PROBES)):
                stats.dropped_low_accuracy += 1
                return False, False
        stats.prefetches_allowed += 1
        return True, self._crit_flag

    def on_prefetch_issued(self, line: int, trigger_ip: int) -> None:
        """An allowed prefetch left for the hierarchy (Fig. 8 step 3)."""
        key = self._key(trigger_ip, line << LINE_SHIFT)
        self.stats.utility_cam_accesses += 1
        self.utility_buffer.insert(line, key)
        self.stats.filter_accesses += 1
        self.filter.note_issue(key)

    # ------------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """CLIP's ``clip_*`` counters in its core's ``core{N}.chain``
        group: filtering and the reason for each drop, prediction
        quality on L1-miss loads (Figs. 13-14), exploration windows and
        phase changes, the Fig. 15 critical-IP census, and structure
        accesses (energy inputs)."""
        stats = self.stats
        measurement = self.measurement
        static, dynamic = self.critical_ip_census()
        return {
            "clip_prefetches_seen": stats.prefetches_seen,
            "clip_prefetches_allowed": stats.prefetches_allowed,
            "clip_dropped_not_critical": stats.dropped_not_critical,
            "clip_dropped_low_accuracy": stats.dropped_low_accuracy,
            "clip_dropped_predictor": stats.dropped_predictor,
            "clip_dropped_phase_pause": stats.dropped_phase_pause,
            "clip_predicted_critical": measurement.predicted,
            "clip_predicted_critical_correct":
                measurement.predicted_correct,
            "clip_actual_critical": measurement.actual,
            "clip_covered_critical": measurement.covered,
            "clip_windows": stats.windows,
            "clip_phase_changes": stats.phase_changes,
            "clip_static_critical_ips": static,
            "clip_dynamic_critical_ips": dynamic,
            "clip_filter_accesses": stats.filter_accesses,
            "clip_predictor_accesses": stats.predictor_accesses,
            "clip_utility_cam_accesses": stats.utility_cam_accesses,
        }

    def critical_ip_census(self) -> Tuple[int, int]:
        """(static-critical, dynamic-critical) IP counts (Fig. 15).

        An IP is *critical* if at least ``criticality_count_threshold`` of
        its L1-miss instances stalled the ROB head; it is *static-critical*
        when at least 90% of those instances were critical and
        *dynamic-critical* otherwise.
        """
        static = 0
        dynamic = 0
        threshold = self.config.criticality_count_threshold
        for critical, non_critical in self.ip_census.values():
            if critical < threshold:
                continue
            total = critical + non_critical
            if critical >= 0.9 * total:
                static += 1
            else:
                dynamic += 1
        return static, dynamic
