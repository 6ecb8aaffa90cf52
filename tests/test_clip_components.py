"""Unit tests for CLIP's hardware structures (paper section 4)."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MulticoreSystem, scaled_config
from repro.config import ClipConfig
from repro.core import (ApcPhaseDetector, Clip, CriticalityFilter,
                        CriticalityPredictor, ShiftRegister, UtilityBuffer,
                        critical_signature, storage_overhead, storage_table)


def _clip_gate_error(**fields) -> str:
    """The message with which the config gate (``MulticoreSystem``)
    rejects a 1-core CLIP point whose ``ClipConfig`` has ``fields``."""
    config = scaled_config(num_cores=1, channels=1, sim_instructions=500)
    config.clip = dataclasses.replace(config.clip, enabled=True, **fields)
    with pytest.raises(ValueError) as error:
        MulticoreSystem(config, ["605.mcf_s-1536B"])
    return str(error.value)


class TestShiftRegister:
    def test_push_and_mask(self):
        register = ShiftRegister(4)
        for bit in [True, False, True, True]:
            register.push(bit)
        assert int(register) == 0b1011
        register.push(True)
        assert int(register) == 0b0111  # Oldest bit fell off.

    def test_clear(self):
        register = ShiftRegister(8)
        register.push(True)
        register.clear()
        assert int(register) == 0

    def test_rejects_zero_width(self):
        """The config gate, not the register, rejects a zero width."""
        assert _clip_gate_error(branch_history_bits=0) == \
            "clip.branch_history_bits must be positive, got 0"

    @given(st.lists(st.booleans(), max_size=64))
    @settings(max_examples=30, deadline=None)
    def test_value_always_in_range(self, bits):
        register = ShiftRegister(32)
        for bit in bits:
            register.push(bit)
        assert 0 <= int(register) < (1 << 32)


class TestCriticalSignature:
    def test_deterministic(self):
        a = critical_signature(0x400, 0x1234, 0xFF, 0x0F)
        b = critical_signature(0x400, 0x1234, 0xFF, 0x0F)
        assert a == b

    def test_within_width(self):
        for ip in range(0, 1 << 20, 997):
            sig = critical_signature(ip, ip * 3, ip, ip, width=13)
            assert 0 <= sig < (1 << 13)

    def test_branch_history_changes_signature(self):
        base = critical_signature(0x400, 0x1234, 0b0000, 0)
        flipped = critical_signature(0x400, 0x1234, 0b1111, 0)
        assert base != flipped

    def test_component_toggles(self):
        with_addr = critical_signature(0x400, 0x123456, 0, 0)
        without_addr = critical_signature(0x400, 0x999999 << 10, 0, 0,
                                          use_address=False)
        ip_only = critical_signature(0x400, 0, 0, 0, use_address=False,
                                     use_branch_history=False,
                                     use_criticality_history=False)
        assert ip_only == critical_signature(0x400, 0xFFF << 20, 0xF0F0,
                                             0xFFFF, use_address=False,
                                             use_branch_history=False,
                                             use_criticality_history=False)

    def test_same_region_lines_share_signature(self):
        """Generalisation: lines within one signature region must map to
        the same predictor entry (the prefetch-address problem)."""
        a = critical_signature(0x400, 0x1000, 0xF, 0x3)
        b = critical_signature(0x400, 0x10FF, 0xF, 0x3)
        assert a == b

    def test_distant_lines_differ(self):
        values = {critical_signature(0x400, region << 8, 0, 0)
                  for region in range(64)}
        assert len(values) > 32


class TestUtilityBuffer:
    def test_insert_and_match_consumes(self):
        buffer = UtilityBuffer(4)
        buffer.insert(0x10, trigger_ip=0x400)
        assert buffer.match(0x10) == 0x400
        assert buffer.match(0x10) is None  # Counted once.

    def test_capacity_eviction_fifo(self):
        buffer = UtilityBuffer(2)
        buffer.insert(1, 0xA)
        buffer.insert(2, 0xB)
        buffer.insert(3, 0xC)
        assert buffer.match(1) is None
        assert buffer.match(2) == 0xB
        assert buffer.match(3) == 0xC

    def test_reinsert_updates_ip(self):
        buffer = UtilityBuffer(4)
        buffer.insert(1, 0xA)
        buffer.insert(1, 0xB)
        assert buffer.match(1) == 0xB

    def test_len_and_clear(self):
        buffer = UtilityBuffer(8)
        for line in range(5):
            buffer.insert(line, 0x1)
        assert len(buffer) == 5
        buffer.clear()
        assert len(buffer) == 0

    def test_rejects_zero_entries(self):
        """The config gate, not the buffer, rejects an empty buffer."""
        assert _clip_gate_error(utility_buffer_entries=0) == \
            "clip.utility_buffer_entries must be positive, got 0"

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(1, 10)),
                    max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_never_exceeds_capacity(self, pairs):
        buffer = UtilityBuffer(16)
        for line, ip in pairs:
            buffer.insert(line, ip)
            assert len(buffer) <= 16


class TestCriticalityFilter:
    def _filter(self, **kw) -> CriticalityFilter:
        return CriticalityFilter(sets=4, ways=2, **kw)

    def _clip(self) -> Clip:
        """A CLIP instance whose filter is :meth:`_filter`'s; its
        predictor is untrained, so a candidate that passes both filter
        stages is dropped by the predictor, and the drop reason tells
        which stage stopped it."""
        return Clip(ClipConfig(filter_sets=4, filter_ways=2))

    def test_insert_on_critical(self):
        filt = self._filter()
        filt.record_critical(0x400)
        entry = filt.get(0x400)
        assert entry is not None and entry.crit_count == 1

    def test_exploration_starts_at_threshold(self):
        filt = self._filter()
        for _ in range(2):
            filt.record_critical(0x400)
        assert not filt.get(0x400).exploring
        filt.record_critical(0x400)
        assert filt.get(0x400).exploring

    def test_crit_count_saturates_at_two_bits(self):
        filt = self._filter()
        for _ in range(20):
            filt.record_critical(0x400)
        assert filt.get(0x400).crit_count == 3

    def test_lfu_eviction_by_crit_count(self):
        filt = CriticalityFilter(sets=1, ways=2)
        for _ in range(3):
            filt.record_critical(0x10)
        filt.record_critical(0x24)
        filt.record_critical(0x38)  # Evicts the weaker of the two.
        assert filt.get(0x10) is not None
        assert filt.get(0x24) is None
        assert filt.get(0x38) is not None and len(filt) == 2

    def test_certification_requires_high_hit_rate(self):
        filt = self._filter()
        for _ in range(3):
            filt.record_critical(0x400)
        for _ in range(10):
            filt.note_issue(0x400)
            filt.note_hit(0x400)
        filt.end_window()
        assert filt.get(0x400).is_crit_accurate

    def test_low_hit_rate_blocks(self):
        clip = self._clip()
        filt = clip.filter
        for _ in range(3):
            filt.record_critical(0x400)
        for i in range(10):
            filt.note_issue(0x400)
            if i < 5:
                filt.note_hit(0x400)
        filt.end_window()
        entry = filt.get(0x400)
        assert not entry.is_crit_accurate
        assert clip.filter_request(0x400, 0x10000, 0) == (False, False)
        assert clip.stats.dropped_low_accuracy == 1
        assert clip.stats.dropped_predictor == 0

    def test_blocked_ip_reexplores(self):
        filt = self._filter()
        for _ in range(3):
            filt.record_critical(0x400)
        filt.note_issue(0x400)  # 0% hit rate.
        filt.end_window()
        assert not filt.get(0x400).is_crit_accurate
        for _ in range(CriticalityFilter.REEXPLORE_WINDOWS):
            filt.end_window()
        assert filt.get(0x400).exploring

    def test_window_halves_counters(self):
        filt = self._filter()
        for _ in range(3):
            filt.record_critical(0x400)
        for _ in range(8):
            filt.note_issue(0x400)
            filt.note_hit(0x400)
        filt.end_window()
        entry = filt.get(0x400)
        assert entry.hit_count == 4 and entry.issue_count == 4

    def test_exploration_probe_budget(self):
        clip = self._clip()
        filt = clip.filter
        for _ in range(3):
            filt.record_critical(0x400)
        probes = CriticalityFilter.EXPLORATION_PROBES
        for probe in range(probes):
            clip.filter_request(0x400, 0x10000, 0)
            assert clip.stats.dropped_predictor == probe + 1
            filt.note_issue(0x400)
        assert clip.filter_request(0x400, 0x10000, 0) == (False, False)
        assert clip.stats.dropped_low_accuracy == 1
        assert clip.stats.dropped_predictor == probes

    def test_counter_ratio_survives_saturation(self):
        filt = self._filter()
        for _ in range(3):
            filt.record_critical(0x400)
        for _ in range(500):
            filt.note_issue(0x400)
            # 50% hit rate throughout.
            if _ % 2 == 0:
                filt.note_hit(0x400)
        entry = filt.get(0x400)
        rate = entry.hit_rate()
        assert rate is not None and 0.3 < rate < 0.7

    def test_reset_clears_everything(self):
        filt = self._filter()
        filt.record_critical(0x400)
        filt.reset()
        assert len(filt) == 0


class TestCriticalityPredictor:
    def test_miss_returns_none(self):
        predictor = CriticalityPredictor(sets=4, ways=2)
        assert predictor.predict(123) is None

    def test_train_then_predict_critical(self):
        predictor = CriticalityPredictor(sets=4, ways=2)
        predictor.train(123, critical=True)
        assert predictor.predict(123) is True

    def test_counter_descends_to_noncritical(self):
        predictor = CriticalityPredictor(sets=4, ways=2)
        for _ in range(5):
            predictor.train(123, critical=False)
        assert predictor.predict(123) is False

    def test_counter_saturates(self):
        predictor = CriticalityPredictor(sets=4, ways=2, counter_bits=3)
        for _ in range(50):
            predictor.train(7, critical=True)
        entry = predictor._sets[7 % 4][(7 // 4) & 0x3F]
        assert entry.counter == 7

    def test_nru_victim_prefers_unreferenced(self):
        predictor = CriticalityPredictor(sets=1, ways=2)
        predictor.train(0, critical=True)
        predictor.train(1, critical=True)
        predictor.predict(1)           # Reference way holding tag 1.
        predictor.train(2, critical=True)  # Must evict one of them.
        assert len(predictor._sets[0]) == 2

    def test_reset(self):
        predictor = CriticalityPredictor(sets=4, ways=2)
        predictor.train(5, critical=True)
        predictor.reset()
        assert len(predictor) == 0

    @given(st.lists(st.tuples(st.integers(0, 5000), st.booleans()),
                    max_size=300))
    @settings(max_examples=20, deadline=None)
    def test_capacity_invariant(self, events):
        predictor = CriticalityPredictor(sets=8, ways=2)
        for signature, critical in events:
            predictor.train(signature, critical)
        assert len(predictor) <= 16


class TestApcPhaseDetector:
    def test_stable_apc_no_phase_change(self):
        detector = ApcPhaseDetector(history_windows=4, threshold=0.15)
        for window in range(10):
            for _ in range(100):
                detector.note_access()
            assert not detector.end_window((window + 1) * 1000)

    def test_large_shift_detected_after_warmup(self):
        detector = ApcPhaseDetector(history_windows=4, threshold=0.15)
        for window in range(4):
            for _ in range(100):
                detector.note_access()
            detector.end_window((window + 1) * 1000)
        for _ in range(300):
            detector.note_access()
        assert detector.end_window(5000)
        assert detector.phase_changes == 1

    def test_small_shift_tolerated(self):
        detector = ApcPhaseDetector(history_windows=4, threshold=0.15)
        counts = [100, 101, 99, 100, 105, 108]
        for window, count in enumerate(counts):
            for _ in range(count):
                detector.note_access()
            assert not detector.end_window((window + 1) * 1000)

    def test_invalid_parameters(self):
        """The config gate, not the detector, rejects an empty history
        and a threshold outside (0, 1)."""
        assert _clip_gate_error(apc_history_windows=0) == \
            "clip.apc_history_windows must be positive, got 0"
        assert _clip_gate_error(phase_change_threshold=0) == \
            "clip.phase_change_threshold must be a fraction in (0, 1), got 0"


class TestStorageOverhead:
    def test_matches_paper_total(self):
        """Table 2: 1.56 KB per core (decimal kilobytes)."""
        total_bytes = storage_overhead() * 1024
        assert total_bytes == pytest.approx(1564.125, abs=0.5)

    def test_row_values_match_table2(self):
        rows = {row.structure: row for row in storage_table()}
        assert rows["Criticality filter"].bytes == 336
        assert rows["Criticality predictor"].bytes == 640
        assert rows["ROB extension"].bytes == 64
        assert rows["Utility buffer"].bytes == 512

    def test_scaling_with_table_sizes(self):
        small = dataclasses.replace(ClipConfig(), filter_sets=16,
                                    predictor_sets=64)
        big = dataclasses.replace(ClipConfig(), filter_sets=64,
                                  predictor_sets=256)
        assert storage_overhead(small) < storage_overhead()
        assert storage_overhead(big) > storage_overhead()
