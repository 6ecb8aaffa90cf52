"""Behavioural tests of the assembled CLIP controller."""

from __future__ import annotations

import dataclasses
import itertools
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import MulticoreSystem, run_system, scaled_config
from repro.config import ClipConfig
from repro.core.clip import Clip
from repro.core.signature import critical_signature
from repro.cpu.core_model import ServiceLevel
from repro.trace import homogeneous_mix


def _clip_config(**kw) -> ClipConfig:
    config = ClipConfig(enabled=True, exploration_window_misses=32,
                        apc_history_windows=4)
    return dataclasses.replace(config, **kw)


class TestFilterRequestStages:
    def test_unknown_ip_dropped_as_noncritical(self):
        clip = Clip(_clip_config())
        allowed, crit = clip.filter_request(0x999, 0x4000, cycle=0)
        assert not allowed and not crit
        assert clip.stats.dropped_not_critical == 1

    def test_critical_trained_ip_passes_both_stages(self):
        clip = Clip(_clip_config())
        ip, address = 0x400, 0x4000
        for _ in range(4):
            clip.filter.record_critical(ip)
        # Teach the predictor that this context is critical.
        line = address >> 6
        for _ in range(3):
            clip.predictor.train(clip._signature(ip, line), True)
        allowed, crit = clip.filter_request(ip, address, cycle=0)
        assert allowed and crit
        assert clip.stats.prefetches_allowed == 1

    def test_predictor_veto(self):
        clip = Clip(_clip_config())
        ip, address = 0x400, 0x4000
        for _ in range(4):
            clip.filter.record_critical(ip)
        line = address >> 6
        for _ in range(6):
            clip.predictor.train(clip._signature(ip, line), False)
        allowed, _ = clip.filter_request(ip, address, cycle=0)
        assert not allowed
        assert clip.stats.dropped_predictor == 1

    def test_no_crit_flag_when_priority_disabled(self):
        clip = Clip(_clip_config(criticality_conscious_noc_dram=False))
        ip, address = 0x400, 0x4000
        for _ in range(4):
            clip.filter.record_critical(ip)
        clip.predictor.train(clip._signature(ip, address >> 6), True)
        allowed, crit = clip.filter_request(ip, address, cycle=0)
        assert allowed and not crit

    def test_stage1_disabled_passes_everything_unknown(self):
        clip = Clip(_clip_config(use_criticality_filter=False))
        allowed, _ = clip.filter_request(0x123, 0x9000, cycle=0)
        assert allowed

    def test_accuracy_stage_blocks_certified_inaccurate_ip(self):
        clip = Clip(_clip_config())
        ip = 0x400
        for _ in range(4):
            clip.filter.record_critical(ip)
        # Simulate a window of poor per-IP accuracy.
        for _ in range(10):
            clip.filter.note_issue(ip)
        clip.filter.note_hit(ip)
        clip.filter.end_window()
        clip.predictor.train(clip._signature(ip, 0x4000 >> 6), True)
        allowed, _ = clip.filter_request(ip, 0x4000, cycle=0)
        assert not allowed
        assert clip.stats.dropped_low_accuracy == 1


class TestUtilityAccounting:
    def test_issue_and_demand_match_credit_trigger_ip(self):
        clip = Clip(_clip_config())
        ip = 0x400
        for _ in range(4):
            clip.filter.record_critical(ip)
        clip.on_prefetch_issued(line=0x77, trigger_ip=ip)
        entry = clip.filter.get(ip)
        assert entry.issue_count == 1
        clip.on_l1d_access(line=0x77, cycle=10)
        assert entry.hit_count == 1

    def test_windows_advance_on_misses(self):
        clip = Clip(_clip_config(exploration_window_misses=8))
        for i in range(16):
            clip.on_l1d_miss(cycle=i * 10)
        assert clip.stats.windows == 2


class TestPhaseReset:
    def test_phase_change_resets_structures(self):
        clip = Clip(_clip_config(exploration_window_misses=4,
                                 apc_history_windows=4))
        clip.filter.record_critical(0x400)
        clip.predictor.train(123, True)
        clip.utility_buffer.insert(1, 0x400)
        # Warm up the APC history with a steady rate, then shift it hard.
        cycle = 0
        for window in range(6):
            for _ in range(40):
                clip.on_l1d_access(0, cycle)
            cycle += 1000
            for _ in range(4):
                clip.on_l1d_miss(cycle)
        # Now a dramatically hotter window.
        for _ in range(400):
            clip.on_l1d_access(0, cycle)
        cycle += 1000
        for _ in range(4):
            clip.on_l1d_miss(cycle)
        assert clip.stats.phase_changes >= 1
        assert len(clip.filter) == 0
        assert len(clip.utility_buffer) == 0
        # And prefetching pauses for the following window.
        allowed, _ = clip.filter_request(0x400, 0x4000, cycle)
        assert not allowed
        assert clip.stats.dropped_phase_pause == 1


class TestClipEndToEnd:
    def test_census_distinguishes_static_and_dynamic(self):
        """The hotcold stream makes some IPs dynamic-critical."""
        config = scaled_config(num_cores=2, channels=1,
                               sim_instructions=8_000)
        config.l1_prefetcher = dataclasses.replace(config.l1_prefetcher,
                                                   name="berti")
        config.clip.enabled = True
        system = MulticoreSystem(config,
                                 homogeneous_mix("605.mcf_s-1536B", 2))
        system.run()
        static = dynamic = 0
        for node in system.nodes:
            s, d = node.clip.critical_ip_census()
            static += s
            dynamic += d
        assert static + dynamic > 0

    def test_clip_never_issues_more_than_prefetcher(self):
        config = scaled_config(num_cores=2, channels=1,
                               sim_instructions=6_000)
        config.l1_prefetcher = dataclasses.replace(config.l1_prefetcher,
                                                   name="berti")
        mix = homogeneous_mix("603.bwaves_s-1740B", 2)
        plain = run_system(config, mix)
        config.clip.enabled = True
        clipped = run_system(config, mix)
        assert clipped.prefetch.issued <= plain.prefetch.issued

    def test_signature_ablation_changes_predictions(self):
        full = Clip(_clip_config())
        ip_only = Clip(_clip_config(signature_use_address=False,
                                    signature_use_branch_history=False,
                                    signature_use_criticality_history=False))
        full.branch_history.push(True)
        ip_only.branch_history.push(True)
        assert full._signature(0x400, 0x99) != \
            full._signature(0x400, 0x99 + (1 << 10))
        assert ip_only._signature(0x400, 0x99) == \
            ip_only._signature(0x400, 0x99 + (1 << 10))


#: (signature_use_address, _branch_history, _criticality_history).
SIGNATURE_TOGGLES = list(itertools.product((True, False), repeat=3))


class TestClosedFormSignature:
    """CLIP hashes with the closed form in ``repro.core.signature``; on
    every path and under every toggle combination it must equal
    ``critical_signature``, the reference.  Keys and lines reach past 64
    bits, where the reference truncates, and the histories fill their
    32-bit registers."""

    @pytest.mark.parametrize(
        "toggles", SIGNATURE_TOGGLES,
        ids=["-".join(name if on else "no_" + name for name, on in
                      zip(("address", "branch", "crit"), toggles))
             for toggles in SIGNATURE_TOGGLES])
    @given(key=st.integers(0, (1 << 70) - 1),
           line=st.integers(0, (1 << 70) - 1),
           branch=st.integers(0, (1 << 32) - 1),
           crit=st.integers(0, (1 << 32) - 1),
           pushes=st.lists(st.booleans(), min_size=1, max_size=40))
    # Hypothesis favours small integers; these always reach the top
    # 13-bit fold chunk and the bits past 64 that the reference drops.
    @example(key=(1 << 70) - 1, line=(1 << 70) - 1, branch=0xABCDE,
             crit=0x12345, pushes=[True])
    @example(key=0x123 << 56, line=0x5 << 66, branch=(1 << 32) - 1,
             crit=(1 << 32) - 1, pushes=[False, True])
    @settings(max_examples=100, deadline=None)
    def test_every_path_matches_the_reference(self, toggles, key, line,
                                              branch, crit, pushes):
        clip = Clip(_clip_config(
            signature_use_address=toggles[0],
            signature_use_branch_history=toggles[1],
            signature_use_criticality_history=toggles[2]))
        trained, predicted = [], []
        clip.predictor.train = lambda signature, critical: \
            trained.append(signature)
        clip.predictor.predict = predicted.append

        def reference() -> int:
            return critical_signature(key, line, branch, crit, *toggles)

        clip.branch_history.value = branch
        clip.criticality_history.value = crit
        assert clip._signature(key, line) == reference()
        # A prefetch candidate that reaches the predictor hashes with the
        # live histories.
        for _ in range(clip.filter.effective_threshold):
            clip.filter.record_critical(key)
        clip.filter_request(key, line << 6, cycle=0)
        assert predicted == [reference()]
        # A load response hashes with the snapshot taken at its dispatch,
        # whatever the histories did in between.
        core = SimpleNamespace()
        entry = SimpleNamespace(history_snapshot=None, ip=key,
                                address=line << 6,
                                service_level=ServiceLevel.L1)
        clip._on_load_dispatch(core, entry, 0)
        for bit in pushes:
            clip._on_branch(core, 0, bit, False, 0)
            clip.criticality_history.push(bit)
        clip._on_load_response(core, entry, 1, False, False)
        assert trained == [reference()]
        # A load dispatched without CLIP's hook has no snapshot and
        # hashes with the live histories.
        entry.history_snapshot = None
        branch = clip.branch_history.value
        crit = clip.criticality_history.value
        clip._on_load_response(core, entry, 2, False, False)
        assert trained[1] == reference()
