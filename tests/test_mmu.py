"""Tests for the TLB hierarchy."""

from __future__ import annotations

import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MulticoreSystem, run_system, scaled_config
from repro.mmu import Mmu, Tlb
from repro.trace import homogeneous_mix


class TestTlb:
    def test_miss_then_hit(self):
        tlb = Tlb(entries=8, ways=2)
        assert not tlb.lookup(0x1000)
        tlb.fill(0x1000)
        assert tlb.lookup(0x1234)  # same 4 KiB page

    def test_different_pages_differ(self):
        tlb = Tlb(entries=8, ways=2)
        tlb.fill(0x1000)
        assert not tlb.lookup(0x2000)

    def test_lru_eviction_within_set(self):
        tlb = Tlb(entries=2, ways=2)  # one set, two ways
        tlb.fill(0 << 12)
        tlb.fill(1 << 12)
        tlb.lookup(0 << 12)        # refresh page 0
        tlb.fill(2 << 12)          # evicts page 1
        assert tlb.lookup(0 << 12)
        assert not tlb.lookup(1 << 12)

    def test_geometry_validation(self):
        """The config gate, not the TLB, rejects entries that are not a
        multiple of the ways."""
        config = scaled_config(num_cores=1, channels=1, sim_instructions=500)
        config.tlb = dataclasses.replace(config.tlb, enabled=True,
                                         dtlb_entries=10, dtlb_ways=4)
        with pytest.raises(ValueError, match=re.escape(
                "tlb.dtlb_entries must be a positive multiple of "
                "tlb.dtlb_ways (4), got 10")):
            MulticoreSystem(config, ["605.mcf_s-1536B"])

    def test_hit_rate_statistic(self):
        tlb = Tlb(entries=8, ways=2)
        tlb.lookup(0x1000)
        tlb.fill(0x1000)
        tlb.lookup(0x1000)
        assert tlb.stats.accesses == 2
        assert tlb.stats.hit_rate == 0.5

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                    max_size=300))
    @settings(max_examples=25, deadline=None)
    def test_occupancy_bounded(self, pages):
        tlb = Tlb(entries=16, ways=4)
        for page in pages:
            if not tlb.lookup(page << 12):
                tlb.fill(page << 12)
        assert tlb.occupancy <= 16


class TestMmu:
    def test_latency_tiers(self):
        mmu = Mmu(dtlb_entries=4, dtlb_ways=4, stlb_entries=16,
                  stlb_ways=4, stlb_latency=8, page_walk_latency=100)
        # Cold: full walk.
        assert mmu.translate(0x1000) == 108
        # Warm DTLB: free.
        assert mmu.translate(0x1000) == 0
        # Overflow the 4-entry DTLB but stay within the STLB.
        for page in range(2, 8):
            mmu.translate(page << 12)
        assert mmu.translate(0x1000) == 8
        assert mmu.page_walks >= 6

    def test_page_walk_counter(self):
        mmu = Mmu()
        for page in range(10):
            mmu.translate(page << 12)
        assert mmu.page_walks == 10


class TestTlbIntegration:
    def test_enabled_tlb_slows_large_footprints(self):
        mix = homogeneous_mix("605.mcf_s-1536B", 2)
        base_config = scaled_config(num_cores=2, channels=1,
                                    sim_instructions=2_000)
        baseline = run_system(base_config, mix)
        tlb_config = scaled_config(num_cores=2, channels=1,
                                   sim_instructions=2_000)
        tlb_config.tlb = dataclasses.replace(tlb_config.tlb, enabled=True)
        with_tlb = run_system(tlb_config, mix)
        assert with_tlb.total_cycles > baseline.total_cycles

    def test_disabled_by_default(self):
        config = scaled_config(num_cores=1, channels=1)
        assert not config.tlb.enabled

    def test_hot_set_barely_pays(self):
        """A cache-resident workload fits its pages in the DTLB."""
        mix = homogeneous_mix("cassandra", 2)
        base_config = scaled_config(num_cores=2, channels=1,
                                    sim_instructions=2_000)
        baseline = run_system(base_config, mix)
        tlb_config = scaled_config(num_cores=2, channels=1,
                                   sim_instructions=2_000)
        tlb_config.tlb = dataclasses.replace(tlb_config.tlb, enabled=True)
        with_tlb = run_system(tlb_config, mix)
        assert with_tlb.total_cycles < baseline.total_cycles * 1.6
