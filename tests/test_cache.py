"""Tests for the cache substrate: tags, metadata, MSHRs, replacement."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import Cache, MshrFile, make_policy
from repro.cache.replacement import (LruPolicy, MockingjayLitePolicy,
                                     NruPolicy, SrripPolicy, policy_names)
from repro.config import CacheConfig


def _small_cache(replacement: str = "lru") -> Cache:
    return Cache(CacheConfig(name="T", size_kib=4, ways=4, latency=1,
                             mshr_entries=4, replacement=replacement))


class TestCacheBasics:
    def test_miss_then_hit_after_fill(self):
        cache = _small_cache()
        assert not cache.access(0x100, pc=1, now=0)
        cache.fill(0x100, pc=1, now=1)
        assert cache.access(0x100, pc=1, now=2)

    def test_probe_does_not_disturb_stats(self):
        cache = _small_cache()
        cache.fill(0x5, pc=1, now=0)
        before = cache.stats.counters()
        assert cache.probe(0x5)
        assert not cache.probe(0x6)
        assert cache.stats.counters() == before

    def test_write_sets_dirty_and_eviction_reports_it(self):
        cache = _small_cache()
        sets = cache.num_sets
        cache.fill(0, pc=1, now=0)
        cache.access(0, pc=1, now=1, is_write=True)
        # Fill the set until line 0 is evicted.
        evicted = []
        for way in range(1, cache.ways + 1):
            out = cache.fill(way * sets, pc=1, now=2 + way)
            if out is not None:
                evicted.append(out)
        assert any(e.line == 0 and e.dirty for e in evicted)

    def test_fill_same_line_twice_is_metadata_merge(self):
        cache = _small_cache()
        cache.fill(0x10, pc=1, now=0)
        assert cache.fill(0x10, pc=1, now=1, dirty=True) is None
        evicted = cache.invalidate(0x10)
        assert evicted is not None and evicted.dirty

    def test_prefetched_line_becomes_useful_on_demand_hit(self):
        cache = _small_cache()
        cache.fill(0x20, pc=1, now=0, prefetch=True)
        assert cache.stats.prefetch_fills == 1
        cache.access(0x20, pc=1, now=1)
        assert cache.stats.useful_prefetches == 1
        # Second hit does not double count.
        cache.access(0x20, pc=1, now=2)
        assert cache.stats.useful_prefetches == 1

    def test_useless_eviction_counted_and_listener_fired(self):
        cache = _small_cache()
        seen = []
        cache.useless_eviction_listener = seen.append
        sets = cache.num_sets
        cache.fill(0, pc=1, now=0, prefetch=True)
        for way in range(1, cache.ways + 1):
            cache.fill(way * sets, pc=1, now=way)
        assert cache.stats.useless_evictions == 1
        assert seen == [0]

    def test_prefetch_use_listener(self):
        cache = _small_cache()
        seen = []
        cache.prefetch_use_listener = lambda line, ip: seen.append((line, ip))
        cache.fill(0x30, pc=1, now=0, prefetch=True, trigger_ip=0x999)
        cache.access(0x30, pc=2, now=1)
        assert seen == [(0x30, 0x999)]

    def test_occupancy_bounded_by_capacity(self):
        cache = _small_cache()
        for line in range(1000):
            cache.fill(line, pc=1, now=line)
        assert cache.occupancy <= cache.config.num_lines

    @given(st.lists(st.integers(min_value=0, max_value=4000), min_size=1,
                    max_size=300))
    @settings(max_examples=25, deadline=None)
    def test_no_duplicate_lines_property(self, lines):
        """Invariant: a line is resident in at most one way."""
        cache = _small_cache()
        for t, line in enumerate(lines):
            if not cache.access(line, pc=1, now=t):
                cache.fill(line, pc=1, now=t)
        for set_map in cache._map:
            ways = list(set_map.values())
            assert len(ways) == len(set(ways))

    @given(st.lists(st.integers(min_value=0, max_value=512), min_size=1,
                    max_size=200),
           st.sampled_from(policy_names()))
    @settings(max_examples=20, deadline=None)
    def test_fill_then_immediate_access_hits(self, lines, policy):
        cache = _small_cache(policy)
        for t, line in enumerate(lines):
            cache.fill(line, pc=line & 0xFF, now=t)
            assert cache.access(line, pc=line & 0xFF, now=t)


class TestReplacementPolicies:
    def test_lru_evicts_least_recent(self):
        policy = LruPolicy(1, 4)
        for way in range(4):
            policy.on_fill(0, way, now=way, pc=0)
        policy.on_hit(0, 0, now=10, pc=0)
        assert policy.victim(0, now=11, valid=[True] * 4) == 1

    def test_nru_prefers_unreferenced(self):
        policy = NruPolicy(1, 4)
        policy.on_fill(0, 0, now=0, pc=0)
        policy.on_fill(0, 2, now=1, pc=0)
        victim = policy.victim(0, now=2, valid=[True] * 4)
        assert victim in (1, 3)

    def test_nru_resets_when_all_referenced(self):
        policy = NruPolicy(1, 2)
        policy.on_fill(0, 0, now=0, pc=0)
        policy.on_fill(0, 1, now=1, pc=0)
        # All referenced; last touch was way 1 so way 0 got cleared.
        assert policy.victim(0, now=2, valid=[True] * 2) == 0

    def test_srrip_hit_promotes(self):
        policy = SrripPolicy(1, 2)
        policy.on_fill(0, 0, now=0, pc=0)
        policy.on_fill(0, 1, now=1, pc=0)
        policy.on_hit(0, 0, now=2, pc=0)
        assert policy.victim(0, now=3, valid=[True] * 2) == 1

    def test_srrip_prefetch_inserted_distant(self):
        policy = SrripPolicy(1, 2)
        policy.on_fill(0, 0, now=0, pc=0, prefetch=True)
        policy.on_fill(0, 1, now=1, pc=0, prefetch=False)
        assert policy.victim(0, now=2, valid=[True] * 2) == 0

    def test_mockingjay_evicts_no_history_first(self):
        policy = MockingjayLitePolicy(1, 2)
        policy.on_fill(0, 0, now=0, pc=0xA)
        policy.on_hit(0, 0, now=10, pc=0xA)   # trains reuse ~10 for pc A
        policy.on_fill(0, 1, now=11, pc=0xB)  # pc B: no reuse history
        assert policy.victim(0, now=12, valid=[True] * 2) == 1

    def test_make_policy_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown replacement"):
            make_policy("belady", 4, 4)


class TestMshr:
    def test_allocate_and_release(self):
        mshrs = MshrFile(2)
        entry = mshrs.allocate(0x1, is_prefetch=False, crit=False,
                               trigger_ip=0x40, now=5)
        assert mshrs.lookup(0x1) is entry
        assert mshrs.release(0x1) is entry
        assert mshrs.lookup(0x1) is None

    def test_full_detection(self):
        mshrs = MshrFile(1)
        mshrs.allocate(0x1, False, False, 0, 0)
        assert mshrs.full
        with pytest.raises(RuntimeError):
            mshrs.allocate(0x2, False, False, 0, 0)

    def test_duplicate_allocation_rejected(self):
        mshrs = MshrFile(2)
        mshrs.allocate(0x1, False, False, 0, 0)
        with pytest.raises(ValueError):
            mshrs.allocate(0x1, False, False, 0, 0)

    def test_demand_merge_into_prefetch_is_late(self):
        mshrs = MshrFile(2)
        entry = mshrs.allocate(0x1, is_prefetch=True, crit=False,
                               trigger_ip=0, now=0)
        mshrs.merge(entry, waiter=None, is_prefetch=False)
        assert mshrs.late_prefetch_merges == 1
        assert entry.demand_merged
        # A second demand merge does not double count.
        mshrs.merge(entry, waiter=None, is_prefetch=False)
        assert mshrs.late_prefetch_merges == 1

    def test_prefetch_merge_is_not_late(self):
        mshrs = MshrFile(2)
        entry = mshrs.allocate(0x1, is_prefetch=True, crit=False,
                               trigger_ip=0, now=0)
        mshrs.merge(entry, waiter=None, is_prefetch=True)
        assert mshrs.late_prefetch_merges == 0

    def test_waiters_accumulate(self):
        mshrs = MshrFile(2)
        entry = mshrs.allocate(0x1, False, False, 0, 0)
        mshrs.merge(entry, waiter="a", is_prefetch=False)
        mshrs.merge(entry, waiter="b", is_prefetch=False)
        assert entry.waiters == ["a", "b"]

    def test_peak_occupancy_tracked(self):
        mshrs = MshrFile(4)
        for line in range(3):
            mshrs.allocate(line, False, False, 0, 0)
        mshrs.release(0)
        assert mshrs.peak_occupancy == 3

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            MshrFile(0)


class TestLfuPolicy:
    def test_victim_is_least_frequent(self):
        from repro.cache.replacement import LfuPolicy
        policy = LfuPolicy(1, 3)
        for way in range(3):
            policy.on_fill(0, way, now=0, pc=0)
        policy.on_hit(0, 0, now=1, pc=0)
        policy.on_hit(0, 0, now=2, pc=0)
        policy.on_hit(0, 2, now=3, pc=0)
        assert policy.victim(0, now=4, valid=[True] * 3) == 1

    def test_fill_resets_count(self):
        from repro.cache.replacement import LfuPolicy
        policy = LfuPolicy(1, 2)
        policy.on_fill(0, 0, now=0, pc=0)
        for _ in range(5):
            policy.on_hit(0, 0, now=1, pc=0)
        policy.on_fill(0, 0, now=2, pc=0)  # replaced: frequency restarts
        policy.on_fill(0, 1, now=3, pc=0)
        policy.on_hit(0, 1, now=4, pc=0)
        assert policy.victim(0, now=5, valid=[True] * 2) == 0

    def test_usable_in_cache(self):
        cache = _small_cache("lfu")
        cache.fill(0x1, pc=1, now=0)
        assert cache.access(0x1, pc=1, now=1)
