"""Tests for result containers, weighted speedup, energy model, and
configuration validation."""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import CacheConfig, SystemConfig, scaled_config
from repro.energy import dynamic_energy
from repro.experiments.sweep import Scheme
from repro.sim.stats import (CoreResult, LevelStats, PrefetchStats,
                             SimulationResult, weighted_speedup)


def _core(core_id=0, instructions=1000, cycles=2000) -> CoreResult:
    return CoreResult(core_id=core_id, workload="w",
                      instructions=instructions, cycles=cycles, loads=100,
                      stores=10, branches=50, mispredicts=5,
                      head_stall_cycles=100, head_stall_cycles_miss=50,
                      critical_load_instances=20,
                      load_instances_beyond_l1=80)


def _result(ipcs) -> SimulationResult:
    result = SimulationResult(config_label="t")
    for i, ipc in enumerate(ipcs):
        result.cores.append(_core(i, instructions=1000,
                                  cycles=int(1000 / ipc)))
    return result


class TestWeightedSpeedup:
    def test_identity(self):
        a = _result([0.5, 0.5])
        assert weighted_speedup(a, a) == pytest.approx(1.0)

    def test_doubling(self):
        fast = _result([1.0, 1.0])
        slow = _result([0.5, 0.5])
        assert weighted_speedup(fast, slow) == pytest.approx(2.0)

    def test_mixed(self):
        a = _result([1.0, 0.5])
        b = _result([0.5, 0.5])
        assert weighted_speedup(a, b) == pytest.approx(1.5)

    def test_core_count_mismatch(self):
        with pytest.raises(ValueError):
            weighted_speedup(_result([1.0]), _result([1.0, 1.0]))

    def test_empty(self):
        with pytest.raises(ValueError):
            weighted_speedup(SimulationResult("a"), SimulationResult("b"))


class TestStatsProperties:
    def test_prefetch_accuracy_guards(self):
        stats = PrefetchStats()
        assert stats.accuracy == 0.0
        stats.issued = 10
        stats.useful = 8
        assert stats.accuracy == 0.8
        stats.late = 4
        assert stats.lateness == 0.5

    def test_traffic_reduction(self):
        stats = PrefetchStats(candidates=100, issued=40)
        assert stats.traffic_reduction == pytest.approx(0.6)

    def test_level_coverage(self):
        level = LevelStats("L1D", demand_misses=60, useful_prefetches=40)
        assert level.miss_coverage == pytest.approx(0.4)

    def test_level_latency(self):
        level = LevelStats("L1D", miss_latency_sum=500,
                           miss_latency_count=10)
        assert level.average_miss_latency == 50


class TestEnergyModel:
    def _loaded_result(self) -> SimulationResult:
        result = SimulationResult(config_label="e")
        result.counters = {
            "core0.l1d": {"demand_accesses": 10_000, "prefetch_fills": 500},
            "core0.l2": {"demand_accesses": 2_000, "prefetch_fills": 0},
            "llc.slice0": {"demand_accesses": 800, "prefetch_fills": 0},
            "noc": {"flit_hops": 20_000},
            "dram.ch0": {"reads": 500, "writes": 100, "activates": 200},
        }
        return result

    def test_dram_dominates(self):
        breakdown = dynamic_energy(self._loaded_result())
        assert breakdown.components_mj["DRAM"] == max(
            breakdown.components_mj.values())

    def test_clip_energy_is_small(self):
        base = dynamic_energy(self._loaded_result())
        with_clip = self._loaded_result()
        with_clip.counters["core0.chain"] = {
            "clip_filter_accesses": 10_000,
            "clip_predictor_accesses": 10_000,
            "clip_utility_cam_accesses": 5_000}
        overhead = dynamic_energy(with_clip).total_mj - base.total_mj
        assert 0 < overhead < 0.05 * base.total_mj

    def test_counter_driven_when_counters_present(self):
        breakdown = dynamic_energy(self._loaded_result())
        pj = {name: mj * 1e9
              for name, mj in breakdown.components_mj.items()}
        assert pj["L1D"] == pytest.approx(10_500 * 12.0)
        assert pj["L2"] == pytest.approx(2_000 * 35.0)
        assert pj["LLC"] == pytest.approx(800 * 90.0)
        # The NoC is charged per measured flit-hop.
        assert pj["NoC"] == pytest.approx(20_000 * 4.0)
        assert pj["DRAM"] == pytest.approx(
            500 * 15_000.0 + 100 * 15_500.0 + 200 * 9_000.0)

    def test_total_is_sum(self):
        breakdown = dynamic_energy(self._loaded_result())
        assert breakdown.total_mj == pytest.approx(
            sum(breakdown.components_mj.values()))

    def test_fewer_dram_accesses_less_energy(self):
        heavy = self._loaded_result()
        light = self._loaded_result()
        light.counters["dram.ch0"]["reads"] //= 2
        assert dynamic_energy(light).total_mj \
            < dynamic_energy(heavy).total_mj


class TestConfig:
    def test_cache_geometry_validation(self):
        with pytest.raises(ValueError, match="not divisible"):
            CacheConfig(size_kib=48, ways=13)

    def test_num_sets(self):
        config = CacheConfig(size_kib=48, ways=12)
        assert config.num_sets == 64
        assert config.num_lines == 768

    def test_mesh_dim(self):
        assert SystemConfig(num_cores=64).mesh_dim == 8
        assert SystemConfig(num_cores=8).mesh_dim == 3
        assert SystemConfig(num_cores=9).mesh_dim == 3

    def test_validate_rejects_bad_widths(self):
        config = SystemConfig()
        config.core = dataclasses.replace(config.core, retire_width=8,
                                          issue_width=4)
        with pytest.raises(ValueError, match="retire width"):
            config.validate()

    def test_scaled_config_preserves_table3_ratios(self):
        config = scaled_config(num_cores=16, channels=2)
        assert config.num_cores == 16
        assert config.dram.channels == 2
        # Table 3 microarchitectural parameters survive scaling.
        assert config.core.rob_entries == 512
        assert config.core.issue_width == 6
        assert config.dram.trp_cycles == 50

    def test_clip_scaled(self):
        """Fig. 18 scales CLIP's tables through ``clip_overrides``: the
        overrides turn CLIP on, double both tables and keep every other
        CLIP knob."""
        def clip(scheme):
            return scheme.build_config(channels=1, num_cores=2,
                                       sim_instructions=500).clip

        plain = clip(Scheme.parse("berti+clip"))
        doubled = dataclasses.replace(plain,
                                      filter_sets=2 * plain.filter_sets,
                                      predictor_sets=2 * plain.predictor_sets)
        assert clip(Scheme.parse("berti", clip_overrides={
            "filter_sets": 2 * plain.filter_sets,
            "predictor_sets": 2 * plain.predictor_sets})) == doubled

    def test_replace_returns_new(self):
        config = SystemConfig()
        other = config.replace(num_cores=8)
        assert other.num_cores == 8 and config.num_cores == 64
