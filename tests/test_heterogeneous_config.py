"""Heterogeneous (big/little) configuration: per-core override merging,
validation, DVFS scaling, and result round-trips.
"""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro.config import (CoreConfig, SystemConfig, big_little_overrides,
                          little_core, scaled_config)
from repro.experiments.sweep import RunSpec, Scheme
from repro.sim.stats import SimulationResult
from repro.sim.system import MulticoreSystem, run_system

MIX4 = ["605.mcf_s-1536B", "bfs-14", "619.lbm_s-2676B", "cloud9"]


class TestOverrideMerging:
    def test_core_for_prefers_override(self):
        config = SystemConfig(num_cores=4)
        config.core_overrides = {2: little_core()}
        assert config.core_for(2).issue_width == 3
        for core_id in (0, 1, 3):
            assert config.core_for(core_id) is config.core

    def test_big_little_split(self):
        overrides = big_little_overrides(8, big_cores=3)
        assert sorted(overrides) == [3, 4, 5, 6, 7]
        assert all(core.rob_entries == 128
                   for core in overrides.values())

    def test_big_little_bounds(self):
        assert big_little_overrides(4, 4) == {}
        with pytest.raises(ValueError, match="big_cores"):
            big_little_overrides(4, 5)
        with pytest.raises(ValueError, match="big_cores"):
            big_little_overrides(4, -1)

    def test_little_core_preset(self):
        little = little_core()
        big = CoreConfig()
        assert little.issue_width < big.issue_width
        assert little.rob_entries < big.rob_entries
        assert little.retire_width <= little.issue_width


class TestValidation:
    def test_override_id_out_of_range(self):
        config = SystemConfig(num_cores=4)
        config.core_overrides = {4: little_core()}
        with pytest.raises(ValueError, match="outside"):
            config.validate()

    def test_per_core_retire_width(self):
        config = SystemConfig(num_cores=4)
        bad = dataclasses.replace(little_core(), retire_width=5,
                                  issue_width=3)
        config.core_overrides = {1: bad}
        with pytest.raises(ValueError, match="core 1: retire width"):
            config.validate()

    def test_frequency_must_be_uniform(self):
        config = SystemConfig(num_cores=4)
        config.core_overrides = {1: little_core(frequency_ghz=3.0)}
        with pytest.raises(ValueError, match="frequencies must match"):
            config.validate()


class TestAtFrequency:
    def test_scales_uncore_latencies(self):
        config = SystemConfig()
        slow = config.at_frequency(2.0)
        assert slow.core.frequency_ghz == 2.0
        # Fixed-nanosecond DRAM timing costs half the core cycles at
        # half the clock.
        assert slow.dram.cas_cycles == config.dram.cas_cycles // 2
        assert slow.dram.burst_cycles == config.dram.burst_cycles // 2
        # Latencies never drop below one cycle.
        assert slow.noc.link_latency >= 1
        # The original is untouched.
        assert config.core.frequency_ghz == 4.0

    def test_scales_override_frequencies(self):
        config = SystemConfig(num_cores=4)
        config.core_overrides = big_little_overrides(4, 2)
        scaled = config.at_frequency(3.0)
        scaled.validate()
        assert all(core.frequency_ghz == 3.0
                   for core in scaled.core_overrides.values())
        # Microarchitectural shape survives re-clocking.
        assert scaled.core_overrides[3].issue_width == 3

    def test_rejects_nonpositive(self):
        """``at_frequency`` does not check its argument; the gate
        rejects the config it returns, naming the field."""
        config = scaled_config(num_cores=2, channels=1).at_frequency(0.0)
        with pytest.raises(ValueError, match=re.escape(
                "core.frequency_ghz must be positive, got 0.0")):
            MulticoreSystem(config, MIX4[:2])


class TestHeterogeneousSimulation:
    def _hetero_config(self):
        config = scaled_config(num_cores=4, channels=1,
                               sim_instructions=2_000)
        config.core_overrides = big_little_overrides(4, big_cores=2)
        config.validate()
        return config

    def test_little_cores_retire_slower(self):
        """Same workload on a big and a little core: the 3-wide,
        128-entry-ROB little core must not outrun the big one."""
        config = self._hetero_config()
        mix = ["605.mcf_s-1536B"] * 4
        result = run_system(config, mix)
        big_ipc = result.cores[0].ipc
        little_ipc = result.cores[2].ipc
        assert little_ipc <= big_ipc

    def test_per_core_results_roundtrip(self):
        config = self._hetero_config()
        result = run_system(config, MIX4)
        rebuilt = SimulationResult.from_dict(result.to_dict())
        assert rebuilt.to_dict() == result.to_dict()
        assert [core.ipc for core in rebuilt.cores] \
            == [core.ipc for core in result.cores]

    def test_scheme_big_cores_builds_overrides(self):
        scheme = Scheme(l1="berti", big_cores=2)
        config = scheme.build_config(1, 4, 2_000)
        assert sorted(config.core_overrides) == [2, 3]
        baseline = scheme.baseline()
        assert baseline.big_cores == 2 and baseline.l1 == "none"

    def test_scheme_frequency_builds_scaled_config(self):
        scheme = Scheme(l1="berti", frequency_ghz=2.0)
        config = scheme.build_config(1, 4, 2_000)
        assert config.core.frequency_ghz == 2.0
        assert config.dram.cas_cycles == 25
        assert scheme.baseline().frequency_ghz == 2.0

    def test_cache_key_distinguishes_core_mixes(self):
        plain = RunSpec(scheme=Scheme(l1="berti"), mix=tuple(MIX4),
                        channels=1, num_cores=4, sim_instructions=2_000)
        hetero = RunSpec(scheme=Scheme(l1="berti", big_cores=2),
                         mix=tuple(MIX4), channels=1, num_cores=4,
                         sim_instructions=2_000)
        clocked = RunSpec(scheme=Scheme(l1="berti", frequency_ghz=3.0),
                          mix=tuple(MIX4), channels=1, num_cores=4,
                          sim_instructions=2_000)
        keys = {plain.cache_key(), hetero.cache_key(),
                clocked.cache_key()}
        assert len(keys) == 3
