"""Tests for the command-line interface."""

from __future__ import annotations

import asyncio

import pytest

from repro import cli
from repro.cli import FIGURES, TABLES, build_parser, main
from repro.sim.system import run_system


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "605.mcf_s-1536B"
        assert args.scheme == "berti"
        assert not args.dynamic_clip

    def test_figure_choices_cover_all_paper_items(self):
        for fig in range(1, 22):
            if fig in (7, 8):  # design diagrams, not results
                continue
            assert f"fig{fig}" in FIGURES
        assert "table2" in TABLES and "table3" in TABLES

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_rejects_unknown_prefetcher(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["run", "--scheme", "oracle"])
        assert exit_info.value.code == 2
        assert "unknown scheme 'oracle'" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["sweep", "serve", "compare"])
    def test_unknown_scheme_is_a_usage_error(self, verb, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([verb, "--schemes", "berti", "oracle"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"repro {verb}: error: " in err
        assert "unknown scheme 'oracle'" in err


class TestCommands:
    def test_workloads_lists_all(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 67  # 45 SPEC + 12 GAP + 5 CloudSuite + 5 CVP

    def test_figure_table2_prints_storage(self, capsys):
        assert main(["figure", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Criticality filter" in out
        assert "1.564" in out

    def test_run_minimal(self, capsys):
        code = main(["run", "--cores", "2", "--channels", "1",
                     "--instructions", "1000", "--scheme", "none"])
        assert code == 0
        out = capsys.readouterr().out
        assert "aggregate IPC" in out

    def test_run_with_clip_and_baseline(self, capsys):
        code = main(["run", "--cores", "2", "--channels", "1",
                     "--instructions", "1200", "--scheme", "berti+clip",
                     "--baseline"])
        assert code == 0
        out = capsys.readouterr().out
        assert "CLIP" in out
        assert "weighted speedup" in out

    def test_table_figure_command(self, capsys):
        assert main(["figure", "table3"]) == 0
        assert "baseline system parameters" in capsys.readouterr().out

    def test_characterize_command(self, capsys):
        assert main(["characterize", "--workload", "619.lbm_s-2676B",
                     "--instructions", "2000"]) == 0
        out = capsys.readouterr().out
        assert "load ratio" in out and "619.lbm" in out

    def test_markdown_report_flag(self, tmp_path, capsys):
        path = tmp_path / "report.md"
        assert main(["run", "--cores", "2", "--instructions", "1200",
                     "--scheme", "berti+clip", "--markdown-report",
                     str(path)]) == 0
        text = path.read_text()
        assert text.startswith("# ")
        assert "## CLIP" in text

    def test_compare_command(self, capsys):
        assert main(["compare", "--cores", "2", "--instructions", "1200",
                     "--schemes", "none", "berti"]) == 0
        out = capsys.readouterr().out
        assert "weighted_speedup" in out and "| berti |" in out

    def test_run_with_tlb_flag(self, capsys):
        assert main(["run", "--cores", "2", "--instructions", "1000",
                     "--scheme", "none", "--tlb"]) == 0
        assert "aggregate IPC" in capsys.readouterr().out

    def test_run_baseline_keeps_tlb_and_sanitizer(self, monkeypatch,
                                                  capsys):
        """``--baseline`` runs the scheme's baseline on the same
        machine: with the TLB and the sanitizer on, ``none`` against
        its own baseline reads exactly 1."""
        configs = []

        def recording(config, workloads, label=""):
            configs.append(config)
            return run_system(config, workloads, label=label)

        monkeypatch.setattr(cli, "run_system", recording)
        assert main(["run", "--cores", "2", "--instructions", "800",
                     "--scheme", "none", "--tlb", "--sanitize",
                     "--baseline"]) == 0
        [baseline] = configs
        assert baseline.tlb.enabled and baseline.sanitize
        assert baseline.l1_prefetcher.name == "none"
        assert "weighted speedup vs no-prefetching: 1.000" in \
            capsys.readouterr().out


class TestSweepCommand:
    ARGS = ["sweep", "--schemes", "berti", "berti+clip",
            "--workloads", "605.mcf_s-1536B", "--channels", "1", "2",
            "--cores", "2", "--instructions", "1200"]

    def test_cold_then_warm(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main(self.ARGS + cache + ["--jobs", "2"]) == 0
        cold = capsys.readouterr().out
        assert "weighted speedup" in cold
        assert "simulated 6 point(s)" in cold  # 2x2 grid + 2 baselines
        assert main(self.ARGS + cache) == 0
        warm = capsys.readouterr().out
        assert "simulated 0 point(s)" in warm
        assert "6 of 6 served from the disk cache" in warm
        # Identical numbers whether simulated (in parallel) or replayed.
        table = [line for line in cold.splitlines() if "berti" in line]
        assert table == [line for line in warm.splitlines()
                         if "berti" in line]

    def test_no_cache_always_simulates(self, tmp_path, capsys):
        assert main(self.ARGS + ["--no-cache"]) == 0
        assert "simulated 6 point(s)" in capsys.readouterr().out

    def test_csv_export(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        assert main(self.ARGS + ["--no-cache", "--csv", str(path)]) == 0
        header = path.read_text().splitlines()[0]
        assert header.startswith("channels,")
        assert "berti+clip" in header


class TestServeCommand:
    ARGS = ["serve", "--schemes", "berti", "--workloads", "605.mcf_s-1536B",
            "--channels", "1", "--cores", "2", "--instructions", "800"]

    @pytest.fixture(autouse=True)
    def refuse_to_bind(self, monkeypatch):
        """Each case must stop before the coordinator binds a port."""
        def refuse(*args, **kwargs):
            raise AssertionError("bound a port")
        monkeypatch.setattr(asyncio, "start_server", refuse)

    def test_no_cache_is_a_usage_error(self, tmp_path, capsys):
        """A campaign keeps its results only in its store."""
        with pytest.raises(SystemExit) as exit_info:
            main(self.ARGS + ["--cache-dir", str(tmp_path / "cache"),
                              "--no-cache"])
        assert exit_info.value.code == 2
        assert "--no-cache" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value, field", [
        ("--lease-timeout", "0", "lease_timeout"),
        ("--lease-timeout", "-1", "lease_timeout"),
        ("--max-attempts", "0", "max_attempts"),
        ("--workers", "-1", "workers"),
    ])
    def test_bad_value_is_a_usage_error(self, tmp_path, capsys, option,
                                        value, field):
        code = main(self.ARGS + ["--cache-dir", str(tmp_path / "cache"),
                                 option, value])
        assert code == 2
        assert f"repro serve: error: {field} must be" in \
            capsys.readouterr().err
