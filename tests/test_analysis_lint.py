"""Unit tests for the repro.analysis lint passes.

Every rule gets a positive fixture (a violating snippet it must flag)
and a negative fixture (a compliant snippet it must not flag), plus
tests for inline ignores, output formats, and the repo-level gate
itself.
"""

from __future__ import annotations

import json
import shutil
import textwrap
import tokenize
from pathlib import Path

import pytest

from repro.analysis.framework import _IGNORE_RE, ProjectIndex, lint_source
from repro.analysis.lint import main as lint_main
from repro.analysis.lint import run_lint
from repro.analysis.rules import (BareAssertRule, FloatCycleArithmeticRule,
                                  LoopVariableCaptureRule,
                                  MutableDefaultArgRule, PortBypassRule,
                                  UnregisteredCounterRule,
                                  UnseededRandomRule, WallClockRule,
                                  default_rules)

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint(source: str, rule, project: ProjectIndex | None = None):
    return lint_source(textwrap.dedent(source), [rule], project=project)


# ----------------------------------------------------------------------
# SIM001 unseeded-rng
# ----------------------------------------------------------------------

class TestUnseededRandom:
    def test_module_level_random_call_fires(self):
        violations = lint("""
            import random

            def jitter():
                return random.randrange(16)
            """, UnseededRandomRule())
        assert [v.rule_id for v in violations] == ["SIM001"]
        assert "randrange" in violations[0].message

    def test_from_import_fires(self):
        violations = lint("""
            from random import choice

            def pick(pool):
                return choice(pool)
            """, UnseededRandomRule())
        assert len(violations) == 1

    def test_unseeded_random_instance_fires(self):
        violations = lint("""
            import random

            rng = random.Random()
            """, UnseededRandomRule())
        assert len(violations) == 1
        assert "seed" in violations[0].message

    def test_numpy_global_rng_fires(self):
        violations = lint("""
            import numpy as np

            def noise(n):
                return np.random.rand(n)
            """, UnseededRandomRule())
        assert len(violations) == 1

    def test_seeded_instance_clean(self):
        violations = lint("""
            import random

            def generate(seed):
                rng = random.Random(seed)
                return [rng.randrange(8) for _ in range(4)]
            """, UnseededRandomRule())
        assert violations == []

    def test_seeded_default_rng_clean(self):
        violations = lint("""
            import numpy as np

            def generator(seed):
                return np.random.default_rng(seed)
            """, UnseededRandomRule())
        assert violations == []


# ----------------------------------------------------------------------
# SIM002 float-cycle-arithmetic
# ----------------------------------------------------------------------

class TestFloatCycleArithmetic:
    def test_float_literal_on_cycle_fires(self):
        violations = lint("""
            def advance(self, cycle):
                self.ready_at = cycle * 1.5
            """, FloatCycleArithmeticRule())
        assert [v.rule_id for v in violations] == ["SIM002"]

    def test_true_division_fires(self):
        violations = lint("""
            def midpoint(a, b):
                cycle = (a + b) / 2
                return cycle
            """, FloatCycleArithmeticRule())
        assert len(violations) == 1
        assert "division" in violations[0].message

    def test_float_cast_fires(self):
        violations = lint("""
            def worst_case():
                deadline = float("inf")
                return deadline
            """, FloatCycleArithmeticRule())
        assert len(violations) == 1

    def test_integer_math_clean(self):
        violations = lint("""
            def advance(self, cycle, latency):
                self.ready_at = cycle + latency
                done = (cycle + latency) // 2
                return done
            """, FloatCycleArithmeticRule())
        assert violations == []

    def test_next_wake_exempt(self):
        violations = lint("""
            INFINITY = float("inf")

            class Core:
                def _update_next_wake(self, cycle):
                    wake_cycle = float("inf")
                    self.next_wake = min(wake_cycle, cycle + 1.0)

                def park(self):
                    self.next_wake = float("inf")
            """, FloatCycleArithmeticRule())
        assert violations == []

    def test_non_cycle_floats_clean(self):
        violations = lint("""
            def utilization(busy, elapsed):
                ratio = busy / elapsed
                return min(1.0, ratio)
            """, FloatCycleArithmeticRule())
        assert violations == []


# ----------------------------------------------------------------------
# SIM003 mutable-default-arg
# ----------------------------------------------------------------------

class TestMutableDefaultArg:
    def test_list_default_fires(self):
        violations = lint("""
            def collect(item, acc=[]):
                acc.append(item)
                return acc
            """, MutableDefaultArgRule())
        assert [v.rule_id for v in violations] == ["SIM003"]

    def test_dict_and_call_defaults_fire(self):
        violations = lint("""
            def route(table={}, queue=list()):
                return table, queue
            """, MutableDefaultArgRule())
        assert len(violations) == 2

    def test_kwonly_default_fires(self):
        violations = lint("""
            def run(*, hooks=[]):
                return hooks
            """, MutableDefaultArgRule())
        assert len(violations) == 1

    def test_none_default_clean(self):
        violations = lint("""
            def collect(item, acc=None):
                if acc is None:
                    acc = []
                acc.append(item)
                return acc
            """, MutableDefaultArgRule())
        assert violations == []

    def test_immutable_defaults_clean(self):
        violations = lint("""
            def f(a=1, b="x", c=(), d=None, e=frozenset()):
                return a, b, c, d, e
            """, MutableDefaultArgRule())
        assert violations == []


# ----------------------------------------------------------------------
# SIM004 loop-variable-capture
# ----------------------------------------------------------------------

class TestLoopVariableCapture:
    def test_lambda_in_loop_fires(self):
        violations = lint("""
            def drain(engine, requests):
                for req in requests:
                    engine.schedule(10, lambda: req.complete())
            """, LoopVariableCaptureRule())
        assert [v.rule_id for v in violations] == ["SIM004"]
        assert "req" in violations[0].message

    def test_nested_def_in_loop_fires(self):
        violations = lint("""
            def wire(cores):
                hooks = []
                for core in cores:
                    def hook():
                        return core.tick()
                    hooks.append(hook)
                return hooks
            """, LoopVariableCaptureRule())
        assert len(violations) == 1

    def test_default_bound_lambda_clean(self):
        violations = lint("""
            def drain(engine, requests):
                for req in requests:
                    engine.schedule(10, lambda req=req: req.complete())
            """, LoopVariableCaptureRule())
        assert violations == []

    def test_lambda_outside_loop_clean(self):
        violations = lint("""
            def wire(engine, req):
                engine.schedule(10, lambda: req.complete())
                for other in ():
                    other.touch()
            """, LoopVariableCaptureRule())
        assert violations == []

    def test_lambda_ignoring_loop_var_clean(self):
        violations = lint("""
            def wire(engine, requests, sink):
                for req in requests:
                    engine.schedule(10, lambda: sink.poll())
            """, LoopVariableCaptureRule())
        assert violations == []


# ----------------------------------------------------------------------
# SIM005 unregistered-counter
# ----------------------------------------------------------------------

_STATS_FIXTURE = """
    class LinkStats:
        def __init__(self):
            self.packets = 0
            self.flits = 0

    class Router:
        def __init__(self):
            self.stats = LinkStats()

        def on_packet(self, flits):
            self.stats.packets += 1
            self.stats.flits += flits
    """

_TYPO_FIXTURE = """
    class LinkStats:
        def __init__(self):
            self.packets = 0

    class Router:
        def __init__(self):
            self.stats = LinkStats()

        def on_packet(self):
            self.stats.packtes += 1
    """


class TestUnregisteredCounter:
    def test_typo_counter_fires(self):
        violations = lint(_TYPO_FIXTURE, UnregisteredCounterRule())
        assert [v.rule_id for v in violations] == ["SIM005"]
        assert "packtes" in violations[0].message

    def test_registered_counters_clean(self):
        violations = lint(_STATS_FIXTURE, UnregisteredCounterRule())
        assert violations == []

    def test_dataclass_fields_register(self):
        violations = lint("""
            from dataclasses import dataclass

            @dataclass
            class PrefetchStats:
                issued: int = 0

            def bump(prefetch_stats):
                prefetch_stats.issued += 1
            """, UnregisteredCounterRule())
        assert violations == []

    def test_cross_file_registry(self):
        # Counters registered in one module suppress findings in another.
        import ast as ast_mod
        project = ProjectIndex()
        project.collect(ast_mod.parse(textwrap.dedent("""
            class DramStats:
                def __init__(self):
                    self.row_hits = 0
            """)))
        violations = lint("""
            def bump(channel):
                channel.stats.row_hits += 1
            """, UnregisteredCounterRule(), project=project)
        assert violations == []

    def test_non_stats_attribute_clean(self):
        violations = lint("""
            class AnyStats:
                def __init__(self):
                    self.count = 0

            def bump(node):
                node.buffer.depth += 1
            """, UnregisteredCounterRule())
        assert violations == []


# ----------------------------------------------------------------------
# SIM006 bare-assert
# ----------------------------------------------------------------------

class TestBareAssert:
    def test_assert_fires(self):
        violations = lint("""
            def release(self, line):
                assert line in self.entries
                return self.entries.pop(line)
            """, BareAssertRule())
        assert [v.rule_id for v in violations] == ["SIM006"]

    def test_check_helper_clean(self):
        violations = lint("""
            from repro.analysis.invariants import check

            def release(self, line):
                check(line in self.entries, "phantom release of %x", line)
                return self.entries.pop(line)
            """, BareAssertRule())
        assert violations == []


# ----------------------------------------------------------------------
# SIM007 wall-clock
# ----------------------------------------------------------------------

class TestWallClock:
    def test_time_time_fires(self):
        violations = lint("""
            import time

            def stamp(record):
                record.at = time.time()
            """, WallClockRule())
        assert any(v.rule_id == "SIM007" for v in violations)

    def test_datetime_now_fires(self):
        violations = lint("""
            from datetime import datetime

            def stamp():
                return datetime.now()
            """, WallClockRule())
        assert len(violations) == 1

    def test_perf_counter_from_import_fires(self):
        violations = lint("""
            from time import perf_counter

            def measure():
                return perf_counter()
            """, WallClockRule())
        assert len(violations) == 1

    def test_engine_time_clean(self):
        violations = lint("""
            def stamp(engine, record):
                record.at = engine.now
            """, WallClockRule())
        assert violations == []

    def test_serve_coordinator_is_not_exempt(self):
        violations = lint_source(textwrap.dedent("""
            import time

            def deadline(lease_s):
                return time.monotonic() + lease_s
            """), [WallClockRule()], path="src/repro/serve/coordinator.py")
        assert [v.rule_id for v in violations] == ["SIM007"]


# ----------------------------------------------------------------------
# SIM008 port-bypass
# ----------------------------------------------------------------------

_BYPASS_SNIPPET = textwrap.dedent("""
    class L9Node:
        def request(self, req, cycle):
            self.engine.schedule(cycle + self.latency, self._done)
    """)

_PORT_ROUTED_SNIPPET = textwrap.dedent("""
    class L9Node:
        def request(self, req, cycle):
            self.port.schedule(cycle + self.latency, self._done)
    """)


class TestPortBypass:
    def test_engine_schedule_in_component_fires(self):
        violations = lint_source(
            _BYPASS_SNIPPET, [PortBypassRule()],
            path="src/repro/sim/hierarchy/l9.py")
        assert [v.rule_id for v in violations] == ["SIM008"]
        assert "Port" in violations[0].message

    def test_bare_engine_name_fires(self):
        violations = lint_source(
            textwrap.dedent("""
                def deliver(engine, cycle, thunk):
                    engine.schedule(cycle, thunk)
                """),
            [PortBypassRule()], path="src/repro/sim/hierarchy/l9.py")
        assert len(violations) == 1

    def test_port_schedule_clean(self):
        violations = lint_source(
            _PORT_ROUTED_SNIPPET, [PortBypassRule()],
            path="src/repro/sim/hierarchy/l9.py")
        assert violations == []

    def test_port_module_is_exempt(self):
        violations = lint_source(
            _BYPASS_SNIPPET, [PortBypassRule()],
            path="src/repro/sim/hierarchy/port.py")
        assert violations == []

    def test_outside_hierarchy_clean(self):
        violations = lint_source(
            _BYPASS_SNIPPET, [PortBypassRule()],
            path="src/repro/sim/system.py")
        assert violations == []


# ----------------------------------------------------------------------
# Framework behaviour: ignores, fingerprints
# ----------------------------------------------------------------------

class TestFrameworkBehaviour:
    def test_inline_ignore_specific_rule(self):
        violations = lint("""
            def f():
                assert True  # sim-lint: ignore[SIM006]
            """, BareAssertRule())
        assert violations == []

    def test_inline_ignore_other_rule_still_fires(self):
        violations = lint("""
            def f():
                assert True  # sim-lint: ignore[SIM001]
            """, BareAssertRule())
        assert len(violations) == 1

    def test_blanket_inline_ignore(self):
        violations = lint("""
            def f():
                assert True  # sim-lint: ignore
            """, BareAssertRule())
        assert violations == []

    def test_fingerprint_is_line_independent(self):
        one = lint("""
            def f():
                assert True
            """, BareAssertRule())
        two = lint("""


            def f():
                # comment shifting lines around
                assert True
            """, BareAssertRule())
        assert one[0].fingerprint == two[0].fingerprint
        assert one[0].line != two[0].line

    def test_scope_is_dotted_qualname(self):
        violations = lint("""
            class Cache:
                def fill(self):
                    assert True
            """, BareAssertRule())
        assert violations[0].scope == "Cache.fill"

    def test_all_rules_have_distinct_ids_and_docs(self):
        rules = default_rules()
        ids = [rule.id for rule in rules]
        assert len(set(ids)) == len(ids)
        assert len(ids) >= 6
        for rule in rules:
            assert type(rule).__doc__, f"{rule.id} missing docstring"
            assert rule.summary


# ----------------------------------------------------------------------
# Repo gate + CLI entry points
# ----------------------------------------------------------------------

class TestRepoGate:
    def test_repo_is_clean(self):
        report = run_lint([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
        assert report.checked_files > 50
        messages = [v.format() for v in report.violations]
        assert report.ok, "lint violations:\n" + "\n".join(messages)

    def test_every_inline_ignore_silences_a_live_finding(self, tmp_path):
        # Lint a copy of the package with every ignore comment removed:
        # each rule a comment names must fire on that comment's line
        # (a bare ignore needs some rule to fire there), or the comment
        # is stale.
        copy = tmp_path / "src" / "repro"
        shutil.copytree(REPO_ROOT / "src" / "repro", copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        expected = set()
        for path in sorted(copy.rglob("*.py")):
            display = path.relative_to(tmp_path).as_posix()
            lines = path.read_text().splitlines(keepends=True)
            with path.open() as handle:
                comments = [token for token in
                            tokenize.generate_tokens(handle.readline)
                            if token.type == tokenize.COMMENT]
            for token in comments:
                match = _IGNORE_RE.search(token.string)
                if match is None:
                    continue
                row, column = token.start
                lines[row - 1] = lines[row - 1][:column].rstrip() + "\n"
                named = (match.group(1) or "").split(",")
                expected.update((display, row, rule_id.strip() or None)
                                for rule_id in named)
            path.write_text("".join(lines))
        report = run_lint([copy], root=tmp_path)
        fired = {(v.path, v.line, v.rule_id) for v in report.violations}
        fired |= {(path, line, None) for path, line, _ in fired}
        stale = sorted(expected - fired, key=str)
        assert not stale, f"inline ignores with no finding: {stale}"

    def test_trace_modules_have_no_rng_or_default_findings(self):
        # Satellite check: the workload-generation modules thread seeded
        # random.Random instances; SIM001/SIM003 must stay silent there.
        trace_dir = REPO_ROOT / "src" / "repro" / "trace"
        report = run_lint(
            [trace_dir / "mixes.py", trace_dir / "synthetic.py",
             trace_dir / "workloads.py"],
            root=REPO_ROOT)
        bad = [v for v in report.violations
               if v.rule_id in ("SIM001", "SIM003")]
        assert bad == []

    def test_main_json_output(self, tmp_path, capsys):
        target = tmp_path / "victim.py"
        target.write_text("def f(ac=[]):\n    assert ac\n")
        code = lint_main([str(target), "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert sorted(payload["counts"]) == ["SIM003", "SIM006"]
        assert all(set(v) >= {"rule", "path", "line", "fingerprint"}
                   for v in payload["violations"])

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("SIM001", "SIM002", "SIM003", "SIM004", "SIM005",
                        "SIM006", "SIM007", "SIM008", "SIM009", "SIM010",
                        "SIM011", "SIM012", "SIM013"):
            assert rule_id in out

    def test_cli_lint_subcommand(self, capsys):
        from repro.cli import main as cli_main
        assert cli_main(["lint", "--list-rules"]) == 0
        assert "SIM006" in capsys.readouterr().out

    def test_cli_lint_matches_module_entry_point(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        target = tmp_path / "victim.py"
        target.write_text("def f(ac=[]):\n    assert ac\n")
        for argv in (["--list-rules"], [str(target), "--format", "json"],
                     [str(target)]):
            direct = lint_main(argv), capsys.readouterr()
            assert (cli_main(["lint", *argv]), capsys.readouterr()) == direct

    def test_baseline_option_is_gone(self, capsys):
        from repro.cli import main as cli_main
        for entry, argv in ((cli_main, ["lint", "--baseline", "x"]),
                            (lint_main, ["--baseline", "x"])):
            with pytest.raises(SystemExit) as exc:
                entry(argv)
            assert exc.value.code == 2
            assert "--baseline" in capsys.readouterr().err


class TestRepoGateCli:
    def test_cli_lint_runs_repo_gate(self, capsys, monkeypatch):
        from repro.cli import main as cli_main
        monkeypatch.chdir(REPO_ROOT)
        assert cli_main(["lint"]) == 0
        assert "clean" in capsys.readouterr().out


# ----------------------------------------------------------------------
# GitHub annotations + SARIF output
# ----------------------------------------------------------------------

class TestOutputFormats:
    def _violating_file(self, tmp_path):
        target = tmp_path / "victim.py"
        target.write_text("def f(ac=[]):\n    assert ac\n")
        return target

    def test_github_annotations(self, tmp_path, capsys):
        target = self._violating_file(tmp_path)
        code = lint_main([str(target), "--format", "github"])
        assert code == 1
        out = capsys.readouterr().out
        error_lines = [line for line in out.splitlines()
                       if line.startswith("::error ")]
        assert len(error_lines) == 2
        assert any("title=SIM003" in line for line in error_lines)
        assert any("title=SIM006" in line for line in error_lines)
        first = error_lines[0]
        assert f"file={target.as_posix()}" in first
        assert "line=1" in first

    def test_github_escapes_workflow_metacharacters(self):
        from repro.analysis.framework import Violation
        from repro.analysis.report import LintReport, render_github
        report = LintReport(checked_files=1, violations=[Violation(
            rule_id="SIM006", message="50% of\ncases", path="a.py",
            line=3, column=0, scope="f")])
        out = render_github(report)
        assert "50%25 of%0Acases" in out

    def test_sarif_shape(self, tmp_path, capsys):
        target = self._violating_file(tmp_path)
        code = lint_main([str(target), "--format", "sarif"])
        assert code == 1
        sarif = json.loads(capsys.readouterr().out)
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-sim-lint"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert rule_ids == {"SIM003", "SIM006"}
        assert len(run["results"]) == 2
        result = run["results"][0]
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == target.as_posix()
        assert location["region"]["startLine"] >= 1
        assert "simLint/v1" in result["partialFingerprints"]
        assert "suppressions" not in result

    def test_repo_sarif_is_well_formed(self):
        # The exact artifact CI uploads parses and carries no result.
        from repro.analysis.report import render_sarif
        report = run_lint([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
        sarif = json.loads(render_sarif(report))
        assert sarif["runs"][0]["results"] == []


# ----------------------------------------------------------------------
# Rule-liveness self-test (the script CI runs)
# ----------------------------------------------------------------------

class TestSelftestScript:
    def test_every_rule_fires_on_its_fixture(self):
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable,
             str(REPO_ROOT / "scripts" / "lint_selftest.py")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "self-test OK: all 13 rules fired" in proc.stdout
