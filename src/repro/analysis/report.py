"""Rendering of lint results: text, JSON, GitHub annotations, SARIF."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.framework import Violation
from repro.analysis.rules import ALL_RULES


@dataclass
class LintReport:
    """Outcome of one lint run; inline-ignored findings never reach it."""

    checked_files: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.rule_id] = counts.get(violation.rule_id, 0) + 1
        return counts


def render_text(report: LintReport) -> str:
    lines: List[str] = []
    for violation in sorted(report.violations,
                            key=lambda v: (v.path, v.line, v.rule_id)):
        lines.append(violation.format())
    counts = report.counts_by_rule()
    if counts:
        summary = ", ".join(f"{rule}: {n}"
                            for rule, n in sorted(counts.items()))
        lines.append("")
        lines.append(
            f"{len(report.violations)} violation(s) in "
            f"{report.checked_files} file(s) ({summary})")
    else:
        lines.append(f"OK: {report.checked_files} file(s) clean")
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    payload = {
        "ok": report.ok,
        "checked_files": report.checked_files,
        "counts": report.counts_by_rule(),
        "violations": [
            {
                "rule": v.rule_id,
                "message": v.message,
                "path": v.path,
                "line": v.line,
                "column": v.column,
                "scope": v.scope,
                "fingerprint": v.fingerprint,
            }
            for v in sorted(report.violations,
                            key=lambda v: (v.path, v.line, v.rule_id))
        ],
    }
    return json.dumps(payload, indent=2)


def render_github(report: LintReport) -> str:
    """GitHub Actions workflow-command annotations.

    One ``::error`` line per violation (rendered inline on the PR
    diff), followed by the human summary as plain text.
    """

    def escape(text: str) -> str:
        # Workflow-command data: %, CR and LF must be URL-style escaped.
        return (text.replace("%", "%25").replace("\r", "%0D")
                .replace("\n", "%0A"))

    lines: List[str] = []
    for v in sorted(report.violations,
                    key=lambda v: (v.path, v.line, v.rule_id)):
        lines.append(
            f"::error file={v.path},line={v.line},col={v.column + 1},"
            f"title={v.rule_id}::{escape(v.message)}")
    lines.append(
        f"{len(report.violations)} violation(s) in "
        f"{report.checked_files} file(s)")
    return "\n".join(lines)


_SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/"
                 "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")


def render_sarif(report: LintReport) -> str:
    """SARIF 2.1.0 for GitHub code-scanning / artifact upload: one
    ``error`` result per violation."""

    def result(v: Violation) -> Dict:
        return {
            "ruleId": v.rule_id,
            "level": "error",
            "message": {"text": v.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": v.path},
                    "region": {"startLine": max(v.line, 1),
                               "startColumn": v.column + 1},
                },
            }],
            "partialFingerprints": {"simLint/v1": v.fingerprint},
        }

    fired = {v.rule_id for v in report.violations}
    payload = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-sim-lint",
                    "informationUri": ("https://example.invalid/repro/"
                                       "docs/static_analysis.md"),
                    "rules": [
                        {
                            "id": rule.id,
                            "name": rule.name,
                            "shortDescription": {"text": rule.summary},
                        }
                        for rule in ALL_RULES if rule.id in fired
                    ],
                },
            },
            "results": [result(v) for v in sorted(
                report.violations,
                key=lambda v: (v.path, v.line, v.rule_id))],
        }],
    }
    return json.dumps(payload, indent=2)


def render_rule_catalogue() -> str:
    """The ``--list-rules`` output."""
    lines = []
    for rule in ALL_RULES:
        lines.append(f"{rule.id}  {rule.name:<24} {rule.summary}")
    return "\n".join(lines)
