"""Lint driver: file collection, project pass, CLI.

Entry points:

* ``python -m repro.analysis`` (see :mod:`repro.analysis.__main__`);
* ``repro lint`` (see :mod:`repro.cli`), which hands its arguments to
  :func:`main` unchanged;
* :func:`run_lint` for programmatic use (tests, CI glue).

Exit status is 0 when no violation is reported, 1 otherwise -- the
contract CI relies on.  A sanctioned line is silenced where it stands,
with an inline ``# sim-lint: ignore[SIMxxx]`` comment.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.framework import (ProjectIndex, iter_python_files,
                                      lint_tree)
from repro.analysis.report import (LintReport, render_github, render_json,
                                   render_rule_catalogue, render_sarif,
                                   render_text)
from repro.analysis.rules import default_rules


def _default_paths() -> List[Path]:
    """``src/repro`` under the current directory, else the package dir."""
    candidate = Path("src") / "repro"
    if candidate.is_dir():
        return [candidate]
    import repro
    return [Path(repro.__file__).resolve().parent]


def _display_path(path: Path, root: Path) -> str:
    """Stable display path: root-relative POSIX when possible."""
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def run_lint(paths: Optional[Sequence[Path]] = None,
             root: Optional[Path] = None) -> LintReport:
    """Lint ``paths`` (defaults to ``src/repro``)."""
    root = root or Path.cwd()
    targets = list(paths) if paths else _default_paths()
    for target in targets:
        if not target.exists():
            raise SystemExit(f"no such file or directory: {target}")
    files = iter_python_files(targets)
    rules = default_rules()
    report = LintReport()
    project = ProjectIndex()
    parsed = []
    for path in files:
        source = path.read_text()
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            raise SystemExit(f"cannot parse {path}: {exc}") from exc
        display = _display_path(path, root)
        project.collect(tree, display)
        parsed.append((display, tree, source))
    # Cross-file structures (call graph) need every module collected
    # before any whole-program rule fires.
    project.finalize()
    for display, tree, source in parsed:
        report.violations.extend(
            lint_tree(display, tree, source, rules, project))
    report.checked_files = len(parsed)
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Simulator-discipline static analysis for src/repro")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files/directories to lint "
                             "(default: src/repro)")
    parser.add_argument("--format",
                        choices=["text", "json", "github", "sarif"],
                        default="text",
                        help="output format (github = GitHub Actions "
                             "::error annotations, sarif = SARIF 2.1.0 "
                             "JSON for code-scanning upload)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(render_rule_catalogue())
        return 0
    report = run_lint(args.paths or None)
    if args.format == "json":
        print(render_json(report))
    elif args.format == "github":
        print(render_github(report))
    elif args.format == "sarif":
        print(render_sarif(report))
    else:
        print(render_text(report))
    return 0 if report.ok else 1
