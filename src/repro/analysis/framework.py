"""AST-walking lint framework for simulator discipline.

The framework is two-phase:

1. a *project* pass (:class:`ProjectIndex`) collects cross-file facts --
   e.g. every counter attribute registered by a ``*Stats``/``*Result``
   class -- before any rule fires;
2. a *check* pass walks every file's AST once, maintaining scope and loop
   context (:class:`LintContext`), and fans each node out to the
   registered rules.

Rules (see :mod:`repro.analysis.rules`) are small classes with an ``id``,
a one-line ``summary``, and a ``visit`` hook yielding
:class:`Violation` objects.  Violations carry a line-number-independent
*fingerprint* (``path::scope``), which the JSON and SARIF outputs
report so code-scanning tools can track a finding while unrelated
edits move it around the file.

Inline escapes, the one way to silence a finding: a line whose comment
carries ``# sim-lint: ignore`` suppresses every rule on that line;
``# sim-lint: ignore[SIM001]`` suppresses one rule.  Only a real comment
counts, never the same text inside a string.
"""

from __future__ import annotations

import ast
import functools
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.analysis.callgraph import CallGraph

_IGNORE_RE = re.compile(r"#\s*sim-lint:\s*ignore(?:\[([A-Z0-9, ]+)\])?")

#: The ``time`` module's wall-clock functions (SIM007, SIM011).
WALLCLOCK_TIME_FUNCS = frozenset({
    "time", "monotonic", "perf_counter", "process_time", "monotonic_ns",
    "time_ns", "perf_counter_ns"})

#: AST nodes that open a new naming scope.
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass(frozen=True)
class Violation:
    """One finding of one rule."""

    rule_id: str
    message: str
    path: str
    line: int
    column: int
    scope: str

    @property
    def fingerprint(self) -> str:
        """Line-number-independent identity (``path::scope``) that the
        JSON and SARIF outputs carry."""
        return f"{self.path}::{self.scope or '<module>'}"

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.column}: "
                f"{self.rule_id} {self.message}")


#: Annotation substrings marking an attribute as set-typed.
_SET_ANNOTATION_RE = re.compile(r"\b(Set|FrozenSet|set|frozenset)\b")


class ProjectIndex:
    """Cross-file facts every rule may consult during the check pass."""

    def __init__(self) -> None:
        #: Counter attributes registered by any ``*Stats``/``*Result``
        #: class: assignments to ``self.X`` in ``__init__`` plus dataclass
        #: field annotations.
        self.stats_counters: Set[str] = set()
        #: Names of the stats-style classes themselves.
        self.stats_classes: Set[str] = set()
        #: Attribute names with set provenance anywhere in the project
        #: (assigned from a set literal/constructor/comprehension or
        #: annotated ``Set[...]``): iterating them is unordered.
        self.set_attributes: Set[str] = set()
        #: Every collected module, for the whole-program passes.
        self.modules: List[Tuple[str, ast.Module]] = []
        #: Project call graph; built by :meth:`finalize` once every
        #: module has been collected.  ``None`` until then -- rules
        #: treat that conservatively.
        self.callgraph: Optional["CallGraph"] = None

    def finalize(self) -> None:
        """Build the cross-file structures (call graph) over every
        module :meth:`collect` has seen so far."""
        from repro.analysis.callgraph import build_callgraph
        self.callgraph = build_callgraph(self.modules)

    def collect(self, tree: ast.Module, path: str = "<unknown>") -> None:
        self.modules.append((path, tree))
        self._collect_set_attributes(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not (node.name.endswith("Stats")
                    or node.name.endswith("Result")):
                continue
            self.stats_classes.add(node.name)
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(
                        item.target, ast.Name):
                    # Dataclass-style field.
                    self.stats_counters.add(item.target.id)
                elif (isinstance(item, ast.FunctionDef)
                      and item.name == "__init__"):
                    for stmt in ast.walk(item):
                        if isinstance(stmt, ast.Assign):
                            for target in stmt.targets:
                                if (isinstance(target, ast.Attribute)
                                        and isinstance(target.value,
                                                       ast.Name)
                                        and target.value.id == "self"):
                                    self.stats_counters.add(target.attr)

    def _collect_set_attributes(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                if not _is_set_expr(node.value):
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        self.set_attributes.add(target.attr)
            elif isinstance(node, ast.AnnAssign):
                annotated_set = _SET_ANNOTATION_RE.search(
                    ast.unparse(node.annotation)) is not None
                value_set = (node.value is not None
                             and _is_set_expr(node.value))
                if not (annotated_set or value_set):
                    continue
                if isinstance(node.target, ast.Attribute):
                    self.set_attributes.add(node.target.attr)
                elif (isinstance(node.target, ast.Name)
                      and isinstance(node, ast.AnnAssign)):
                    # Class-body field annotation (dataclass style).
                    self.set_attributes.add(node.target.id)


def _is_set_expr(value: ast.expr) -> bool:
    """Does ``value`` evaluate to a (frozen)set?"""
    if isinstance(value, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("set", "frozenset"))


class LintContext:
    """Per-file state the walker maintains for the rules."""

    def __init__(self, path: str, tree: ast.Module, source: str,
                 project: ProjectIndex) -> None:
        self.path = path
        self.tree = tree
        self.source = source
        self.project = project
        self.scope_stack: List[str] = []
        #: Loop-variable names of ``for`` loops enclosing the current node
        #: *within the current function scope* (reset on scope entry).
        self.loop_vars: List[Set[str]] = []
        #: Names bound to the ``random`` module in this file.
        self.random_modules: Set[str] = set()
        #: Names bound to the ``numpy`` module (``numpy``, ``np``).
        self.numpy_modules: Set[str] = set()
        #: Module-level RNG functions imported directly
        #: (``from random import randrange``): local name -> origin.
        self.random_functions: Dict[str, str] = {}
        #: Names bound to ``time``/``datetime`` modules.
        self.time_modules: Set[str] = set()
        self.datetime_modules: Set[str] = set()
        #: Wall-clock functions imported directly: local name -> origin.
        self.time_functions: Dict[str, str] = {}

    @property
    def scope(self) -> str:
        return ".".join(self.scope_stack)

    def active_loop_vars(self) -> Set[str]:
        merged: Set[str] = set()
        for names in self.loop_vars:
            merged |= names
        return merged

    @functools.cached_property
    def comments(self) -> Dict[int, str]:
        """Line number -> the comment on that line, tokenized once, on
        the first finding in this file."""
        tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
        return {token.start[0]: token.string for token in tokens
                if token.type == tokenize.COMMENT}

    def is_ignored(self, line: int, rule_id: str) -> bool:
        match = _IGNORE_RE.search(self.comments.get(line, ""))
        if match is None:
            return False
        listed = match.group(1)
        if listed is None:
            return True
        return rule_id in {part.strip() for part in listed.split(",")}


class Rule:
    """Base class for one lint pass."""

    #: Stable identifier, e.g. ``"SIM001"``.
    id: str = "SIM000"
    #: Short kebab-ish name used in listings.
    name: str = "unnamed"
    #: One-line description shown by ``--list-rules``.
    summary: str = ""

    def prepare(self, ctx: LintContext) -> None:
        """Per-file pre-pass hook (imports have been indexed already)."""

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Violation]:
        """Yield violations for ``node``; called for every AST node."""
        return iter(())

    def violation(self, ctx: LintContext, node: ast.AST,
                  message: str) -> Violation:
        return Violation(rule_id=self.id, message=message, path=ctx.path,
                         line=getattr(node, "lineno", 0),
                         column=getattr(node, "col_offset", 0),
                         scope=ctx.scope)


def _index_imports(ctx: LintContext) -> None:
    """Record which local names refer to RNG / wall-clock modules."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                if alias.name == "random":
                    ctx.random_modules.add(local)
                elif alias.name in ("numpy", "numpy.random"):
                    ctx.numpy_modules.add(local)
                elif alias.name == "time":
                    ctx.time_modules.add(local)
                elif alias.name == "datetime":
                    ctx.datetime_modules.add(local)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                for alias in node.names:
                    if alias.name != "Random":
                        ctx.random_functions[alias.asname or alias.name] = (
                            f"random.{alias.name}")
            elif node.module in ("numpy", "numpy.random"):
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module == "numpy" and alias.name == "random":
                        ctx.numpy_modules.add(local)
                    elif node.module == "numpy.random":
                        ctx.random_functions[local] = (
                            f"numpy.random.{alias.name}")
            elif node.module == "time":
                for alias in node.names:
                    if alias.name in WALLCLOCK_TIME_FUNCS:
                        ctx.time_functions[alias.asname or alias.name] = (
                            f"time.{alias.name}")
            elif node.module == "datetime":
                for alias in node.names:
                    if alias.name == "datetime":
                        ctx.datetime_modules.add(alias.asname or alias.name)


class _Walker:
    """Single AST walk maintaining scope/loop context for all rules."""

    def __init__(self, rules: Sequence[Rule], ctx: LintContext) -> None:
        self.rules = rules
        self.ctx = ctx
        self.violations: List[Violation] = []

    def run(self) -> List[Violation]:
        _index_imports(self.ctx)
        for rule in self.rules:
            rule.prepare(self.ctx)
        self._walk(self.ctx.tree)
        return self.violations

    def _dispatch(self, node: ast.AST) -> None:
        ctx = self.ctx
        for rule in self.rules:
            for violation in rule.visit(node, ctx):
                if not ctx.is_ignored(violation.line, rule.id):
                    self.violations.append(violation)

    def _walk(self, node: ast.AST) -> None:
        self._dispatch(node)
        if isinstance(node, _SCOPE_NODES):
            self.ctx.scope_stack.append(node.name)
            # A nested scope captures by reference, not by iteration --
            # loop variables of *enclosing* functions stay interesting to
            # the capture rule, but a fresh function restarts tracking of
            # its own loops; push a frame boundary only for functions.
            for child in ast.iter_child_nodes(node):
                self._walk(child)
            self.ctx.scope_stack.pop()
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            names = {n.id for n in ast.walk(node.target)
                     if isinstance(n, ast.Name)}
            self.ctx.loop_vars.append(names)
            for child in ast.iter_child_nodes(node):
                self._walk(child)
            self.ctx.loop_vars.pop()
        else:
            for child in ast.iter_child_nodes(node):
                self._walk(child)


def lint_tree(path: str, tree: ast.Module, source: str,
              rules: Sequence[Rule],
              project: Optional[ProjectIndex] = None) -> List[Violation]:
    """Run ``rules`` over one parsed module."""
    if project is None:
        project = ProjectIndex()
        project.collect(tree, path)
        project.finalize()
    ctx = LintContext(path, tree, source, project)
    return _Walker(rules, ctx).run()


def lint_source(source: str, rules: Sequence[Rule],
                path: str = "<string>",
                project: Optional[ProjectIndex] = None) -> List[Violation]:
    """Convenience entry point used heavily by the rule unit tests."""
    tree = ast.parse(source)
    return lint_tree(path, tree, source, rules, project)


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            out.update(p for p in path.rglob("*.py"))
        elif path.suffix == ".py":
            out.add(path)
    return sorted(out)
