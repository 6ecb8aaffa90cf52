"""Whole-program determinism and compilation-readiness passes.

SIM001-SIM008 judge constructs file-locally; the passes here combine
the project :mod:`call graph <repro.analysis.callgraph>` with the
forward :mod:`taint framework <repro.analysis.dataflow>` to answer the
question the golden-equivalence matrix silently depends on: *can this
construct perturb simulation state between two runs of the same
configuration?*

========  ========================  ====================================
ID        Name                      Enforces
========  ========================  ====================================
SIM009    nondet-iteration          no iteration over unordered
                                    collections on sim-state paths
SIM010    rng-outside-trace         RNG construction/use only in
                                    ``repro.trace`` generators
SIM011    entropy-in-sim-state      no wall-clock/``id()``/``hash()``
                                    values influencing sim state
SIM012    unordered-reduction       no ``sum()``-style reductions over
                                    unordered collections
SIM013    compile-readiness         hot-set modules stay free of
                                    dynamic attribute tricks
========  ========================  ====================================

The first three are *gated* on call-graph reachability: the construct
is flagged only inside a function from which engine scheduling, port
replay, or ``*Stats``/``*Result`` writes are reachable, so utility and
reporting code stays lintable without noise.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import function_ref
from repro.analysis.dataflow import (TaintAnalysis, TaintResult, TaintSpec,
                                     walk_excluding_nested)
from repro.analysis.framework import (GLOBAL_RNG_FUNCS,
                                      WALLCLOCK_TIME_FUNCS, LintContext,
                                      Rule, Violation)

#: The simulator's hot layers: the engine, the caches, the hierarchy,
#: the core model and CLIP.  Their classes keep a static attribute
#: layout so slot and inlining work on them stays possible.
COMPILE_HOT_SET = (
    "src/repro/sim/engine.py",
    "src/repro/cache/",
    "src/repro/sim/hierarchy/",
    "src/repro/cpu/",
    "src/repro/core/",
)

#: Path fragment marking the sanctioned home of randomness.
_TRACE_PATH_RE = re.compile(r"(^|/)trace/")

_LISTDIR_ATTRS = {"listdir", "scandir", "iterdir", "glob", "rglob"}
_LISTDIR_NAMES = {"listdir", "scandir", "glob", "iglob"}

_REDUCTION_NAMES = {"sum", "fsum", "fmean", "mean"}
_REDUCTION_ATTRS = {"fsum", "mean", "fmean", "geometric_mean",
                    "harmonic_mean"}


def _scoped_violation(rule: Rule, ctx: LintContext, node: ast.AST,
                      scope: str, message: str) -> Violation:
    """A violation whose fingerprint scope is supplied explicitly.

    The function-granular rules dispatch on ``FunctionDef`` nodes, so
    ``ctx.scope`` still names the *enclosing* scope; fingerprints must
    use the analysed function's own qualname to stay stable.
    """
    return Violation(rule_id=rule.id, message=message, path=ctx.path,
                     line=getattr(node, "lineno", 0),
                     column=getattr(node, "col_offset", 0), scope=scope)


def _function_scope_and_body(
        node: ast.AST,
        ctx: LintContext) -> Optional[Tuple[str, Sequence[ast.stmt]]]:
    """(qualname, body) when ``node`` opens an analysable code body."""
    if isinstance(node, ast.Module):
        return "<module>", node.body
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        qualname = ".".join(list(ctx.scope_stack) + [node.name])
        return qualname, node.body
    return None


def _reaches_sim_state(ctx: LintContext, qualname: str) -> bool:
    """Call-graph gate; unknown graphs answer True (conservative)."""
    graph = ctx.project.callgraph
    if graph is None:
        return True
    scope = [] if qualname == "<module>" else qualname.split(".")
    return graph.reaches_sim_state(function_ref(ctx.path, scope))


class UnorderedProvenanceSpec(TaintSpec):
    """Taints values whose iteration order Python does not define:
    (frozen)sets and unsorted directory listings."""

    def __init__(self, ctx: LintContext) -> None:
        self._set_attributes = ctx.project.set_attributes

    def source(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Attribute):
            if node.attr in self._set_attributes:
                return f"set-typed attribute {node.attr!r}"
            return None
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in ("set", "frozenset"):
                return f"{func.id}(...)"
            if func.id in _LISTDIR_NAMES:
                return f"an unsorted {func.id}(...) listing"
        elif isinstance(func, ast.Attribute):
            if func.attr in _LISTDIR_ATTRS:
                return f"an unsorted .{func.attr}(...) listing"
        return None


class NondeterministicIterationRule(Rule):
    """SIM009: no unordered iteration on a simulation-state path.

    Iterating a ``set`` (or an unsorted ``os.listdir``/``Path.glob``
    listing) yields elements in an order that varies with insertion
    history and ``PYTHONHASHSEED``.  When such a loop feeds
    ``Engine.schedule``, port replay, or a ``*Stats``/``*Result``
    field -- directly or through any function it calls -- two runs of
    the same configuration can diverge, which is exactly the failure
    the golden-equivalence matrix cannot localise.  Taint is tracked
    through assignments, order-preserving conversions (``list``,
    ``tuple``, ``.copy()``, ...) and comprehensions; ``sorted(...)``
    sanitizes.  Functions from which no sim-state sink is reachable in
    the project call graph are exempt.
    """

    id = "SIM009"
    name = "nondet-iteration"
    summary = "iteration over an unordered collection on a sim-state path"

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Violation]:
        scoped = _function_scope_and_body(node, ctx)
        if scoped is None:
            return
        qualname, body = scoped
        if not _reaches_sim_state(ctx, qualname):
            return
        result = TaintAnalysis(UnorderedProvenanceSpec(ctx)).run(body)
        for sub in walk_excluding_nested(body):
            if isinstance(sub, (ast.For, ast.AsyncFor)):
                labels = result.of(sub.iter)
                if labels:
                    yield _scoped_violation(
                        self, ctx, sub, qualname,
                        f"iterates {' / '.join(sorted(labels))} on a "
                        f"path that reaches simulation state; wrap the "
                        f"iterable in sorted(...) for a defined order")
            elif isinstance(sub, (ast.ListComp, ast.SetComp,
                                  ast.GeneratorExp, ast.DictComp)):
                for generator in sub.generators:
                    labels = result.of(generator.iter)
                    if labels:
                        yield _scoped_violation(
                            self, ctx, sub, qualname,
                            f"comprehension iterates "
                            f"{' / '.join(sorted(labels))} on a path "
                            f"that reaches simulation state; wrap the "
                            f"iterable in sorted(...)")
                        break


class RngOutsideTraceRule(Rule):
    """SIM010: randomness lives only in the ``repro.trace`` generators.

    The simulator proper must be a pure function of its configuration;
    only workload *generation* is sanctioned to consume (seeded)
    randomness, because its draws are part of the configuration-keyed
    trace.  Constructing any RNG -- even a seeded ``random.Random`` --
    or calling the process-global RNG inside a function from which
    simulation state is reachable, outside ``repro/trace/``, creates a
    second entropy source the sweep cache keys and golden pins know
    nothing about.  SIM001 already rejects *unseeded* RNGs everywhere;
    this pass additionally rejects well-seeded ones that leak into the
    model.
    """

    id = "SIM010"
    name = "rng-outside-trace"
    summary = "RNG construction/use outside repro.trace on a sim-state path"

    def __init__(self) -> None:
        #: Local names bound to ``random.Random``/``SystemRandom`` via
        #: from-imports (the framework's index deliberately skips
        #: ``Random`` for SIM001; this pass needs it).  Per-file state,
        #: rebuilt by :meth:`prepare`.
        self._rng_classes: Set[str] = set()

    def prepare(self, ctx: LintContext) -> None:
        self._rng_classes = set()
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.ImportFrom)
                    and node.module in ("random", "numpy.random")):
                for alias in node.names:
                    if alias.name in ("Random", "SystemRandom",
                                     "default_rng"):
                        self._rng_classes.add(alias.asname or alias.name)

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Violation]:
        if not isinstance(node, ast.Call):
            return
        if _TRACE_PATH_RE.search(ctx.path):
            return
        described = self._describe_rng(node, ctx)
        if described is None:
            return
        if not _reaches_sim_state(ctx, ctx.scope or "<module>"):
            return
        yield self.violation(
            ctx, node,
            f"{described} on a path that reaches simulation state; "
            f"randomness belongs in the repro.trace generators (pass "
            f"precomputed values into the model instead)")

    def _describe_rng(self, node: ast.Call,
                      ctx: LintContext) -> Optional[str]:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in self._rng_classes:
                return f"RNG construction {func.id}(...)"
            if func.id in ctx.random_functions:
                return (f"module-global RNG call "
                        f"{ctx.random_functions[func.id]!r}")
            return None
        if not isinstance(func, ast.Attribute):
            return None
        base = func.value
        if isinstance(base, ast.Name) and base.id in ctx.random_modules:
            if func.attr in ("Random", "SystemRandom"):
                return f"RNG construction random.{func.attr}(...)"
            if func.attr in GLOBAL_RNG_FUNCS:
                return f"module-global RNG call random.{func.attr}()"
            return None
        if (isinstance(base, ast.Attribute) and base.attr == "random"
                and isinstance(base.value, ast.Name)
                and base.value.id in ctx.numpy_modules
                and func.attr == "default_rng"):
            return "RNG construction numpy.random.default_rng(...)"
        return None


class EntropySpec(TaintSpec):
    """Taints wall-clock reads, ``id()`` results, and ``hash()`` of
    anything that is not a literal (str hashes vary with
    ``PYTHONHASHSEED``; object hashes fall back to ``id``)."""

    propagate_functions = TaintSpec.propagate_functions | frozenset(
        {"int", "abs", "round", "str", "hex"})
    sanitizer_functions = frozenset()

    def __init__(self, ctx: LintContext) -> None:
        self._ctx = ctx

    def source(self, node: ast.expr) -> Optional[str]:
        if not isinstance(node, ast.Call):
            return None
        ctx = self._ctx
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "id":
                return "an id(...) value"
            if func.id == "hash" and not self._literal_args(node):
                return "a hash(...) value"
            if func.id in ctx.time_functions:
                return f"wall-clock {ctx.time_functions[func.id]}()"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        base = func.value
        if (isinstance(base, ast.Name) and base.id in ctx.time_modules
                and func.attr in WALLCLOCK_TIME_FUNCS):
            return f"wall-clock time.{func.attr}()"
        if func.attr in ("now", "utcnow", "today"):
            if (isinstance(base, ast.Name)
                    and base.id in ctx.datetime_modules):
                return f"wall-clock datetime.{func.attr}()"
            if (isinstance(base, ast.Attribute)
                    and base.attr == "datetime"
                    and isinstance(base.value, ast.Name)
                    and base.value.id in ctx.datetime_modules):
                return f"wall-clock datetime.{func.attr}()"
        return None

    @staticmethod
    def _literal_args(node: ast.Call) -> bool:
        def literal(expr: ast.expr) -> bool:
            if isinstance(expr, ast.Constant):
                return True
            if isinstance(expr, ast.Tuple):
                return all(literal(e) for e in expr.elts)
            return False
        return bool(node.args) and all(literal(a) for a in node.args)


class EntropyInSimStateRule(Rule):
    """SIM011: host entropy must not influence simulation state.

    Wall-clock reads, ``id()``-keyed containers, and ``hash()`` of
    non-frozen values all change between runs (ASLR, allocation order,
    ``PYTHONHASHSEED``) while the simulated configuration stays
    identical.  This pass taints those values and flags them flowing
    into state: stored through an attribute, used as a container
    key/index, ordering a sort, or passed to a ``schedule`` call --
    within any function from which simulation state is reachable.
    SIM007 rejects wall-clock *calls* syntactically; this pass catches
    the laundered values and the ``id``/``hash`` family SIM007 cannot
    see.
    """

    id = "SIM011"
    name = "entropy-in-sim-state"
    summary = "wall-clock/id()/hash() value flowing into simulation state"

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Violation]:
        scoped = _function_scope_and_body(node, ctx)
        if scoped is None:
            return
        qualname, body = scoped
        if not _reaches_sim_state(ctx, qualname):
            return
        result = TaintAnalysis(EntropySpec(ctx)).run(body)
        seen: Set[int] = set()
        for sub in walk_excluding_nested(body):
            for finding in self._findings_at(sub, result):
                if id(sub) in seen:
                    break
                seen.add(id(sub))
                yield _scoped_violation(self, ctx, sub, qualname, finding)

    def _findings_at(self, sub: ast.AST,
                     result: TaintResult) -> Iterator[str]:
        if isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (sub.targets if isinstance(sub, ast.Assign)
                       else [sub.target])
            if sub.value is None:
                return
            labels = result.of(sub.value)
            if labels and any(isinstance(t, ast.Attribute)
                              for t in targets):
                yield (f"{' / '.join(sorted(labels))} stored into an "
                       f"attribute; simulation state must derive only "
                       f"from the configuration and engine.now")
        elif isinstance(sub, ast.Subscript):
            labels = result.of(sub.slice)
            if labels:
                yield (f"{' / '.join(sorted(labels))} used as a "
                       f"container key/index; keys must be stable "
                       f"across runs (use an explicit field, not "
                       f"id()/hash())")
        elif isinstance(sub, ast.Call):
            func = sub.func
            if (isinstance(func, ast.Attribute)
                    and func.attr == "schedule"):
                for arg in sub.args:
                    labels = result.of(arg)
                    if labels:
                        yield (f"{' / '.join(sorted(labels))} passed "
                               f"into a schedule(...) call; event "
                               f"timing must be a function of "
                               f"simulated time only")
                        return
            if (isinstance(func, ast.Name)
                    and func.id in ("sorted", "min", "max")) or (
                    isinstance(func, ast.Attribute)
                    and func.attr == "sort"):
                for keyword in sub.keywords:
                    if keyword.arg == "key" and self._is_entropy_key(
                            keyword.value):
                        yield ("ordering by id()/hash() is "
                               "allocation-dependent; sort by a stable "
                               "field instead")
                        return

    @staticmethod
    def _is_entropy_key(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name) and expr.id in ("id", "hash"):
            return True
        if isinstance(expr, ast.Lambda):
            return any(isinstance(sub, ast.Call)
                       and isinstance(sub.func, ast.Name)
                       and sub.func.id in ("id", "hash")
                       for sub in ast.walk(expr.body))
        return False


class UnorderedReductionRule(Rule):
    """SIM012: reductions over unordered collections must pick an order.

    Float addition is not associative: ``sum()`` over a set (or any
    unordered provenance) yields results that differ in the last ulp
    between runs, which the bit-identical golden matrix and the sweep
    cache's value-equality checks both surface as flakes.  Statistics
    and metrics reductions must impose an explicit order --
    ``sum(sorted(xs))`` -- or accumulate over an insertion-ordered
    container.  Constant-element accumulations (``sum(1 for _ in s)``)
    are order-insensitive and stay clean.
    """

    id = "SIM012"
    name = "unordered-reduction"
    summary = "sum()/mean() over an unordered collection"

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Violation]:
        scoped = _function_scope_and_body(node, ctx)
        if scoped is None:
            return
        qualname, body = scoped
        result = TaintAnalysis(UnorderedProvenanceSpec(ctx)).run(body)
        for sub in walk_excluding_nested(body):
            if not (isinstance(sub, ast.Call) and sub.args):
                continue
            func = sub.func
            if isinstance(func, ast.Name):
                reducer = func.id if func.id in _REDUCTION_NAMES else None
            elif isinstance(func, ast.Attribute):
                reducer = (func.attr if func.attr in _REDUCTION_ATTRS
                           else None)
            else:
                reducer = None
            if reducer is None:
                continue
            labels = result.of(sub.args[0])
            if labels:
                yield _scoped_violation(
                    self, ctx, sub, qualname,
                    f"{reducer}() over {' / '.join(sorted(labels))}: "
                    f"float accumulation order is undefined; reduce "
                    f"over sorted(...) (or an insertion-ordered "
                    f"container) for reproducible results")


class CompilationReadinessRule(Rule):
    """SIM013: the declared hot set keeps a static attribute layout.

    No compiler (mypyc, Cython) can be installed offline, so the hot
    set's speed comes from plain-Python work: ``__slots__`` records,
    inlined per-instruction paths, attributes bound to locals.  That
    work needs classes with a fixed attribute layout, so this pass
    keeps the hot set (``COMPILE_HOT_SET``) free of dynamic attribute
    tricks: no ``setattr``/``delattr``/``vars(obj)``, no ``__dict__``
    access, no ``import *``, no attributes materialised outside
    ``__init__``, and no writes outside a declared ``__slots__``.  It
    flags them everywhere (they are a maintenance hazard generally),
    but only hot-set findings are fix-on-sight; elsewhere they may be
    baselined with a justification comment.
    """

    id = "SIM013"
    name = "compile-readiness"
    summary = "dynamic attribute trick that blocks slot and inlining work"

    _INIT_LIKE = ("__init__", "__post_init__", "__new__")

    def __init__(self) -> None:
        #: ``id(project)`` of the last-indexed :class:`ProjectIndex`;
        #: the class-declaration index below is rebuilt when it changes.
        self._indexed_project: Optional[int] = None
        #: Simple class name -> attributes it declares itself (class
        #: body, ``__slots__``, init-like self stores), project-wide.
        self._class_declared: Dict[str, Set[str]] = {}
        #: Simple class name -> simple names of its bases, project-wide.
        self._class_bases: Dict[str, Set[str]] = {}

    def prepare(self, ctx: LintContext) -> None:
        project = ctx.project
        if self._indexed_project == id(project):
            return
        self._indexed_project = id(project)
        self._class_declared = {}
        self._class_bases = {}
        for _path, tree in project.modules:
            for sub in ast.walk(tree):
                if not isinstance(sub, ast.ClassDef):
                    continue
                declared, _slots = self._own_declarations(sub)
                self._class_declared.setdefault(
                    sub.name, set()).update(declared)
                bases = self._class_bases.setdefault(sub.name, set())
                for base in sub.bases:
                    if isinstance(base, ast.Name):
                        bases.add(base.id)
                    elif isinstance(base, ast.Attribute):
                        bases.add(base.attr)

    def _inherited_declared(self, node: ast.ClassDef) -> Set[str]:
        """Attributes declared anywhere up the (simple-name) base chain.

        Resolution is by simple class name, so same-named classes merge
        -- an over-approximation that can only hide findings, never
        invent them, matching the rule's lint-grade precision budget.
        """
        declared: Set[str] = set()
        seen: Set[str] = set()
        pending = [base for base in self._class_bases.get(node.name, ())]
        while pending:
            name = pending.pop()
            if name in seen:
                continue
            seen.add(name)
            declared |= self._class_declared.get(name, set())
            pending.extend(self._class_bases.get(name, ()))
        return declared

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Violation]:
        where = (" in the declared compile hot set"
                 if self.in_hot_set(ctx.path) else "")
        if isinstance(node, ast.ImportFrom):
            if any(alias.name == "*" for alias in node.names):
                yield self.violation(
                    ctx, node,
                    f"star import{where} defeats static attribute "
                    f"resolution; import names explicitly")
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in ("setattr", "delattr"):
                    yield self.violation(
                        ctx, node,
                        f"{func.id}(...){where} mutates attribute "
                        f"layout dynamically; assign declared "
                        f"attributes directly")
                elif func.id == "vars" and node.args:
                    yield self.violation(
                        ctx, node,
                        f"vars(obj){where} reads the instance "
                        f"__dict__, which compiled classes do not "
                        f"have; enumerate declared fields instead")
        elif isinstance(node, ast.Attribute):
            if node.attr == "__dict__":
                yield self.violation(
                    ctx, node,
                    f"__dict__ access{where}; compiled classes have "
                    f"no per-instance dict -- use declared attributes "
                    f"or dataclasses.fields()")
        elif isinstance(node, ast.ClassDef):
            yield from self._class_findings(node, ctx, where)

    @staticmethod
    def in_hot_set(path: str) -> bool:
        return any(path.startswith(prefix) or path == prefix.rstrip("/")
                   for prefix in COMPILE_HOT_SET)

    @classmethod
    def _own_declarations(
            cls,
            node: ast.ClassDef) -> Tuple[Set[str], Optional[Set[str]]]:
        """(declared attributes, slots) from this class body alone."""
        declared: Set[str] = set()
        slots: Optional[Set[str]] = None
        for item in node.body:
            if (isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)):
                declared.add(item.target.id)
            elif isinstance(item, ast.Assign):
                for target in item.targets:
                    if isinstance(target, ast.Name):
                        declared.add(target.id)
                        if target.id == "__slots__":
                            slots = cls._slot_names(item.value)
        if slots is not None:
            declared |= slots
        for item in node.body:
            if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name in cls._INIT_LIKE):
                declared |= cls._self_stores(item)
        return declared, slots

    def _class_findings(self, node: ast.ClassDef, ctx: LintContext,
                        where: str) -> Iterator[Violation]:
        declared, slots = self._own_declarations(node)
        declared |= self._inherited_declared(node)
        methods = [item for item in node.body
                   if isinstance(item, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))]
        class_scope = ".".join(list(ctx.scope_stack) + [node.name])
        for method in methods:
            if method.name in self._INIT_LIKE:
                if slots is not None:
                    yield from self._slots_violations(
                        method, slots, ctx, class_scope, where)
                continue
            self_name = self._self_name(method)
            if self_name is None:
                continue
            for sub, attr in self._attr_stores(method, self_name):
                if slots is not None and attr not in declared:
                    message = (f"attribute {attr!r} assigned outside "
                               f"__slots__{where}; add it to __slots__ "
                               f"or drop the assignment")
                elif attr not in declared:
                    message = (f"attribute {attr!r} added outside "
                               f"__init__{where}; declare it in "
                               f"__init__ (or as a class annotation) "
                               f"so the layout is static")
                else:
                    continue
                yield _scoped_violation(
                    self, ctx, sub, f"{class_scope}.{method.name}",
                    message)

    def _slots_violations(self, method: ast.FunctionDef,
                          slots: Set[str], ctx: LintContext,
                          class_scope: str,
                          where: str) -> Iterator[Violation]:
        self_name = self._self_name(method)
        if self_name is None:
            return
        for sub, attr in self._attr_stores(method, self_name):
            if attr not in slots:
                yield _scoped_violation(
                    self, ctx, sub, f"{class_scope}.{method.name}",
                    f"attribute {attr!r} assigned outside "
                    f"__slots__{where}; add it to __slots__ or drop "
                    f"the assignment")

    @staticmethod
    def _slot_names(value: ast.expr) -> Set[str]:
        """String constants in a ``__slots__`` assignment; unknown
        constructs yield an empty set (treated as no-slots-match)."""
        names: Set[str] = set()
        if isinstance(value, ast.Constant) and isinstance(value.value,
                                                          str):
            names.add(value.value)
        elif isinstance(value, (ast.Tuple, ast.List, ast.Set)):
            for element in value.elts:
                if (isinstance(element, ast.Constant)
                        and isinstance(element.value, str)):
                    names.add(element.value)
        return names

    @staticmethod
    def _self_name(
            method: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Optional[str]:
        args = method.args.posonlyargs + method.args.args
        if not args:
            return None
        if any(isinstance(d, ast.Name) and d.id == "staticmethod"
               for d in method.decorator_list):
            return None
        return args[0].arg

    @classmethod
    def _self_stores(
            cls,
            method: ast.FunctionDef | ast.AsyncFunctionDef) -> Set[str]:
        self_name = cls._self_name(method)
        if self_name is None:
            return set()
        return {attr for _, attr in cls._attr_stores(method, self_name)}

    @staticmethod
    def _attr_stores(
            method: ast.FunctionDef | ast.AsyncFunctionDef,
            self_name: str) -> List[Tuple[ast.AST, str]]:
        stores: List[Tuple[ast.AST, str]] = []
        for sub in ast.walk(method):
            if isinstance(sub, (ast.Assign, ast.AugAssign,
                                ast.AnnAssign)):
                targets = (sub.targets if isinstance(sub, ast.Assign)
                           else [sub.target])
                for target in targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == self_name
                            and isinstance(target.ctx, ast.Store)):
                        stores.append((sub, target.attr))
        return stores


#: Whole-program rules in catalogue order.
WHOLE_PROGRAM_RULES: List[Rule] = [
    NondeterministicIterationRule(),
    RngOutsideTraceRule(),
    EntropyInSimStateRule(),
    UnorderedReductionRule(),
    CompilationReadinessRule(),
]
