"""Simulator-specific lint rules.

Each rule has a stable ``SIMxxx`` identifier, a one-line summary, and a
docstring describing what it enforces and why the simulator needs it.
The catalogue (also rendered in ``docs/static_analysis.md``):

========  =======================  =============================================
ID        Name                     Enforces
========  =======================  =============================================
SIM001    unseeded-rng             no module-level ``random``/``numpy.random``
SIM002    float-cycle-arithmetic   cycle counters stay integral outside
                                   ``next_wake``
SIM003    mutable-default-arg      no mutable default arguments
SIM004    loop-variable-capture    no callbacks capturing loop variables
SIM005    unregistered-counter     stats counters registered before increment
SIM006    bare-assert              invariants survive ``python -O``
SIM007    wall-clock               no wall-clock reads in simulation code
SIM008    port-bypass              hierarchy components schedule via Port,
                                   not the engine
========  =======================  =============================================

The whole-program passes SIM009-SIM013 (call-graph + dataflow based)
live in :mod:`repro.analysis.wholeprogram` and are registered into the
same catalogue below.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Sequence

from repro.analysis.framework import (WALLCLOCK_TIME_FUNCS, LintContext,
                                      Rule, Violation)

#: ``random`` module functions that consume the *global* (unseeded) state.
_GLOBAL_RNG_FUNCS = {
    "random", "randrange", "randint", "choice", "choices", "sample",
    "shuffle", "uniform", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "randbytes", "getrandbits", "seed",
}

#: Identifiers that denote simulated-time quantities (cycle counters).
_CYCLE_NAME_RE = re.compile(
    r"(^(cycle|cycles|now|t0|done|start|finish|arrival|ready|deadline"
    r"|horizon)$)"
    r"|(_(cycle|cycles|at|until|deadline|horizon)$)")

#: Attribute bases that hold a stats object (``self.stats.reads += 1``,
#: ``channel.stats...``, ``self.prefetch_stats...``) or a bare local
#: alias (``stats = self.stats; stats.reads += 1``).
_STATS_BASE_RE = re.compile(r"(^stats$)|(_stats$)")


def _target_name(node: ast.expr) -> str:
    """Terminal identifier of an assignment target (name or attribute)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


class UnseededRandomRule(Rule):
    """SIM001: forbid the process-global / unseeded RNG.

    A simulator must be a pure function of its configuration: the same
    config and trace must produce the same cycle counts on every run, or
    A/B experiments (paper Figs. 9-21) measure noise instead of the
    mechanism.  Module-level ``random.*`` / ``numpy.random.*`` calls and
    ``random.Random()`` / ``default_rng()`` constructed *without a seed*
    draw from process-global or OS entropy; thread a seeded
    ``random.Random(seed)`` through instead (see
    ``repro.trace.synthetic._stable_seed``).
    """

    id = "SIM001"
    name = "unseeded-rng"
    summary = "module-level or unseeded random/numpy.random use"

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Violation]:
        if not isinstance(node, ast.Call):
            return
        func = node.func
        # from random import randrange; randrange(...)
        if isinstance(func, ast.Name) and func.id in ctx.random_functions:
            yield self.violation(
                ctx, node,
                f"call to module-level RNG "
                f"{ctx.random_functions[func.id]!r}; thread a seeded "
                f"random.Random through instead")
            return
        if not isinstance(func, ast.Attribute):
            return
        base = func.value
        # random.<func>(...) on the module itself.
        if isinstance(base, ast.Name) and base.id in ctx.random_modules:
            if func.attr in _GLOBAL_RNG_FUNCS:
                yield self.violation(
                    ctx, node,
                    f"module-level random.{func.attr}() uses the "
                    f"process-global RNG; thread a seeded random.Random "
                    f"through instead")
            elif func.attr == "Random" and not node.args:
                yield self.violation(
                    ctx, node,
                    "random.Random() without a seed draws from OS "
                    "entropy; pass an explicit seed")
            return
        # numpy.random.<func>(...) / np.random.default_rng().
        if (isinstance(base, ast.Attribute) and base.attr == "random"
                and isinstance(base.value, ast.Name)
                and base.value.id in ctx.numpy_modules):
            if func.attr == "default_rng" and node.args:
                return  # seeded generator: fine
            yield self.violation(
                ctx, node,
                f"numpy.random.{func.attr}() is module-level/unseeded; "
                f"use numpy.random.default_rng(seed)")


class FloatCycleArithmeticRule(Rule):
    """SIM002: cycle counters are integers; floats only in ``next_wake``.

    Event times and cycle counters must stay exact integers -- a float
    creeping into ``Engine.schedule`` or an ``*_at`` field silently breaks
    event ordering and heap determinism once values exceed 2**53 or pick
    up rounding error.  The single sanctioned exception is the cores'
    ``next_wake`` estimate, which uses ``float("inf")`` as its idle
    sentinel (DESIGN.md section 2).

    Flags assignments (``=``, ``+=``, annotated) to a cycle-named target
    whose right-hand side contains a float literal, a true division
    ``/``, or a ``float(...)`` cast.
    """

    id = "SIM002"
    name = "float-cycle-arithmetic"
    summary = "float arithmetic on cycle counters outside next_wake"

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Violation]:
        if isinstance(node, ast.Assign):
            targets: Sequence[ast.expr] = node.targets
            value = node.value
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
            value = node.value
        else:
            return
        if value is None:
            return
        if any("next_wake" in part for part in ctx.scope_stack):
            return
        for target in targets:
            name = _target_name(target)
            if name == "next_wake":
                return
            if not _CYCLE_NAME_RE.search(name):
                continue
            taint = self._float_taint(value)
            if taint:
                yield self.violation(
                    ctx, node,
                    f"cycle counter {name!r} assigned from {taint}; "
                    f"simulated time must stay integral (use // or int "
                    f"math; only next_wake may be float)")
                return

    @staticmethod
    def _float_taint(value: ast.expr) -> str:
        for sub in ast.walk(value):
            if isinstance(sub, ast.Constant) and isinstance(sub.value,
                                                            float):
                return f"float literal {sub.value!r}"
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div):
                return "true division ('/')"
            if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                    and sub.func.id == "float"):
                return "a float(...) cast"
        return ""


class MutableDefaultArgRule(Rule):
    """SIM003: forbid mutable default arguments.

    A ``def f(x, acc=[])`` default is evaluated once at definition time
    and shared across calls -- in a simulator this turns per-request
    scratch state into cross-request (and cross-*experiment*) leakage
    that corrupts statistics without crashing.  Use ``None`` plus an
    in-body default instead.
    """

    id = "SIM003"
    name = "mutable-default-arg"
    summary = "mutable default argument (list/dict/set/call)"

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Violation]:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            return
        args = node.args
        defaults = list(args.defaults) + [
            d for d in args.kw_defaults if d is not None]
        for default in defaults:
            label = self._mutable_label(default)
            if label:
                yield self.violation(
                    ctx, node,
                    f"mutable default argument ({label}) is shared "
                    f"across calls; default to None and construct inside "
                    f"the body")

    @staticmethod
    def _mutable_label(default: ast.expr) -> str:
        if isinstance(default, ast.List):
            return "list literal"
        if isinstance(default, ast.Dict):
            return "dict literal"
        if isinstance(default, ast.Set):
            return "set literal"
        if isinstance(default, ast.ListComp):
            return "list comprehension"
        if isinstance(default, ast.DictComp):
            return "dict comprehension"
        if isinstance(default, ast.SetComp):
            return "set comprehension"
        if isinstance(default, ast.Call):
            func = default.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else "")
            if name in ("list", "dict", "set", "bytearray", "deque",
                        "defaultdict", "Counter", "OrderedDict"):
                return f"{name}() call"
        return ""


class LoopVariableCaptureRule(Rule):
    """SIM004: no closures capturing a live loop variable.

    ``for req in queue: engine.schedule(t, lambda: retire(req))`` binds
    ``req`` *by reference*: every callback sees the final iteration's
    value when the event fires cycles later.  This is the classic
    deferred-callback bug of event-driven simulators.  Bind explicitly
    (``lambda req=req: ...``) or build the closure in a helper function.
    """

    id = "SIM004"
    name = "loop-variable-capture"
    summary = "closure in a loop captures the loop variable late-bound"

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Violation]:
        if not isinstance(node, (ast.Lambda, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            return
        live = ctx.active_loop_vars()
        if not live:
            return
        args = node.args
        bound = {a.arg for a in (args.args + args.posonlyargs
                                 + args.kwonlyargs)}
        if args.vararg:
            bound.add(args.vararg.arg)
        if args.kwarg:
            bound.add(args.kwarg.arg)
        body = node.body if isinstance(node.body, list) else [node.body]
        assigned = {
            n.id
            for stmt in body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
        captured = set()
        for stmt in body:
            for sub in ast.walk(stmt):
                if (isinstance(sub, ast.Name)
                        and isinstance(sub.ctx, ast.Load)
                        and sub.id in live
                        and sub.id not in bound
                        and sub.id not in assigned):
                    captured.add(sub.id)
        if captured:
            names = ", ".join(sorted(captured))
            kind = ("lambda" if isinstance(node, ast.Lambda)
                    else f"function {node.name!r}")
            yield self.violation(
                ctx, node,
                f"{kind} captures loop variable(s) {names} by reference; "
                f"a deferred callback will see the last iteration's value "
                f"-- bind via a default argument ({names}={names})")


class UnregisteredCounterRule(Rule):
    """SIM005: stats counters must be registered before being incremented.

    Statistics objects (``*Stats``/``*Result`` classes) declare every
    counter in ``__init__`` or as a dataclass field, so result collection
    and reports can enumerate them.  ``obj.stats.typo_counter += 1``
    would otherwise raise ``AttributeError`` mid-simulation -- or worse,
    create an attribute the reports never read.  The project pass indexes
    every registered counter; this rule flags augmented assignments
    through a ``stats``-named attribute whose counter is unknown.
    """

    id = "SIM005"
    name = "unregistered-counter"
    summary = "increment of a stats counter no Stats class registers"

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Violation]:
        if not isinstance(node, ast.AugAssign):
            return
        target = node.target
        if not isinstance(target, ast.Attribute):
            return
        base = target.value
        if isinstance(base, ast.Attribute):
            base_name = base.attr
        elif isinstance(base, ast.Name):
            base_name = base.id
        else:
            return
        if not _STATS_BASE_RE.search(base_name):
            return
        if not ctx.project.stats_counters:
            return  # no Stats classes in scope: nothing to check against
        if target.attr not in ctx.project.stats_counters:
            yield self.violation(
                ctx, node,
                f"counter {target.attr!r} incremented through "
                f"{base_name!r} but never registered in a *Stats/*Result "
                f"class __init__ (typo, or add the field)")


class BareAssertRule(Rule):
    """SIM006: no bare ``assert`` for simulator invariants.

    ``python -O`` strips ``assert`` statements, so an invariant guarded
    only by ``assert`` silently vanishes in optimised runs -- the exact
    runs used for benchmarking.  Use
    :func:`repro.analysis.invariants.check` (or raise
    :class:`~repro.analysis.invariants.SimulationInvariantError`
    explicitly), which also produces a typed, catchable failure.
    """

    id = "SIM006"
    name = "bare-assert"
    summary = "bare assert is stripped under python -O"

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Violation]:
        if isinstance(node, ast.Assert):
            yield self.violation(
                ctx, node,
                "bare assert is stripped under python -O; use "
                "repro.analysis.invariants.check(...) or raise "
                "SimulationInvariantError")


class WallClockRule(Rule):
    """SIM007: no wall-clock reads inside simulation code.

    ``time.time()`` / ``datetime.now()`` inside ``src/repro`` makes
    behaviour (or worse, a result) depend on host speed and run order.
    Simulated time comes from the engine (``engine.now``); host-time
    measurement belongs in the benchmark harness, not the model --
    which is why ``experiments/hotpath.py`` (the engine and cache
    microbenchmarks that ``bench/run.py`` reports) is the one exempt
    file.  The check flags every reference to a wall-clock function,
    called or not, so a clock bound to a name and called later
    (``clock = time.perf_counter``, ``self._clock = time.monotonic``)
    is flagged where it is bound.  The sweep coordinator's lease clock
    is the one sanctioned binding, with an inline ignore.
    """

    id = "SIM007"
    name = "wall-clock"
    summary = "wall-clock function (time.time/datetime.now) in sim code"

    _EXEMPT = ("src/repro/experiments/hotpath.py",)

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Violation]:
        if ctx.path in self._EXEMPT:
            return
        origin = _wall_clock_function(node, ctx)
        if origin is not None:
            yield self.violation(
                ctx, node,
                f"wall-clock function {origin}; simulation code must use "
                f"engine.now")


def _wall_clock_function(node: ast.AST, ctx: LintContext) -> Optional[str]:
    """``"time.perf_counter"``-style name of the wall-clock function
    ``node`` reads, whether it is called there or not."""
    if not isinstance(getattr(node, "ctx", None), ast.Load):
        return None
    if isinstance(node, ast.Name):
        return ctx.time_functions.get(node.id)
    if not isinstance(node, ast.Attribute):
        return None
    base = node.value
    if (isinstance(base, ast.Name) and base.id in ctx.time_modules
            and node.attr in WALLCLOCK_TIME_FUNCS):
        return f"time.{node.attr}"
    if node.attr not in ("now", "utcnow", "today"):
        return None
    if isinstance(base, ast.Name) and base.id in ctx.datetime_modules:
        return f"datetime.{node.attr}"
    if (isinstance(base, ast.Attribute) and base.attr == "datetime"
            and isinstance(base.value, ast.Name)
            and base.value.id in ctx.datetime_modules):
        return f"datetime.datetime.{node.attr}"
    return None


class PortBypassRule(Rule):
    """SIM008: hierarchy components never call ``engine.schedule``.

    In :mod:`repro.sim.hierarchy` all latency and back-pressure is owned
    by :class:`~repro.sim.hierarchy.port.Port`: components schedule
    future work through ``port.schedule`` (or a ``NocLink`` delivery),
    never against the engine directly.  A direct ``engine.schedule``
    bypasses the port seam -- the runtime sanitizer's wrappers, any
    future port-level arbitration, and the single place where MSHR
    replay interleaves with timing.  ``port.py`` itself is the one
    sanctioned caller.
    """

    id = "SIM008"
    name = "port-bypass"
    summary = "direct engine.schedule call in a hierarchy component"

    #: The Port implementation is the one sanctioned engine caller.
    _EXEMPT = ("src/repro/sim/hierarchy/port.py",)

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Violation]:
        if "sim/hierarchy/" not in ctx.path or ctx.path in self._EXEMPT:
            return
        if not isinstance(node, ast.Call):
            return
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr == "schedule"):
            return
        base = func.value
        if isinstance(base, ast.Name):
            base_name = base.id
        elif isinstance(base, ast.Attribute):
            base_name = base.attr
        else:
            return
        if base_name == "engine":
            yield self.violation(
                ctx, node,
                "hierarchy component schedules directly against the "
                "engine; route latency through its Port "
                "(port.schedule/NocLink) so back-pressure and replay "
                "stay in one place")


from repro.analysis.wholeprogram import (  # noqa: E402
    WHOLE_PROGRAM_RULES, CompilationReadinessRule,
    EntropyInSimStateRule, NondeterministicIterationRule,
    RngOutsideTraceRule, UnorderedReductionRule)

#: The default rule set, in catalogue order.
ALL_RULES: List[Rule] = [
    UnseededRandomRule(),
    FloatCycleArithmeticRule(),
    MutableDefaultArgRule(),
    LoopVariableCaptureRule(),
    UnregisteredCounterRule(),
    BareAssertRule(),
    WallClockRule(),
    PortBypassRule(),
    *WHOLE_PROGRAM_RULES,
]

__all__ = [
    "UnseededRandomRule", "FloatCycleArithmeticRule",
    "MutableDefaultArgRule", "LoopVariableCaptureRule",
    "UnregisteredCounterRule", "BareAssertRule", "WallClockRule",
    "PortBypassRule", "NondeterministicIterationRule",
    "RngOutsideTraceRule", "EntropyInSimStateRule",
    "UnorderedReductionRule", "CompilationReadinessRule",
    "ALL_RULES", "default_rules",
]


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule."""
    return [type(rule)() for rule in ALL_RULES]
