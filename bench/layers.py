"""Per-layer host-time tracing and the isolated-layer microbenchmarks.

The simulator is measured from outside: :class:`Instrumentation` wraps
the public entry points of each layer at class level, before a system is
built, so every call becomes a span attributed to the layer that owns
the called code.  A :class:`LayerTracer` keeps the spans as per-layer
aggregates in memory (calls and self time); a layer's self time is its
span time minus the time its child spans cover.

Layers are named after modules (``LAYER_PREFIXES``); code outside every
prefix is ``other``.  Everything here uses only ``repro.*`` public names.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

from repro.cache.cache import Cache
from repro.cache.mshr import MshrFile
from repro.core.clip import Clip
from repro.cpu.branch import HashedPerceptronPredictor
from repro.cpu.core_model import Core, ServiceLevel
from repro.dram.controller import DramSystem
from repro.noc.mesh import MeshNoc
from repro.prefetch.base import Prefetcher
from repro.sim.engine import Engine
from repro.sim.hierarchy import (DramPort, Hierarchy, L1Node, L2Node,
                                 LlcSlice, NocLink, Port,
                                 PrefetchFilterChain)

# Importing the packages registers every Prefetcher subclass, so the
# subclass walk in Instrumentation sees all of them.
import repro.prefetch  # noqa: F401
import repro.prefetch.learned  # noqa: F401

#: Module prefix -> layer, longest prefix first.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.hierarchy", "hierarchy"),
    ("repro.sim.engine", "engine"),
    ("repro.sim.batch", "engine"),
    ("repro.prefetch", "prefetch"),
    ("repro.cache", "cache"),
    ("repro.core", "clip"),
    ("repro.dram", "dram"),
    ("repro.cpu", "cpu"),
    ("repro.noc", "noc"),
)

#: Every layer a traced simulation reports, in report order.
LAYERS = ("cpu", "engine", "hierarchy", "cache", "noc", "dram",
          "prefetch", "clip", "other")

#: (class, method names) wrapped as spans of the class's module layer.
ENTRY_POINTS = (
    (Engine, ("run",)),
    (Core, ("tick",)),
    (Hierarchy, ("issue_store",)),
    (L1Node, ("request", "issue_load", "issue_store", "issue_prefetch")),
    (L2Node, ("request", "complete", "accept_writeback")),
    (LlcSlice, ("lookup", "fill")),
    (PrefetchFilterChain, ("handle",)),
    (NocLink, ("request", "data")),
    (DramPort, ("read", "write")),
    (Port, ("replay",)),
    (Cache, ("access", "fill", "invalidate", "probe")),
    (MshrFile, ("lookup", "allocate", "merge", "release")),
    (MeshNoc, ("send",)),
    (DramSystem, ("read", "write")),
)

#: Clip methods the memory side calls; also recorded for CLIP replay.
CLIP_ENTRY_POINTS = ("filter_request", "on_l1d_access", "on_l1d_miss",
                     "on_prefetch_issued")

#: The core's public hook lists (CLIP and criticality predictors
#: register here at construction time).
HOOK_LISTS = ("branch_hooks", "dispatch_hooks", "load_response_hooks",
              "retire_hooks", "load_issue_hooks")


def layer_of(obj) -> str:
    """The layer owning a callable, by the module it was defined in."""
    module = getattr(obj, "__module__", None) or ""
    for prefix, layer in LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class LayerTracer:
    """Aggregated spans: per-layer call counts and self time.

    Self time is accounted at every span boundary: the time since the
    previous boundary belongs to the innermost open span.  That is the
    span's duration minus what its children cover, computed with one
    clock read per boundary.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._stack: List[str] = []
        self._last = 0.0

    def enter(self, layer: str) -> None:
        now = self.clock()
        stack = self._stack
        if stack:
            self.self_s[stack[-1]] += now - self._last
        stack.append(layer)
        self.calls[layer] += 1
        self._last = now

    def leave(self) -> None:
        now = self.clock()
        self.self_s[self._stack.pop()] += now - self._last
        self._last = now

    def call(self, layer: str, fn: Callable, *args):
        """``fn(*args)`` as a span of ``layer``.  Scheduling this method
        with ``layer`` and ``fn`` in front of the arguments traces an
        event without building a wrapper per event."""
        self.enter(layer)
        try:
            return fn(*args)
        finally:
            self.leave()

    def span(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped so each call is a span of ``layer``."""
        enter, leave = self.enter, self.leave

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        wrapper.span_layer = layer
        return wrapper

    @property
    def total_s(self) -> float:
        """Sum of all self times: the root spans' total duration."""
        return sum(self.self_s.values())


class ClipRecorder:
    """Every call into each Clip instance, in order, for replay.

    Entries are tuples ``(kind, *arguments)``; a ``filter`` entry ends
    with the recorded decision.  Hook arguments that refer to a live
    ROB entry are snapshotted (sequence number, address, ip, service
    level), because the simulation keeps mutating the entry afterwards.
    """

    def __init__(self) -> None:
        self.logs: Dict[Clip, list] = {}

    def log_for(self, clip: Clip) -> list:
        log = self.logs.get(clip)
        if log is None:
            log = self.logs[clip] = []
        return log

    def wrap_method(self, name: str, fn: Callable) -> Callable:
        log_for = self.log_for
        if name == "filter_request":
            def recorded(clip, trigger_ip, address, cycle):
                decision = fn(clip, trigger_ip, address, cycle)
                log_for(clip).append(
                    ("filter", trigger_ip, address, cycle, decision))
                return decision
        else:
            def recorded(clip, *args):
                log_for(clip).append((name, *args))
                return fn(clip, *args)
        return functools.wraps(fn)(recorded)

    def wrap_hook(self, list_name: str, hook: Callable) -> Callable:
        log = self.log_for(hook.__self__)
        if list_name == "branch_hooks":
            def recorded(core, ip, taken, mispredicted, cycle):
                log.append(("branch", ip, taken, mispredicted, cycle))
                return hook(core, ip, taken, mispredicted, cycle)
        elif list_name == "dispatch_hooks":
            def recorded(core, entry, cycle):
                log.append(("dispatch", entry.seq, cycle))
                return hook(core, entry, cycle)
        elif list_name == "load_response_hooks":
            def recorded(core, entry, cycle, rob_stalled, self_stalled):
                log.append(("response", entry.seq, entry.address, entry.ip,
                            entry.service_level, cycle, rob_stalled,
                            self_stalled))
                return hook(core, entry, cycle, rob_stalled, self_stalled)
        else:
            raise ValueError(f"CLIP registered on unexpected {list_name}")
        return recorded


class Patches:
    """Class or module attributes replaced for the life of a ``with``
    block, restored in reverse order on exit."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def patch(self, owner, name: str, replacement) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def span(self, tracer: LayerTracer, owner, name: str,
             layer: str) -> None:
        """Make every call of ``owner.name`` a span of ``layer``."""
        original = vars(owner)[name]
        if isinstance(original, classmethod):
            self.patch(owner, name,
                       classmethod(tracer.span(layer, original.__func__)))
        else:
            self.patch(owner, name, tracer.span(layer, original))

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class Instrumentation(Patches):
    """Installs span wrappers on the layers' entry points, and removes
    them again on exit.  Install before building a system: components
    bind some methods at construction."""

    def __init__(self, tracer: LayerTracer,
                 recorder: Optional[ClipRecorder] = None) -> None:
        super().__init__()
        self.tracer = tracer
        self.recorder = recorder
        #: Underlying function of a scheduled callback -> its layer, or
        #: ``None`` when its calls are spans already.
        self._layers: Dict[Callable, Optional[str]] = {}

    def callback_layer(self, callback: Callable) -> Optional[str]:
        """The layer a scheduled callback's event is a span of; ``None``
        when the callback traces itself."""
        fn = callback
        while isinstance(fn, functools.partial):
            fn = fn.func
        fn = getattr(fn, "__func__", fn)
        try:
            return self._layers[fn]
        except KeyError:
            traced = fn is LayerTracer.call or hasattr(fn, "span_layer")
            layer = self._layers[fn] = None if traced else layer_of(fn)
            return layer

    def __enter__(self) -> "Instrumentation":
        tracer = self.tracer
        for owner, names in ENTRY_POINTS:
            for name in names:
                self.span(tracer, owner, name, layer_of(vars(owner)[name]))
        enter, leave, call = tracer.enter, tracer.leave, tracer.call
        callback_layer = self.callback_layer
        schedule = Engine.__dict__["schedule"]

        def traced_schedule(engine, cycle, callback, *args):
            enter("engine")
            try:
                layer = callback_layer(callback)
                if layer is None:
                    schedule(engine, cycle, callback, *args)
                else:
                    schedule(engine, cycle, call, layer, callback, *args)
            finally:
                leave()

        issue_load = Hierarchy.__dict__["issue_load"]

        def traced_issue_load(hierarchy, core_id, address, ip, cycle,
                              callback):
            enter("hierarchy")
            try:
                issue_load(hierarchy, core_id, address, ip, cycle,
                           functools.partial(call, "cpu", callback))
            finally:
                leave()

        self.patch(Engine, "schedule", traced_schedule)
        self.patch(Hierarchy, "issue_load", traced_issue_load)
        for cls in dict.fromkeys(_subclasses(Prefetcher)):
            for name in [n for n in vars(cls) if n.startswith("on_")]:
                self.span(tracer, cls, name, "prefetch")
        for name in CLIP_ENTRY_POINTS:
            fn = Clip.__dict__[name]
            if self.recorder is not None:
                fn = self.recorder.wrap_method(name, fn)
            self.patch(Clip, name, self.tracer.span("clip", fn))
        return self

    def wrap_hooks(self, cores) -> None:
        """Wrap the hooks registered on built cores' public hook lists."""
        for core in cores:
            for list_name in HOOK_LISTS:
                hooks = getattr(core, list_name)
                for index, hook in enumerate(hooks):
                    layer = layer_of(hook)
                    if (self.recorder is not None
                            and isinstance(getattr(hook, "__self__", None),
                                           Clip)):
                        hook = self.recorder.wrap_hook(list_name, hook)
                    hooks[index] = self.tracer.span(layer, hook)


def _subclasses(cls) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


# ---------------------------------------------------------------------------
# Isolated-layer microbenchmarks
# ---------------------------------------------------------------------------

class FixedLatencyMemory:
    """Memory stub for a lone core: every load completes after a fixed
    latency, as an L2 hit; stores vanish."""

    LATENCY = 15

    def __init__(self, engine: Engine) -> None:
        self.engine = engine

    def issue_load(self, core_id: int, address: int, ip: int, cycle: int,
                   callback: Callable) -> None:
        done = cycle + self.LATENCY
        self.engine.schedule(done, callback, done, ServiceLevel.L2)

    def issue_store(self, core_id: int, address: int, ip: int,
                    cycle: int) -> None:
        pass


def core_replay(config, trace) -> Tuple[float, int]:
    """Replay ``trace`` through a lone core over the memory stub;
    returns (host seconds, instructions retired)."""
    engine = Engine()
    core = Core(0, config.core_for(0), trace,
                memory=FixedLatencyMemory(engine), engine=engine,
                branch_predictor=HashedPerceptronPredictor(config.branch))
    start = time.perf_counter()
    engine.run([core])
    return time.perf_counter() - start, core.stats.instructions


def clip_replay(clip_config, log: list) -> Tuple[float, int]:
    """Replay one recorded CLIP call log into a fresh ``Clip`` on a stub
    core; returns (host seconds, filter decisions that differ from the
    recorded ones)."""
    stub = SimpleNamespace(branch_hooks=[], dispatch_hooks=[],
                           load_response_hooks=[])
    clip = Clip(clip_config)
    clip.attach(stub)
    (on_branch,) = stub.branch_hooks
    (on_dispatch,) = stub.dispatch_hooks
    (on_response,) = stub.load_response_hooks
    filter_request = clip.filter_request
    on_access, on_miss = clip.on_l1d_access, clip.on_l1d_miss
    on_issued = clip.on_prefetch_issued
    entries: Dict[int, SimpleNamespace] = {}
    mismatches = 0
    start = time.perf_counter()
    for call in log:
        kind = call[0]
        if kind == "filter":
            if filter_request(call[1], call[2], call[3]) != call[4]:
                mismatches += 1
        elif kind == "on_l1d_access":
            on_access(call[1], call[2])
        elif kind == "on_l1d_miss":
            on_miss(call[1])
        elif kind == "on_prefetch_issued":
            on_issued(call[1], call[2])
        elif kind == "branch":
            on_branch(stub, call[1], call[2], call[3], call[4])
        elif kind == "dispatch":
            entry = entries[call[1]] = SimpleNamespace(
                history_snapshot=None)
            on_dispatch(stub, entry, call[2])
        else:
            _, seq, address, ip, level, cycle, rob_stalled, self_stalled = \
                call
            entry = entries.pop(seq, None) or SimpleNamespace(
                history_snapshot=None)
            entry.address, entry.ip, entry.service_level = address, ip, level
            on_response(stub, entry, cycle, rob_stalled, self_stalled)
    return time.perf_counter() - start, mismatches
