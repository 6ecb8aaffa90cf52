"""Trace-driven out-of-order core model.

The model keeps the microarchitectural state the paper's mechanisms read:

* a reorder buffer with in-order retirement and a retire-width limit, so
  *ROB-head stalls* (the paper's criticality ground truth) are measured
  directly as the time an instruction keeps the head of the ROB waiting for
  its completion;
* register dataflow: an instruction executes only after its producers
  complete, so pointer-chasing loads serialise (low MLP) and dependent
  branches resolve late;
* per-entry *miss-level* flags (paper section 4.1): the level of the memory
  hierarchy that serviced each load;
* branch mispredict bubbles using the hashed perceptron predictor, read
  from the trace's precomputed outcome stream
  (:func:`repro.cpu.branch.outcome_stream`).

Timing is driven by a cooperative engine: ``tick(cycle)`` performs retire
and dispatch for one cycle and publishes ``next_wake`` so the engine can
skip cycles in which the core can make no progress (memory events wake it).
"""

from __future__ import annotations

from collections import deque
from enum import IntEnum
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Sequence

from repro.config import CoreConfig
from repro.cpu.branch import HashedPerceptronPredictor, outcome_stream
from repro.trace.record import Op, TraceRecord

INFINITY = float("inf")

# Enum member access goes through EnumType.__getattr__; these run once per
# dispatched instruction, so bind them as module constants.
_OP_LOAD = Op.LOAD
_OP_STORE = Op.STORE
_OP_BRANCH = Op.BRANCH


class ServiceLevel(IntEnum):
    """Which level of the hierarchy serviced a load (miss-level flag)."""

    UNKNOWN = 0
    L1 = 1
    L2 = 2
    LLC = 3
    DRAM = 4


_LEVEL_UNKNOWN = ServiceLevel.UNKNOWN
_LEVEL_L2 = ServiceLevel.L2


class RobEntry:
    """One in-flight instruction.

    Built field by field in :meth:`Core._dispatch`, the only place
    entries are created (a constructor call per dispatched instruction
    costs more than the slot stores themselves).  ``dependents`` stays
    ``None`` until the first consumer registers, so the (majority)
    producer-less entries never allocate a list; ``history_snapshot``
    holds the (branch history, criticality history) CLIP captures at
    dispatch, so predictor training sees the trigger-time context.
    """

    __slots__ = ("seq", "ip", "op", "address", "dst", "deps", "ready_at",
                 "done_at", "dependents", "became_head_at", "service_level",
                 "issued_at", "dispatched_at", "mlp_at_issue", "producers",
                 "is_mispredict", "taken", "consumer_count",
                 "history_snapshot")

    seq: int
    ip: int
    op: Op
    address: int
    dst: int
    taken: bool
    deps: int
    ready_at: int
    done_at: Optional[int]
    dependents: Optional[List["RobEntry"]]
    became_head_at: Optional[int]
    service_level: ServiceLevel
    issued_at: Optional[int]
    dispatched_at: int
    mlp_at_issue: int
    producers: tuple
    is_mispredict: bool
    consumer_count: int
    history_snapshot: Optional[tuple]


class CoreStats:
    """Retirement-side statistics for one core."""

    def __init__(self) -> None:
        self.instructions = 0
        self.loads = 0
        self.stores = 0
        self.branches = 0
        self.mispredicts = 0
        self.finish_cycle = 0
        self.head_stall_cycles = 0
        #: Head-stall cycles attributed to loads serviced beyond L1.
        self.head_stall_cycles_miss = 0
        self.critical_load_instances = 0
        self.load_instances_beyond_l1 = 0

    @property
    def ipc(self) -> float:
        if not self.finish_cycle:
            return 0.0
        return self.instructions / self.finish_cycle


class Core:
    """A single out-of-order core consuming one trace.

    Branch outcomes come from ``branch_outcomes``, the trace's
    :func:`~repro.cpu.branch.outcome_stream` under the predictor's
    config (computed here when not supplied).  The predictor itself only
    counts: ``predictions``/``mispredictions`` advance per dispatched
    branch, so they read exactly as a live predictor's would.
    """

    def __init__(self, core_id: int, config: CoreConfig,
                 trace: Sequence[TraceRecord], memory, engine,
                 branch_predictor: Optional[HashedPerceptronPredictor] = None,
                 warmup_instructions: int = 0,
                 branch_outcomes: Optional[bytes] = None) -> None:
        self.core_id = core_id
        self.config = config
        self.trace = trace
        self._trace_len = len(trace)
        self.memory = memory
        self.engine = engine
        #: Instructions retired before statistics start counting.
        self.warmup_instructions = warmup_instructions
        self._warmup_cycle = 0
        predictor = branch_predictor or HashedPerceptronPredictor()
        if predictor.predictions:
            # The outcome stream replays a *fresh* predictor; a trained
            # one would have predicted differently.
            raise ValueError(
                f"core {core_id}: branch predictor has already made "
                f"{predictor.predictions} prediction(s); pass a fresh one")
        if branch_outcomes is None:
            branch_outcomes = outcome_stream(trace, predictor.config)
        self.branch_predictor = predictor
        self.branch_outcomes = branch_outcomes
        self.rob: Deque[RobEntry] = deque()
        self.reg_producer: Dict[int, RobEntry] = {}
        self.pc = 0
        self.seq = 0
        self.retired = 0
        self.fetch_stall_until = 0
        self.outstanding_loads = 0
        self.done = False
        self.next_wake: float = 0
        self.stats = CoreStats()
        # Event hooks (registered by CLIP, criticality predictors, ...).
        self.retire_hooks: List[Callable] = []
        self.dispatch_hooks: List[Callable] = []
        self.branch_hooks: List[Callable] = []
        self.load_response_hooks: List[Callable] = []
        self.load_issue_hooks: List[Callable] = []

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------

    def tick(self, cycle: int) -> None:
        """Retire then dispatch for one cycle; update ``next_wake``."""
        if self.done:
            self.next_wake = INFINITY
            return
        self._retire(cycle)
        if not self.done:
            self._dispatch(cycle)
        self._update_next_wake(cycle)

    # ------------------------------------------------------------------
    # Retirement
    # ------------------------------------------------------------------

    def _retire(self, cycle: int) -> None:
        retired_now = 0
        rob = self.rob
        retire_width = self.config.retire_width
        # ``self._account_retire`` resolves dynamically on purpose: the
        # sanitizer wraps it as an instance attribute.  One lookup per
        # tick (not per retirement) still goes through the shim.
        account_retire = self._account_retire
        while (rob and retired_now < retire_width):
            head = rob[0]
            if head.done_at is None or head.done_at > cycle:
                break
            rob.popleft()
            retired_now += 1
            account_retire(head, cycle)
            if rob and rob[0].became_head_at is None:
                rob[0].became_head_at = cycle
        if self.retired >= self._trace_len and not rob:
            self.done = True
            self.stats.finish_cycle = cycle - self._warmup_cycle

    def _account_retire(self, entry: RobEntry, cycle: int) -> None:
        self.retired += 1
        if self.warmup_instructions:
            if self.retired <= self.warmup_instructions:
                if self.retired == self.warmup_instructions:
                    # Warm-up ends: restart the statistics window.
                    self.stats = CoreStats()
                    self._warmup_cycle = cycle
                return
        stats = self.stats
        stats.instructions += 1
        became_head = entry.became_head_at
        if became_head is None:
            became_head = entry.dispatched_at
        head_wait = 0
        if entry.done_at is not None and entry.done_at > became_head:
            head_wait = entry.done_at - became_head
        stats.head_stall_cycles += head_wait
        op = entry.op
        if op == _OP_LOAD:
            stats.loads += 1
            if entry.service_level >= _LEVEL_L2:
                stats.load_instances_beyond_l1 += 1
                if head_wait > 0:
                    stats.head_stall_cycles_miss += head_wait
                    stats.critical_load_instances += 1
        elif op == _OP_STORE:
            stats.stores += 1
        elif op == _OP_BRANCH:
            stats.branches += 1
        for hook in self.retire_hooks:
            hook(self, entry, cycle, head_wait)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _dispatch(self, cycle: int) -> None:
        if self.fetch_stall_until > cycle:
            return
        dispatched = 0
        config = self.config
        issue_width = config.issue_width
        rob_entries = config.rob_entries
        trace = self.trace
        trace_len = self._trace_len
        rob = self.rob
        reg_producer = self.reg_producer
        dispatch_hooks = self.dispatch_hooks
        branch_hooks = self.branch_hooks
        predictor = self.branch_predictor
        outcomes = self.branch_outcomes
        new_entry = RobEntry.__new__
        pc = self.pc
        seq = self.seq
        next_cycle = cycle + 1
        while (dispatched < issue_width
               and len(rob) < rob_entries
               and pc < trace_len):
            record = trace[pc]
            pc += 1
            dispatched += 1
            entry = new_entry(RobEntry)
            entry.seq = seq
            entry.ip = record.ip
            entry.op = op = record.op
            entry.address = record.address
            entry.dst = dst = record.dst
            entry.taken = record.taken
            entry.deps = 0
            entry.ready_at = cycle
            entry.done_at = None
            entry.dependents = None
            entry.became_head_at = None if rob else cycle
            entry.service_level = _LEVEL_UNKNOWN
            entry.issued_at = None
            entry.dispatched_at = cycle
            entry.mlp_at_issue = 0
            entry.producers = ()
            entry.is_mispredict = False
            entry.consumer_count = 0
            entry.history_snapshot = None
            seq += 1
            rob.append(entry)
            if record.srcs:
                self._wire_dependencies(entry, record, cycle)
            if op == _OP_LOAD:
                for hook in dispatch_hooks:
                    hook(self, entry, cycle)
            if dst >= 0:
                reg_producer[dst] = entry
            stop_fetch = False
            if op == _OP_BRANCH:
                predictor.predictions += 1
                mispredicted = not outcomes[pc - 1]  # this record's flag
                if mispredicted:
                    predictor.mispredictions += 1
                    self.stats.mispredicts += 1
                    entry.is_mispredict = True
                    stop_fetch = True
                for hook in branch_hooks:
                    hook(self, record.ip, record.taken, mispredicted, cycle)
            if entry.deps == 0:
                ready_at = entry.ready_at
                self._begin_execution(
                    entry, next_cycle if next_cycle > ready_at else ready_at)
            if stop_fetch:
                if entry.done_at is not None:
                    self.fetch_stall_until = (entry.done_at
                                              + config.mispredict_penalty)
                else:
                    self.fetch_stall_until = 1 << 62
                break
        self.pc = pc
        self.seq = seq

    def _wire_dependencies(self, entry: RobEntry, record: TraceRecord,
                           cycle: int) -> None:
        producers = []
        for src in record.srcs:
            producer = self.reg_producer.get(src)
            if producer is None:
                continue
            producers.append((producer.ip, producer.op))
            producer.consumer_count += 1
            if producer.done_at is None:
                waiting = producer.dependents
                if waiting is None:
                    producer.dependents = [entry]
                else:
                    waiting.append(entry)
                entry.deps += 1
            else:
                entry.ready_at = max(entry.ready_at, producer.done_at)
        entry.producers = tuple(producers)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _begin_execution(self, entry: RobEntry, start: int) -> None:
        op = entry.op
        if op == _OP_LOAD:
            if start > self.engine.now:
                self.engine.schedule(start, self._issue_load, entry)
            else:
                self._issue_load(entry)
        elif op == _OP_STORE:
            # Stores commit through the store buffer; the write itself is
            # fire-and-forget into the hierarchy.
            self._set_done(entry, start + 1)
            self.memory.issue_store(self.core_id, entry.address, entry.ip,
                                    start)
        elif op == _OP_BRANCH:
            self._set_done(entry, start + 1)
        else:
            self._set_done(entry, start + self.config.alu_latency)

    def _issue_load(self, entry: RobEntry) -> None:
        cycle = self.engine.now
        entry.issued_at = cycle
        self.outstanding_loads += 1
        entry.mlp_at_issue = self.outstanding_loads
        for hook in self.load_issue_hooks:
            hook(self, entry, cycle)
        self.memory.issue_load(
            self.core_id, entry.address, entry.ip, cycle,
            partial(self._on_load_response, entry))

    def _on_load_response(self, entry: RobEntry, cycle: int,
                          level: ServiceLevel) -> None:
        self.outstanding_loads -= 1
        entry.service_level = (level if level.__class__ is ServiceLevel
                               else ServiceLevel(level))
        # Two stall signals: the paper's hardware mechanism checks the
        # *global* ROB-stall flag when a response returns (section 4.1);
        # ground truth for criticality is whether *this* load is the
        # blocked ROB head (it stalled retirement itself).
        rob_stalled = self._rob_stalled(cycle)
        self_stalled = bool(
            self.rob and self.rob[0] is entry
            and entry.became_head_at is not None
            and entry.became_head_at < cycle)
        for hook in self.load_response_hooks:
            hook(self, entry, cycle, rob_stalled, self_stalled)
        self._set_done(entry, cycle)

    def _rob_stalled(self, cycle: int) -> bool:
        """Paper's ROB-stall flag: retirement is currently blocked."""
        if not self.rob:
            return False
        head = self.rob[0]
        if head.done_at is not None and head.done_at <= cycle:
            return False
        became_head = head.became_head_at
        return became_head is not None and became_head < cycle

    def _set_done(self, entry: RobEntry, cycle: int) -> None:
        entry.done_at = cycle
        dependents = entry.dependents
        if dependents is not None:
            entry.dependents = None
            for dependent in dependents:
                dependent.ready_at = max(dependent.ready_at, cycle)
                dependent.deps -= 1
                if dependent.deps == 0:
                    self._begin_execution(dependent, dependent.ready_at)
        if entry.is_mispredict:
            self.fetch_stall_until = cycle + self.config.mispredict_penalty
            self.next_wake = min(self.next_wake, self.fetch_stall_until)
        if self.rob and self.rob[0] is entry:
            self.next_wake = min(self.next_wake, cycle)

    # ------------------------------------------------------------------
    # Wake computation
    # ------------------------------------------------------------------

    def _update_next_wake(self, cycle: int) -> None:
        if self.done:
            self.next_wake = INFINITY
            return
        wake = INFINITY
        if self.rob:
            head = self.rob[0]
            if head.done_at is not None:
                wake = max(head.done_at, cycle + 1)
            # A pending head wakes us through its completion event.
        can_fetch = (self.pc < self._trace_len
                     and len(self.rob) < self.config.rob_entries)
        if can_fetch:
            if self.fetch_stall_until <= cycle:
                wake = min(wake, cycle + 1)
            elif self.fetch_stall_until < (1 << 61):
                wake = min(wake, self.fetch_stall_until)
        self.next_wake = wake

    @property
    def rob_occupancy(self) -> int:
        return len(self.rob)
