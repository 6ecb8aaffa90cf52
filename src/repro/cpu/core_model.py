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

Timing is driven by a cooperative engine: one ``tick(cycle)`` call retires
and dispatches for one cycle and publishes ``next_wake`` so the engine can
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
#: ``fetch_stall_until`` while a mispredicted branch waits on a producer:
#: fetch stays blocked until the branch resolves (:meth:`Core._set_done`).
_FETCH_BLOCKED = 1 << 62

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


_LEVEL_L2 = ServiceLevel.L2


class RobEntry:
    """One in-flight instruction.

    Built slot by slot in :meth:`Core.tick`, the only place entries are
    created (a constructor call per dispatched instruction costs more
    than the slot stores themselves), and only the slots an entry's
    kind is read for are set:

    * every entry: ``seq``, ``ip``, ``op``, ``address``,
      ``dispatched_at``, ``consumer_count`` and ``done_at`` (``None``
      until its completion cycle is known); ``became_head_at`` once it
      reaches the ROB head;
    * an entry that does not finish at dispatch -- a load, or any
      instruction waiting on a producer: ``deps``, ``ready_at``,
      ``is_mispredict`` and ``dependents`` (``None`` until the first
      consumer registers);
    * a load: ``history_snapshot`` (the one-int history term of the
      critical signature that CLIP captures at dispatch, so predictor
      training sees the trigger-time context), ``mlp_at_issue`` from
      its issue and ``service_level`` from its response.
    """

    __slots__ = ("seq", "ip", "op", "address", "deps", "ready_at",
                 "done_at", "dependents", "became_head_at", "service_level",
                 "dispatched_at", "mlp_at_issue", "is_mispredict",
                 "consumer_count", "history_snapshot")

    seq: int
    ip: int
    op: Op
    address: int
    deps: int
    ready_at: int
    done_at: Optional[int]
    dependents: Optional[List["RobEntry"]]
    became_head_at: int
    service_level: ServiceLevel
    dispatched_at: int
    mlp_at_issue: int
    is_mispredict: bool
    consumer_count: int
    history_snapshot: Optional[int]


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

    def tick(self, cycle: int) -> None:
        """Retire, dispatch and publish ``next_wake`` for one cycle.

        One call per core tick does it all inline: retirement with its
        ``CoreStats`` accounting, dispatch with dependency wiring, and
        the wake computation.  An ALU, branch or store whose sources are
        ready finishes at dispatch (a store also issues to memory there);
        a load issues a cycle later through the engine, and an
        instruction waiting on a producer starts when the last one
        completes (:meth:`_set_done`).  The sanitizer checks retirement
        by wrapping this method on the instance.
        """
        if self.done:
            self.next_wake = INFINITY
            return
        config = self.config
        rob = self.rob

        # -- Retirement: completed heads, in order, up to retire_width.
        retired = self.retired
        budget = config.retire_width
        warmup = self.warmup_instructions
        stats = self.stats
        retire_hooks = self.retire_hooks
        while rob and budget:
            entry = rob[0]
            done_at = entry.done_at
            if done_at is None or done_at > cycle:
                break
            rob.popleft()
            budget -= 1
            retired += 1
            if retired <= warmup:
                if retired == warmup:
                    # Warm-up ends: restart the statistics window.
                    stats = self.stats = CoreStats()
                    self._warmup_cycle = cycle
            else:
                stats.instructions += 1
                # Cycles this entry held the ROB head before completing.
                head_wait = done_at - entry.became_head_at
                if head_wait < 0:
                    head_wait = 0
                stats.head_stall_cycles += head_wait
                op = entry.op
                if op == _OP_LOAD:
                    stats.loads += 1
                    if entry.service_level >= _LEVEL_L2:
                        stats.load_instances_beyond_l1 += 1
                        if head_wait:
                            stats.head_stall_cycles_miss += head_wait
                            stats.critical_load_instances += 1
                elif op == _OP_STORE:
                    stats.stores += 1
                elif op == _OP_BRANCH:
                    stats.branches += 1
                for hook in retire_hooks:
                    hook(self, entry, cycle, head_wait)
            if rob:
                rob[0].became_head_at = cycle
        self.retired = retired
        if retired >= self._trace_len and not rob:
            self.done = True
            stats.finish_cycle = cycle - self._warmup_cycle
            self.next_wake = INFINITY
            return

        # -- Dispatch: up to issue_width records while the ROB has room.
        pc = self.pc
        trace_len = self._trace_len
        if self.fetch_stall_until <= cycle:
            end = min(pc + config.issue_width,
                      pc + config.rob_entries - len(rob), trace_len)
            trace = self.trace
            reg_producer = self.reg_producer
            new_entry = RobEntry.__new__
            seq = self.seq
            next_cycle = cycle + 1
            while pc < end:
                record = trace[pc]
                pc += 1
                op = record.op
                entry = new_entry(RobEntry)
                entry.seq = seq
                seq += 1
                entry.ip = record.ip
                entry.op = op
                entry.address = record.address
                entry.dispatched_at = cycle
                entry.consumer_count = 0
                if not rob:
                    entry.became_head_at = cycle
                rob.append(entry)
                ready = cycle
                deps = 0
                for src in record.srcs:
                    producer = reg_producer.get(src)
                    if producer is None:
                        continue
                    producer.consumer_count += 1
                    done_at = producer.done_at
                    if done_at is None:
                        waiting = producer.dependents
                        if waiting is None:
                            producer.dependents = [entry]
                        else:
                            waiting.append(entry)
                        deps += 1
                    elif done_at > ready:
                        ready = done_at
                dst = record.dst
                if dst >= 0:
                    reg_producer[dst] = entry
                if deps or op == _OP_LOAD:
                    # Finishes later, in _set_done: at its load response,
                    # or when its last producer completes.
                    entry.deps = deps
                    entry.ready_at = ready
                    entry.done_at = None
                    entry.dependents = None
                    entry.is_mispredict = False
                if op == _OP_LOAD:
                    entry.history_snapshot = None
                    for hook in self.dispatch_hooks:
                        hook(self, entry, cycle)
                    if not deps:
                        self.engine.schedule(
                            ready if ready > next_cycle else next_cycle,
                            self._issue_load, entry)
                    continue
                mispredicted = False
                if op == _OP_BRANCH:
                    predictor = self.branch_predictor
                    predictor.predictions += 1
                    if not self.branch_outcomes[pc - 1]:
                        mispredicted = True
                        predictor.mispredictions += 1
                        self.stats.mispredicts += 1
                    for hook in self.branch_hooks:
                        hook(self, record.ip, record.taken, mispredicted,
                             cycle)
                if deps:
                    if mispredicted:
                        # Fetch stays blocked until the branch resolves.
                        entry.is_mispredict = True
                        self.fetch_stall_until = _FETCH_BLOCKED
                        break
                    continue
                start = ready if ready > next_cycle else next_cycle
                if op == _OP_STORE:
                    entry.done_at = start + 1
                    # Stores commit through the store buffer; the write
                    # itself is fire-and-forget.
                    self.memory.issue_store(self.core_id, entry.address,
                                            entry.ip, start)
                elif op == _OP_BRANCH:
                    entry.done_at = start + 1
                    if mispredicted:
                        # Fetch resumes mispredict_penalty cycles after
                        # the branch resolves.
                        self.fetch_stall_until = (entry.done_at
                                                  + config.mispredict_penalty)
                        break
                else:
                    entry.done_at = start + config.alu_latency
            self.pc = pc
            self.seq = seq

        # -- Next wake: the head's completion or the next fetch; a
        # pending head wakes the core through its completion event.
        wake = INFINITY
        if rob:
            done_at = rob[0].done_at
            if done_at is not None:
                wake = done_at if done_at > cycle else cycle + 1
        if pc < trace_len and len(rob) < config.rob_entries:
            stall = self.fetch_stall_until
            if stall <= cycle:
                wake = cycle + 1
            elif stall < wake and stall < _FETCH_BLOCKED:
                wake = stall
        self.next_wake = wake

    # ------------------------------------------------------------------
    # Completion of loads and of instructions woken by a producer
    # ------------------------------------------------------------------

    def _begin_execution(self, entry: RobEntry, start: int) -> None:
        """Start an entry its last producer just woke, at ``start``."""
        op = entry.op
        if op == _OP_LOAD:
            if start > self.engine.now:
                self.engine.schedule(start, self._issue_load, entry)
            else:
                self._issue_load(entry)
        elif op == _OP_STORE:
            self._set_done(entry, start + 1)
            self.memory.issue_store(self.core_id, entry.address, entry.ip,
                                    start)
        elif op == _OP_BRANCH:
            self._set_done(entry, start + 1)
        else:
            self._set_done(entry, start + self.config.alu_latency)

    def _issue_load(self, entry: RobEntry) -> None:
        cycle = self.engine.now
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
        hooks = self.load_response_hooks
        if hooks:
            # Two stall signals: the paper's hardware mechanism checks
            # the *global* ROB-stall flag (retirement is blocked) when a
            # response returns (section 4.1); ground truth for
            # criticality is whether *this* load is the blocked ROB head
            # (it stalled retirement itself).  The load is still in the
            # ROB, so the ROB is not empty.
            head = self.rob[0]
            stalled = head.became_head_at < cycle
            head_done = head.done_at
            rob_stalled = stalled and (head_done is None or head_done > cycle)
            self_stalled = stalled and head is entry
            for hook in hooks:
                hook(self, entry, cycle, rob_stalled, self_stalled)
        self._set_done(entry, cycle)

    def _set_done(self, entry: RobEntry, cycle: int) -> None:
        """Complete a load or a woken entry at ``cycle``: start the
        dependents it was the last producer of, end a mispredict's fetch
        stall, and wake the core when the entry holds the ROB head."""
        entry.done_at = cycle
        dependents = entry.dependents
        if dependents is not None:
            entry.dependents = None
            for dependent in dependents:
                if cycle > dependent.ready_at:
                    dependent.ready_at = cycle
                dependent.deps -= 1
                if dependent.deps == 0:
                    self._begin_execution(dependent, dependent.ready_at)
        if entry.is_mispredict:
            resume = self.fetch_stall_until = (
                cycle + self.config.mispredict_penalty)
            if resume < self.next_wake:
                self.next_wake = resume
        if self.rob[0] is entry and cycle < self.next_wake:
            self.next_wake = cycle

    @property
    def rob_occupancy(self) -> int:
        return len(self.rob)

    def counters(self) -> Dict[str, int]:
        """The ``core{N}.cpu`` counter group: the retirement statistics
        of the measured window under their ``CoreResult`` names, and the
        branch predictor's prediction counts, which run across warm-up
        as well."""
        stats = self.stats
        predictor = self.branch_predictor
        return {
            "instructions": stats.instructions,
            "cycles": stats.finish_cycle,
            "loads": stats.loads,
            "stores": stats.stores,
            "branches": stats.branches,
            "mispredicts": stats.mispredicts,
            "head_stall_cycles": stats.head_stall_cycles,
            "head_stall_cycles_miss": stats.head_stall_cycles_miss,
            "critical_load_instances": stats.critical_load_instances,
            "load_instances_beyond_l1": stats.load_instances_beyond_l1,
            "branch_predictions": predictor.predictions,
            "branch_mispredictions": predictor.mispredictions,
        }
