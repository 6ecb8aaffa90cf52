"""Tests for the event engine, branch predictor, and the OoO core model."""

from __future__ import annotations

import pytest

from repro.config import BranchPredictorConfig, CoreConfig
from repro.cpu import Core, HashedPerceptronPredictor, ServiceLevel
from repro.sim.engine import Engine
from repro.trace.record import Op, TraceRecord


class TestEngine:
    def test_events_run_in_time_order(self, engine):
        seen = []
        engine.schedule(10, lambda: seen.append(10))
        engine.schedule(5, lambda: seen.append(5))
        engine.schedule(7, lambda: seen.append(7))
        engine.now = 0
        engine._drain_events_at(100)
        assert seen == [5, 7, 10]

    def test_same_cycle_fifo(self, engine):
        seen = []
        engine.schedule(3, lambda: seen.append("a"))
        engine.schedule(3, lambda: seen.append("b"))
        engine._drain_events_at(3)
        assert seen == ["a", "b"]

    def test_cannot_schedule_in_past(self, engine):
        engine.now = 10
        with pytest.raises(ValueError):
            engine.schedule(5, lambda: None)

    def test_event_scheduling_event_same_cycle(self, engine):
        seen = []

        def outer():
            seen.append("outer")
            engine.schedule(engine.now, lambda: seen.append("inner"))

        engine.schedule(2, outer)
        engine.now = 2
        engine._drain_events_at(2)
        assert seen == ["outer", "inner"]

    def test_quiescence_drain_keeps_now_monotonic(self, engine):
        """Draining trailing events must never rewind ``now``; the cycle
        the last core retired is reported separately from the drain."""
        observed = []

        class OneShot:
            next_wake = 3
            done = False

            def tick(self, cycle):
                engine.schedule(40, lambda: observed.append(engine.now))
                engine.schedule(15, lambda: observed.append(engine.now))
                self.done = True
                self.next_wake = float("inf")

        finish = engine.run([OneShot()])
        assert finish == 3
        assert observed == [15, 40]  # drain advances in time order
        assert engine.quiesce_cycle == 40
        assert engine.now == 40  # monotonic: not rewound to finish

    def test_quiesce_cycle_equals_finish_when_nothing_in_flight(self,
                                                                engine):
        class Idle:
            next_wake = 7
            done = False

            def tick(self, cycle):
                self.done = True
                self.next_wake = float("inf")

        finish = engine.run([Idle()])
        assert finish == 7
        assert engine.quiesce_cycle == finish
        assert engine.now == finish

    def test_deadlock_detection(self, engine):
        class Stuck:
            next_wake = float("inf")
            done = False

            def tick(self, cycle):  # pragma: no cover - never called
                raise AssertionError

        with pytest.raises(RuntimeError, match="deadlock"):
            engine.run([Stuck()])


class TestBranchPredictor:
    def test_learns_always_taken(self):
        predictor = HashedPerceptronPredictor()
        for _ in range(100):
            predictor.predict_and_train(0x400, True)
        assert predictor.predict(0x400)
        assert predictor.accuracy > 0.9

    def test_learns_alternating_with_history(self):
        predictor = HashedPerceptronPredictor()
        outcome = False
        correct = 0
        for i in range(600):
            outcome = not outcome
            if predictor.predict_and_train(0x500, outcome):
                correct += 1 if i >= 200 else 0
        assert correct / 400 > 0.8

    def test_random_branch_near_base_rate(self):
        import random
        rng = random.Random(7)
        predictor = HashedPerceptronPredictor()
        correct = sum(
            predictor.predict_and_train(0x600, rng.random() < 0.5)
            for _ in range(500))
        assert correct < 400

    def test_weights_stay_bounded(self):
        config = BranchPredictorConfig(weight_bits=4)
        predictor = HashedPerceptronPredictor(config)
        for _ in range(500):
            predictor.predict_and_train(0x700, True)
        bound = 1 << (config.weight_bits - 1)
        for table in predictor._tables:
            assert all(-bound <= w < bound for w in table)


class _ScriptedMemory:
    """Memory stub with a scripted latency per line address."""

    def __init__(self, engine, latency=20, level=ServiceLevel.L2):
        self.engine = engine
        self.latency = latency
        self.level = level
        self.loads = []
        self.stores = []

    def issue_load(self, core_id, address, ip, cycle, callback):
        self.loads.append((address, cycle))
        done = cycle + self.latency
        self.engine.schedule(done, lambda: callback(done, self.level))

    def issue_store(self, core_id, address, ip, cycle):
        self.stores.append((address, cycle))


def _run_core(trace, latency=20, level=ServiceLevel.L2,
              config: CoreConfig | None = None):
    engine = Engine()
    memory = _ScriptedMemory(engine, latency, level)
    core = Core(0, config or CoreConfig(), trace, memory, engine)
    engine.run([core])
    return core, memory, engine


class TestCoreModel:
    def test_alu_only_trace_retires_fast(self):
        trace = [TraceRecord(0x400 + 4 * i, Op.ALU, dst=i % 8)
                 for i in range(120)]
        core, _, engine = _run_core(trace)
        assert core.stats.instructions == 120
        # 6-wide issue, 4-wide retire: at least 4 IPC asymptotically.
        assert core.stats.finish_cycle < 120

    def test_load_latency_stalls_head(self):
        trace = [TraceRecord(0x400, Op.LOAD, address=0x1000, dst=1)]
        core, _, engine = _run_core(trace, latency=50)
        assert core.stats.instructions == 1
        assert core.stats.head_stall_cycles >= 49
        assert core.stats.critical_load_instances == 1

    def test_l1_hits_are_not_critical(self):
        trace = [TraceRecord(0x400, Op.LOAD, address=0x1000, dst=1)]
        core, _, _ = _run_core(trace, latency=5, level=ServiceLevel.L1)
        assert core.stats.critical_load_instances == 0
        assert core.stats.load_instances_beyond_l1 == 0

    def test_independent_loads_overlap(self):
        trace = [TraceRecord(0x400 + i, Op.LOAD, address=0x1000 + 64 * i,
                             dst=i % 8) for i in range(8)]
        core, memory, _ = _run_core(trace, latency=100)
        # All eight issue within the first few cycles (MLP).
        issue_cycles = [cycle for _, cycle in memory.loads]
        assert max(issue_cycles) - min(issue_cycles) < 10
        assert core.stats.finish_cycle < 150

    def test_dependent_loads_serialise(self):
        trace = [
            TraceRecord(0x400, Op.LOAD, address=0x1000, dst=1),
            TraceRecord(0x404, Op.LOAD, address=0x2000, dst=1, srcs=(1,)),
        ]
        core, memory, _ = _run_core(trace, latency=100)
        issue_cycles = [cycle for _, cycle in memory.loads]
        assert issue_cycles[1] >= issue_cycles[0] + 100

    def test_mlp_recorded_at_issue(self):
        trace = [TraceRecord(0x400 + i, Op.LOAD, address=0x1000 + 64 * i,
                             dst=i % 8) for i in range(4)]
        mlps = []
        core = None

        def hook(c, entry, cycle):
            mlps.append(entry.mlp_at_issue)

        engine = Engine()
        memory = _ScriptedMemory(engine, 100)
        core = Core(0, CoreConfig(), trace, memory, engine)
        core.load_issue_hooks.append(hook)
        engine.run([core])
        assert mlps == [1, 2, 3, 4]

    def test_store_does_not_block_retirement(self):
        trace = [TraceRecord(0x400, Op.STORE, address=0x1000)]
        core, memory, _ = _run_core(trace, latency=500)
        assert core.stats.finish_cycle < 20
        assert memory.stores

    def test_mispredicted_branch_stalls_fetch(self):
        # A branch whose outcome alternates randomly enough to mispredict,
        # followed by ALUs: compare against an always-taken variant.
        import random
        rng = random.Random(3)
        noisy = []
        steady = []
        for i in range(150):
            noisy.append(TraceRecord(0x800, Op.BRANCH,
                                     taken=rng.random() < 0.5))
            steady.append(TraceRecord(0x800, Op.BRANCH, taken=True))
            for j in range(3):
                record = TraceRecord(0x900 + 4 * j, Op.ALU, dst=j)
                noisy.append(record)
                steady.append(record)
        noisy_core, _, _ = _run_core(noisy)
        steady_core, _, _ = _run_core(steady)
        assert noisy_core.stats.mispredicts > steady_core.stats.mispredicts
        assert noisy_core.stats.finish_cycle > steady_core.stats.finish_cycle

    def test_rob_capacity_limits_window(self):
        config = CoreConfig(rob_entries=8)
        trace = [TraceRecord(0x400 + i, Op.LOAD, address=0x1000 + 64 * i,
                             dst=i % 4) for i in range(32)]
        core, memory, _ = _run_core(trace, latency=200, config=config)
        # With an 8-entry ROB, at most 8 loads can be outstanding.
        issue_cycles = sorted(cycle for _, cycle in memory.loads)
        assert issue_cycles[8] >= issue_cycles[0] + 200

    def test_retire_hook_fires_for_every_instruction(self):
        trace = [TraceRecord(0x400, Op.ALU, dst=1) for _ in range(37)]
        engine = Engine()
        memory = _ScriptedMemory(engine)
        core = Core(0, CoreConfig(), trace, memory, engine)
        count = []
        core.retire_hooks.append(lambda *a: count.append(1))
        engine.run([core])
        assert len(count) == 37

    def test_history_snapshot_hook(self):
        trace = [TraceRecord(0x400, Op.LOAD, address=0x1000, dst=1)]
        engine = Engine()
        memory = _ScriptedMemory(engine)
        core = Core(0, CoreConfig(), trace, memory, engine)
        core.dispatch_hooks.append(
            lambda c, entry, cycle: setattr(entry, "history_snapshot",
                                            0x5A5))
        engine.run([core])

    def test_two_cores_run_to_completion(self):
        engine = Engine()
        memory = _ScriptedMemory(engine, latency=30)
        traces = [
            [TraceRecord(0x400 + i, Op.LOAD, address=0x1000 + 64 * i,
                         dst=i % 8) for i in range(20)],
            [TraceRecord(0x800 + i, Op.ALU, dst=i % 8) for i in range(50)],
        ]
        cores = [Core(i, CoreConfig(), traces[i], memory, engine)
                 for i in range(2)]
        engine.run(cores)
        assert all(core.done for core in cores)
