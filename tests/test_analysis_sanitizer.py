"""Tests for the runtime invariant sanitizer (repro.analysis.sanitizer).

Three claims are proven here:

1. **Off means off** -- a default-configured system installs no wrappers
   at all (the hot-path methods stay plain class attributes);
2. **On means checking** -- a sanitized end-to-end run completes with
   thousands of invariant evaluations across every category;
3. **Corruption is caught** -- deliberately breaking each protected
   invariant raises :class:`SimulationInvariantError` at the first bad
   event, not at the end of the run.
"""

from __future__ import annotations

import json
from collections import deque
from types import SimpleNamespace

import pytest

from equivalence_points import GOLDEN_DIR, POINTS

from repro.analysis.invariants import SimulationInvariantError, check
from repro.analysis.sanitizer import (Sanitizer, install_sanitizer,
                                      sanitize_enabled)
from repro.cache.cache import Cache
from repro.cache.mshr import MshrFile
from repro.config import CacheConfig, scaled_config
from repro.sim.engine import Engine
from repro.sim.system import MulticoreSystem
from repro.trace import homogeneous_mix

WORKLOAD = "605.mcf_s-1536B"


def tiny_system(sanitize: bool = False) -> MulticoreSystem:
    config = scaled_config(num_cores=2, channels=1, sim_instructions=1_500)
    config.sanitize = sanitize
    return MulticoreSystem(config, homogeneous_mix(WORKLOAD, 2))


# ----------------------------------------------------------------------
# Enablement plumbing
# ----------------------------------------------------------------------

class TestEnablement:
    def test_default_is_off(self):
        assert not sanitize_enabled(environ={})

    def test_env_var_enables(self):
        assert sanitize_enabled(environ={"REPRO_SANITIZE": "1"})
        assert sanitize_enabled(environ={"REPRO_SANITIZE": "yes"})

    def test_falsey_env_values_stay_off(self):
        for value in ("", "0", "false", "no", "off", " 0 ", "FALSE"):
            assert not sanitize_enabled(environ={"REPRO_SANITIZE": value})

    def test_config_flag_enables(self):
        config = scaled_config(num_cores=2, channels=1,
                               sim_instructions=100)
        config.sanitize = True
        assert sanitize_enabled(config, environ={})

    def test_env_var_wires_system(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        system = tiny_system(sanitize=False)
        assert system.sanitizer is not None

    def test_env_var_zero_does_not_wire(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        system = tiny_system(sanitize=False)
        assert system.sanitizer is None


class TestZeroOverheadWhenOff:
    def test_no_hooks_installed(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        system = tiny_system(sanitize=False)
        assert system.sanitizer is None
        # The wrappers are per-instance attributes; when off, every hot
        # method must still resolve to the plain class attribute.
        assert "schedule" not in vars(system.engine)
        assert "_drain_events_at" not in vars(system.engine)
        assert "send" not in vars(system.noc)
        for channel in system.dram.channels:
            assert "_service" not in vars(channel)
        for node in system.nodes:
            assert "fill" not in vars(node.l1d)
            assert "allocate" not in vars(node.l1_mshr)
        for core in system.cores:
            assert "tick" not in vars(core)


# ----------------------------------------------------------------------
# End-to-end sanitized runs
# ----------------------------------------------------------------------

class TestSanitizedRun:
    def test_clean_run_passes_and_counts_checks(self):
        system = tiny_system(sanitize=True)
        sanitizer = system.sanitizer
        assert sanitizer is not None
        result = system.run()
        assert result.total_instructions > 0
        assert sanitizer.checks_run > 1_000
        for category in ("engine", "mshr", "cache", "dram", "noc", "rob",
                         "final"):
            assert sanitizer.checks_by_category.get(category, 0) > 0, (
                f"no {category} checks ran")
        assert "checks" in sanitizer.summary()

    def test_sanitized_matches_unsanitized_result(self):
        # The sanitizer observes; it must never perturb simulated time.
        clean = tiny_system(sanitize=False).run()
        checked = tiny_system(sanitize=True).run()
        assert checked.total_cycles == clean.total_cycles
        assert checked.ipc_per_core == clean.ipc_per_core
        assert checked.dram.reads == clean.dram.reads


# ----------------------------------------------------------------------
# Corruption detection, component by component
# ----------------------------------------------------------------------

class TestEngineInvariants:
    def test_schedule_in_past_caught(self):
        engine = Engine()
        Sanitizer().wrap_engine(engine)
        engine.now = 100
        with pytest.raises(SimulationInvariantError, match="past"):
            engine.schedule(50, lambda: None)

    def test_non_integer_cycle_caught(self):
        engine = Engine()
        Sanitizer().wrap_engine(engine)
        with pytest.raises(SimulationInvariantError, match="non-integer"):
            engine.schedule(10.5, lambda: None)

    def test_time_rewind_caught(self):
        engine = Engine()
        Sanitizer().wrap_engine(engine)
        engine.now = 40
        engine._drain_events_at(40)
        engine.now = 30  # simulated-time rewind
        with pytest.raises(SimulationInvariantError, match="backwards"):
            engine._drain_events_at(30)


class TestMshrInvariants:
    def wrapped(self, capacity: int = 4) -> MshrFile:
        mshr_file = MshrFile(capacity)
        Sanitizer().wrap_mshr(mshr_file, "test MSHR")
        return mshr_file

    def test_occupancy_bound_enforced(self):
        mshr_file = self.wrapped(capacity=2)
        mshr_file.allocate(0x100, False, False, 0, 0)
        mshr_file.allocate(0x200, False, False, 0, 0)
        with pytest.raises(SimulationInvariantError, match="full"):
            mshr_file.allocate(0x300, False, False, 0, 0)

    def test_duplicate_allocation_caught(self):
        mshr_file = self.wrapped()
        mshr_file.allocate(0x100, False, False, 0, 0)
        with pytest.raises(SimulationInvariantError,
                           match="already outstanding"):
            mshr_file.allocate(0x100, True, False, 0, 5)

    def test_phantom_release_caught(self):
        mshr_file = self.wrapped()
        with pytest.raises(SimulationInvariantError, match="release"):
            mshr_file.release(0xdead)

    def test_foreign_merge_caught(self):
        mshr_file = self.wrapped()
        mshr = mshr_file.allocate(0x100, False, False, 0, 0)
        mshr_file.release(0x100)
        with pytest.raises(SimulationInvariantError, match="merge"):
            mshr_file.merge(mshr, None, False)

    def test_clean_sequence_passes(self):
        mshr_file = self.wrapped()
        mshr = mshr_file.allocate(0x100, False, False, 0, 0)
        mshr_file.merge(mshr, None, True)
        assert mshr_file.release(0x100) is mshr


class TestCacheInvariants:
    def wrapped(self) -> Cache:
        cache = Cache(CacheConfig(name="toy", size_kib=4, ways=2,
                                  mshr_entries=4))
        Sanitizer().wrap_cache(cache, "toy cache")
        return cache

    def test_clean_fills_pass(self):
        cache = self.wrapped()
        for line in range(4):
            cache.fill(line, pc=0, now=line)
            assert cache.probe(line)

    def test_corrupted_tag_map_caught(self):
        cache = self.wrapped()
        cache.fill(0x10, pc=0, now=0)
        set_index = cache.set_index(0x10)
        # Point the tag map at a way that holds nothing.
        cache._map[set_index][0xBAD] = 1
        with pytest.raises(SimulationInvariantError):
            cache.fill(0x10 + cache.num_sets, pc=0, now=1)

    def test_invalidate_checked(self):
        cache = self.wrapped()
        cache.fill(0x20, pc=0, now=0)
        cache.invalidate(0x20)
        assert not cache.probe(0x20)


class TestRobInvariants:
    """The per-tick retirement check, against a core that retires as
    told: ``pop_at`` picks which ROB slot the next tick removes."""

    class FakeEntry:
        def __init__(self, seq, done_at):
            self.seq = seq
            self.done_at = done_at

    class FakeCore:
        core_id = 0
        config = SimpleNamespace(retire_width=2)

        def __init__(self, *done_at):
            self.rob = deque(TestRobInvariants.FakeEntry(seq, done)
                             for seq, done in enumerate(done_at))
            self.retired = 0
            self.order = []
            self.pop_at = 0

        def tick(self, cycle):
            entry = self.rob[self.pop_at]
            del self.rob[self.pop_at]
            self.retired += 1
            self.order.append(entry.seq)

    def test_fifo_order_enforced(self):
        core = self.FakeCore(5, 5, 5)
        Sanitizer().wrap_core(core)
        core.tick(10)
        core.pop_at = 1  # retire seq 2 while seq 1 still holds the head
        with pytest.raises(SimulationInvariantError, match="FIFO"):
            core.tick(11)

    def test_retire_before_completion_caught(self):
        core = self.FakeCore(20)
        Sanitizer().wrap_core(core)
        with pytest.raises(SimulationInvariantError, match="completing"):
            core.tick(10)

    def test_clean_retirement_passes(self):
        core = self.FakeCore(0, 1, 2)
        sanitizer = Sanitizer()
        sanitizer.wrap_core(core)
        for seq in range(3):
            core.tick(seq + 1)
        assert core.order == [0, 1, 2]
        assert sanitizer.checks_by_category["rob"] == 2 * 3


@pytest.mark.parametrize("point", sorted(POINTS))
def test_sanitized_golden_point(point):
    """Every golden point runs clean under the sanitizer, reproduces its
    golden result, and gets two ROB checks per retired instruction,
    warm-up included."""
    config, mix = POINTS[point]()
    config.sanitize = True
    system = MulticoreSystem(config, mix)
    result = system.run().to_dict()
    golden = json.loads((GOLDEN_DIR / f"{point}.json").read_text())
    assert result == golden["result"]
    retired = sum(core.retired for core in system.cores)
    assert retired == config.num_cores * (config.warmup_instructions
                                          + config.sim_instructions)
    assert system.sanitizer.checks_by_category["rob"] == 2 * retired


#: ``checks_by_category`` of three sanitized golden points: the bare
#: demand path, CLIP over two prefetch levels, and the related-work
#: hooks (Hermes, DSPatch, a throttle, the MMU).  Every scheduled event,
#: MSHR operation, fill, DRAM service and NoC packet is one shim call,
#: so a component that binds a method before the sanitizer wraps it --
#: or skips one -- moves these counts.
PINNED_CHECKS = {
    "none_mcf": {"cache": 8400, "dram": 1257, "engine": 14280,
                 "final": 15, "mshr": 5158, "noc": 2584, "rob": 10000},
    "clip_berti_hetero": {"cache": 6633, "dram": 1056, "engine": 12934,
                          "final": 15, "mshr": 4353, "noc": 2088,
                          "rob": 10000},
    "mechanisms_stride": {"cache": 14113, "dram": 2514, "engine": 20390,
                          "final": 15, "mshr": 7379, "noc": 4536,
                          "rob": 12000},
}


@pytest.mark.parametrize("point", sorted(PINNED_CHECKS))
def test_sanitized_check_counts_pinned(point):
    config, mix = POINTS[point]()
    config.sanitize = True
    system = MulticoreSystem(config, mix)
    system.run()
    assert system.sanitizer.checks_by_category == PINNED_CHECKS[point]


def test_port_schedule_goes_through_the_engine_shim():
    """Ports bind ``engine.schedule`` when the hierarchy is built, so the
    sanitizer wraps the engine first: a past-cycle schedule through a
    port trips the shim's check, not the plain engine's ``ValueError``."""
    system = tiny_system(sanitize=True)
    engine = system.engine
    engine.now = 100
    port = system.nodes[0].l1.port
    with pytest.raises(SimulationInvariantError, match="past"):
        port.schedule(50, lambda: None)


class TestDramInvariants:
    def test_timing_tamper_caught(self):
        system = tiny_system(sanitize=True)
        channel = system.dram.channels[0]
        orig_service = type(channel)._service

        def tampered(request, now):
            orig_service(channel, request, now)
            channel.banks[request.bank].ready_at -= 1  # shave tRP spacing

        # Re-wrap the tampered implementation the same way install did.
        channel._service = tampered
        system.sanitizer.wrap_dram_channel(channel)
        from repro.dram.controller import DramRequest
        request = DramRequest(0x1000, bank=0, row=3, is_prefetch=False,
                              crit=False, enqueued_at=0,
                              callback=lambda done: None)
        with pytest.raises(SimulationInvariantError, match="spacing"):
            channel._service(request, 0)


class TestFinalCheck:
    def test_leftover_mshr_entry_caught(self):
        system = tiny_system(sanitize=True)
        system.run()
        system.nodes[0].l1_mshr.entries[0xF00] = object()
        with pytest.raises(SimulationInvariantError, match="quiescent"):
            system.sanitizer.final_check(system)

    def test_inconsistent_prefetch_stats_caught(self):
        system = tiny_system(sanitize=True)
        system.run()
        # More drops than candidates, summed over the per-core counters.
        node = system.nodes[0]
        node.pf_dropped_filter = sum(n.pf_candidates
                                     for n in system.nodes) + 1
        with pytest.raises(SimulationInvariantError, match="statistics"):
            system.sanitizer.final_check(system)


# ----------------------------------------------------------------------
# check() helper
# ----------------------------------------------------------------------

class TestCheckHelper:
    def test_passing_condition_is_silent(self):
        check(True, "never formatted %d", 1)

    def test_failing_condition_formats_lazily(self):
        with pytest.raises(SimulationInvariantError,
                           match=r"line 0xff stuck at 7"):
            check(False, "line %#x stuck at %d", 0xFF, 7)

    def test_is_runtime_error_subclass(self):
        # Pre-existing callers catch RuntimeError; the sanitizer must not
        # break them.
        assert issubclass(SimulationInvariantError, RuntimeError)
