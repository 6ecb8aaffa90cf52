"""Direct unit tests for the repro.sim.hierarchy components.

The equivalence suite (test_hierarchy_equivalence.py) proves the
decomposed hierarchy reproduces the monolith bit for bit; these tests
pin each component's own contract -- Port back-pressure and FIFO
replay, typed messages, NoC delivery scheduling, and the per-layer
request handling -- against small, hand-built fixtures.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import scaled_config
from repro.cache.mshr import MshrFile
from repro.cpu.core_model import ServiceLevel
from repro.dram.controller import DramSystem
from repro.noc.mesh import MeshNoc
from repro.prefetch.base import PrefetchRequest
from repro.sim.engine import Engine
from repro.sim.hierarchy import (Hierarchy, MemoryRequest, MemoryResponse,
                                 NocLink, Port, privatize)


def _config(cores=2, **kw):
    config = scaled_config(num_cores=cores, channels=1,
                           sim_instructions=500)
    config.l1_prefetcher = dataclasses.replace(config.l1_prefetcher,
                                               name="none")
    for key, value in kw.items():
        setattr(config, key, value)
    return config


def _hierarchy(cores=2, **kw):
    config = _config(cores=cores, **kw)
    engine = Engine()
    noc = MeshNoc(config.mesh_dim, config.noc)
    dram = DramSystem(config.dram, engine)
    hierarchy = Hierarchy(config, engine, noc, dram, trace=None)
    return hierarchy, engine


# ----------------------------------------------------------------------
# Port: scheduling + MSHR back-pressure (satellite: replay ordering)
# ----------------------------------------------------------------------

class TestPort:
    def test_schedule_resolves_engine_dynamically(self):
        # The port binds whatever ``engine.schedule`` resolves to when
        # it is built, so an instance shim installed before wiring (the
        # sanitizer's) is the one every port calls.
        engine = Engine()
        seen = []
        engine.schedule = lambda cycle, cb: seen.append(cycle)
        Port(engine).schedule(7, lambda: None)
        assert seen == [7]

    def test_now_tracks_engine(self):
        # Components read the cycle through their port's engine.
        engine = Engine()
        port = Port(engine)
        engine.now = 42
        assert port.engine.now == 42

    def test_mshr_operations_require_mshr(self):
        port = Port(Engine())
        with pytest.raises(TypeError, match="no MSHR"):
            port.replay()
        with pytest.raises(TypeError, match="no MSHR"):
            port.defer(lambda: None)

    def test_replay_is_fifo(self):
        port = Port(Engine(), MshrFile(1))
        port.mshr.allocate(0xA, False, False, 0, 0)
        order = []
        for tag in (1, 2, 3):
            port.defer(lambda tag=tag: order.append(tag))
        assert port.mshr.full and order == []
        port.mshr.release(0xA)
        port.replay()
        assert order == [1, 2, 3]

    def test_replay_no_starvation_when_mshr_refills(self):
        # Each replayed request immediately re-fills the single register:
        # replay must stop without dropping or reordering the rest, and
        # later releases must keep draining in FIFO order.
        port = Port(Engine(), MshrFile(1))
        order = []

        def retry(line):
            if port.mshr.full:
                port.defer(lambda: retry(line))
                return
            port.mshr.allocate(line, False, False, 0, 0)
            order.append(line)

        port.mshr.allocate(0xA, False, False, 0, 0)
        for line in (1, 2, 3):
            retry(line)
        assert order == []
        port.mshr.release(0xA)
        port.replay()
        assert order == [1]  # register refilled; 2 and 3 keep their place
        for expect in ((2,), (2, 3)):
            port.mshr.release(order[-1])
            port.replay()
            assert tuple(order[1:]) == expect

    def test_replayed_requests_keep_queue_position(self):
        # A replayed thunk that must defer again goes to the *back*; the
        # queue itself is never reordered while full.
        port = Port(Engine(), MshrFile(1))
        port.mshr.allocate(0xA, False, False, 0, 0)
        popped = []
        port.defer(lambda: popped.append("first"))
        port.defer(lambda: popped.append("second"))
        port.replay()  # still full: nothing pops
        assert popped == []
        assert len(port.mshr.pending) == 2


# ----------------------------------------------------------------------
# Typed messages
# ----------------------------------------------------------------------

class TestMessages:
    def test_privatize_separates_cores(self):
        assert privatize(0, 0x1000) != privatize(1, 0x1000)
        assert privatize(0, 0x1000) == privatize(0, 0x1040 - 0x40)

    def test_priority_rules(self):
        demand = MemoryRequest(line=1, address=0x40, ip=0, core_id=0)
        prefetch = demand._replace(is_prefetch=True)
        critical = prefetch._replace(crit=True)
        assert demand.high_priority
        assert not prefetch.high_priority
        assert critical.high_priority

    def test_messages_are_frozen(self):
        req = MemoryRequest(line=1, address=0x40, ip=0, core_id=0)
        resp = MemoryResponse(line=1, at=10, level=ServiceLevel.L2)
        with pytest.raises(AttributeError):
            req.line = 2
        with pytest.raises(AttributeError):
            resp.at = 11


# ----------------------------------------------------------------------
# NocLink: delivery scheduling
# ----------------------------------------------------------------------

class TestNocLink:
    def _link(self):
        config = _config()
        engine = Engine()
        scheduled = []
        engine.schedule = lambda cycle, cb: scheduled.append((cycle, cb))
        noc = MeshNoc(config.mesh_dim, config.noc)
        return NocLink(noc, Port(engine)), scheduled

    def test_request_schedules_delivery_at_arrival(self):
        link, scheduled = self._link()
        delivered = []
        link.request(0, 1, 5, True, lambda: delivered.append(True))
        assert len(scheduled) == 1
        cycle, cb = scheduled[0]
        assert cycle >= 5
        cb()
        assert delivered == [True]

    def test_data_without_deliver_is_fire_and_forget(self):
        link, scheduled = self._link()
        arrival = link.data(0, 1, 5, False)
        assert arrival >= 5
        assert scheduled == []


# ----------------------------------------------------------------------
# L1Node
# ----------------------------------------------------------------------

class TestL1Node:
    def test_hit_calls_back_after_l1_latency(self):
        hierarchy, engine = _hierarchy()
        l1 = hierarchy.nodes[0].l1
        l1.cache.fill(privatize(0, 0x4000), 0, 0)
        results = []
        hierarchy.issue_load(0, 0x4000, ip=0x11, cycle=0,
                             callback=lambda t, lvl: results.append((t, lvl)))
        engine.run([])
        assert results == [(l1.latency, ServiceLevel.L1)]

    def test_cold_miss_travels_to_dram_and_back(self):
        hierarchy, engine = _hierarchy()
        results = []
        hierarchy.issue_load(0, 0x4000, ip=0x11, cycle=0,
                             callback=lambda t, lvl: results.append((t, lvl)))
        engine.run([])
        assert [lvl for _, lvl in results] == [ServiceLevel.DRAM]
        reads = sum(ch.stats.reads
                    for ch in hierarchy.dram_port.dram.channels)
        assert reads == 1
        assert l1_resident(hierarchy, 0, 0x4000)

    def test_full_l1_mshr_defers_demand_fifo(self):
        hierarchy, engine = _hierarchy()
        node = hierarchy.nodes[0]
        port = node.l1.port
        for i in range(port.mshr.capacity):
            port.mshr.allocate(0x9000 + i, False, False, 0, 0)
        results = []
        hierarchy.issue_load(0, 0x4000, ip=0x11, cycle=0,
                             callback=lambda t, lvl: results.append(lvl))
        assert len(port.mshr.pending) == 1 and results == []
        for i in range(port.mshr.capacity):
            port.mshr.release(0x9000 + i)
        port.replay()
        engine.run([])
        assert results == [ServiceLevel.DRAM]


def l1_resident(hierarchy, core_id, address):
    return hierarchy.nodes[core_id].l1.cache.probe(
        privatize(core_id, address))


# ----------------------------------------------------------------------
# L2Node
# ----------------------------------------------------------------------

class TestL2Node:
    def test_unattached_prefetch_dropped_and_uncounted_when_full(self):
        hierarchy, _ = _hierarchy()
        node = hierarchy.nodes[0]
        l2 = node.l2
        for i in range(l2.port.mshr.capacity):
            l2.port.mshr.allocate(0x9000 + i, False, False, 0, 0)
        node.pf_issued = 1
        req = MemoryRequest(line=privatize(0, 0x4000), address=0x4000,
                            ip=0x11, core_id=0, is_prefetch=True)
        l2.request(req, 0, respond=None)
        assert node.pf_dropped_mshr == 1
        # Un-counted: it never entered the hierarchy.
        assert node.pf_issued == 0

    def test_hit_responds_after_l2_latency(self):
        hierarchy, engine = _hierarchy()
        l2 = hierarchy.nodes[0].l2
        line = privatize(0, 0x4000)
        l2.cache.fill(line, 0, 0)
        responses = []
        req = MemoryRequest(line=line, address=0x4000, ip=0x11, core_id=0)
        l2.request(req, 0, respond=responses.append)
        engine.run([])
        assert responses == [MemoryResponse(line, l2.latency,
                                            ServiceLevel.L2)]

    def test_accept_writeback_installs_dirty(self):
        hierarchy, _ = _hierarchy()
        l2 = hierarchy.nodes[0].l2
        line = privatize(0, 0x4000)
        l2.accept_writeback(line, 3)
        assert l2.cache.probe(line)


# ----------------------------------------------------------------------
# LlcSlice
# ----------------------------------------------------------------------

class _WriteRecorder:
    def __init__(self):
        self.writes = []

    def write(self, line, t):
        self.writes.append(line)


class TestLlcSlice:
    def test_dirty_victim_write_reconstructs_global_line(self):
        hierarchy, _ = _hierarchy()
        slice_ = hierarchy.slices[0]
        recorder = _WriteRecorder()
        slice_.dram = recorder
        sets, ways = slice_.cache.num_sets, slice_.cache.ways
        # Global lines for slice 0 whose slice-local addresses collide in
        # set 0: local = k * sets, global = local * num_slices.
        lines = [k * sets * hierarchy.num_slices for k in range(ways + 1)]
        for t, line in enumerate(lines):
            assert line % hierarchy.num_slices == 0
            slice_.fill(line, t, pc=0, prefetch=False, dirty=True)
        assert len(recorder.writes) == 1
        assert recorder.writes[0] in lines  # global address, not local

    def test_hit_returns_data_to_origin_l2(self):
        hierarchy, engine = _hierarchy()
        origin = hierarchy.nodes[0]
        line = privatize(0, 0x4000)
        slice_ = hierarchy.slices[line % hierarchy.num_slices]
        slice_.fill(line, 0, pc=0, prefetch=False)
        # Park an L2 MSHR entry so the returned data has a home.
        mshr = origin.l2.port.mshr.allocate(line, False, False, 0x11, 0)
        responses = []
        mshr.waiters.append(responses.append)
        req = MemoryRequest(line=line, address=0x4000, ip=0x11, core_id=0)
        slice_.lookup(req, origin)
        engine.run([])
        assert [r.level for r in responses] == [ServiceLevel.LLC]
        assert origin.l2.cache.probe(line)


# ----------------------------------------------------------------------
# PrefetchFilterChain
# ----------------------------------------------------------------------

class _AlwaysCold:
    def predicts_critical_ip(self, ip):
        return False


class TestFilterChain:
    def test_enabled_gate_drops_candidates(self):
        hierarchy, _ = _hierarchy()
        node = hierarchy.nodes[0]
        chain = node.chain
        chain.crit_gate = _AlwaysCold()
        chain.gate_enabled = True
        chain.handle([PrefetchRequest(0x4000, 1, 0x11)], cycle=0)
        assert node.pf_candidates == 1
        assert node.pf_dropped_filter == 1
        assert node.pf_issued == 0

    def test_ungated_candidates_reach_issuing_layer(self):
        hierarchy, _ = _hierarchy()
        node = hierarchy.nodes[0]
        issued = []
        node.chain.issue = lambda req, cycle, crit: issued.append(
            (req.address, crit))
        node.chain.handle([PrefetchRequest(0x4000, 1, 0x11)], cycle=0)
        assert issued == [(0x4000, False)]
        assert node.pf_candidates == 1
        assert node.pf_dropped_filter == 0


# ----------------------------------------------------------------------
# CoreNode flat views
# ----------------------------------------------------------------------

class TestCoreNode:
    def test_flat_views_alias_layer_state(self):
        hierarchy, _ = _hierarchy()
        node = hierarchy.nodes[0]
        assert node.l1d is node.l1.cache
        assert node.l1_mshr is node.l1.mshr is node.l1.port.mshr
        assert node.l2_cache is node.l2.cache
        assert node.l2_mshr is node.l2.mshr is node.l2.port.mshr
        assert node.l1_pf is node.l1.prefetcher
        assert node.l2_pf is node.l2.prefetcher
        assert node.dspatch is node.chain.dspatch
        assert node.throttler is node.chain.throttler
