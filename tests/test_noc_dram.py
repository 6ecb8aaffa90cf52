"""Tests for the NoC and DRAM substrates."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MulticoreSystem, scaled_config
from repro.config import DramConfig
from repro.dram import AddressMapping, DramSystem
from repro.noc import MeshNoc
from repro.sim.engine import Engine


class TestMeshRouting:
    def test_hops_manhattan(self):
        noc = MeshNoc(4)
        assert noc.hops(0, 0) == 0
        assert noc.hops(0, 3) == 3
        assert noc.hops(0, 15) == 6
        assert noc.hops(5, 10) == 2

    def test_route_length_matches_hops(self):
        noc = MeshNoc(4)
        for src in range(16):
            for dst in range(16):
                assert len(noc.route(src, dst)) == noc.hops(src, dst)

    def test_route_links_are_adjacent(self):
        noc = MeshNoc(8)
        for src, dst in [(0, 63), (7, 56), (12, 33)]:
            for a, b in noc.route(src, dst):
                ax, ay = noc.coordinates(a)
                bx, by = noc.coordinates(b)
                assert abs(ax - bx) + abs(ay - by) == 1

    def test_route_out_of_range(self):
        noc = MeshNoc(2)
        with pytest.raises(ValueError):
            noc.route(0, 4)

    @given(st.integers(0, 63), st.integers(0, 63))
    @settings(max_examples=50, deadline=None)
    def test_xy_route_is_deterministic_and_terminates(self, src, dst):
        noc = MeshNoc(8)
        links = noc.route(src, dst)
        if links:
            assert links[0][0] == src
            assert links[-1][1] == dst


class TestMeshTiming:
    def test_local_delivery(self):
        noc = MeshNoc(4)
        arrival = noc.send_request(3, 3, now=100)
        assert arrival == 100 + noc.config.router_latency

    def test_latency_grows_with_distance(self):
        noc = MeshNoc(8)
        near = noc.send_data(0, 1, now=0)
        noc_far = MeshNoc(8)
        far = noc_far.send_data(0, 63, now=0)
        assert far > near

    def test_contention_serialises_a_link(self):
        noc = MeshNoc(4)
        first = noc.send_data(0, 1, now=0)
        second = noc.send_data(0, 1, now=0)
        assert second > first

    def test_high_priority_overtakes_low(self):
        congested = MeshNoc(4)
        for _ in range(10):
            congested.send_data(0, 1, now=0, high_priority=False)
        high = congested.send_data(0, 1, now=0, high_priority=True)
        low = congested.send_data(0, 1, now=0, high_priority=False)
        assert high < low

    def test_stats_accumulate(self):
        noc = MeshNoc(4)
        noc.send_request(0, 3, now=0)
        noc.send_data(3, 0, now=10)
        assert noc.stats.packets == 2
        assert noc.stats.flits == (noc.config.address_packet_flits
                                   + noc.config.data_packet_flits)
        assert noc.stats.average_latency > 0


class TestAddressMapping:
    def test_channel_interleaving_at_line_granularity(self):
        mapping = AddressMapping(DramConfig(channels=4))
        channels = [mapping.locate(line).channel for line in range(8)]
        assert channels == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_row_locality_within_channel(self):
        mapping = AddressMapping(DramConfig(channels=1))
        first = mapping.locate(0)
        same_row = mapping.locate(10)
        assert (first.bank, first.row) == (same_row.bank, same_row.row)

    def test_bank_hashing_spreads_aligned_bases(self):
        """Streams starting at large power-of-two offsets must not all land
        on the same bank (the XOR hash breaks the alignment)."""
        mapping = AddressMapping(DramConfig(channels=1))
        base_lines = [i * (1 << 22) for i in range(16)]
        banks = {mapping.locate(line).bank for line in base_lines}
        assert len(banks) > 4

    def test_rejects_tiny_row_buffer(self):
        """The config gate, not the mapping, rejects a row buffer
        smaller than a line."""
        config = scaled_config(num_cores=1, channels=1, sim_instructions=500)
        config.dram.row_buffer_bytes = 32
        with pytest.raises(ValueError, match=re.escape(
                "dram.row_buffer_bytes must be at least the line size "
                "(64), got 32")):
            MulticoreSystem(config, ["605.mcf_s-1536B"])

    @given(st.integers(min_value=0, max_value=1 << 45))
    @settings(max_examples=100, deadline=None)
    def test_coordinates_in_range(self, line):
        config = DramConfig(channels=8)
        mapping = AddressMapping(config)
        where = mapping.locate(line)
        assert 0 <= where.channel < config.channels
        assert 0 <= where.bank < config.banks_per_channel
        assert where.row >= 0


class TestDramChannel:
    def _system(self, channels: int = 1) -> tuple:
        engine = Engine()
        dram = DramSystem(DramConfig(channels=channels), engine)
        return engine, dram

    def _drain(self, engine: Engine) -> None:
        class _Idle:
            next_wake = float("inf")
            done = False

            def tick(self, cycle):
                self.done = True

        idle = _Idle()
        idle.done = False
        # Run the event loop until no events remain.
        while engine.pending_events:
            engine.now = engine.next_event_cycle
            engine._drain_events_at(engine.now)

    def test_single_read_latency_components(self):
        engine, dram = self._system()
        done = []
        dram.read(0, now=0, callback=done.append)
        self._drain(engine)
        config = dram.config
        # Cold bank: tRCD + CAS + burst.
        expected = config.trcd_cycles + config.cas_cycles + config.burst_cycles
        assert done == [expected]

    def test_row_hit_faster_than_row_conflict(self):
        engine, dram = self._system()
        times = []
        dram.read(0, now=0, callback=times.append)
        self._drain(engine)
        start = times[-1]
        dram.read(1, now=start, callback=times.append)       # same row
        self._drain(engine)
        hit_latency = times[-1] - start
        start = times[-1]
        conflict_line = 64 * dram.config.banks_per_channel * 16
        # Find a line mapping to bank 0 with a different row.
        mapping = dram.mapping
        target = None
        for candidate in range(64, 1 << 20, 64):
            where = mapping.locate(candidate)
            if where.bank == mapping.locate(0).bank and where.row != 0:
                target = candidate
                break
        assert target is not None
        dram.read(target, now=start, callback=times.append)
        self._drain(engine)
        conflict_latency = times[-1] - start
        assert conflict_latency > hit_latency

    def test_bus_serialises_throughput(self):
        """N row-hit reads drain at ~burst_cycles per line."""
        engine, dram = self._system()
        done = []
        for line in range(32):
            dram.read(line, now=0, callback=done.append)
        self._drain(engine)
        span = max(done) - min(done)
        assert span >= 31 * dram.config.burst_cycles * 0.8

    def test_demand_prioritised_over_prefetch(self):
        engine, dram = self._system()
        order = []
        for line in range(8):
            dram.read(line + 100 * 64, now=0,
                      callback=lambda t, l=line: order.append(("pf", l)),
                      is_prefetch=True)
        dram.read(5000 * 64, now=0,
                  callback=lambda t: order.append(("demand", 0)))
        self._drain(engine)
        demand_pos = order.index(("demand", 0))
        assert demand_pos < len(order) - 1

    def test_critical_prefetch_gets_demand_priority(self):
        engine, dram = self._system()
        order = []
        for line in range(8):
            dram.read(line + 100 * 64, now=0,
                      callback=lambda t, l=line: order.append("pf"),
                      is_prefetch=True)
        dram.read(5000 * 64, now=0, callback=lambda t: order.append("crit"),
                  is_prefetch=True, crit=True)
        self._drain(engine)
        assert order.index("crit") < len(order) - 1

    def test_writes_drain_and_count(self):
        engine, dram = self._system()
        for line in range(4):
            dram.write(line, now=0)
        self._drain(engine)
        assert dram.total_writes == 4

    def test_utilization_bounded(self):
        engine, dram = self._system()
        for line in range(16):
            dram.read(line, now=0, callback=lambda t: None)
        self._drain(engine)
        assert 0.0 < dram.utilization(engine.now) <= 1.0

    def test_in_flight_never_negative(self):
        engine, dram = self._system()
        for line in range(64):
            dram.read(line * 7, now=0, callback=lambda t: None)
        self._drain(engine)
        assert all(ch.in_flight == 0 for ch in dram.channels)
