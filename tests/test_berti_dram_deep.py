"""Deep-dive tests: Berti's scoring internals and DRAM scheduling policy."""

from __future__ import annotations

from repro.config import DramConfig
from repro.dram.controller import DramChannel, DramSystem
from repro.prefetch.berti import BertiPrefetcher
from repro.sim.engine import Engine


class TestBertiScoring:
    def _train(self, berti, ip=0x400, count=200, interval=30, latency=150):
        for i in range(count):
            address = 0x10000 + i * 64
            cycle = i * interval
            berti.on_access(ip, address, False, cycle)
            berti.on_fill(address, cycle + latency, prefetch=False, ip=ip,
                          issued_at=cycle)

    def test_aging_halves_votes(self):
        berti = BertiPrefetcher()
        self._train(berti, count=BertiPrefetcher.AGING_LIMIT + 5)
        state = berti._table[0x400]
        assert state.opportunities < BertiPrefetcher.AGING_LIMIT

    def test_watermark_splits_fill_levels(self):
        berti = BertiPrefetcher(degree=8)
        self._train(berti)
        state = berti._table[0x400]
        # Force a mixed-confidence best list and check classification.
        state.best = [(4, 0.9), (7, 0.3)]
        requests = berti.on_access(0x400, 0x90000, False, 10_000)
        by_delta = {(r.address - 0x90000) // 64: r.fill_level
                    for r in requests}
        assert by_delta[4] == 1   # high coverage -> L1
        assert by_delta[7] == 2   # low coverage  -> L2

    def test_ties_prefer_larger_deltas(self):
        berti = BertiPrefetcher()
        self._train(berti)
        state = berti._table[0x400]
        coverages = [c for _, c in state.best]
        deltas = [abs(d) for d, _ in state.best]
        for i in range(len(state.best) - 1):
            if coverages[i] == coverages[i + 1]:
                assert deltas[i] >= deltas[i + 1]

    def test_unknown_ip_fill_is_ignored(self):
        berti = BertiPrefetcher()
        berti.on_fill(0x5000, 100, prefetch=False, ip=0xDEAD, issued_at=50)
        assert 0xDEAD not in berti._table

    def test_prefetch_fills_do_not_train(self):
        berti = BertiPrefetcher()
        berti.on_access(0x400, 0x1000, False, 0)
        berti.on_fill(0x1040, 200, prefetch=True, ip=0x400, issued_at=0)
        assert berti._table[0x400].delta_votes == {}


def _drain(engine: Engine) -> None:
    while engine.pending_events:
        engine.now = engine.next_event_cycle
        engine._drain_events_at(engine.now)


class TestDramScheduling:
    def _channel(self, **config_kw):
        engine = Engine()
        config = DramConfig(channels=1, **config_kw)
        system = DramSystem(config, engine)
        return engine, system, system.channels[0]

    def test_write_watermark_triggers_drain(self):
        engine, system, channel = self._channel()
        watermark = int(system.config.write_queue_entries
                        * system.config.write_watermark)
        # Saturate the read path so writes would otherwise wait forever.
        reads_done = []
        for i in range(200):
            system.read(i, now=0, callback=reads_done.append)
        for i in range(watermark + 1):
            system.write((i + 1) * 977, now=0)
        _drain(engine)
        assert system.total_writes == watermark + 1
        assert len(reads_done) == 200

    def test_fr_fcfs_prefers_row_hit(self):
        engine, system, channel = self._channel()
        order = []
        # Prime bank/row state.
        system.read(0, now=0, callback=lambda t: order.append("prime"))
        _drain(engine)
        now = engine.now
        # A row conflict (same bank, different row) enqueued first...
        mapping = system.mapping
        prime = mapping.locate(0)
        conflict = next(line for line in range(64, 1 << 22, 64)
                        if mapping.locate(line).bank == prime.bank
                        and mapping.locate(line).row != prime.row)
        # Fill all in-flight slots so both land in the queue together.
        blockers = []
        for i in range(DramChannel.MAX_IN_FLIGHT):
            system.read(1 + i, now=now,
                        callback=lambda t: blockers.append(t))
        system.read(conflict, now=now,
                    callback=lambda t: order.append("conflict"))
        system.read(2 + DramChannel.MAX_IN_FLIGHT, now=now,
                    callback=lambda t: order.append("hit"))
        _drain(engine)
        assert order.index("hit") < order.index("conflict")

    def test_row_hit_rate_tracked(self):
        engine, system, channel = self._channel()
        for line in range(16):
            system.read(line, now=0, callback=lambda t: None)
        _drain(engine)
        # Every row miss opens its row with exactly one ACT.
        assert channel.stats.row_hits > sum(channel.stats.bank_activates)

    def test_average_latency_grows_under_load(self):
        engine_light, system_light, _ = self._channel()
        system_light.read(0, now=0, callback=lambda t: None)
        _drain(engine_light)
        light = system_light.average_read_latency()
        engine_heavy, system_heavy, _ = self._channel()
        for line in range(0, 6400, 7):
            system_heavy.read(line, now=0, callback=lambda t: None)
        _drain(engine_heavy)
        heavy = system_heavy.average_read_latency()
        assert heavy > light

    def test_more_channels_spread_load(self):
        engine1, system1, _ = self._channel()
        engine4 = Engine()
        system4 = DramSystem(DramConfig(channels=4), engine4)
        for line in range(256):
            system1.read(line, now=0, callback=lambda t: None)
            system4.read(line, now=0, callback=lambda t: None)
        _drain(engine1)
        _drain(engine4)
        assert system4.average_read_latency() < system1.average_read_latency()
