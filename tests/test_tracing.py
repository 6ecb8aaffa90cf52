"""Tests for request-level latency tracing."""

from __future__ import annotations

import pytest

from repro import MulticoreSystem, scaled_config
from repro.cpu.core_model import ServiceLevel
from repro.sim.tracing import (RequestRecord, RequestTrace,
                               format_latency_report)
from repro.trace import homogeneous_mix


def _record(latency=100, level=ServiceLevel.DRAM, merged=False,
            issued=1000) -> RequestRecord:
    return RequestRecord(core_id=0, address=0x1000, issued_at=issued,
                         completed_at=issued + latency, level=level,
                         merged_into_prefetch=merged)


class TestRequestTrace:
    def test_latency_property(self):
        assert _record(latency=42).latency == 42

    def test_capacity_drops_overflow(self):
        trace = RequestTrace(capacity=2)
        for _ in range(5):
            trace.append(_record())
        assert len(trace) == 2
        assert trace.dropped == 3

    def test_percentiles_ordered(self):
        trace = RequestTrace()
        for latency in range(1, 101):
            trace.append(_record(latency=latency))
        assert trace.percentile(0.5) <= trace.percentile(0.9) \
            <= trace.percentile(0.99)
        assert trace.percentile(0.0) == 1.0

    def test_percentile_bounds_checked(self):
        with pytest.raises(ValueError):
            RequestTrace().percentile(1.5)

    def test_level_filter(self):
        trace = RequestTrace()
        trace.append(_record(latency=10, level=ServiceLevel.L1))
        trace.append(_record(latency=500, level=ServiceLevel.DRAM))
        assert trace.latencies(ServiceLevel.L1) == [10]
        assert trace.percentile(0.5, ServiceLevel.DRAM) == 500.0

    def test_level_breakdown(self):
        trace = RequestTrace()
        trace.append(_record(level=ServiceLevel.L1))
        trace.append(_record(level=ServiceLevel.L1))
        trace.append(_record(level=ServiceLevel.DRAM))
        assert trace.level_breakdown() == {"L1": 2, "DRAM": 1}

    def test_histogram_buckets(self):
        trace = RequestTrace()
        for latency in (10, 20, 120, 5_000):
            trace.append(_record(latency=latency))
        histogram = trace.histogram(bucket_cycles=50, max_buckets=10)
        assert histogram["0-49"] == 2
        assert histogram["100-149"] == 1
        assert histogram[">=500"] == 1

    def test_empty_percentile_zero(self):
        assert RequestTrace().percentile(0.9) == 0.0

    def test_rejects_zero_capacity(self):
        """A trace is built only for a positive capacity, and the config
        gate, not the trace, rejects a negative one."""
        config = scaled_config(num_cores=1, channels=1, sim_instructions=500)
        mix = ["605.mcf_s-1536B"]
        assert MulticoreSystem(config, mix).request_trace is None
        config.capture_request_trace = -1
        with pytest.raises(ValueError, match="capture_request_trace must "
                                             "not be negative, got -1"):
            MulticoreSystem(config, mix)


class TestTracingIntegration:
    def test_system_records_demand_loads(self):
        config = scaled_config(num_cores=2, channels=1,
                               sim_instructions=2_000)
        config.capture_request_trace = 10_000
        system = MulticoreSystem(config,
                                 homogeneous_mix("605.mcf_s-1536B", 2))
        result = system.run()
        trace = system.request_trace
        assert trace is not None and len(trace) > 0
        # Hits and misses are both present.
        breakdown = trace.level_breakdown()
        assert "L1" in breakdown
        assert any(level != "L1" for level in breakdown)
        # Traced loads never exceed retired loads.
        total_loads = sum(core.loads for core in result.cores)
        assert len(trace) <= total_loads

    def test_disabled_by_default(self):
        config = scaled_config(num_cores=1, channels=1,
                               sim_instructions=500)
        system = MulticoreSystem(config,
                                 homogeneous_mix("605.mcf_s-1536B", 1))
        assert system.request_trace is None

    def test_deeper_levels_slower(self):
        config = scaled_config(num_cores=2, channels=1,
                               sim_instructions=3_000)
        config.capture_request_trace = 10_000
        system = MulticoreSystem(config,
                                 homogeneous_mix("605.mcf_s-1536B", 2))
        system.run()
        trace = system.request_trace
        l1 = trace.percentile(0.5, ServiceLevel.L1)
        dram = trace.percentile(0.5, ServiceLevel.DRAM)
        assert dram > l1

    def test_report_renders(self):
        trace = RequestTrace()
        trace.append(_record(merged=True))
        text = format_latency_report(trace)
        assert "p99" in text and "merged into prefetch" in text
