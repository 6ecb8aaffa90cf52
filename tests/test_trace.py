"""Tests for the trace substrate: records, generators, workloads, mixes."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import (CLOUDSUITE_WORKLOADS, CVP_WORKLOADS, GAP_WORKLOADS,
                         SPEC_HOMOGENEOUS_MIXES, Op, StreamSpec,
                         SyntheticWorkload, TraceRecord, WorkloadSpec,
                         get_workload, heterogeneous_mixes, homogeneous_mix,
                         workload_names)
from repro.trace.record import validate_trace


class TestTraceRecord:
    def test_memory_classification(self):
        load = TraceRecord(0x400, Op.LOAD, address=0x1000, dst=1)
        alu = TraceRecord(0x404, Op.ALU, dst=2, srcs=(1,))
        assert load.is_memory
        assert not alu.is_memory

    def test_equality_and_hash(self):
        a = TraceRecord(0x400, Op.LOAD, address=0x1000, dst=1)
        b = TraceRecord(0x400, Op.LOAD, address=0x1000, dst=1)
        c = TraceRecord(0x400, Op.LOAD, address=0x2000, dst=1)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_copy_and_pickle_round_trip(self):
        # Records are immutable, so copy and pickle rebuild them through
        # the constructor rather than by assigning slots.
        record = TraceRecord(0x400, Op.LOAD, address=0x1000, dst=1,
                             srcs=(2,))
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record

    def test_validate_rejects_memory_without_address(self):
        with pytest.raises(ValueError, match="without address"):
            validate_trace([TraceRecord(0x400, Op.LOAD, address=0)])

    def test_validate_rejects_branch_with_destination(self):
        with pytest.raises(ValueError, match="branch with destination"):
            validate_trace([TraceRecord(0x400, Op.BRANCH, dst=3)])

    def test_validate_rejects_use_before_def(self):
        records = [TraceRecord(0x400, Op.ALU, dst=1, srcs=(2,))]
        with pytest.raises(ValueError, match="never produced"):
            validate_trace(records)

    def test_validate_accepts_wellformed(self):
        records = [
            TraceRecord(0x400, Op.LOAD, address=0x1000, dst=1),
            TraceRecord(0x404, Op.ALU, dst=2, srcs=(1,)),
            TraceRecord(0x408, Op.BRANCH, taken=True, srcs=(2,)),
            TraceRecord(0x40C, Op.STORE, address=0x1040, srcs=(1,)),
        ]
        validate_trace(records)


class TestStreamSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown stream kind"):
            StreamSpec(kind="zigzag")

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="weight"):
            StreamSpec(kind="stride", weight=0)

    def test_rejects_tiny_footprint(self):
        with pytest.raises(ValueError, match="footprint"):
            StreamSpec(kind="stride", footprint_kib=0)


class TestWorkloadSpec:
    def test_requires_streams(self):
        with pytest.raises(ValueError, match="no streams"):
            WorkloadSpec(name="empty", streams=[])

    def test_requires_positive_phases(self):
        with pytest.raises(ValueError, match="phases"):
            WorkloadSpec(name="w",
                         streams=[StreamSpec(kind="stride")], phases=0)


class TestSyntheticWorkload:
    def _spec(self) -> WorkloadSpec:
        return WorkloadSpec(name="unit", streams=[
            StreamSpec(kind="stride", weight=1.0, footprint_kib=64),
            StreamSpec(kind="pointer", weight=1.0, footprint_kib=1024),
            StreamSpec(kind="hotcold", weight=1.0, footprint_kib=1024),
            StreamSpec(kind="spatial", weight=1.0, footprint_kib=64),
            StreamSpec(kind="stream_store", weight=1.0, footprint_kib=64),
            StreamSpec(kind="random", weight=1.0, footprint_kib=64),
        ])

    def test_deterministic(self):
        spec = self._spec()
        a = SyntheticWorkload(spec).generate(500, core_id=3)
        b = SyntheticWorkload(spec).generate(500, core_id=3)
        assert a == b

    def test_cores_differ(self):
        spec = self._spec()
        a = SyntheticWorkload(spec).generate(500, core_id=0)
        b = SyntheticWorkload(spec).generate(500, core_id=1)
        assert a != b

    def test_exact_length(self):
        trace = SyntheticWorkload(self._spec()).generate(777)
        assert len(trace) == 777

    def test_wellformed(self):
        trace = SyntheticWorkload(self._spec()).generate(2000)
        validate_trace(trace)

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError, match="length"):
            SyntheticWorkload(self._spec()).generate(0)

    def test_contains_all_op_kinds(self):
        trace = SyntheticWorkload(self._spec()).generate(2000)
        kinds = {record.op for record in trace}
        assert kinds == {Op.LOAD, Op.STORE, Op.BRANCH, Op.ALU}

    def test_pointer_chase_serialises(self):
        """Pointer-stream loads must consume the prior chase register."""
        spec = WorkloadSpec(name="chase", streams=[
            StreamSpec(kind="pointer", weight=1.0, footprint_kib=1024),
        ], alu_filler_weight=0.001)
        trace = SyntheticWorkload(spec).generate(300)
        loads = [r for r in trace if r.op == Op.LOAD]
        dependent = [r for r in loads if r.srcs]
        assert len(dependent) >= len(loads) - 1
        for record in dependent:
            assert record.srcs == (record.dst,)

    def test_hotcold_branch_precedes_load(self):
        spec = WorkloadSpec(name="hc", streams=[
            StreamSpec(kind="hotcold", weight=1.0, footprint_kib=4096,
                       hot_footprint_kib=16),
        ], alu_filler_weight=0.001)
        trace = SyntheticWorkload(spec).generate(300)
        for i, record in enumerate(trace[:-1]):
            if record.op == Op.BRANCH and record.ip & 0xF == 0x4:
                assert trace[i + 1].op == Op.LOAD

    @given(st.integers(min_value=1, max_value=400))
    @settings(max_examples=20, deadline=None)
    def test_any_length_is_wellformed(self, length):
        trace = SyntheticWorkload(self._spec()).generate(length)
        assert len(trace) == length
        validate_trace(trace)

    def test_phases_rotate_weights(self):
        spec = WorkloadSpec(name="ph", streams=[
            StreamSpec(kind="stride", weight=10.0, footprint_kib=64),
            StreamSpec(kind="random", weight=0.1, footprint_kib=64),
        ], phases=2, phase_length=500, alu_filler_weight=0.1)
        trace = SyntheticWorkload(spec).generate(1500)
        # In phase 1 the random stream dominates; its loads have different
        # base IPs than the stride stream's.
        first = {r.ip for r in trace[:400] if r.op == Op.LOAD}
        second = {r.ip for r in trace[600:900] if r.op == Op.LOAD}
        assert first != second


class TestWorkloadRegistry:
    def test_counts_match_paper(self):
        assert len(SPEC_HOMOGENEOUS_MIXES) == 45
        assert len(GAP_WORKLOADS) == 12
        assert len(CLOUDSUITE_WORKLOADS) == 5
        assert len(CVP_WORKLOADS) == 5

    def test_every_name_resolves(self):
        for name in workload_names():
            spec = get_workload(name)
            assert spec.streams

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("999.nonesuch")

    def test_simpoints_of_same_benchmark_differ(self):
        a = get_workload("605.mcf_s-1536B")
        b = get_workload("605.mcf_s-472B")
        assert a.streams[2].footprint_kib != b.streams[2].footprint_kib

    def test_mcf_has_pointer_stream(self):
        spec = get_workload("605.mcf_s-1536B")
        assert any(s.kind == "pointer" for s in spec.streams)

    def test_lbm_has_store_stream(self):
        spec = get_workload("619.lbm_s-2676B")
        assert any(s.kind == "stream_store" for s in spec.streams)


class TestMixes:
    def test_homogeneous(self):
        mix = homogeneous_mix("605.mcf_s-1536B", 8)
        assert mix == ["605.mcf_s-1536B"] * 8

    def test_homogeneous_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            homogeneous_mix("605.mcf_s-1536B", 0)

    def test_heterogeneous_deterministic(self):
        a = heterogeneous_mixes(5, 8, seed=7)
        b = heterogeneous_mixes(5, 8, seed=7)
        assert a == b

    def test_heterogeneous_shape(self):
        mixes = heterogeneous_mixes(10, 16)
        assert len(mixes) == 10
        assert all(len(mix) == 16 for mix in mixes)

    def test_heterogeneous_draws_from_spec_and_gap(self):
        mixes = heterogeneous_mixes(50, 16, seed=1)
        names = {name for mix in mixes for name in mix}
        assert names & set(SPEC_HOMOGENEOUS_MIXES)
        assert names & set(GAP_WORKLOADS)

    def test_heterogeneous_rejects_empty_pool(self):
        with pytest.raises(ValueError, match="empty"):
            heterogeneous_mixes(1, 4, pool=[])
