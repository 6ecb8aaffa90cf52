"""Pinned synthetic traces, and the shape of a generated trace.

Every simulated point starts from ``SyntheticWorkload.generate``, so a
generator change that moves one record moves every result downstream.
These digests pin the generated traces themselves, record for record:
the sha256 of every field of every record, in order.  They cover every
registered workload at core ids 0 and 5 (``TRACE_LENGTH`` instructions
each), and every (workload, core id, length) that ``bench/run.py``'s
four workloads generate at seed 0.

The digests live in ``tests/data/equivalence/trace_digests.json``.
Re-pin only for an intended, reviewed behaviour change:
``python scripts/regenerate_equivalence_goldens.py`` rewrites the file
from the current generator.
"""

from __future__ import annotations

import json
from typing import Dict

import pytest

from equivalence_points import (BENCH_TRACES, TRACE_PIN, all_traces,
                                assert_unchanged, bench_traces,
                                generate_trace, registered_traces,
                                trace_digests, trace_key)

from repro.trace.record import Op, TraceRecord
from repro.trace.workloads import workload_names


def _pinned() -> Dict[str, str]:
    return json.loads(TRACE_PIN.read_text())["digests"]


def _assert_traces_match_pins(what: str, traces) -> None:
    fresh = trace_digests(traces)
    pinned = _pinned()
    assert_unchanged(what, {key: pinned.get(key) for key in fresh}, fresh)


@pytest.mark.parametrize("name", workload_names())
def test_registered_workload_trace_matches_pinned_digest(name):
    _assert_traces_match_pins(f"traces of {name}", registered_traces(name))


@pytest.mark.parametrize("bench", sorted(BENCH_TRACES))
def test_bench_trace_matches_pinned_digest(bench):
    _assert_traces_match_pins(f"traces of {bench}", bench_traces(bench))


def test_pins_cover_every_trace():
    assert sorted(_pinned()) == sorted(trace_key(*t) for t in all_traces())
    assert len(workload_names()) == 67


def test_generated_trace_holds_one_object_per_distinct_record():
    for name in workload_names():
        first = generate_trace(name, 5, 3_000)
        assert len({id(r) for r in first}) == len(set(first)), name
        # The pool is local to one call: two traces share no object.
        second = generate_trace(name, 5, 3_000)
        assert second == first
        assert {id(r) for r in first}.isdisjoint(id(r) for r in second)


@pytest.mark.parametrize("field", TraceRecord.__slots__)
def test_trace_record_fields_are_read_only(field):
    record = TraceRecord(0x400, Op.LOAD, address=0x1000, dst=1, srcs=(2,))
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, 7)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == before

