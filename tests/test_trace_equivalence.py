"""Pinned synthetic traces, and the shape of a generated trace.

Every simulated point starts from ``SyntheticWorkload.generate``, so a
generator change that moves one record moves every result downstream.
These digests pin the generated traces themselves, record for record:
the sha256 of every field of every record, in order.  They cover every
registered workload at core ids 0 and 5 (``LENGTH`` instructions each),
and every (workload, core id, length) that ``bench/run.py``'s four
workloads generate at seed 0.

The digests live in ``tests/data/equivalence/trace_digests.json``.
Re-pin only for an intended, reviewed behaviour change:
``PYTHONPATH=src python tests/test_trace_equivalence.py`` rewrites the
file from the current generator.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Sequence, Tuple

import pytest

from equivalence_points import GOLDEN_DIR

from repro.trace.record import Op, TraceRecord
from repro.trace.synthetic import SyntheticWorkload
from repro.trace.workloads import get_workload, workload_names

DIGESTS_PATH = GOLDEN_DIR / "trace_digests.json"

LENGTH = 6_000
CORE_IDS = (0, 5)

_REF_MIX = ("605.mcf_s-1536B", "623.xalancbmk_s-10B", "tc-14",
            "619.lbm_s-2676B")
#: ``bench/run.py``'s workloads at seed 0: (mixes, instructions per core).
BENCH: Dict[str, Tuple[Tuple[Tuple[str, ...], ...], int]] = {
    "ref4_clip": ((_REF_MIX,), 20_000),
    "scale16_clip": ((_REF_MIX * 4,), 8_000),
    "core_bound": ((("657.xz_s-1306B",) * 4,), 40_000),
    "sweep_cold_warm": ((("605.mcf_s-1536B", "619.lbm_s-2676B"),
                         ("623.xalancbmk_s-10B", "tc-14")), 3_000),
}

Trace = Tuple[str, int, int]


def _key(name: str, core_id: int, length: int) -> str:
    return f"{name}/core{core_id}/{length}"


def _registered_traces(name: str) -> List[Trace]:
    return [(name, core_id, LENGTH) for core_id in CORE_IDS]


def _bench_traces(bench: str) -> List[Trace]:
    mixes, length = BENCH[bench]
    return sorted({(name, core_id, length) for mix in mixes
                   for core_id, name in enumerate(mix)})


def _generate(name: str, core_id: int, length: int) -> List[TraceRecord]:
    return SyntheticWorkload(get_workload(name)).generate(length,
                                                          core_id=core_id)


def trace_digest(records: Sequence[TraceRecord]) -> str:
    """sha256 over every field of every record, in order."""
    fields = [[r.ip, r.op.name, r.address, r.taken, r.dst, list(r.srcs)]
              for r in records]
    return hashlib.sha256(json.dumps(fields).encode()).hexdigest()


def _digests(traces: Sequence[Trace]) -> Dict[str, str]:
    return {_key(*trace): trace_digest(_generate(*trace))
            for trace in traces}


def _all_traces() -> List[Trace]:
    traces = {trace for name in workload_names()
              for trace in _registered_traces(name)}
    for bench in BENCH:
        traces.update(_bench_traces(bench))
    return sorted(traces)


def _pinned() -> Dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())["digests"]


@pytest.mark.parametrize("name", workload_names())
def test_registered_workload_trace_matches_pinned_digest(name):
    pinned = _pinned()
    for key, digest in _digests(_registered_traces(name)).items():
        assert digest == pinned[key], f"trace {key} diverged from its pin"


@pytest.mark.parametrize("bench", sorted(BENCH))
def test_bench_trace_matches_pinned_digest(bench):
    pinned = _pinned()
    for key, digest in _digests(_bench_traces(bench)).items():
        assert digest == pinned[key], f"trace {key} diverged from its pin"


def test_pins_cover_every_trace():
    assert sorted(_pinned()) == sorted(_key(*t) for t in _all_traces())
    assert len(workload_names()) == 67


def test_generated_trace_holds_one_object_per_distinct_record():
    for name in workload_names():
        first = _generate(name, 5, 3_000)
        assert len({id(r) for r in first}) == len(set(first)), name
        # The pool is local to one call: two traces share no object.
        second = _generate(name, 5, 3_000)
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


if __name__ == "__main__":
    payload = {
        "about": "sha256 of json.dumps([[ip, op.name, address, taken, dst, "
                 "list(srcs)] for each record]) for each generated trace "
                 "of tests/test_trace_equivalence.py, keyed "
                 "workload/core<id>/<length>",
        "digests": _digests(_all_traces()),
    }
    DIGESTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"re-pinned {len(payload['digests'])} digests in {DIGESTS_PATH}")
