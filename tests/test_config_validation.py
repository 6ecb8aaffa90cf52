"""``SystemConfig.validate`` rejects configs the simulator cannot run.

Each invalid case below used to get past ``validate()`` on a 1-core,
500-instruction point and then hang (zero retire width), deadlock the
engine (empty ROB), crash deep in the branch predictor (empty or
zero-width tables), fail in trace generation (no instructions), or run
and silently retire the wrong number of instructions (negative
warm-up).  Negative latencies and penalties were accepted as given.
The cache and DRAM zeros in ``NAMED`` crashed with a bare
``ZeroDivisionError`` (no ways or no capacity in a cache, no banks in a
DRAM channel) or deadlocked only after simulating (no DRAM read queue).
The CLIP values in ``CLIP_INVALID`` failed in a CLIP constructor at
build time (an empty table or buffer, a zero-bit history or counter, no
APC history, a phase threshold outside (0, 1)) or raised a bare
"negative shift count" at build time or at the first prefetch issue or
hit (a negative tag or counter width).  The values in
``COMPONENT_INVALID`` failed in a component's construction (an unknown
component name, an enabled TLB with no entries or entries that fill no
whole set, a row buffer smaller than a line, negative DRAM array timings,
a negative request-trace capacity), mid-run (a negative page shift,
page-walk latency or a link latency of -5), after the whole point (a
zero frequency), or ran and silently changed the result (a negative
STLB latency, a link latency of -1, a negative frequency).
"""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro.config import LINE_SHIFT, BranchPredictorConfig, scaled_config
from repro.sim.system import run_system


def _point():
    return scaled_config(num_cores=1, channels=1, sim_instructions=500)


def _core(**fields):
    def apply(config):
        config.core = dataclasses.replace(config.core, **fields)
    return apply


def _override(**fields):
    def apply(config):
        config.num_cores = 2
        config.core_overrides = {
            1: dataclasses.replace(config.core, **fields)}
    return apply


def _branch(**fields):
    def apply(config):
        config.branch = dataclasses.replace(config.branch, **fields)
    return apply


def _system(**fields):
    def apply(config):
        for name, value in fields.items():
            setattr(config, name, value)
    return apply


INVALID = {
    "retire_width=0": _core(retire_width=0),
    "retire_width=0,issue_width=0": _core(retire_width=0, issue_width=0),
    "rob_entries=0": _core(rob_entries=0),
    "alu_latency<0": _core(alu_latency=-1),
    "mispredict_penalty<0": _core(mispredict_penalty=-2),
    "override retire_width=0": _override(retire_width=0),
    "override rob_entries=0": _override(rob_entries=0),
    "override alu_latency<0": _override(alu_latency=-1),
    "branch.table_entries=0": _branch(table_entries=0),
    "branch.weight_bits=0": _branch(weight_bits=0),
    "sim_instructions=0": _system(sim_instructions=0),
    "warmup_instructions<0": _system(warmup_instructions=-3),
}


@pytest.mark.parametrize("case", sorted(INVALID))
def test_validate_rejects(case):
    config = _point()
    INVALID[case](config)
    with pytest.raises(ValueError):
        config.validate()


def _set(group, **fields):
    def apply(config):
        for name, value in fields.items():
            setattr(getattr(config, group), name, value)
    return apply


#: case -> (edit, the field the error must name).
NAMED = {
    **{f"{level}.{name}=0": (_set(level, **{name: 0}), f"{level}.{name}")
       for level in ("l1d", "l2", "llc_slice")
       for name in ("ways", "size_kib")},
    "dram.banks_per_channel=0": (_set("dram", banks_per_channel=0),
                                 "dram.banks_per_channel"),
    "dram.read_queue_entries=0": (_set("dram", read_queue_entries=0),
                                  "dram.read_queue_entries"),
}

#: Memory-path values that passed ``validate()`` and failed later: no
#: MSHR registers (a bare "MSHR capacity must be positive" at build
#: time), a negative cache or router latency (the engine's "cannot
#: schedule at N, now is N+1" mid-run), an empty NoC packet (a
#: ``SimulationInvariantError`` at the first packet) and a zero-cycle
#: DRAM burst (the same error type, at build time).
MEMORY_PATH_INVALID = {
    **{f"{level}.mshr_entries=0": (_set(level, mshr_entries=0),
                                   f"{level}.mshr_entries")
       for level in ("l1d", "l2", "llc_slice")},
    **{f"{level}.latency=-1": (_set(level, latency=-1), f"{level}.latency")
       for level in ("l1d", "l2", "llc_slice")},
    "noc.router_latency=-1": (_set("noc", router_latency=-1),
                              "noc.router_latency"),
    "noc.address_packet_flits=0": (_set("noc", address_packet_flits=0),
                                   "noc.address_packet_flits"),
    "noc.data_packet_flits=0": (_set("noc", data_packet_flits=0),
                                "noc.data_packet_flits"),
    "dram.burst_cycles=0": (_set("dram", burst_cycles=0),
                            "dram.burst_cycles"),
}
NAMED.update(MEMORY_PATH_INVALID)

#: CLIP edits that crash an enabled CLIP -> (field, value).
CLIP_INVALID = {
    **{f"clip.{name}=0": (name, 0)
       for name in ("filter_sets", "filter_ways", "predictor_sets",
                    "predictor_ways", "utility_buffer_entries",
                    "branch_history_bits", "criticality_history_bits",
                    "saturating_counter_bits", "apc_history_windows")},
    "clip.phase_change_threshold=0.0": ("phase_change_threshold", 0.0),
    "clip.phase_change_threshold=1.5": ("phase_change_threshold", 1.5),
    **{f"clip.{name}=-1": (name, -1)
       for name in ("ip_tag_bits", "predictor_tag_bits",
                    "criticality_count_bits", "issue_count_bits",
                    "hit_count_bits")},
}


def _clip(enabled: bool, **fields):
    def apply(config):
        config.clip = dataclasses.replace(config.clip, enabled=enabled,
                                          **fields)
    return apply


NAMED.update({
    case: (_clip(True, **{name: value}), f"clip.{name}")
    for case, (name, value) in CLIP_INVALID.items()})


def _tlb(enabled: bool, **fields):
    def apply(config):
        config.tlb = dataclasses.replace(config.tlb, enabled=enabled,
                                         **fields)
    return apply


#: TLB edits that break an enabled TLB -> (field, value).
TLB_INVALID = {
    **{f"tlb.{name}=0": (name, 0)
       for name in ("dtlb_entries", "dtlb_ways", "stlb_entries",
                    "stlb_ways")},
    "tlb.dtlb_entries=7": ("dtlb_entries", 7),
    "tlb.page_shift=-1": ("page_shift", -1),
    "tlb.page_walk_latency=-500": ("page_walk_latency", -500),
    "tlb.stlb_latency=-50": ("stlb_latency", -50),
}


def _learned(policy: str, **fields):
    def apply(config):
        config.learned = dataclasses.replace(config.learned, policy=policy,
                                             **fields)
    return apply


#: A perceptron with no room for pending admissions passed ``validate()``
#: and raised a bare ``StopIteration`` at its first admission.
NAMED["learned.pending_entries=0"] = (
    _learned("perceptron", pending_entries=0), "learned.pending_entries")

COMPONENT_INVALID = {
    **{f"{group}.name=bogus": (_set(group, name="bogus"), f"{group}.name")
       for group in ("l1_prefetcher", "l2_prefetcher", "throttle",
                     "criticality")},
    **{f"{level}.replacement=bogus": (_set(level, replacement="bogus"),
                                      f"{level}.replacement")
       for level in ("l1d", "l2", "llc_slice")},
    **{case: (_tlb(True, **{name: value}), f"tlb.{name}")
       for case, (name, value) in TLB_INVALID.items()},
    **{f"dram.row_buffer_bytes={size}": (_set("dram", row_buffer_bytes=size),
                                         "dram.row_buffer_bytes")
       for size in (0, 32)},
    **{f"dram.{name}=-1": (_set("dram", **{name: -1}), f"dram.{name}")
       for name in ("trp_cycles", "trcd_cycles", "cas_cycles")},
    **{f"noc.link_latency={value}": (_set("noc", link_latency=value),
                                     "noc.link_latency")
       for value in (-5, -1)},
    "capture_request_trace=-1": (_system(capture_request_trace=-1),
                                 "capture_request_trace"),
    **{f"core.frequency_ghz={value}": (_core(frequency_ghz=value),
                                       "core.frequency_ghz")
       for value in (0, -1)},
}
NAMED.update(COMPONENT_INVALID)


@pytest.mark.parametrize("case", sorted(NAMED))
def test_validate_rejects_and_names_field(case):
    edit, field_name = NAMED[case]
    config = _point()
    edit(config)
    with pytest.raises(ValueError, match=re.escape(field_name)):
        config.validate()


def test_disabled_clip_fields_are_not_validated():
    """A disabled CLIP is never built, so every CLIP value that
    ``validate()`` rejects for an enabled CLIP still runs with it off."""
    config = _point()
    for case in sorted(CLIP_INVALID):
        name, value = CLIP_INVALID[case]
        _clip(False, **{name: value})(config)
        config.validate()
    result = run_system(config, ["605.mcf_s-1536B"])
    assert result.total_instructions == 500


def test_disabled_tlb_fields_are_not_validated():
    """A disabled TLB is never built either: every TLB value that
    ``validate()`` rejects for an enabled TLB still runs with it off."""
    config = _point()
    for case in sorted(TLB_INVALID):
        name, value = TLB_INVALID[case]
        _tlb(False, **{name: value})(config)
        config.validate()
    result = run_system(config, ["605.mcf_s-1536B"])
    assert result.total_instructions == 500


@pytest.mark.parametrize("level", ["l1d", "l2", "llc_slice"])
def test_zero_way_cache_config_is_a_value_error(level):
    """Building the level with no ways fails in ``CacheConfig`` itself,
    before ``validate()``: a ``ValueError``, not a division by zero."""
    config = _point()
    with pytest.raises(ValueError, match="ways must be positive"):
        dataclasses.replace(getattr(config, level), ways=0)


ZERO_LATENCY = {
    "l1d.latency=0": _set("l1d", latency=0),
    "noc.router_latency=0": _set("noc", router_latency=0),
    "noc.link_latency=0": _set("noc", link_latency=0),
    "dram.array_timings=0": _set("dram", trp_cycles=0, trcd_cycles=0,
                                 cas_cycles=0),
    "tlb.latencies=0": _tlb(True, stlb_latency=0, page_walk_latency=0),
}


@pytest.mark.parametrize("edit", list(ZERO_LATENCY.values()),
                         ids=list(ZERO_LATENCY))
def test_zero_memory_latency_runs(edit):
    """The latency bounds are "not negative": a zero-cycle cache,
    router, link, DRAM array or TLB still schedules at ``now``, never in
    the past."""
    config = _point()
    edit(config)
    config.validate()
    result = run_system(config, ["605.mcf_s-1536B"])
    assert result.total_instructions == 500


def test_smallest_valid_config_finishes():
    """The boundary of every rule above is accepted and simulates."""
    config = scaled_config(num_cores=2, channels=1, sim_instructions=500)
    config.core = dataclasses.replace(
        config.core, issue_width=1, retire_width=1, rob_entries=1,
        alu_latency=0, mispredict_penalty=0)
    config.branch = BranchPredictorConfig(
        history_bits=0, num_tables=1, table_entries=1, weight_bits=1,
        threshold=0)
    config.dram.row_buffer_bytes = 1 << LINE_SHIFT
    _tlb(True, dtlb_entries=1, dtlb_ways=1, stlb_entries=1, stlb_ways=1,
         page_shift=0)(config)
    config.validate()
    result = run_system(config, ["605.mcf_s-1536B"] * 2)
    assert result.total_instructions == 2 * 500
