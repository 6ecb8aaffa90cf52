"""Tests for the per-component counter layer (``repro.sim.counters``).

Unit coverage for the registry itself, plus system-level invariants tying
the counter snapshot to the aggregate result fields it must explain:
per-channel DRAM reads sum to the DRAM total, per-bank activates sum to
the row-miss count, flit-hops are bounded by the mesh diameter, and CLIP
structure-access counters appear exactly when CLIP is attached.  Every
result pin's typed views must rebuild exactly from its stored snapshot,
and its counters must satisfy the accounting identities.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

import pytest

from equivalence_points import (POINTS, RESULT_PINS, assert_unchanged,
                                load_pin)

from repro.config import scaled_config
from repro.sim.counters import CounterGroup, CounterRegistry
from repro.sim.stats import SimulationResult, derive_views
from repro.sim.system import run_system

#: The result fields :func:`derive_views` produces.
VIEWS = ("cores", "branch_accuracy", "levels", "prefetch", "dram", "noc",
         "clip", "criticality")

#: The result fields no counter feeds: the label and the energy model's
#: outputs (``total_cycles`` is an input of :func:`derive_views`).
NOT_DERIVED = ("config_label", "energy_mj", "edp_mj_s",
               "energy_breakdown_mj")

#: CLIP's reasons for dropping a prefetch candidate.
CLIP_DROP_REASONS = ("not_critical", "low_accuracy", "predictor",
                     "phase_pause")

MIX = ["605.mcf_s-1536B", "bfs-14", "619.lbm_s-2676B", "cloud9"]


def _run(clip: bool = False, prefetcher: str = "berti"):
    config = scaled_config(num_cores=4, channels=2,
                           sim_instructions=2_500)
    config.l1_prefetcher = dataclasses.replace(config.l1_prefetcher,
                                               name=prefetcher)
    if clip:
        config.clip = dataclasses.replace(config.clip, enabled=True)
    return config, run_system(config, MIX)


class TestCounterGroup:
    def test_snapshot_returns_fresh_dict(self):
        state = {"hits": 3}
        group = CounterGroup("g", lambda: dict(state))
        first = group.snapshot()
        first["hits"] = 99
        assert group.snapshot() == {"hits": 3}

    def test_snapshot_rejects_non_int(self):
        group = CounterGroup("g", lambda: {"ratio": 0.5})
        with pytest.raises(TypeError, match="ratio"):
            group.snapshot()

    def test_snapshot_rejects_bool(self):
        group = CounterGroup("g", lambda: {"flag": True})
        with pytest.raises(TypeError, match="flag"):
            group.snapshot()


class TestCounterRegistry:
    def test_duplicate_name_rejected(self):
        registry = CounterRegistry()
        registry.register("noc", lambda: {})
        with pytest.raises(ValueError, match="noc"):
            registry.register("noc", lambda: {})

    def test_snapshot_keyed_by_group(self):
        registry = CounterRegistry()
        registry.register("a", lambda: {"x": 1})
        registry.register("b", lambda: {"y": 2})
        assert registry.groups() == ("a", "b")
        assert registry.snapshot() == {"a": {"x": 1}, "b": {"y": 2}}


class TestSystemCounters:
    def test_expected_groups_present(self):
        config, result = _run()
        counters = result.counters
        for core_id in range(config.num_cores):
            for suffix in ("l1d", "l2", "chain"):
                assert f"core{core_id}.{suffix}" in counters
        assert "noc" in counters
        for channel in range(config.dram.channels):
            assert f"dram.ch{channel}" in counters
        assert any(group.startswith("llc.slice") for group in counters)

    def test_dram_channels_sum_to_totals(self):
        config, result = _run()
        groups = [values for group, values in result.counters.items()
                  if group.startswith("dram.ch")]
        assert sum(g["reads"] for g in groups) == result.dram.reads
        assert sum(g["writes"] for g in groups) == result.dram.writes
        assert sum(g["row_hits"] for g in groups) == result.dram.row_hits

    def test_per_bank_activates_sum_to_row_misses(self):
        """Open-page policy: every row miss issues exactly one ACT, so
        the per-bank activate counters must sum to the row-miss total."""
        config, result = _run()
        total_activates = 0
        for group, values in result.counters.items():
            if not group.startswith("dram.ch"):
                continue
            banks = [values[f"bank{b}_activates"]
                     for b in range(config.dram.banks_per_channel)]
            assert values["activates"] == sum(banks)
            total_activates += values["activates"]
        assert total_activates == result.dram.row_misses

    def test_flit_hops_exact_not_mean(self):
        """Flit-hops are per-packet route lengths, bounded by the mesh
        diameter, and consistent with the packet-level hop count."""
        config, result = _run()
        noc = result.counters["noc"]
        assert noc["flit_hops"] == result.noc.flit_hops > 0
        assert noc["total_hops"] == result.noc.total_hops > 0
        # Each packet carries >= 1 flit, so flit-hops >= total hops;
        # no route exceeds the mesh diameter.
        assert noc["flit_hops"] >= noc["total_hops"]
        diameter = 2 * (config.mesh_dim - 1)
        assert noc["total_hops"] <= noc["packets"] * diameter

    def test_l1_counters_match_level_stats(self):
        config, result = _run()
        total = sum(values["demand_accesses"]
                    for group, values in result.counters.items()
                    if group.endswith(".l1d"))
        assert total == result.levels["L1D"].demand_accesses

    def test_clip_counters_only_when_clip_enabled(self):
        _, without = _run(clip=False)
        for group, values in without.counters.items():
            if group.endswith(".chain"):
                assert "clip_filter_accesses" not in values
        _, with_clip = _run(clip=True)
        chain_groups = [values for group, values
                        in with_clip.counters.items()
                        if group.endswith(".chain")]
        assert chain_groups
        total = sum(g["clip_filter_accesses"] for g in chain_groups)
        assert total == with_clip.clip.filter_accesses > 0
        assert sum(g["clip_predictor_accesses"]
                   for g in chain_groups) > 0
        assert sum(g["clip_utility_cam_accesses"]
                   for g in chain_groups) > 0

    def test_counters_survive_serialisation(self):
        from repro.sim.stats import SimulationResult
        _, result = _run()
        rebuilt = SimulationResult.from_dict(result.to_dict())
        assert rebuilt.counters == result.counters
        assert rebuilt.energy_mj == result.energy_mj
        assert rebuilt.edp_mj_s == result.edp_mj_s
        assert rebuilt.energy_breakdown_mj == result.energy_breakdown_mj


@pytest.mark.parametrize("pin", sorted(RESULT_PINS))
def test_golden_views_derive_from_counter_snapshot(pin):
    """The views are a pure function of (counters, total_cycles,
    criticality predictor name, workloads): rebuilt from a pin's stored
    snapshot, every stored field but the label and the energy fields
    equals the pin leaf for leaf."""
    stored = load_pin(pin)
    tree = stored["result"]
    config, _ = RESULT_PINS[pin]()
    views = derive_views(tree["counters"], tree["total_cycles"],
                         config.criticality.name, stored["workloads"])
    assert set(views) == set(VIEWS)
    rebuilt = SimulationResult(
        config_label=tree["config_label"], counters=tree["counters"],
        total_cycles=tree["total_cycles"], **views).to_dict()
    for name in NOT_DERIVED:
        del rebuilt[name]
    assert_unchanged(f"views of pin {pin!r}",
                     {key: tree[key] for key in rebuilt}, rebuilt)


def _identity_failures(counters: Dict[str, Dict[str, int]]) -> List[str]:
    """Every accounting identity that the snapshot ``counters`` breaks,
    but the LLC-to-DRAM one (:func:`_dram_demand_gap`)."""
    failures: List[str] = []

    def check(holds: bool, group: str, identity: str) -> None:
        if not holds:
            failures.append(f"{group}: {identity}")

    totals: Dict[str, Dict[str, int]] = {}
    for group, c in counters.items():
        head, _, tail = group.partition(".")
        kind = tail if head.startswith("core") else head
        bucket = totals.setdefault(kind, {})
        for key, value in c.items():
            bucket[key] = bucket.get(key, 0) + value
        if kind in ("l1d", "l2", "llc"):
            check(c["demand_accesses"] == c["demand_hits"]
                  + c["demand_misses"], group,
                  "demand_accesses = demand_hits + demand_misses")
            check(c["useful_prefetches"] <= c["prefetch_fills"], group,
                  "useful_prefetches <= prefetch_fills")
        if kind == "l1d":
            check(c["l1d_miss_latency_count"] == c["demand_misses"], group,
                  "l1d_miss_latency_count = demand_misses")
        if kind == "cpu":
            check(c["critical_load_instances"]
                  <= c["load_instances_beyond_l1"] <= c["loads"], group,
                  "critical_load_instances <= load_instances_beyond_l1 "
                  "<= loads")
            check(c["head_stall_cycles_miss"] <= c["head_stall_cycles"],
                  group, "head_stall_cycles_miss <= head_stall_cycles")
            check(c["mispredicts"] <= c["branches"], group,
                  "mispredicts <= branches")
            check(c["mispredicts"] <= c["branch_mispredictions"]
                  <= c["branch_predictions"], group,
                  "mispredicts <= branch_mispredictions "
                  "<= branch_predictions")
        if kind == "chain":
            check(c["pf_candidates"] == c["pf_issued"]
                  + c["pf_dropped_filter"] + c["pf_dropped_duplicate"]
                  + c["pf_dropped_mshr"], group,
                  "pf_candidates = pf_issued + pf_dropped_*")
            check(c["pf_useful"] <= c["pf_issued"], group,
                  "pf_useful <= pf_issued")
        if kind == "chain" and "clip_prefetches_seen" in c:
            seen = c["clip_prefetches_seen"]
            allowed = c["clip_prefetches_allowed"]
            check(seen - allowed == c["pf_dropped_filter"], group,
                  "clip_prefetches_seen - clip_prefetches_allowed "
                  "= pf_dropped_filter")
            check(seen == allowed + sum(c[f"clip_dropped_{reason}"]
                                        for reason in CLIP_DROP_REASONS),
                  group, "clip_prefetches_seen = clip_prefetches_allowed "
                  "+ clip_dropped_*")
            check(c["clip_predicted_critical_correct"]
                  <= c["clip_predicted_critical"], group,
                  "clip_predicted_critical_correct "
                  "<= clip_predicted_critical")
            check(c["clip_covered_critical"] <= c["clip_actual_critical"],
                  group, "clip_covered_critical <= clip_actual_critical")
        if kind == "dram":
            banks = sum(value for key, value in c.items()
                        if key.startswith("bank")
                        and key.endswith("_activates"))
            check(banks == c["activates"], group,
                  "bank activates sum to activates")
            check(c["row_hits"] + c["activates"] == c["reads"]
                  + c["writes"], group,
                  "row_hits + activates = reads + writes")
            check(c["prefetch_reads"] <= c["reads"], group,
                  "prefetch_reads <= reads")
        if kind == "noc":
            check(c["flit_hops"] >= c["flits"], group, "flit_hops >= flits")
            check(c["flit_hops"] >= c["total_hops"], group,
                  "flit_hops >= total_hops")
    check(totals["l2"]["demand_accesses"] <= totals["l1d"]["demand_misses"],
          "all cores", "L2 demand accesses <= L1D demand misses")
    check(totals["llc"]["demand_accesses"] <= totals["l2"]["demand_misses"],
          "all slices", "LLC demand accesses <= L2 demand misses")
    return failures


def _dram_demand_gap(counters: Dict[str, Dict[str, int]]) -> int:
    """DRAM reads that are neither prefetches nor LLC demand misses."""
    dram = [c for group, c in counters.items() if group.startswith("dram.")]
    llc = [c for group, c in counters.items() if group.startswith("llc.")]
    return (sum(c["reads"] - c["prefetch_reads"] for c in dram)
            - sum(c["demand_misses"] for c in llc))


@pytest.mark.parametrize("pin", sorted(RESULT_PINS))
def test_pin_counters_satisfy_accounting_identities(pin):
    """Every result pin's counters keep the books: what one counter
    splits, its parts add up to, and no subset exceeds its whole."""
    counters = load_pin(pin)["result"]["counters"]
    assert _identity_failures(counters) == []


@pytest.mark.parametrize("pin", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=(
        "Hermes's speculative off-chip loads read DRAM with no LLC demand "
        "miss, and no counter records them")))
    if name == "mechanisms_stride" else name
    for name in sorted(RESULT_PINS)])
def test_pin_dram_demand_reads_are_llc_demand_misses(pin):
    """Every DRAM read that is not a prefetch serves an LLC demand
    miss."""
    assert _dram_demand_gap(load_pin(pin)["result"]["counters"]) == 0


@pytest.mark.xfail(strict=True, reason=(
    "CacheStats.writebacks is never incremented: dirty evictions are "
    "written back down the hierarchy, but every result reports 0, and "
    "counting them would move pinned result leaves"))
def test_l1d_writebacks_are_counted():
    """The ``bandit_selector`` point evicts dirty L1D lines, so its L1D
    writeback counters cannot all read 0."""
    config, mix = POINTS["bandit_selector"]()
    counters = run_system(config, mix).counters
    assert sum(counters[f"core{core}.l1d"]["writebacks"]
               for core in range(config.num_cores)) > 0
