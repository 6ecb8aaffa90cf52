"""Result containers and the paper's headline metric (weighted speedup).

Weighted speedup (section 5, citing Snavely & Tullsen): the sum over cores
of IPC under the evaluated scheme divided by IPC under the reference
scheme, here always no-prefetching with the same DRAM channel count --
"system throughput", in the paper's words.

The per-component counter snapshot (:mod:`repro.sim.counters`) is the
only source of a result's numbers: :func:`derive_views` computes the
typed ``cores`` / ``branch_accuracy`` / ``levels`` / ``prefetch`` /
``dram`` / ``noc`` / ``clip`` / ``criticality`` views from it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple


@dataclass
class CoreResult:
    """Retirement-side outcome of one core."""

    core_id: int
    workload: str
    instructions: int
    cycles: int
    loads: int
    stores: int
    branches: int
    mispredicts: int
    head_stall_cycles: int
    head_stall_cycles_miss: int
    critical_load_instances: int
    load_instances_beyond_l1: int

    @property
    def ipc(self) -> float:
        if not self.cycles:
            return 0.0
        return self.instructions / self.cycles


@dataclass
class LevelStats:
    """Aggregate demand/prefetch behaviour of one cache level."""

    name: str
    demand_accesses: int = 0
    demand_hits: int = 0
    demand_misses: int = 0
    prefetch_fills: int = 0
    useful_prefetches: int = 0
    useless_evictions: int = 0
    #: Sum/count of demand latencies for loads serviced *beyond* this level.
    miss_latency_sum: int = 0
    miss_latency_count: int = 0

    @property
    def average_miss_latency(self) -> float:
        if not self.miss_latency_count:
            return 0.0
        return self.miss_latency_sum / self.miss_latency_count

    @property
    def miss_coverage(self) -> float:
        """Fraction of would-be misses covered by prefetching."""
        covered = self.useful_prefetches
        total = covered + self.demand_misses
        if not total:
            return 0.0
        return covered / total


@dataclass
class PrefetchStats:
    """System-wide prefetch accounting (summed over cores)."""

    candidates: int = 0
    issued: int = 0
    dropped_filter: int = 0
    dropped_duplicate: int = 0
    dropped_mshr: int = 0
    useful: int = 0
    late: int = 0

    @property
    def accuracy(self) -> float:
        if not self.issued:
            return 0.0
        return min(1.0, self.useful / self.issued)

    @property
    def lateness(self) -> float:
        if not self.useful:
            return 0.0
        return min(1.0, self.late / self.useful)

    @property
    def traffic_reduction(self) -> float:
        """1 - issued/candidates: the Fig. 16 quantity."""
        if not self.candidates:
            return 0.0
        return 1.0 - self.issued / self.candidates

    def consistency_errors(self) -> List[str]:
        """Structural violations in the counters (sanitizer final check).

        ``useful`` may legitimately exceed ``issued`` (late-prefetch
        merges count as useful without a new issue), so only the
        relations that always hold are checked.
        """
        errors = []
        for name in ("candidates", "issued", "dropped_filter",
                     "dropped_duplicate", "dropped_mshr", "useful",
                     "late"):
            if getattr(self, name) < 0:
                errors.append(f"{name} is negative "
                              f"({getattr(self, name)})")
        dropped = (self.dropped_filter + self.dropped_duplicate
                   + self.dropped_mshr)
        if dropped > self.candidates:
            # Every drop comes out of the candidate pool exactly once.
            errors.append(
                f"drops ({dropped}) exceed candidates "
                f"({self.candidates})")
        if self.late > self.useful:
            errors.append(f"late ({self.late}) exceeds useful "
                          f"({self.useful})")
        return errors


@dataclass
class ClipResult:
    """Aggregated CLIP statistics across cores."""

    prediction_accuracy: float = 0.0
    prediction_coverage: float = 0.0
    prefetches_seen: int = 0
    prefetches_allowed: int = 0
    static_critical_ips: int = 0
    dynamic_critical_ips: int = 0
    windows: int = 0
    phase_changes: int = 0
    #: Structure activity summed across cores (energy-model inputs).
    filter_accesses: int = 0
    predictor_accesses: int = 0
    utility_cam_accesses: int = 0


@dataclass
class CriticalityResult:
    """Baseline criticality predictor measurement (Fig. 4)."""

    name: str = "none"
    accuracy: float = 0.0
    coverage: float = 0.0


@dataclass
class DramResult:
    reads: int = 0
    writes: int = 0
    prefetch_reads: int = 0
    row_hits: int = 0
    row_misses: int = 0
    average_read_latency: float = 0.0
    utilization: float = 0.0


@dataclass
class NocResult:
    packets: int = 0
    flits: int = 0
    average_latency: float = 0.0
    #: Total XY hops and exact flit-hops (flits x route length per
    #: packet) -- the energy model's per-link-traversal activity count.
    total_hops: int = 0
    flit_hops: int = 0


@dataclass
class SimulationResult:
    """Everything one multi-core simulation produced."""

    config_label: str
    cores: List[CoreResult] = field(default_factory=list)
    levels: Dict[str, LevelStats] = field(default_factory=dict)
    prefetch: PrefetchStats = field(default_factory=PrefetchStats)
    clip: Optional[ClipResult] = None
    criticality: Optional[CriticalityResult] = None
    dram: DramResult = field(default_factory=DramResult)
    noc: NocResult = field(default_factory=NocResult)
    total_cycles: int = 0
    branch_accuracy: float = 1.0
    #: Per-component counter snapshot (``repro.sim.counters``):
    #: ``{group: {counter: value}}``, one group per component
    #: (``core{N}.cpu``, ``core{N}.l1d``, ``core{N}.l2``,
    #: ``core{N}.chain``, ``llc.slice{N}``, ``noc``, ``dram.ch{N}``).
    #: The views above are :func:`derive_views` of it.
    counters: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Counter-driven dynamic energy (``repro.energy``): total, by
    #: component, and the energy-delay product at the configured core
    #: frequency.  Zero/empty when the result predates the counter layer.
    energy_mj: float = 0.0
    edp_mj_s: float = 0.0
    energy_breakdown_mj: Dict[str, float] = field(default_factory=dict)

    @property
    def ipc_per_core(self) -> List[float]:
        return [core.ipc for core in self.cores]

    @property
    def total_instructions(self) -> int:
        return sum(core.instructions for core in self.cores)

    def average_l1_miss_latency(self) -> float:
        level = self.levels.get("L1D")
        return level.average_miss_latency if level else 0.0

    # -- serialisation -------------------------------------------------

    def to_dict(self) -> Dict:
        """Plain-data form of the result (JSON-safe, stable field order).

        The inverse of :meth:`from_dict`; the round trip is exact, which
        is what lets the sweep executor ship results across process
        boundaries and persist them in the on-disk cache
        (``repro.experiments.sweep``) without loss.
        """
        return {
            "config_label": self.config_label,
            "cores": [dataclasses.asdict(core) for core in self.cores],
            "levels": {name: dataclasses.asdict(level)
                       for name, level in self.levels.items()},
            "prefetch": dataclasses.asdict(self.prefetch),
            "clip": (dataclasses.asdict(self.clip)
                     if self.clip is not None else None),
            "criticality": (dataclasses.asdict(self.criticality)
                            if self.criticality is not None else None),
            "dram": dataclasses.asdict(self.dram),
            "noc": dataclasses.asdict(self.noc),
            "total_cycles": self.total_cycles,
            "branch_accuracy": self.branch_accuracy,
            "counters": {group: dict(values)
                         for group, values in self.counters.items()},
            "energy_mj": self.energy_mj,
            "edp_mj_s": self.edp_mj_s,
            "energy_breakdown_mj": dict(self.energy_breakdown_mj),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SimulationResult":
        """Rebuild a :class:`SimulationResult` written by :meth:`to_dict`."""
        return cls(
            config_label=data["config_label"],
            cores=[CoreResult(**core) for core in data["cores"]],
            levels={name: LevelStats(**level)
                    for name, level in data["levels"].items()},
            prefetch=PrefetchStats(**data["prefetch"]),
            clip=(ClipResult(**data["clip"])
                  if data.get("clip") is not None else None),
            criticality=(CriticalityResult(**data["criticality"])
                         if data.get("criticality") is not None else None),
            dram=DramResult(**data["dram"]),
            noc=NocResult(**data["noc"]),
            total_cycles=data["total_cycles"],
            branch_accuracy=data["branch_accuracy"],
            counters={group: dict(values)
                      for group, values in
                      data.get("counters", {}).items()},
            energy_mj=data.get("energy_mj", 0.0),
            edp_mj_s=data.get("edp_mj_s", 0.0),
            energy_breakdown_mj=dict(data.get("energy_breakdown_mj", {})),
        )


#: :class:`CoreResult` integer fields; each is the ``core{N}.cpu``
#: counter of the same name.
_CORE_COUNTERS = ("instructions", "cycles", "loads", "stores", "branches",
                  "mispredicts", "head_stall_cycles",
                  "head_stall_cycles_miss", "critical_load_instances",
                  "load_instances_beyond_l1")

#: Cache-activity counters every cache group reports under the
#: :class:`LevelStats` field of the same name.
_LEVEL_COUNTERS = ("demand_accesses", "demand_hits", "demand_misses",
                   "prefetch_fills", "useful_prefetches",
                   "useless_evictions")

#: :class:`ClipResult` integer fields; each is the sum of the chain
#: groups' ``clip_<field>`` counter.
_CLIP_COUNTERS = ("prefetches_seen", "prefetches_allowed",
                  "static_critical_ips", "dynamic_critical_ips", "windows",
                  "phase_changes", "filter_accesses", "predictor_accesses",
                  "utility_cam_accesses")


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def derive_views(counters: Dict[str, Dict[str, int]], total_cycles: int,
                 criticality: str, workloads: Sequence[str],
                 ) -> Dict[str, Any]:
    """The typed result views, computed from a counter snapshot alone.

    Returns :class:`SimulationResult`'s ``cores``, ``branch_accuracy``,
    ``levels``, ``prefetch``, ``dram``, ``noc``, ``clip`` and
    ``criticality`` fields, keyed by field name.  ``total_cycles``
    scales DRAM utilization, ``criticality`` names the configured
    baseline predictor (``"none"``: no criticality view) and
    ``workloads`` names each core's workload, in core order; the CLIP
    view exists exactly when the chain groups carry CLIP's counters.
    """
    # Sum every counter over the groups of one kind: per-core groups
    # (``core{N}.cpu`` / ``.l1d`` / ``.l2`` / ``.chain``) by suffix,
    # shared ones (``llc.slice{N}``, ``noc``, ``dram.ch{N}``) by prefix.
    totals: Dict[str, Dict[str, int]] = {}
    busy: List[Tuple[int, int]] = []
    for group, values in counters.items():
        head, _, tail = group.partition(".")
        kind = tail if head.startswith("core") else head
        bucket = totals.setdefault(kind, {})
        for key, value in values.items():
            bucket[key] = bucket.get(key, 0) + value
        if kind == "dram":
            busy.append((int(tail[len("ch"):]), values["busy_cycles"]))
    cores = [CoreResult(core_id, workload,
                        **{key: counters[f"core{core_id}.cpu"][key]
                           for key in _CORE_COUNTERS})
             for core_id, workload in enumerate(workloads)]
    cpu = totals["cpu"]
    predictions = cpu["branch_predictions"]
    branch_accuracy = (1.0 - cpu["branch_mispredictions"] / predictions
                       if predictions else 1.0)
    l1, l2, chain = totals["l1d"], totals["l2"], totals["chain"]
    levels = {}
    for name, group, prefix in (("L1D", l1, "l1d"), ("L2", l2, "l2"),
                                ("LLC", totals["llc"], "llc")):
        # Demand-load latencies are accounted per core at the L1D, by
        # the level the load missed at.
        levels[name] = LevelStats(
            name, **{key: group[key] for key in _LEVEL_COUNTERS},
            miss_latency_sum=l1[f"{prefix}_miss_latency_sum"],
            miss_latency_count=l1[f"{prefix}_miss_latency_count"])
    prefetch = PrefetchStats(
        candidates=chain["pf_candidates"], issued=chain["pf_issued"],
        dropped_filter=chain["pf_dropped_filter"],
        dropped_duplicate=chain["pf_dropped_duplicate"],
        dropped_mshr=chain["pf_dropped_mshr"], useful=chain["pf_useful"],
        # A demand merging into a prefetch's MSHR entry: late but useful.
        late=l1["late_prefetch_merges"] + l2["late_prefetch_merges"])
    dram = totals["dram"]
    # Per-channel utilization, summed in channel order (float sums
    # depend on their order).
    elapsed = max(1, total_cycles)
    utilization = sum(min(1.0, cycles / elapsed)
                      for _, cycles in sorted(busy)) / len(busy)
    noc = totals["noc"]
    clip = None
    if "clip_prefetches_seen" in chain:
        clip = ClipResult(
            prediction_accuracy=_ratio(
                chain["clip_predicted_critical_correct"],
                chain["clip_predicted_critical"]),
            prediction_coverage=_ratio(chain["clip_covered_critical"],
                                       chain["clip_actual_critical"]),
            **{key: chain[f"clip_{key}"] for key in _CLIP_COUNTERS})
    measured = None
    if criticality != "none":
        measured = CriticalityResult(
            name=criticality,
            accuracy=_ratio(chain["crit_predicted_correct"],
                            chain["crit_predicted"]),
            coverage=_ratio(chain["crit_covered"], chain["crit_actual"]))
    return {
        "cores": cores,
        "branch_accuracy": branch_accuracy,
        "levels": levels,
        "prefetch": prefetch,
        "dram": DramResult(
            reads=dram["reads"], writes=dram["writes"],
            prefetch_reads=dram["prefetch_reads"],
            row_hits=dram["row_hits"],
            # Open page: every row miss opens its row with one ACT.
            row_misses=dram["activates"],
            average_read_latency=_ratio(dram["total_read_latency"],
                                        dram["reads"]),
            utilization=utilization),
        "noc": NocResult(
            packets=noc["packets"], flits=noc["flits"],
            average_latency=_ratio(noc["total_latency"], noc["packets"]),
            total_hops=noc["total_hops"], flit_hops=noc["flit_hops"]),
        "clip": clip,
        "criticality": measured,
    }


def weighted_speedup(result: SimulationResult,
                     baseline: SimulationResult) -> float:
    """Weighted speedup of ``result`` over ``baseline`` (same channels).

    Normalised so a system identical to the baseline scores 1.0.
    """
    if len(result.cores) != len(baseline.cores):
        raise ValueError("core counts differ between result and baseline")
    if not result.cores:
        raise ValueError("empty results")
    total = 0.0
    for mine, theirs in zip(result.cores, baseline.cores):
        if theirs.ipc <= 0:
            raise ValueError(f"baseline core {theirs.core_id} has zero IPC")
        total += mine.ipc / theirs.ipc
    return total / len(result.cores)
