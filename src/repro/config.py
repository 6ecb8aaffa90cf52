"""System configuration dataclasses.

The defaults reproduce Table 3 of the paper ("Simulation parameters of the
baseline system"): a 64-core out-of-order system at 4 GHz with a three-level
non-inclusive cache hierarchy, an 8x8 mesh network-on-chip with sliced LLC,
and eight DDR4-3200 channels scheduled by a prefetch-aware (PADC-style)
controller.

Every experiment driver accepts a :class:`SystemConfig`; the benchmark suite
scales it down (fewer cores, proportionally fewer channels, shorter traces)
so that a pure-Python simulation finishes in seconds while keeping the
paper's pivot ratio -- cores per DRAM channel -- intact.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
from dataclasses import dataclass, field
from typing import Annotated

#: log2 of the cache line size: every address maps to a 64-byte line.
LINE_SHIFT = 6


@dataclass(frozen=True)
class Bound:
    """The valid range of a numeric config field.

    Declared next to the field (``issue_width: Positive``, or
    ``Annotated[float, FRACTION]``) and checked by
    :meth:`SystemConfig.validate`, whose message reads
    ``<field> <rule>, got <value>``.
    """

    #: The lowest valid value, itself invalid when ``strict``.
    low: float
    strict: bool
    rule: str
    #: Exclusive upper end.
    high: float = math.inf

    def admits(self, value: float) -> bool:
        return ((value > self.low if self.strict else value >= self.low)
                and value < self.high)


POSITIVE = Bound(0, True, "must be positive")
NOT_NEGATIVE = Bound(0, False, "must not be negative")
FRACTION = Bound(0, True, "must be a fraction in (0, 1)", high=1)


def at_least(low: int) -> Bound:
    """An explicit minimum, such as the perceptron's two weight bits."""
    return Bound(low, False, f"must be at least {low}")


Positive = Annotated[int, POSITIVE]
NotNegative = Annotated[int, NOT_NEGATIVE]


@dataclass
class CoreConfig:
    """Out-of-order core parameters (Table 3, row "Core")."""

    #: Energy and delay divide by the frequency after the run.
    frequency_ghz: Annotated[float, POSITIVE] = 4.0
    issue_width: Positive = 6
    retire_width: Positive = 4
    rob_entries: Positive = 512
    #: Fixed pipeline refill penalty after a branch mispredict, in cycles.
    mispredict_penalty: NotNegative = 15
    #: Execution latency of non-memory instructions, in cycles.
    alu_latency: NotNegative = 1


def little_core(frequency_ghz: float = 4.0) -> CoreConfig:
    """An efficiency ("little") core: half-width issue, quarter ROB.

    The big/little mixes pair Table 3's reference core with these for
    the heterogeneous-system axis (does criticality-filtered prefetching
    help more when cores are asymmetric?).
    """
    return CoreConfig(frequency_ghz=frequency_ghz, issue_width=3,
                      retire_width=2, rob_entries=128)


def big_little_overrides(num_cores: int, big_cores: int,
                         little: CoreConfig | None = None,
                         ) -> "dict[int, CoreConfig]":
    """Per-core override map: the first ``big_cores`` keep the base
    (big) core, the rest become ``little`` cores."""
    if not 0 <= big_cores <= num_cores:
        raise ValueError(
            f"big_cores must be within [0, {num_cores}], got {big_cores}")
    little = little or little_core()
    return {core_id: dataclasses.replace(little)
            for core_id in range(big_cores, num_cores)}


@dataclass
class BranchPredictorConfig:
    """Hashed perceptron branch predictor (Table 3 cites Jimenez & Lin)."""

    history_bits: NotNegative = 24
    num_tables: Positive = 8
    table_entries: Positive = 1024
    weight_bits: Positive = 8
    threshold: int = 18


@dataclass
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str = "L1D"
    size_kib: Positive = 48
    ways: Positive = 12
    #: A negative latency schedules a response in the past.
    latency: NotNegative = 5
    mshr_entries: Positive = 16
    replacement: str = "lru"

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.ways

    @property
    def num_lines(self) -> int:
        return self.size_kib * 1024 >> LINE_SHIFT

    def __post_init__(self) -> None:
        if self.ways < 1:
            raise ValueError(f"{self.name}: ways must be positive, got "
                             f"{self.ways}")
        if self.num_lines % self.ways:
            raise ValueError(
                f"{self.name}: {self.num_lines} lines not divisible by "
                f"{self.ways} ways"
            )


def _default_l1d() -> CacheConfig:
    return CacheConfig(name="L1D", size_kib=48, ways=12, latency=5,
                       mshr_entries=16, replacement="lru")


def _default_l2() -> CacheConfig:
    return CacheConfig(name="L2", size_kib=512, ways=8, latency=10,
                       mshr_entries=32, replacement="srrip")


def _default_llc_slice() -> CacheConfig:
    # 2 MB per core, organised as one slice per mesh node.
    return CacheConfig(name="LLC", size_kib=2048, ways=16, latency=20,
                       mshr_entries=64, replacement="mockingjay")


@dataclass
class TlbConfig:
    """TLB hierarchy (Table 3, row "TLBs").  Disabled by default at
    benchmark scale; see ``repro.mmu.tlb`` for the rationale."""

    enabled: bool = False
    dtlb_entries: Positive = 64
    dtlb_ways: Positive = 4
    stlb_entries: Positive = 2048
    stlb_ways: Positive = 16
    #: STLB lookup latency in cycles (Table 3: 8 cycles).
    stlb_latency: NotNegative = 8
    #: Charge for a full page walk on an STLB miss.
    page_walk_latency: NotNegative = 100
    page_shift: NotNegative = 12


@dataclass
class NocConfig:
    """8x8 mesh wormhole NoC (Table 3, rows "Network Router"/"Topology")."""

    #: Router pipeline depth in cycles (2-stage wormhole router).
    router_latency: NotNegative = 2
    #: Link traversal latency in cycles.
    link_latency: NotNegative = 1
    #: Flits per data packet (64B line over 8-byte flits).
    data_packet_flits: Positive = 8
    #: Flits per address/request packet.
    address_packet_flits: Positive = 1


@dataclass
class DramConfig:
    """DDR4-3200 channel timing (Table 3, rows "DRAM controller"/"chip").

    All latencies are expressed in CPU cycles at ``CoreConfig.frequency_ghz``.
    DDR4-3200 moves 25.6 GB/s per channel; one 64-byte line therefore
    occupies the data bus for 2.5 ns = 10 CPU cycles at 4 GHz.
    """

    channels: Positive = 8
    banks_per_channel: Positive = 16
    #: At least one line (a cross-field rule of ``validate``).
    row_buffer_bytes: int = 4096
    #: tRP = tRCD = CAS = 12.5 ns (Table 3) = 50 cycles at 4 GHz.
    trp_cycles: NotNegative = 50
    trcd_cycles: NotNegative = 50
    cas_cycles: NotNegative = 50
    #: Data-bus occupancy of one 64B burst (burst length 16).
    burst_cycles: Positive = 10
    #: An empty read queue deadlocks the channel.
    read_queue_entries: Positive = 64
    write_queue_entries: int = 64
    #: Writes drain once the write queue passes this fill fraction (7/8).
    write_watermark: float = 7.0 / 8.0
    #: Number of writes drained per drain episode.
    write_drain_batch: int = 16
    #: PADC-style prefetch-aware scheduling (demand-first).
    prefetch_aware: bool = True


@dataclass
class PrefetcherConfig:
    """Which prefetcher runs at which level, plus shared knobs."""

    #: One of "none", "berti", "ipcp", "spp_ppf", "bingo", "stride",
    #: "streamer".
    name: str = "berti"
    degree: int = 4


@dataclass
class ClipConfig:
    """CLIP structures (Section 4.3, Table 2)."""

    enabled: bool = False
    # Criticality filter: 32 sets x 4 ways = 128 entries.
    filter_sets: Positive = 32
    filter_ways: Positive = 4
    ip_tag_bits: NotNegative = 6
    criticality_count_bits: NotNegative = 2
    hit_count_bits: NotNegative = 6
    issue_count_bits: NotNegative = 6
    #: ROB-stall occurrences before an IP is considered critical.
    criticality_count_threshold: int = 4
    # Criticality predictor: 128 sets x 4 ways = 512 entries.
    predictor_sets: Positive = 128
    predictor_ways: Positive = 4
    predictor_tag_bits: NotNegative = 6
    saturating_counter_bits: Positive = 3
    # Utility buffer CAM.
    utility_buffer_entries: Positive = 64
    # Global histories feeding the critical signature.
    branch_history_bits: Positive = 32
    criticality_history_bits: Positive = 32
    #: Exploration window, in L1D misses (just above 768 L1D lines).
    exploration_window_misses: int = 1024
    #: Per-IP prefetch hit rate needed to keep prefetching for an IP.
    accuracy_threshold: float = 0.90
    #: APC deviation that signals an application phase change.
    phase_change_threshold: Annotated[float, FRACTION] = 0.15
    #: Number of past windows averaged for the APC baseline.
    apc_history_windows: Positive = 16
    #: Send the criticality flag to the NoC and DRAM scheduler.
    criticality_conscious_noc_dram: bool = True
    #: Stage-II per-IP accuracy filter (ablation knob).
    use_accuracy_filter: bool = True
    #: Dynamic CLIP (paper section 5.3, future work): bypass all filtering
    #: while the measured DRAM utilisation says bandwidth is ample.
    dynamic: bool = False
    #: Utilisation above which dynamic CLIP engages filtering...
    dynamic_on_utilization: float = 0.45
    #: ...and below which it disengages (hysteresis).
    dynamic_off_utilization: float = 0.30
    #: Track criticality/accuracy by 4 KiB page instead of trigger IP --
    #: the paper's variant for non-IP-based L2 prefetchers (section 4.2).
    index_by_page: bool = False
    #: Stage-I criticality filter/predictor (ablation knob).
    use_criticality_filter: bool = True
    #: Signature composition toggles (ablation knobs; paper section 4.2).
    signature_use_address: bool = True
    signature_use_branch_history: bool = True
    signature_use_criticality_history: bool = True

    def scaled(self, factor: float) -> "ClipConfig":
        """Return a copy with both tables scaled by ``factor`` (Fig. 18)."""
        clone = dataclasses.replace(self)
        clone.filter_sets = max(1, int(self.filter_sets * factor))
        clone.predictor_sets = max(1, int(self.predictor_sets * factor))
        return clone


@dataclass
class CriticalityConfig:
    """Baseline criticality predictor selection (Figs. 4-5)."""

    #: One of "none", "catch", "fvp", "fp", "cbp", "robo", "crisp".
    name: str = "none"
    #: When False the predictor only *measures* (Fig. 4) and does not gate
    #: prefetch requests (Fig. 5 uses gating).
    gate: bool = True


@dataclass
class ThrottleConfig:
    """Prefetch throttler selection (Fig. 6)."""

    #: One of "none", "fdp", "hpac", "spac", "nst".
    name: str = "none"


@dataclass
class RelatedConfig:
    """Hermes / DSPatch comparators (Fig. 21)."""

    hermes: bool = False
    dspatch: bool = False


#: Prefetchers the bandit selector may hold as arms ("none" plus the
#: L1-training zoo).  Mirrors ``repro.prefetch.base.make_prefetcher``;
#: kept literal here to avoid a config -> prefetch import cycle.
LEARNED_ARM_CHOICES = ("none", "berti", "ipcp", "stride", "streamer")


@dataclass
class LearnedConfig:
    """Online learned prefetch control (the ROADMAP scheme family).

    ``policy`` picks the learner each core's prefetch filter chain
    drives (see :mod:`repro.prefetch.learned`):

    * ``"bandit"`` -- contextual-bandit *selection* of the L1
      prefetcher from :attr:`arms`, re-decided every
      :attr:`epoch_accesses` demand L1D accesses (arxiv 2307.08635
      idiom).  Requires ``l1_prefetcher`` to be ``"none"``: the
      selector owns that slot.
    * ``"perceptron"`` -- hashed-perceptron prefetch *filtering* with
      a bandwidth-adaptive admission threshold (arxiv 2403.15181 /
      PPF idiom), a learned alternative to CLIP's utility CAM.

    Learner state is explicit integers and the only randomness is the
    per-core xorshift stream derived from :attr:`seed`, so seeded runs
    are bit-identical across repeats and process pools.
    """

    #: One of "none", "bandit", "perceptron".
    policy: str = "none"
    #: Root of the per-core deterministic exploration streams.
    seed: int = 0xC11F
    #: Demand L1D accesses per policy epoch (observe cadence).
    epoch_accesses: Positive = 128
    #: Bandit arms (L1 prefetcher names; "none" keeps the no-prefetch
    #: option competitive under bandwidth pressure).
    arms: tuple[str, ...] = ("none", "berti", "stride", "streamer")
    #: Epsilon-greedy exploration rate, in permille.
    epsilon_permille: int = 125
    #: Use the UCB rule instead of epsilon-greedy exploration.
    ucb: bool = False
    #: Perceptron geometry (branch.py-style lanes).
    tables: Positive = 4
    table_entries: Positive = 256
    #: A sign bit and at least one magnitude bit.
    weight_bits: Annotated[int, at_least(2)] = 6
    #: Base admission threshold (idle bus).
    threshold: int = 0
    #: Raise the admission bar with DRAM bus pressure.
    adaptive_threshold: bool = True
    #: Admit every Nth below-threshold candidate as an exploration
    #: probe, so the filter keeps a training signal even when the
    #: adaptive bar exceeds the cold-start weights (CLIP's
    #: exploration-window idea, counter-deterministic).
    probe_interval: Positive = 8
    #: Bound on in-flight admissions awaiting fate feedback.
    pending_entries: Positive = 512


#: ``LearnedConfig`` fields only the perceptron reads.
_PERCEPTRON_FIELDS = frozenset(
    f"learned.{name}" for name in ("tables", "table_entries", "weight_bits",
                                   "probe_interval", "pending_entries"))


@functools.lru_cache(maxsize=None)
def _component_choices() -> tuple[tuple[str, tuple[str, ...]], ...]:
    """(config field, the names its factory accepts) for every
    component picked by name, computed once."""
    # Imported here: the component packages import this module.
    from repro.cache.replacement import policy_names
    from repro.criticality import predictor_names
    from repro.prefetch.base import prefetcher_names
    from repro.throttle import throttler_names

    policies = tuple(policy_names())
    prefetchers = tuple(prefetcher_names())
    return (("l1d.replacement", policies),
            ("l2.replacement", policies),
            ("llc_slice.replacement", policies),
            ("l1_prefetcher.name", prefetchers),
            ("l2_prefetcher.name", prefetchers),
            ("throttle.name", ("none", *throttler_names())),
            ("criticality.name", ("none", *predictor_names())),
            ("learned.policy", ("none", "bandit", "perceptron")))


@functools.lru_cache(maxsize=None)
def _checked_fields(cls: type) -> tuple[tuple[str, Bound | None], ...]:
    """(field, its declared bound) for each bounded field of config class
    ``cls``, and (field, None) for each nested config or map of configs,
    computed once per class."""
    hints = typing.get_type_hints(cls, include_extras=True)
    checked: list[tuple[str, Bound | None]] = []
    for item in dataclasses.fields(cls):
        hint = hints[item.name]
        bound = next((meta for meta in getattr(hint, "__metadata__", ())
                      if isinstance(meta, Bound)), None)
        if (bound is not None or dataclasses.is_dataclass(hint)
                or typing.get_origin(hint) is dict):
            checked.append((item.name, bound))
    return tuple(checked)


def _check_bounds(config: object, prefix: str, skip: set[str]) -> None:
    """Raise ``ValueError`` for the first field of ``config`` or of its
    nested configs outside its declared bound.  ``prefix`` names
    ``config`` in messages; a field or group named in ``skip`` is not
    checked."""
    for name, bound in _checked_fields(type(config)):
        value = getattr(config, name)
        if bound is None:
            path = prefix + name
            if path in skip:
                continue
            if isinstance(value, dict):
                for key, nested in value.items():
                    _check_bounds(nested, f"{path}[{key}].", skip)
            else:
                _check_bounds(value, path + ".", skip)
        elif not bound.admits(value) and prefix + name not in skip:
            raise ValueError(f"{prefix}{name} {bound.rule}, got {value}")


@dataclass
class SystemConfig:
    """Complete multi-core system configuration (Table 3 defaults)."""

    num_cores: Positive = 64
    core: CoreConfig = field(default_factory=CoreConfig)
    #: Per-core deviations from :attr:`core` (big/little mixes): maps a
    #: core id to the full :class:`CoreConfig` that core runs with.
    #: Cores absent from the map use :attr:`core` unchanged.
    core_overrides: dict[int, CoreConfig] = field(default_factory=dict)
    branch: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)
    tlb: TlbConfig = field(default_factory=TlbConfig)
    l1d: CacheConfig = field(default_factory=_default_l1d)
    l2: CacheConfig = field(default_factory=_default_l2)
    llc_slice: CacheConfig = field(default_factory=_default_llc_slice)
    noc: NocConfig = field(default_factory=NocConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    l1_prefetcher: PrefetcherConfig = field(default_factory=PrefetcherConfig)
    l2_prefetcher: PrefetcherConfig = field(
        default_factory=lambda: PrefetcherConfig(name="none"))
    clip: ClipConfig = field(default_factory=ClipConfig)
    criticality: CriticalityConfig = field(default_factory=CriticalityConfig)
    throttle: ThrottleConfig = field(default_factory=ThrottleConfig)
    related: RelatedConfig = field(default_factory=RelatedConfig)
    learned: LearnedConfig = field(default_factory=LearnedConfig)
    #: Instructions simulated per core before statistics are collected.
    warmup_instructions: NotNegative = 0
    #: When > 0, record up to this many per-demand-load latency records
    #: (see ``repro.sim.tracing``); 0 disables tracing.
    capture_request_trace: NotNegative = 0
    #: Install the runtime invariant sanitizer
    #: (``repro.analysis.sanitizer``).  Also enabled by the
    #: ``REPRO_SANITIZE=1`` environment variable; the flag is consulted
    #: once at system construction, so a disabled run pays nothing.
    sanitize: bool = False
    #: Instructions simulated per core with statistics on.
    sim_instructions: Positive = 20_000

    @property
    def mesh_dim(self) -> int:
        """Mesh is the smallest square that seats every core (8x8 at 64)."""
        root = math.isqrt(self.num_cores)
        if root * root < self.num_cores:
            root += 1
        return root

    def core_for(self, core_id: int) -> CoreConfig:
        """The :class:`CoreConfig` a given core runs with (override or
        the shared base)."""
        return self.core_overrides.get(core_id, self.core)

    def validate(self) -> None:
        """Reject configurations the simulator cannot run as asked.

        Every numeric field declares its bound next to itself (see
        :class:`Bound`).  A value outside it would hang (zero retire
        width), deadlock (an empty ROB or DRAM read queue), crash deep
        in a component (an empty table, cache, MSHR file or packet, a
        zero-cycle burst, a negative counter width or page shift),
        schedule into the past (a negative latency) or silently
        simulate something else (a negative warm-up), so it raises
        ``ValueError`` here, naming the field.  The rules that tie
        fields together follow the bounds, as code.
        """
        # A disabled CLIP, TLB or learner is never built, so its fields
        # are not read.
        skip = set()
        if not self.clip.enabled:
            skip.add("clip")
        if not self.tlb.enabled:
            skip.add("tlb")
        if self.learned.policy == "none":
            skip.add("learned")
        elif self.learned.policy != "perceptron":
            skip |= _PERCEPTRON_FIELDS
        _check_bounds(self, "", skip)
        line_bytes = 1 << LINE_SHIFT
        if self.dram.row_buffer_bytes < line_bytes:
            raise ValueError(f"dram.row_buffer_bytes must be at least the "
                             f"line size ({line_bytes}), got "
                             f"{self.dram.row_buffer_bytes}")
        if self.tlb.enabled:
            for level in ("dtlb", "stlb"):
                entries = getattr(self.tlb, f"{level}_entries")
                ways = getattr(self.tlb, f"{level}_ways")
                if entries % ways:
                    raise ValueError(
                        f"tlb.{level}_entries must be a positive multiple "
                        f"of tlb.{level}_ways ({ways}), got {entries}")
        for field_name, choices in _component_choices():
            group, name = field_name.split(".")
            value = getattr(getattr(self, group), name)
            if value not in choices:
                raise ValueError(f"unknown {field_name} {value!r}: choose "
                                 f"from {list(choices)}")
        if self.core.retire_width > self.core.issue_width:
            raise ValueError("retire width wider than issue width")
        for core_id, override in self.core_overrides.items():
            if not 0 <= core_id < self.num_cores:
                raise ValueError(
                    f"core override for core {core_id} outside "
                    f"[0, {self.num_cores})")
            if override.retire_width > override.issue_width:
                raise ValueError(
                    f"core {core_id}: retire width wider than issue width")
            if override.frequency_ghz != self.core.frequency_ghz:
                # Uncore latencies are expressed in core cycles, so the
                # model supports one clock domain for all cores.
                raise ValueError(
                    f"core {core_id}: per-core frequencies must match the "
                    f"base core ({override.frequency_ghz} != "
                    f"{self.core.frequency_ghz})")
        learned = self.learned
        if learned.policy == "bandit":
            if self.l1_prefetcher.name != "none":
                raise ValueError(
                    "the bandit selector owns the L1 prefetcher slot: "
                    "set l1_prefetcher to 'none' (the selector's arms "
                    "name the candidate prefetchers)")
            if not learned.arms:
                raise ValueError("learned.arms must name at least one arm")
            for arm in learned.arms:
                if arm not in LEARNED_ARM_CHOICES:
                    raise ValueError(
                        f"unknown bandit arm {arm!r}: choose from "
                        f"{LEARNED_ARM_CHOICES}")

    def replace(self, **changes: object) -> "SystemConfig":
        """Return a shallow-copied config with top-level fields replaced."""
        return dataclasses.replace(self, **changes)

    def at_frequency(self, frequency_ghz: float) -> "SystemConfig":
        """A copy of this config DVFS-scaled to ``frequency_ghz``.

        All uncore latencies (DRAM timing, NoC router/link) are stored in
        *core* cycles, so re-clocking the cores rescales them by the
        frequency ratio: a fixed-nanosecond DRAM CAS costs fewer core
        cycles when the cores run slower.  Latencies never drop below
        one cycle.
        """
        if frequency_ghz <= 0:
            raise ValueError("frequency must be positive")
        ratio = frequency_ghz / self.core.frequency_ghz

        def cycles(value: int) -> int:
            return max(1, round(value * ratio))

        clone = dataclasses.replace(
            self,
            core=dataclasses.replace(self.core,
                                     frequency_ghz=frequency_ghz),
            core_overrides={
                core_id: dataclasses.replace(override,
                                             frequency_ghz=frequency_ghz)
                for core_id, override in self.core_overrides.items()},
            dram=dataclasses.replace(
                self.dram,
                trp_cycles=cycles(self.dram.trp_cycles),
                trcd_cycles=cycles(self.dram.trcd_cycles),
                cas_cycles=cycles(self.dram.cas_cycles),
                burst_cycles=cycles(self.dram.burst_cycles)),
            noc=dataclasses.replace(
                self.noc,
                router_latency=cycles(self.noc.router_latency),
                link_latency=cycles(self.noc.link_latency)),
        )
        return clone


def scaled_config(num_cores: int = 16,
                  channels: int = 2,
                  sim_instructions: int = 12_000,
                  warmup_instructions: NotNegative = 0) -> SystemConfig:
    """A benchmark-scale configuration preserving cores-per-channel ratios.

    The paper's headline point is the ratio of cores to DDR4-3200 channels
    (64 cores / 8 channels = 8 cores per channel).  ``scaled_config(16, 2)``
    keeps that ratio while shrinking the simulation by 4x.

    Caches shrink with the trace length so capacity behaviour (evictions,
    pollution, reuse) appears within a 10^4-instruction run just as it does
    within the paper's 200M-instruction windows; this lands the scaled
    system near the paper's 512 KB-LLC/core sensitivity point (section
    5.2), where the constrained-bandwidth effects are most visible.  CLIP's
    exploration window shrinks in proportion to the L1D size, following the
    paper's rule (window just above the number of L1D lines).
    """
    config = SystemConfig(num_cores=num_cores,
                          sim_instructions=sim_instructions,
                          warmup_instructions=warmup_instructions)
    config.dram = dataclasses.replace(config.dram, channels=channels)
    config.l1d = dataclasses.replace(config.l1d, size_kib=12, ways=12)
    config.l2 = dataclasses.replace(config.l2, size_kib=64, ways=8)
    config.llc_slice = dataclasses.replace(config.llc_slice,
                                           size_kib=128, ways=16)
    config.clip = dataclasses.replace(
        config.clip,
        exploration_window_misses=128,
        apc_history_windows=6,
        utility_buffer_entries=256)
    config.validate()
    return config
