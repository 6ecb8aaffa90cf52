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
from dataclasses import dataclass, field


@dataclass
class CoreConfig:
    """Out-of-order core parameters (Table 3, row "Core")."""

    frequency_ghz: float = 4.0
    issue_width: int = 6
    retire_width: int = 4
    rob_entries: int = 512
    load_queue_entries: int = 128
    store_queue_entries: int = 72
    #: Fixed pipeline refill penalty after a branch mispredict, in cycles.
    mispredict_penalty: int = 15
    #: Execution latency of non-memory instructions, in cycles.
    alu_latency: int = 1


def little_core(frequency_ghz: float = 4.0) -> CoreConfig:
    """An efficiency ("little") core: half-width issue, quarter ROB.

    The big/little mixes pair Table 3's reference core with these for
    the heterogeneous-system axis (does criticality-filtered prefetching
    help more when cores are asymmetric?).
    """
    return CoreConfig(frequency_ghz=frequency_ghz, issue_width=3,
                      retire_width=2, rob_entries=128,
                      load_queue_entries=64, store_queue_entries=36)


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

    history_bits: int = 24
    num_tables: int = 8
    table_entries: int = 1024
    weight_bits: int = 8
    threshold: int = 18


@dataclass
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str = "L1D"
    size_kib: int = 48
    ways: int = 12
    line_size: int = 64
    latency: int = 5
    mshr_entries: int = 16
    replacement: str = "lru"

    @property
    def num_sets(self) -> int:
        total_lines = self.size_kib * 1024 // self.line_size
        return total_lines // self.ways

    @property
    def num_lines(self) -> int:
        return self.size_kib * 1024 // self.line_size

    def __post_init__(self) -> None:
        if self.ways < 1:
            raise ValueError(f"{self.name}: ways must be positive, got "
                             f"{self.ways}")
        total_lines = self.size_kib * 1024 // self.line_size
        if total_lines % self.ways:
            raise ValueError(
                f"{self.name}: {total_lines} lines not divisible by "
                f"{self.ways} ways"
            )


def _default_l1i() -> CacheConfig:
    return CacheConfig(name="L1I", size_kib=32, ways=8, latency=4,
                       mshr_entries=8, replacement="lru")


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
    dtlb_entries: int = 64
    dtlb_ways: int = 4
    stlb_entries: int = 2048
    stlb_ways: int = 16
    #: STLB lookup latency in cycles (Table 3: 8 cycles).
    stlb_latency: int = 8
    #: Charge for a full page walk on an STLB miss.
    page_walk_latency: int = 100
    page_shift: int = 12


@dataclass
class NocConfig:
    """8x8 mesh wormhole NoC (Table 3, rows "Network Router"/"Topology")."""

    #: Router pipeline depth in cycles (2-stage wormhole router).
    router_latency: int = 2
    #: Link traversal latency in cycles.
    link_latency: int = 1
    #: Flits per data packet (64B line over 8-byte flits).
    data_packet_flits: int = 8
    #: Flits per address/request packet.
    address_packet_flits: int = 1
    virtual_channels: int = 6
    flit_buffer_depth: int = 5


@dataclass
class DramConfig:
    """DDR4-3200 channel timing (Table 3, rows "DRAM controller"/"chip").

    All latencies are expressed in CPU cycles at ``CoreConfig.frequency_ghz``.
    DDR4-3200 moves 25.6 GB/s per channel; one 64-byte line therefore
    occupies the data bus for 2.5 ns = 10 CPU cycles at 4 GHz.
    """

    channels: int = 8
    banks_per_channel: int = 16
    row_buffer_bytes: int = 4096
    #: tRP = tRCD = CAS = 12.5 ns (Table 3) = 50 cycles at 4 GHz.
    trp_cycles: int = 50
    trcd_cycles: int = 50
    cas_cycles: int = 50
    #: Data-bus occupancy of one 64B burst (burst length 16).
    burst_cycles: int = 10
    read_queue_entries: int = 64
    write_queue_entries: int = 64
    #: Writes drain once the write queue passes this fill fraction (7/8).
    write_watermark: float = 7.0 / 8.0
    #: Number of writes drained per drain episode.
    write_drain_batch: int = 16
    #: PADC-style prefetch-aware scheduling (demand-first).
    prefetch_aware: bool = True
    page_policy: str = "open"


@dataclass
class PrefetcherConfig:
    """Which prefetcher runs at which level, plus shared knobs."""

    #: One of "none", "berti", "ipcp", "spp_ppf", "bingo", "stride",
    #: "streamer".
    name: str = "berti"
    degree: int = 4
    #: Max in-flight prefetches queued at the issuing cache level.
    queue_entries: int = 32


@dataclass
class ClipConfig:
    """CLIP structures (Section 4.3, Table 2)."""

    enabled: bool = False
    # Criticality filter: 32 sets x 4 ways = 128 entries.
    filter_sets: int = 32
    filter_ways: int = 4
    ip_tag_bits: int = 6
    criticality_count_bits: int = 2
    hit_count_bits: int = 6
    issue_count_bits: int = 6
    #: ROB-stall occurrences before an IP is considered critical.
    criticality_count_threshold: int = 4
    # Criticality predictor: 128 sets x 4 ways = 512 entries.
    predictor_sets: int = 128
    predictor_ways: int = 4
    predictor_tag_bits: int = 6
    saturating_counter_bits: int = 3
    # Utility buffer CAM.
    utility_buffer_entries: int = 64
    # Global histories feeding the critical signature.
    branch_history_bits: int = 32
    criticality_history_bits: int = 32
    #: Exploration window, in L1D misses (just above 768 L1D lines).
    exploration_window_misses: int = 1024
    #: Per-IP prefetch hit rate needed to keep prefetching for an IP.
    accuracy_threshold: float = 0.90
    #: APC deviation that signals an application phase change.
    phase_change_threshold: float = 0.15
    #: Number of past windows averaged for the APC baseline.
    apc_history_windows: int = 16
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
    epoch_accesses: int = 128
    #: Bandit arms (L1 prefetcher names; "none" keeps the no-prefetch
    #: option competitive under bandwidth pressure).
    arms: tuple[str, ...] = ("none", "berti", "stride", "streamer")
    #: Epsilon-greedy exploration rate, in permille.
    epsilon_permille: int = 125
    #: Use the UCB rule instead of epsilon-greedy exploration.
    ucb: bool = False
    #: Perceptron geometry (branch.py-style lanes).
    tables: int = 4
    table_entries: int = 256
    weight_bits: int = 6
    #: Base admission threshold (idle bus).
    threshold: int = 0
    #: Raise the admission bar with DRAM bus pressure.
    adaptive_threshold: bool = True
    #: Admit every Nth below-threshold candidate as an exploration
    #: probe, so the filter keeps a training signal even when the
    #: adaptive bar exceeds the cold-start weights (CLIP's
    #: exploration-window idea, counter-deterministic).
    probe_interval: int = 8
    #: Bound on in-flight admissions awaiting fate feedback.
    pending_entries: int = 512


def _validate_cache(field_name: str, cache: CacheConfig) -> None:
    """``SystemConfig.validate`` for one cache level; ``field_name`` is
    the config field (``l1d``, ``l2``, ``llc_slice``) named in messages.
    Zero ways or zero capacity would divide by zero in the cache, no
    MSHR registers fail the MSHR file's construction, and a negative
    latency schedules a response in the past."""
    for name, value in (("ways", cache.ways),
                        ("size_kib", cache.size_kib),
                        ("mshr_entries", cache.mshr_entries)):
        if value < 1:
            raise ValueError(f"{field_name}.{name} must be positive, got "
                             f"{value}")
    if cache.latency < 0:
        raise ValueError(f"{field_name}.latency must not be negative, got "
                         f"{cache.latency}")


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
            ("criticality.name", ("none", *predictor_names())))


def _validate_components(config: "SystemConfig") -> None:
    """``SystemConfig.validate`` for the component names: an unknown
    replacement policy, prefetcher, throttler or criticality predictor
    fails in its factory at build time."""
    for field_name, choices in _component_choices():
        group, name = field_name.split(".")
        value = getattr(getattr(config, group), name)
        if value not in choices:
            raise ValueError(f"unknown {field_name} {value!r}: choose "
                             f"from {list(choices)}")


def _validate_tlb(tlb: TlbConfig) -> None:
    """``SystemConfig.validate`` for an enabled TLB.  An empty TLB, or
    one whose entries do not fill whole sets, fails in the TLB's
    construction; a negative page shift fails as a negative shift
    count; a negative latency hands cycles back, silently or into the
    past."""
    for level in ("dtlb", "stlb"):
        entries = getattr(tlb, f"{level}_entries")
        ways = getattr(tlb, f"{level}_ways")
        if ways < 1:
            raise ValueError(f"tlb.{level}_ways must be positive, got "
                             f"{ways}")
        if entries < 1 or entries % ways:
            raise ValueError(f"tlb.{level}_entries must be a positive "
                             f"multiple of tlb.{level}_ways ({ways}), got "
                             f"{entries}")
    for name, value in (("stlb_latency", tlb.stlb_latency),
                        ("page_walk_latency", tlb.page_walk_latency),
                        ("page_shift", tlb.page_shift)):
        if value < 0:
            raise ValueError(f"tlb.{name} must not be negative, got "
                             f"{value}")


def _validate_noc_dram(noc: NocConfig, dram: DramConfig,
                       line_size: int) -> None:
    """``SystemConfig.validate`` for the interconnect and DRAM timing.
    A negative router or link latency delivers a packet in the past (or
    early, silently), an empty packet cannot traverse the mesh, a
    zero-cycle burst or a negative array timing breaks the bank and
    data-bus spacing the DRAM channel models, and a row buffer smaller
    than a line maps no line to a row."""
    for name, value in (("noc.router_latency", noc.router_latency),
                        ("noc.link_latency", noc.link_latency),
                        ("dram.trp_cycles", dram.trp_cycles),
                        ("dram.trcd_cycles", dram.trcd_cycles),
                        ("dram.cas_cycles", dram.cas_cycles)):
        if value < 0:
            raise ValueError(f"{name} must not be negative, got {value}")
    if dram.row_buffer_bytes < line_size:
        raise ValueError(f"dram.row_buffer_bytes must be at least the "
                         f"line size ({line_size}), got "
                         f"{dram.row_buffer_bytes}")
    for name, value in (
            ("noc.address_packet_flits", noc.address_packet_flits),
            ("noc.data_packet_flits", noc.data_packet_flits),
            ("dram.burst_cycles", dram.burst_cycles)):
        if value < 1:
            raise ValueError(f"{name} must be positive, got {value}")


def _validate_clip(clip: ClipConfig) -> None:
    """``SystemConfig.validate`` for an enabled CLIP.  Empty structures
    and a zero-bit history or counter fail in the CLIP constructors; a
    negative tag or counter width fails as a negative shift, at build
    time or at the first prefetch issue or hit."""
    for name, value in (
            ("filter_sets", clip.filter_sets),
            ("filter_ways", clip.filter_ways),
            ("predictor_sets", clip.predictor_sets),
            ("predictor_ways", clip.predictor_ways),
            ("utility_buffer_entries", clip.utility_buffer_entries),
            ("branch_history_bits", clip.branch_history_bits),
            ("criticality_history_bits", clip.criticality_history_bits),
            ("saturating_counter_bits", clip.saturating_counter_bits),
            ("apc_history_windows", clip.apc_history_windows)):
        if value < 1:
            raise ValueError(f"clip.{name} must be positive, got {value}")
    for name, value in (
            ("ip_tag_bits", clip.ip_tag_bits),
            ("predictor_tag_bits", clip.predictor_tag_bits),
            ("criticality_count_bits", clip.criticality_count_bits),
            ("hit_count_bits", clip.hit_count_bits),
            ("issue_count_bits", clip.issue_count_bits)):
        if value < 0:
            raise ValueError(f"clip.{name} must not be negative, got "
                             f"{value}")
    if not 0 < clip.phase_change_threshold < 1:
        raise ValueError(f"clip.phase_change_threshold must be a fraction "
                         f"in (0, 1), got {clip.phase_change_threshold}")


def _validate_core(prefix: str, core: CoreConfig) -> None:
    """``SystemConfig.validate`` for one core (base or override);
    ``prefix`` names the core in messages."""
    if core.issue_width < 1 or core.retire_width < 1:
        raise ValueError(f"{prefix}issue and retire widths must be "
                         f"positive")
    if core.retire_width > core.issue_width:
        raise ValueError(f"{prefix}retire width wider than issue width")
    if core.rob_entries < 1:
        raise ValueError(f"{prefix}rob_entries must be positive")
    if core.alu_latency < 0 or core.mispredict_penalty < 0:
        raise ValueError(f"{prefix}alu_latency and mispredict_penalty "
                         f"must not be negative")


@dataclass
class SystemConfig:
    """Complete multi-core system configuration (Table 3 defaults)."""

    num_cores: int = 64
    core: CoreConfig = field(default_factory=CoreConfig)
    #: Per-core deviations from :attr:`core` (big/little mixes): maps a
    #: core id to the full :class:`CoreConfig` that core runs with.
    #: Cores absent from the map use :attr:`core` unchanged.
    core_overrides: dict[int, CoreConfig] = field(default_factory=dict)
    branch: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)
    tlb: TlbConfig = field(default_factory=TlbConfig)
    l1i: CacheConfig = field(default_factory=_default_l1i)
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
    warmup_instructions: int = 0
    #: When > 0, record up to this many per-demand-load latency records
    #: (see ``repro.sim.tracing``); 0 disables tracing.
    capture_request_trace: int = 0
    #: Install the runtime invariant sanitizer
    #: (``repro.analysis.sanitizer``).  Also enabled by the
    #: ``REPRO_SANITIZE=1`` environment variable; the flag is consulted
    #: once at system construction, so a disabled run pays nothing.
    sanitize: bool = False
    #: Instructions simulated per core with statistics on.
    sim_instructions: int = 20_000

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

        Everything that would otherwise hang (zero retire width), stall
        into a deadlock (an empty ROB or DRAM read queue), crash deep in
        a component (an empty or zero-width branch table, a cache with
        no ways, capacity or MSHR registers, a DRAM channel with no
        banks, a zero-cycle burst, negative array timings or a row
        buffer smaller than a line, an empty NoC packet, an enabled
        CLIP with an empty table or a negative counter width, an enabled
        TLB with no entries or whole sets, an unknown component name, a
        negative request-trace capacity, a non-positive frequency),
        schedule into the past (a negative cache, router, link, STLB or
        page-walk latency) or silently simulate something else
        (negative warm-up or core latencies) raises ``ValueError`` here.
        """
        if self.num_cores < 1:
            raise ValueError("num_cores must be positive")
        if self.dram.channels < 1:
            raise ValueError("at least one DRAM channel is required")
        dram = self.dram
        if dram.banks_per_channel < 1:
            raise ValueError(f"dram.banks_per_channel must be positive, "
                             f"got {dram.banks_per_channel}")
        if dram.read_queue_entries < 1:
            raise ValueError(f"dram.read_queue_entries must be positive, "
                             f"got {dram.read_queue_entries}")
        _validate_cache("l1d", self.l1d)
        _validate_cache("l2", self.l2)
        _validate_cache("llc_slice", self.llc_slice)
        _validate_noc_dram(self.noc, dram, self.l1d.line_size)
        _validate_components(self)
        # A disabled CLIP or TLB is never built, so its fields are not
        # read.
        if self.clip.enabled:
            _validate_clip(self.clip)
        if self.tlb.enabled:
            _validate_tlb(self.tlb)
        if self.capture_request_trace < 0:
            raise ValueError(f"capture_request_trace must not be negative, "
                             f"got {self.capture_request_trace}")
        if not self.core.frequency_ghz > 0:
            # Energy and delay divide by the frequency after the run.
            raise ValueError(f"core.frequency_ghz must be positive, got "
                             f"{self.core.frequency_ghz}")
        if self.sim_instructions < 1:
            raise ValueError("sim_instructions must be positive")
        if self.warmup_instructions < 0:
            raise ValueError("warmup_instructions must not be negative")
        branch = self.branch
        if branch.table_entries < 1 or branch.num_tables < 1:
            raise ValueError("branch predictor needs at least one table "
                             "with at least one entry")
        if branch.weight_bits < 1 or branch.history_bits < 0:
            raise ValueError("branch weight_bits must be positive and "
                             "history_bits not negative")
        _validate_core("", self.core)
        for core_id, override in self.core_overrides.items():
            if not 0 <= core_id < self.num_cores:
                raise ValueError(
                    f"core override for core {core_id} outside "
                    f"[0, {self.num_cores})")
            _validate_core(f"core {core_id}: ", override)
            if override.frequency_ghz != self.core.frequency_ghz:
                # Uncore latencies are expressed in core cycles, so the
                # model supports one clock domain for all cores.
                raise ValueError(
                    f"core {core_id}: per-core frequencies must match the "
                    f"base core ({override.frequency_ghz} != "
                    f"{self.core.frequency_ghz})")
        learned = self.learned
        if learned.policy not in ("none", "bandit", "perceptron"):
            raise ValueError(
                f"unknown learned policy {learned.policy!r}: expected "
                f"'none', 'bandit' or 'perceptron'")
        if learned.policy != "none" and learned.epoch_accesses < 1:
            raise ValueError("learned.epoch_accesses must be positive")
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
        if learned.policy == "perceptron":
            if learned.tables < 1 or learned.table_entries < 1:
                raise ValueError(
                    "perceptron needs at least one table and entry")
            if learned.weight_bits < 2:
                raise ValueError("perceptron weights need >= 2 bits")
            if learned.probe_interval < 1:
                raise ValueError(
                    "perceptron probe_interval must be positive")

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
                  warmup_instructions: int = 0) -> SystemConfig:
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
    config.l1i = dataclasses.replace(config.l1i, size_kib=8, ways=8)
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
