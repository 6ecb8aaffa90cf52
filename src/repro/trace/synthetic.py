"""Synthetic workload generation.

Each workload is described by a :class:`WorkloadSpec`: a weighted set of
memory *streams* plus filler compute/branch behaviour.  Streams encode the
access-pattern archetypes that matter for the paper's mechanisms:

``stride``
    Constant-stride loads (prefetch-friendly; Berti/IPCP learn these).
``pointer``
    Pointer chasing: each load's address depends on the previous load's
    destination register, serialising misses (low MLP; mcf-like; critical
    but hard to prefetch accurately).
``spatial``
    Region-footprint accesses with a recurring per-stream offset pattern
    (Bingo/SPP-friendly).
``random``
    Uniformly random lines in a footprint (unprefetchable noise).
``hotcold``
    A branch-correlated load: one IP whose address falls in a small hot
    region or a large cold region depending on the preceding conditional
    branch.  This produces *dynamic-critical* IPs -- the same IP stalls the
    ROB only on the cold path -- which IP-indexed predictors mispredict and
    CLIP's branch-history signature captures (paper section 4.2).
``stream_store``
    Streaming stores (lbm-like) that generate writeback bandwidth pressure.

Generation is fully deterministic given (spec, core id, length).
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.trace.record import Op, TraceRecord

_LINE = 64
#: General-purpose destination registers rotate through 0..23; registers
#: 24..31 are reserved as per-stream pointer-chase registers so that a
#: chased value is never clobbered by unrelated filler instructions.
_REG_POOL = 24
_CHASE_REG_BASE = 24
_CHASE_REGS = 8


def _stable_seed(*parts: object) -> int:
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode())
    return int.from_bytes(digest.digest()[:8], "little")


@dataclass
class StreamSpec:
    """One memory access stream inside a workload."""

    kind: str
    weight: float = 1.0
    footprint_kib: int = 8192
    stride: int = _LINE
    region_bytes: int = 2048
    spatial_density: float = 0.5
    hot_footprint_kib: int = 16
    hot_probability: float = 0.5
    #: Dependent ALU instructions following each load.
    dep_alu: int = 2
    #: Loop-branch bias for this stream's loop branch.
    branch_bias: float = 0.99
    #: Number of distinct load IPs this stream rotates through.
    ips: int = 1

    def __post_init__(self) -> None:
        valid = {"stride", "pointer", "spatial", "random", "hotcold",
                 "stream_store"}
        if self.kind not in valid:
            raise ValueError(f"unknown stream kind {self.kind!r}")
        if self.footprint_kib < 1:
            raise ValueError("footprint must be at least 1 KiB")
        if self.weight <= 0:
            raise ValueError("stream weight must be positive")


@dataclass
class WorkloadSpec:
    """A named workload: streams plus filler-instruction behaviour."""

    name: str
    streams: List[StreamSpec] = field(default_factory=list)
    #: Probability that a bundle slot is a standalone ALU filler bundle.
    alu_filler_weight: float = 1.0
    #: Number of phases; weights rotate between phases.
    phases: int = 1
    #: Instructions per phase before weights rotate.
    phase_length: int = 6000

    def __post_init__(self) -> None:
        if not self.streams:
            raise ValueError(f"workload {self.name!r} has no streams")
        if self.phases < 1:
            raise ValueError("phases must be >= 1")


class _StreamState:
    """Mutable per-stream generation state, plus the stream's records.

    Every record the stream emits is built on its first occurrence and
    shared by every later one: a memory access's load (and a streaming
    store's store) once per distinct (ip, address, dst, srcs), the
    dependent ALUs after a load once per destination-register slot, and
    each branch once per outcome and sources.  The state lives for one
    :meth:`SyntheticWorkload.generate` call, so nothing outlives the
    trace that references it.
    """

    __slots__ = ("spec", "base_ip", "base_addr", "cursor", "last_dst",
                 "region_base", "region_offsets", "region_pos", "hot_base",
                 "chase_reg", "accesses", "dep_alus", "loop_branches",
                 "hotcold_branches")

    def __init__(self, spec: StreamSpec, index: int, base_ip: int,
                 rng: random.Random) -> None:
        self.spec = spec
        self.base_ip = base_ip + index * 0x10000
        self.chase_reg = _CHASE_REG_BASE + index % _CHASE_REGS
        # Streams get disjoint address regions inside the workload space,
        # with a per-stream page-aligned jitter so bases do not all align
        # on the same power-of-two boundary (real heaps never do).
        jitter = (rng.randrange(1 << 14)) << 12
        self.base_addr = 0x1000_0000 + index * 0x4000_0000 + jitter
        self.cursor = 0
        self.last_dst: Optional[int] = None
        self.region_base = 0
        # Force a region pick on the first spatial emission.
        self.region_pos = 1 << 30
        self.hot_base = self.base_addr + 0x2000_0000
        # A fixed per-stream spatial footprint (recurs across regions).
        lines_per_region = max(1, spec.region_bytes // _LINE)
        wanted = max(1, int(lines_per_region * spec.spatial_density))
        self.region_offsets = sorted(
            rng.sample(range(lines_per_region), min(wanted, lines_per_region)))
        #: (ip, address, dst, srcs) -> that access's records.
        self.accesses: Dict[Tuple, Tuple[TraceRecord, ...]] = {}
        #: The load's destination-register slot -> the dependent ALUs.
        self.dep_alus: List[Optional[Tuple[TraceRecord, ...]]] = (
            [None] * _REG_POOL)
        self.loop_branches = _branches(self.base_ip + 0x60, ())
        #: Indexed by whether the branch has a source, then by outcome.
        self.hotcold_branches = (
            (_branches(self.base_ip + 0x4, ()),
             _branches(self.base_ip + 0x4, (self.chase_reg,)))
            if spec.kind == "hotcold" else ())

    def access(self, ip: int, address: int, dst: int,
               srcs: Tuple[int, ...]) -> Tuple[TraceRecord, ...]:
        """One memory access's records: the load, then, on a streaming
        store, the store of the loaded value."""
        key = (ip, address, dst, srcs)
        records = self.accesses.get(key)
        if records is None:
            load = TraceRecord(ip, Op.LOAD, address=address, dst=dst,
                               srcs=srcs)
            if self.spec.kind == "stream_store":
                records = (load, TraceRecord(ip + 0x4, Op.STORE,
                                             address=address, srcs=(dst,)))
            else:
                records = (load,)
            self.accesses[key] = records
        return records


def _branches(ip: int, srcs: Tuple[int, ...]) -> Tuple[TraceRecord, ...]:
    """The not-taken and the taken branch at ``ip``, indexed by outcome."""
    return (TraceRecord(ip, Op.BRANCH, taken=False, srcs=srcs),
            TraceRecord(ip, Op.BRANCH, taken=True, srcs=srcs))


class SyntheticWorkload:
    """Deterministic instruction-stream generator for one workload."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec

    def generate(self, length: int, core_id: int = 0) -> List[TraceRecord]:
        """Generate ``length`` instructions for one core.

        The same (spec, core_id, length prefix) always produces the same
        stream; different cores get different interleavings (SPEC-rate runs
        start all copies at the same SimPoint, but queueing noise decorrelates
        them -- a different RNG stream per core models that).

        The list holds one :class:`TraceRecord` object per distinct record
        and repeats it wherever that instruction recurs.  Each record is
        built on its first occurrence, from pools that live only for this
        call; records are immutable, so sharing them is safe.
        """
        if length < 1:
            raise ValueError("length must be positive")
        rng = random.Random(_stable_seed(self.spec.name, core_id))
        base_ip = 0x400000 + (_stable_seed(self.spec.name) & 0xFFFF) * 0x100
        states = [
            _StreamState(spec, i, base_ip, rng)
            for i, spec in enumerate(self.spec.streams)
        ]
        # The filler records, one per destination register and, for the
        # branch, per outcome; streams keep their own (``_StreamState``).
        filler_alus = [TraceRecord(base_ip + 0x8, Op.ALU, dst=reg)
                       for reg in range(_REG_POOL)]
        filler_branches = [_branches(base_ip + 0x10, (reg,))
                           for reg in range(_REG_POOL)]
        out: List[TraceRecord] = []
        next_reg = 0
        phase = 0
        num_streams = len(states)
        # Per-phase cumulative weight tables, built once: the stream pick
        # below replicates ``rng.choices(range(n + 1), weights=w)[0]``
        # bit-for-bit (one rng.random() draw, bisect over the cumulative
        # weights) without rebuilding the weight lists every bundle.
        phase_tables = [self._phase_cum_weights(p)
                        for p in range(self.spec.phases)]
        phases = self.spec.phases
        phase_length = self.spec.phase_length
        while len(out) < length:
            if phases > 1:
                phase = (len(out) // phase_length) % phases
            cum_weights, total = phase_tables[phase]
            choice = bisect.bisect(cum_weights, rng.random() * total,
                                   0, num_streams)
            if choice == num_streams:
                dst = next_reg % _REG_POOL
                next_reg += 1
                out.append(filler_alus[dst])
                if rng.random() < 0.2:
                    out.append(filler_branches[dst][rng.random() < 0.97])
            else:
                next_reg = self._emit_bundle(
                    states[choice], out, rng, next_reg)
        del out[length:]
        return out

    def _phase_cum_weights(self, phase: int) -> tuple:
        """(cumulative weights, float total) for one phase's stream pick."""
        cum_weights = list(itertools.accumulate(self._phase_weights(phase)))
        total = cum_weights[-1] + 0.0
        if total <= 0.0:
            raise ValueError("Total of weights must be greater than zero")
        return cum_weights, total

    def _phase_weights(self, phase: int) -> List[float]:
        """Stream weights for ``phase``; phases rotate stream emphasis."""
        weights = [s.weight for s in self.spec.streams]
        if phase:
            rotation = phase % len(weights)
            weights = weights[rotation:] + weights[:rotation]
        return weights + [self.spec.alu_filler_weight]

    @staticmethod
    def _skewed_line(rng: random.Random, footprint: int) -> int:
        """Pick a line index with realistic skew: most irregular accesses
        (pointer chases, graph lookups) revisit a hot fraction of the
        structure rather than sweeping it uniformly."""
        span = max(1, footprint // _LINE)
        if rng.random() < 0.7:
            return rng.randrange(max(1, span // 16))
        return rng.randrange(span)

    def _emit_bundle(self, state: _StreamState, out: List[TraceRecord],
                     rng: random.Random, next_reg: int) -> int:
        spec = state.spec
        kind = spec.kind
        footprint = spec.footprint_kib * 1024
        ip_slot = state.cursor % max(1, spec.ips)
        load_ip = state.base_ip + ip_slot * 0x20
        base = state.base_addr
        slot = dst = next_reg % _REG_POOL
        srcs: Tuple[int, ...] = ()

        if kind == "stride" or kind == "stream_store":
            address = base + (state.cursor * spec.stride) % footprint
        elif kind == "pointer":
            address = base + self._skewed_line(rng, footprint) * _LINE
            if state.last_dst is not None:
                srcs = (state.chase_reg,)
            dst = state.last_dst = state.chase_reg
        elif kind == "spatial":
            if state.region_pos >= len(state.region_offsets):
                state.region_pos = 0
                regions = footprint // spec.region_bytes
                state.region_base = (base + rng.randrange(regions)
                                     * spec.region_bytes)
            offset = state.region_offsets[state.region_pos]
            state.region_pos += 1
            address = state.region_base + offset * _LINE
        elif kind == "random":
            address = base + self._skewed_line(rng, footprint) * _LINE
        elif kind == "hotcold":
            # Branch first; its outcome selects the hot or cold region for
            # the *same* load IP.  The branch is data-dependent (sourced from
            # the previous iteration's load) so it resolves late and its
            # outcome genuinely precedes the load in global branch history.
            take_hot = rng.random() < spec.hot_probability
            out.append(state.hotcold_branches[state.last_dst is not None]
                       [take_hot])
            if take_hot:
                hot_lines = spec.hot_footprint_kib * 1024 // _LINE
                address = state.hot_base + rng.randrange(hot_lines) * _LINE
            else:
                address = base + rng.randrange(footprint // _LINE) * _LINE
            dst = state.last_dst = state.chase_reg
        else:  # pragma: no cover - guarded by StreamSpec validation
            raise AssertionError(kind)
        out.extend(state.access(load_ip, address, dst, srcs))

        state.cursor += 1
        # The dependent ALUs write the registers after ``slot`` and read
        # the load's destination, which ``slot`` and the stream fix.
        alus = state.dep_alus[slot]
        if alus is None:
            alus = state.dep_alus[slot] = tuple(
                TraceRecord(state.base_ip + 0x40 + i * 4, Op.ALU,
                            dst=(slot + 1 + i) % _REG_POOL, srcs=(dst,))
                for i in range(spec.dep_alu))
        out.extend(alus)
        # Loop branch closing the bundle (predictable, biased taken).
        out.append(state.loop_branches[rng.random() < spec.branch_bias])
        return next_reg + 1 + spec.dep_alu
