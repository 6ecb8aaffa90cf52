"""Static workload characterisation.

Answers, from a generated trace alone, the questions an adopter asks before
simulating: how memory-intensive is this workload, which access patterns
dominate, how many load IPs matter, and how deep are its dependence chains.
The same quantities justify the per-benchmark models in
``repro.trace.workloads`` (DESIGN.md section 2).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.config import LINE_SHIFT
from repro.trace.record import Op, TraceRecord


@dataclass
class IpProfile:
    """Per-load-IP access behaviour."""

    ip: int
    accesses: int = 0
    dominant_delta: int = 0
    dominant_delta_share: float = 0.0
    unique_lines: int = 0

    @property
    def strided(self) -> bool:
        """Does one non-zero delta explain most of this IP's accesses?"""
        return self.dominant_delta != 0 and self.dominant_delta_share > 0.5


@dataclass
class WorkloadProfile:
    """Summary statistics of one instruction trace."""

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    #: Distinct 64B lines touched by memory operations.
    unique_lines: int = 0
    #: Address span (max - min) of memory operations, in bytes.
    footprint_span_bytes: int = 0
    #: Loads whose address depends on the previous load (chase links).
    dependent_loads: int = 0
    #: Fraction of load accesses covered by strided IPs.
    strided_load_share: float = 0.0
    #: Load IPs covering 90% of load accesses.
    hot_ip_count: int = 0
    ip_profiles: Dict[int, IpProfile] = field(default_factory=dict)

    @property
    def load_ratio(self) -> float:
        if not self.instructions:
            return 0.0
        return self.loads / self.instructions

    @property
    def reuse_factor(self) -> float:
        """Accesses per unique line; ~1 means streaming, high means hot."""
        memory_ops = self.loads + self.stores
        if not self.unique_lines:
            return 0.0
        return memory_ops / self.unique_lines


def profile_trace(records: Sequence[TraceRecord]) -> WorkloadProfile:
    """Characterise a trace; see :class:`WorkloadProfile`."""
    profile = WorkloadProfile(instructions=len(records))
    lines = set()
    addresses: List[int] = []
    per_ip_addresses: Dict[int, List[int]] = {}
    for record in records:
        if record.op == Op.LOAD:
            profile.loads += 1
            if record.srcs and record.dst in record.srcs:
                profile.dependent_loads += 1
            per_ip_addresses.setdefault(record.ip, []).append(record.address)
        elif record.op == Op.STORE:
            profile.stores += 1
        elif record.op == Op.BRANCH:
            profile.branches += 1
        if record.is_memory:
            lines.add(record.address >> LINE_SHIFT)
            addresses.append(record.address)
    profile.unique_lines = len(lines)
    if addresses:
        profile.footprint_span_bytes = max(addresses) - min(addresses)
    strided_accesses = 0
    counts = []
    for ip, ip_addresses in per_ip_addresses.items():
        ip_profile = IpProfile(ip=ip, accesses=len(ip_addresses))
        ip_profile.unique_lines = len({a >> LINE_SHIFT
                                       for a in ip_addresses})
        if len(ip_addresses) > 1:
            deltas = Counter(b - a for a, b in zip(ip_addresses,
                                                   ip_addresses[1:]))
            delta, count = deltas.most_common(1)[0]
            ip_profile.dominant_delta = delta
            ip_profile.dominant_delta_share = count / (len(ip_addresses) - 1)
        if ip_profile.strided:
            strided_accesses += ip_profile.accesses
        profile.ip_profiles[ip] = ip_profile
        counts.append(ip_profile.accesses)
    if profile.loads:
        profile.strided_load_share = strided_accesses / profile.loads
    counts.sort(reverse=True)
    accumulated = 0
    for index, count in enumerate(counts):
        accumulated += count
        if accumulated >= 0.9 * profile.loads:
            profile.hot_ip_count = index + 1
            break
    return profile


def format_profile(profile: WorkloadProfile, name: str = "") -> str:
    """Human-readable characterisation summary."""
    lines = []
    if name:
        lines.append(f"workload: {name}")
    lines.append(f"instructions        : {profile.instructions}")
    lines.append(f"loads/stores/branches: {profile.loads}/{profile.stores}/"
                 f"{profile.branches} "
                 f"(load ratio {profile.load_ratio:.2f})")
    lines.append(f"unique lines touched : {profile.unique_lines} "
                 f"(reuse factor {profile.reuse_factor:.1f})")
    lines.append(f"footprint span       : "
                 f"{profile.footprint_span_bytes / (1 << 20):.1f} MiB")
    lines.append(f"pointer-chase loads  : {profile.dependent_loads}")
    lines.append(f"strided load share   : {profile.strided_load_share:.0%}")
    lines.append(f"load IPs for 90% of loads: {profile.hot_ip_count} of "
                 f"{len(profile.ip_profiles)}")
    return "\n".join(lines)
