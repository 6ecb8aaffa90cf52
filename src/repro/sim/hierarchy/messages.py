"""Typed messages exchanged between memory-hierarchy components.

Every request descending the hierarchy (core -> L1 -> L2 -> NoC -> LLC
slice -> DRAM) is a frozen :class:`MemoryRequest`; every completion
climbing back up is a frozen :class:`MemoryResponse`.  Freezing the
messages means a request queued behind a full MSHR (see
:class:`repro.sim.hierarchy.port.Port`) replays later with exactly the
identity it was issued with -- only the *cycle* a handler runs at is
re-read from the port, never the request fields.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.config import LINE_SHIFT
from repro.cpu.core_model import ServiceLevel

#: High bits carving a private physical address space per core
#: (SPEC-rate style: 64 copies share nothing).
CORE_SPACE_SHIFT = 40


def privatize(core_id: int, address: int) -> int:
    """Per-core private line address for a byte ``address``."""
    return (address >> LINE_SHIFT) | (core_id << CORE_SPACE_SHIFT)


class MemoryRequest(NamedTuple):
    """One request descending the hierarchy.

    ``line`` is the privatised line address used by every shared
    structure; ``address`` keeps the original byte address for
    prefetcher training.  ``crit`` is CLIP's criticality flag: it
    promotes a prefetch into the demand service class at the NoC and
    DRAM (``high_priority``).  ``t0`` is the cycle the originating
    demand issued -- latency accounting and Berti timeliness are
    measured from it even when the request sat in a pending queue first.

    A NamedTuple rather than a frozen dataclass: still immutable (a
    request queued behind a full MSHR replays with exactly the identity
    it was issued with), but construction skips the per-field
    ``object.__setattr__`` frozen dataclasses pay, and one is built per
    miss and per issued prefetch.
    """

    line: int
    address: int
    ip: int
    core_id: int
    is_prefetch: bool = False
    is_store: bool = False
    crit: bool = False
    t0: int = 0

    @property
    def high_priority(self) -> bool:
        """Service class at the NoC and DRAM (demand, or critical)."""
        return (not self.is_prefetch) or self.crit


class MemoryResponse(NamedTuple):
    """One completion climbing back up: ``line`` is filled at ``at``,
    having been serviced at ``level`` of the hierarchy."""

    line: int
    at: int
    level: ServiceLevel
