"""Prefetcher interface.

A prefetcher observes the demand stream of its cache level through
``on_access`` and fills through ``on_fill``, and emits
:class:`PrefetchRequest` candidates.  The memory system (not the
prefetcher) decides what happens to a candidate: throttlers cap the degree,
CLIP's two-stage filter may drop it or flag it critical, and duplicate
candidates already resident or in flight are squashed.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class PrefetchRequest:
    """One prefetch candidate produced by a prefetcher."""

    __slots__ = ("address", "fill_level", "trigger_ip", "confidence")

    def __init__(self, address: int, fill_level: int, trigger_ip: int,
                 confidence: float = 1.0) -> None:
        if fill_level not in (1, 2, 3):
            raise ValueError("fill_level must be 1 (L1), 2 (L2) or 3 (LLC)")
        self.address = address
        self.fill_level = fill_level
        self.trigger_ip = trigger_ip
        self.confidence = confidence

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PrefetchRequest(address={self.address:#x}, "
                f"fill_level={self.fill_level}, "
                f"trigger_ip={self.trigger_ip:#x}, "
                f"confidence={self.confidence:.2f})")


class Prefetcher:
    """Base class; concrete prefetchers override the hooks they need."""

    #: Human-readable name used in results tables.
    name = "none"

    def on_access(self, ip: int, address: int, hit: bool,
                  cycle: int) -> List[PrefetchRequest]:
        """Observe one demand access; return prefetch candidates."""
        return []

    def on_fill(self, address: int, cycle: int, prefetch: bool,
                ip: int = 0, issued_at: int = 0) -> List[PrefetchRequest]:
        """Observe a fill into the training level.

        ``ip`` is the demand IP that initiated the miss (0 for prefetch
        fills) and ``issued_at`` the cycle the miss left this level --
        together they give Berti the observed latency it needs to find
        *timely* deltas.
        """
        return []

    def on_prefetch_feedback(self, address: int, useful: bool) -> None:
        """Learn from the fate of an issued prefetch (PPF training)."""

    def set_degree_scale(self, scale: float) -> None:
        """Throttler hook: scale aggressiveness (1.0 = configured)."""


class NullPrefetcher(Prefetcher):
    """The no-prefetching baseline."""

    name = "none"


def _registry() -> Dict[str, Tuple[type, str]]:
    """Every prefetcher by configuration name: its class and the cache
    level it trains at ("L1" or "L2"; "" for no prefetching), in the
    order ``repro run`` lists them."""
    # Imported here to avoid circular imports at package load.
    from repro.prefetch.berti import BertiPrefetcher
    from repro.prefetch.bingo import BingoPrefetcher
    from repro.prefetch.ipcp import IpcpPrefetcher
    from repro.prefetch.spp_ppf import SppPpfPrefetcher
    from repro.prefetch.stride import IpStridePrefetcher
    from repro.prefetch.streamer import StreamPrefetcher

    return {
        "none": (NullPrefetcher, ""),
        "berti": (BertiPrefetcher, "L1"),
        "ipcp": (IpcpPrefetcher, "L1"),
        "spp_ppf": (SppPpfPrefetcher, "L2"),
        "bingo": (BingoPrefetcher, "L2"),
        "stride": (IpStridePrefetcher, "L1"),
        "streamer": (StreamPrefetcher, "L1"),
    }


def prefetcher_names() -> List[str]:
    return sorted(_registry())


def prefetchers_at(level: str) -> Tuple[str, ...]:
    """The prefetchers that train at ``level`` ("L1" or "L2"), in
    registry order."""
    return tuple(name for name, (_, at) in _registry().items()
                 if at == level)


def make_prefetcher(name: str, degree: int = 4) -> Prefetcher:
    """Instantiate a prefetcher by configuration name."""
    registry = _registry()
    try:
        factory, _ = registry[name]
    except KeyError:
        raise ValueError(f"unknown prefetcher {name!r}; "
                         f"choose from {sorted(registry)}") from None
    if name == "none":
        return factory()
    return factory(degree=degree)
