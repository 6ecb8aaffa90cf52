"""Bingo spatial data prefetcher (HPCA 2019).

Bingo records the footprint of lines touched inside a spatial region and
replays it the next time the region's *trigger* event recurs.  Its insight
is to associate each footprint with multiple events of different length --
the long ``PC+Address`` event (precise, rare) and the short ``PC+Offset``
event (less precise, frequent) -- and to prefer the longest matching event
at lookup time.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from repro.config import LINE_SHIFT
from repro.prefetch.base import Prefetcher, PrefetchRequest

_REGION_SHIFT = 11  # 2 KiB regions, as in the original proposal
_LINES_PER_REGION = 1 << (_REGION_SHIFT - LINE_SHIFT)


class _Generation:
    """An in-flight region recording: trigger event + touched lines."""

    __slots__ = ("trigger_ip", "trigger_offset", "trigger_address",
                 "footprint")

    def __init__(self, trigger_ip: int, trigger_offset: int,
                 trigger_address: int) -> None:
        self.trigger_ip = trigger_ip
        self.trigger_offset = trigger_offset
        self.trigger_address = trigger_address
        self.footprint = 0


class BingoPrefetcher(Prefetcher):
    """Footprint prefetcher keyed on PC+Address / PC+Offset events."""

    name = "bingo"
    MAX_GENERATIONS = 64
    MAX_HISTORY = 4096

    def __init__(self, degree: int = 4) -> None:
        # Bingo replays whole footprints; ``degree`` caps the replay size.
        self.degree = max(degree, 8)
        self._scale = 1.0
        self._generations: "OrderedDict[int, _Generation]" = OrderedDict()
        #: Long event (PC, region address) -> footprint bitmap.
        self._long_history: "OrderedDict[int, int]" = OrderedDict()
        #: Short event (PC, offset) -> footprint bitmap.
        self._short_history: "OrderedDict[int, int]" = OrderedDict()

    def set_degree_scale(self, scale: float) -> None:
        self._scale = max(0.0, scale)

    @staticmethod
    def _long_key(ip: int, region: int) -> int:
        return (ip << 20) ^ region

    @staticmethod
    def _short_key(ip: int, offset: int) -> int:
        return (ip << 5) ^ offset

    def on_access(self, ip: int, address: int, hit: bool,
                  cycle: int) -> List[PrefetchRequest]:
        region = address >> _REGION_SHIFT
        offset = (address >> LINE_SHIFT) & (_LINES_PER_REGION - 1)
        generation = self._generations.get(region)
        if generation is not None:
            generation.footprint |= 1 << offset
            self._generations.move_to_end(region)
            return []
        # Region trigger: retire the oldest generation into history if the
        # table is full, start recording, and look up a predicted footprint.
        if len(self._generations) >= self.MAX_GENERATIONS:
            old_region, old_generation = self._generations.popitem(last=False)
            self._retire(old_region, old_generation)
        generation = _Generation(ip, offset, region)
        generation.footprint = 1 << offset
        self._generations[region] = generation
        footprint = self._predict(ip, region, offset)
        if footprint is None:
            return []
        budget = max(0, int(round(self.degree * self._scale)))
        requests: List[PrefetchRequest] = []
        for line_offset in range(_LINES_PER_REGION):
            if len(requests) >= budget:
                break
            if line_offset == offset:
                continue
            if footprint & (1 << line_offset):
                target = ((region << _REGION_SHIFT)
                          | (line_offset << LINE_SHIFT))
                requests.append(PrefetchRequest(
                    address=target, fill_level=2, trigger_ip=ip,
                    confidence=0.8))
        return requests

    def _predict(self, ip: int, region: int, offset: int) -> Optional[int]:
        long_hit = self._long_history.get(self._long_key(ip, region))
        if long_hit is not None:
            return long_hit
        return self._short_history.get(self._short_key(ip, offset))

    def _retire(self, region: int, generation: _Generation) -> None:
        if bin(generation.footprint).count("1") < 2:
            return  # Single-line regions teach nothing.
        long_key = self._long_key(generation.trigger_ip,
                                  generation.trigger_address)
        short_key = self._short_key(generation.trigger_ip,
                                    generation.trigger_offset)
        self._long_history[long_key] = generation.footprint
        self._short_history[short_key] = generation.footprint
        while len(self._long_history) > self.MAX_HISTORY:
            self._long_history.popitem(last=False)
        while len(self._short_history) > self.MAX_HISTORY:
            self._short_history.popitem(last=False)
