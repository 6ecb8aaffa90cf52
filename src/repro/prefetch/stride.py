"""Classic IP-stride prefetcher (Fu/Patel/Janssens, MICRO 1992).

Per-IP reference prediction table with a two-bit confidence counter; the
baseline target of most throttling work (its ~60% accuracy is what FDP and
friends were designed around -- paper section 3).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List

from repro.prefetch.base import Prefetcher, PrefetchRequest

_LINE = 64


class _Entry:
    __slots__ = ("last_address", "stride", "confidence")

    def __init__(self, address: int) -> None:
        self.last_address = address
        self.stride = 0
        self.confidence = 0


class IpStridePrefetcher(Prefetcher):
    """Per-IP constant-stride prediction."""

    name = "stride"
    MAX_IPS = 256
    CONFIDENCE_THRESHOLD = 2

    def __init__(self, degree: int = 4) -> None:
        self.degree = degree
        self._scale = 1.0
        self._table: Dict[int, _Entry] = {}
        self._lru: Deque[int] = deque()

    def set_degree_scale(self, scale: float) -> None:
        self._scale = max(0.0, scale)

    def on_access(self, ip: int, address: int, hit: bool,
                  cycle: int) -> List[PrefetchRequest]:
        entry = self._table.get(ip)
        if entry is None:
            if len(self._table) >= self.MAX_IPS:
                victim = self._lru.popleft()
                self._table.pop(victim, None)
            self._table[ip] = _Entry(address)
            self._lru.append(ip)
            return []
        stride = address - entry.last_address
        if stride == 0:
            return []
        if stride == entry.stride:
            entry.confidence = min(3, entry.confidence + 1)
        else:
            entry.confidence = max(0, entry.confidence - 1)
            if entry.confidence == 0:
                entry.stride = stride
        entry.last_address = address
        if entry.confidence < self.CONFIDENCE_THRESHOLD or not entry.stride:
            return []
        degree = max(0, int(round(self.degree * self._scale)))
        requests = []
        for distance in range(1, degree + 1):
            target = address + entry.stride * distance
            if target <= 0:
                break
            requests.append(PrefetchRequest(
                address=target, fill_level=2, trigger_ip=ip,
                confidence=entry.confidence / 3.0))
        return requests
