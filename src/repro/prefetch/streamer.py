"""Stream prefetcher (POWER4-style next-N-line streaming).

Detects unidirectional miss streams inside 4 KiB regions and runs ahead of
them; the other classic target of throttling techniques.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List

from repro.config import LINE_SHIFT
from repro.prefetch.base import Prefetcher, PrefetchRequest

_REGION_SHIFT = 12  # 4 KiB tracking regions


class _Stream:
    __slots__ = ("last_line", "direction", "confidence")

    def __init__(self, line: int) -> None:
        self.last_line = line
        self.direction = 0
        self.confidence = 0


class StreamPrefetcher(Prefetcher):
    """Region-based stream detection with direction confirmation."""

    name = "streamer"
    MAX_REGIONS = 64
    CONFIRMATIONS = 2

    def __init__(self, degree: int = 4) -> None:
        self.degree = degree
        self._scale = 1.0
        self._regions: "OrderedDict[int, _Stream]" = OrderedDict()

    def set_degree_scale(self, scale: float) -> None:
        self._scale = max(0.0, scale)

    def on_access(self, ip: int, address: int, hit: bool,
                  cycle: int) -> List[PrefetchRequest]:
        line = address >> LINE_SHIFT
        region = address >> _REGION_SHIFT
        stream = self._regions.get(region)
        if stream is None:
            if len(self._regions) >= self.MAX_REGIONS:
                self._regions.popitem(last=False)
            self._regions[region] = _Stream(line)
            return []
        self._regions.move_to_end(region)
        step = line - stream.last_line
        if step == 0:
            return []
        direction = 1 if step > 0 else -1
        if direction == stream.direction:
            stream.confidence = min(4, stream.confidence + 1)
        else:
            stream.direction = direction
            stream.confidence = 1
        stream.last_line = line
        if stream.confidence < self.CONFIRMATIONS:
            return []
        degree = max(0, int(round(self.degree * self._scale)))
        requests = []
        for distance in range(1, degree + 1):
            target = (line + direction * distance) << LINE_SHIFT
            if target <= 0:
                break
            requests.append(PrefetchRequest(
                address=target, fill_level=2, trigger_ip=ip,
                confidence=stream.confidence / 4.0))
        return requests
