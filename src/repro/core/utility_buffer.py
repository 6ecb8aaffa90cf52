"""The utility buffer (paper sections 4.1 and 4.3).

A 64-entry circular CAM holding the most recent (prefetch line address,
trigger IP) pairs.  A demand access matching a stored prefetch address
proves that prefetch useful and credits the *trigger* IP's hit count in the
criticality filter.  Entries are counted at most once: a hit consumes the
entry, mirroring the one-hit-per-prefetch accounting of the accuracy
tracker.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional


class UtilityBuffer:
    """Circular content-addressable prefetch-address buffer."""

    def __init__(self, entries: int = 64) -> None:
        if entries < 1:
            raise ValueError("utility buffer needs at least one entry")
        self.capacity = entries
        self._cam: "OrderedDict[int, int]" = OrderedDict()

    def insert(self, line: int, trigger_ip: int) -> None:
        """Record a freshly issued prefetch (evicting the oldest pair)."""
        if line in self._cam:
            self._cam.move_to_end(line)
            self._cam[line] = trigger_ip
            return
        if len(self._cam) >= self.capacity:
            self._cam.popitem(last=False)
        self._cam[line] = trigger_ip

    def match(self, line: int) -> Optional[int]:
        """CAM lookup by demand line; returns and consumes the trigger IP."""
        return self._cam.pop(line, None)

    def clear(self) -> None:
        self._cam.clear()

    def __len__(self) -> int:
        return len(self._cam)
