"""Application phase-change detection via accesses per cycle (section 4.2).

CLIP monitors the L1D accesses-per-cycle (APC) of each exploration window,
keeps the average over the last 16 windows, and declares a phase change
when the current window's APC deviates from that average by more than 15%.
On a phase change CLIP resets its tables and pauses prefetching for one
window.  (The APC metric and this detection scheme follow Kalani & Panda's
ROBO work, which the paper cites.)
"""

from __future__ import annotations

from collections import deque
from typing import Deque


class ApcPhaseDetector:
    """Sliding-average APC comparator."""

    def __init__(self, history_windows: int = 16,
                 threshold: float = 0.15) -> None:
        self.threshold = threshold
        self._history: Deque[float] = deque(maxlen=history_windows)
        self._accesses = 0
        self._window_start_cycle = 0
        self.phase_changes = 0

    def note_access(self) -> None:
        self._accesses += 1

    def end_window(self, cycle: int) -> bool:
        """Close the window at ``cycle``; returns True on a phase change."""
        elapsed = max(1, cycle - self._window_start_cycle)
        apc = self._accesses / elapsed
        self._accesses = 0
        self._window_start_cycle = cycle
        # Warm-up: with too few observed windows the average is noise, and
        # declaring phase changes from it would reset CLIP continually.
        min_history = max(2, self._history.maxlen // 2)
        if len(self._history) < min_history:
            self._history.append(apc)
            return False
        average = sum(self._history) / len(self._history)
        self._history.append(apc)
        if average <= 0:
            return False
        deviation = abs(apc - average) / average
        if deviation > self.threshold:
            self.phase_changes += 1
            self._history.clear()
            self._history.append(apc)
            return True
        return False
