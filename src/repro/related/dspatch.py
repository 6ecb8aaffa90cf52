"""DSPatch: Dual Spatial Pattern prefetching (MICRO 2019).

DSPatch keeps *two* spatial bitmaps per program/page signature: CovP, the
OR of recent page footprints (coverage-biased), and AccP, the AND
(accuracy-biased), and picks between them using measured DRAM bandwidth
utilisation.  The paper's critique (section 5.3): the bandwidth signal is
read per DRAM controller -- a myopic view -- and in constrained-bandwidth
many-core scenarios it frequently reads "underutilised", steering DSPatch
to the coverage bitmap and *adding* traffic exactly when traffic is the
problem.

This implementation keeps both the dual bitmaps and the per-channel
(myopic) utilisation check, and acts as an add-on candidate source plus a
mode-dependent filter over the underlying prefetcher's candidates.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List

from repro.config import LINE_SHIFT
from repro.prefetch.base import PrefetchRequest

_PAGE_SHIFT = 12
_LINES_PER_PAGE = 1 << (_PAGE_SHIFT - LINE_SHIFT)


class _PagePatterns:
    __slots__ = ("covp", "accp", "trained")

    def __init__(self) -> None:
        self.covp = 0
        self.accp = 0
        self.trained = False


#: Observations without a touch after which an active page is considered
#: finished and its footprint retires into the pattern store.
_IDLE_RETIRE = 256


class DspatchModulator:
    """Dual-bitmap spatial prefetching with bandwidth-mode switching."""

    MAX_PAGES = 128
    MAX_SIGNATURES = 2048
    #: Per-channel utilisation above which the accuracy bitmap is used.
    HIGH_BANDWIDTH = 0.75
    #: Candidate-confidence floor applied in accuracy mode.
    ACCURACY_CONFIDENCE_FLOOR = 0.60

    def __init__(self) -> None:
        #: page -> [trigger ip, footprint bitmap, last-touch tick]
        self._active: "OrderedDict[int, List[int]]" = OrderedDict()
        #: signature (trigger ip) -> patterns
        self._patterns: "OrderedDict[int, _PagePatterns]" = OrderedDict()
        self.coverage_mode_uses = 0
        self.accuracy_mode_uses = 0
        self._tick = 0

    # ------------------------------------------------------------------

    def observe(self, ip: int, address: int,
                utilization_of: Callable[[int], float],
                ) -> List[PrefetchRequest]:
        """Track the access; on a page trigger, emit bitmap prefetches.

        ``utilization_of(address)`` must return the utilisation of the DRAM
        channel that owns ``address`` -- the deliberately myopic signal.
        """
        page = address >> _PAGE_SHIFT
        offset = (address >> LINE_SHIFT) & (_LINES_PER_PAGE - 1)
        self._tick += 1
        state = self._active.get(page)
        if state is not None:
            state[1] |= 1 << offset
            state[2] = self._tick
            self._active.move_to_end(page)
            return []
        if len(self._active) >= self.MAX_PAGES:
            _, old = self._active.popitem(last=False)
            self._retire(old[0], old[1])
        # Pages the stream has left retire too (a generation "ends" when
        # its page goes quiet, not only on buffer pressure).
        for stale_page in [p for p, s in self._active.items()
                           if self._tick - s[2] > _IDLE_RETIRE]:
            stale = self._active.pop(stale_page)
            self._retire(stale[0], stale[1])
        self._active[page] = [ip, 1 << offset, self._tick]
        patterns = self._patterns.get(ip)
        if patterns is None or not patterns.trained:
            return []
        self._patterns.move_to_end(ip)
        if utilization_of(address) >= self.HIGH_BANDWIDTH:
            bitmap = patterns.accp
            self.accuracy_mode_uses += 1
            confidence = 0.9
        else:
            bitmap = patterns.covp
            self.coverage_mode_uses += 1
            confidence = 0.5
        requests = []
        for line_offset in range(_LINES_PER_PAGE):
            if line_offset != offset and bitmap & (1 << line_offset):
                target = (page << _PAGE_SHIFT) | (line_offset << LINE_SHIFT)
                requests.append(PrefetchRequest(
                    address=target, fill_level=2, trigger_ip=ip,
                    confidence=confidence))
        return requests

    def _retire(self, ip: int, footprint: int) -> None:
        patterns = self._patterns.get(ip)
        if patterns is None:
            if len(self._patterns) >= self.MAX_SIGNATURES:
                self._patterns.popitem(last=False)
            patterns = _PagePatterns()
            patterns.covp = footprint
            patterns.accp = footprint
            self._patterns[ip] = patterns
        else:
            patterns.covp |= footprint       # OR: coverage-biased.
            patterns.accp &= footprint       # AND: accuracy-biased.
            patterns.trained = True

    # ------------------------------------------------------------------

    def filter_candidates(self, candidates: List[PrefetchRequest],
                          utilization_of: Callable[[int], float],
                          ) -> List[PrefetchRequest]:
        """Mode-dependent treatment of the underlying prefetcher's output:
        accuracy mode drops low-confidence candidates; coverage mode keeps
        everything (and the bitmap candidates add more)."""
        kept: List[PrefetchRequest] = []
        for candidate in candidates:
            if utilization_of(candidate.address) >= self.HIGH_BANDWIDTH:
                if candidate.confidence >= self.ACCURACY_CONFIDENCE_FLOOR:
                    kept.append(candidate)
            else:
                kept.append(candidate)
        return kept
