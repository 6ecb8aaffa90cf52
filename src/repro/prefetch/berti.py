"""Berti: local-delta L1 prefetcher with timeliness-aware delta selection.

Berti (Navarro-Torres et al., MICRO 2022) learns, per load IP, which local
deltas are *timely*: a delta d is useful only if issuing ``addr + d`` at the
time ``addr`` was seen would have completed before the demand for
``addr + d`` actually arrived.  Berti measures each delta's local coverage
and uses watermarks on that coverage to pick the fill level: high-coverage
deltas fill L1, mid-coverage deltas fill L2, low-coverage deltas are not
prefetched at all -- which is why Berti's accuracy is so high (>82% in the
paper) and why accuracy-based throttlers have little left to do.

Implementation notes (faithful-in-spirit, simplified bookkeeping):

* per-IP history of recent demand accesses (line, cycle);
* on every fill completing a demand miss we know the observed latency; each
  history entry older than that latency contributes a timely-delta vote;
* per-IP delta scoreboard with periodic aging; coverage = votes for the
  delta / history opportunities in the scoring window.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.config import LINE_SHIFT
from repro.prefetch.base import Prefetcher, PrefetchRequest


class _IpState:
    """Berti's per-IP tracking entry."""

    __slots__ = ("history", "delta_votes", "opportunities", "best")

    def __init__(self) -> None:
        self.history: Deque[Tuple[int, int]] = deque(maxlen=32)
        self.delta_votes: Dict[int, int] = {}
        self.opportunities = 0
        #: Cached list of (delta, coverage) above the low watermark.
        self.best: List[Tuple[int, float]] = []


class BertiPrefetcher(Prefetcher):
    """State-of-the-art local-delta L1D prefetcher."""

    name = "berti"

    #: Local-coverage watermarks steering the fill level (tuned values for
    #: the 64-core system; the paper notes it uses "the best watermarks").
    HIGH_WATERMARK = 0.50
    LOW_WATERMARK = 0.25
    #: Re-derive the best-delta list every this many scoring events.
    REFRESH_INTERVAL = 32
    #: Age the scoreboard once opportunities reach this count.
    AGING_LIMIT = 128
    MAX_IPS = 64

    def __init__(self, degree: int = 6) -> None:
        self.degree = degree
        self._scale = 1.0
        #: ``round(degree * scale)``, recomputed only when the throttle
        #: rescales -- on_access runs per demand access.
        self._effective_degree = max(0, int(round(degree * self._scale)))
        self._table: Dict[int, _IpState] = {}
        self._lru: Deque[int] = deque()

    def set_degree_scale(self, scale: float) -> None:
        self._scale = max(0.0, scale)
        self._effective_degree = max(0, int(round(self.degree * self._scale)))

    # ------------------------------------------------------------------

    def _state(self, ip: int) -> _IpState:
        state = self._table.get(ip)
        if state is None:
            if len(self._table) >= self.MAX_IPS:
                victim = self._lru.popleft()
                self._table.pop(victim, None)
            state = _IpState()
            self._table[ip] = state
            self._lru.append(ip)
        return state

    def on_access(self, ip: int, address: int, hit: bool,
                  cycle: int) -> List[PrefetchRequest]:
        line = address >> LINE_SHIFT
        state = self._state(ip)
        state.history.append((line, cycle))
        degree = self._effective_degree
        best = state.best
        if not best or not degree:
            return []
        if len(best) > degree:
            best = best[:degree]
        requests: List[PrefetchRequest] = []
        for delta, coverage in best:
            target = (line + delta) << LINE_SHIFT
            if target <= 0:
                continue
            fill_level = 1 if coverage >= self.HIGH_WATERMARK else 2
            requests.append(PrefetchRequest(
                address=target, fill_level=fill_level, trigger_ip=ip,
                confidence=coverage))
        return requests

    def on_fill(self, address: int, cycle: int, prefetch: bool,
                ip: int = 0, issued_at: int = 0) -> List[PrefetchRequest]:
        if prefetch or not ip:
            return []
        state = self._table.get(ip)
        if state is None:
            return []
        line = address >> LINE_SHIFT
        latency = max(1, cycle - issued_at)
        # Votes: Berti's timeliness test -- a prefetch issued when the
        # history entry was seen would have arrived by this fill's time
        # (arrival <= fill).  Deltas passing only this looser test can
        # still be *late* relative to the demand; that is precisely the
        # lateness the CLIP paper measures (13-19% at 4-8 channels).
        state.opportunities += 1
        for past_line, past_cycle in state.history:
            if past_cycle + latency <= cycle:
                delta = line - past_line
                if delta and -512 < delta < 512:
                    state.delta_votes[delta] = \
                        state.delta_votes.get(delta, 0) + 1
        if state.opportunities % self.REFRESH_INTERVAL == 0:
            self._refresh(state)
        if state.opportunities >= self.AGING_LIMIT:
            state.opportunities //= 2
            for delta in list(state.delta_votes):
                state.delta_votes[delta] //= 2
                if not state.delta_votes[delta]:
                    del state.delta_votes[delta]
        return []

    def _refresh(self, state: _IpState) -> None:
        opportunities = max(1, state.opportunities)
        scored = []
        for delta, votes in state.delta_votes.items():
            coverage = min(1.0, votes / opportunities)
            if coverage >= self.LOW_WATERMARK:
                scored.append((delta, coverage))
        # Equal-coverage deltas tie-break toward the larger magnitude:
        # farther prefetches have more latency headroom (timeliness).
        scored.sort(key=lambda item: (-item[1], -abs(item[0])))
        state.best = scored[:8]
