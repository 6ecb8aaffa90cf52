"""SPP-PPF: signature path prefetching with perceptron prefetch filtering.

SPP (MICRO 2016) tracks, per 4 KiB page, a compressed signature of the
recent delta path and predicts the next delta from a signature-indexed
pattern table, *looking ahead* along the predicted path while accumulated
path confidence stays high.  PPF (ISCA 2019) lets SPP overrun its
confidence throttle and filters each candidate with a perceptron over
cheap features, trained by the observed usefulness of past prefetches.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.config import LINE_SHIFT
from repro.prefetch.base import Prefetcher, PrefetchRequest

_PAGE_SHIFT = 12
_LINES_PER_PAGE = 1 << (_PAGE_SHIFT - LINE_SHIFT)
_SIG_MASK = 0xFFF


def _advance_signature(signature: int, delta: int) -> int:
    return ((signature << 3) ^ (delta & 0x7F)) & _SIG_MASK


class _PatternEntry:
    """Delta candidates with confidence counters for one signature."""

    __slots__ = ("deltas",)

    def __init__(self) -> None:
        self.deltas: Dict[int, int] = {}

    def train(self, delta: int) -> None:
        self.deltas[delta] = self.deltas.get(delta, 0) + 1
        if len(self.deltas) > 4:
            weakest = min(self.deltas, key=self.deltas.get)
            del self.deltas[weakest]

    def best(self) -> Optional[Tuple[int, float]]:
        if not self.deltas:
            return None
        total = sum(self.deltas.values())
        delta, count = max(self.deltas.items(), key=lambda item: item[1])
        return delta, count / total


class _Perceptron:
    """PPF's feature-weight tables."""

    TABLE = 256
    WEIGHT_MAX = 31
    ISSUE_THRESHOLD = -2

    def __init__(self) -> None:
        self._tables: List[List[int]] = [
            [0] * self.TABLE for _ in range(4)
        ]

    def _indices(self, signature: int, ip: int, offset: int,
                 delta: int) -> List[int]:
        return [
            signature % self.TABLE,
            (ip >> 2) % self.TABLE,
            (offset ^ (ip & 0xFF)) % self.TABLE,
            (delta & 0xFF) % self.TABLE,
        ]

    def score(self, signature: int, ip: int, offset: int, delta: int) -> int:
        return sum(self._tables[t][i]
                   for t, i in enumerate(self._indices(signature, ip,
                                                       offset, delta)))

    def train(self, signature: int, ip: int, offset: int, delta: int,
              useful: bool) -> None:
        step = 1 if useful else -1
        for table, index in enumerate(self._indices(signature, ip,
                                                    offset, delta)):
            weight = self._tables[table][index] + step
            self._tables[table][index] = max(-self.WEIGHT_MAX,
                                             min(self.WEIGHT_MAX, weight))


class SppPpfPrefetcher(Prefetcher):
    """State-of-the-art L2 prefetcher (SPP with perceptron filtering)."""

    name = "spp_ppf"
    MAX_PAGES = 256
    LOOKAHEAD_FLOOR = 0.25

    def __init__(self, degree: int = 4) -> None:
        self.degree = degree
        self._scale = 1.0
        #: page -> (last line offset, signature)
        self._pages: "OrderedDict[int, List[int]]" = OrderedDict()
        self._patterns: Dict[int, _PatternEntry] = {}
        self._perceptron = _Perceptron()
        #: line -> perceptron features, for usefulness training.
        self._issued: "OrderedDict[int, Tuple[int, int, int, int]]" = \
            OrderedDict()

    def set_degree_scale(self, scale: float) -> None:
        self._scale = max(0.0, scale)

    def on_access(self, ip: int, address: int, hit: bool,
                  cycle: int) -> List[PrefetchRequest]:
        page = address >> _PAGE_SHIFT
        offset = (address >> LINE_SHIFT) & (_LINES_PER_PAGE - 1)
        state = self._pages.get(page)
        if state is None:
            if len(self._pages) >= self.MAX_PAGES:
                self._pages.popitem(last=False)
            self._pages[page] = [offset, 0]
            return []
        self._pages.move_to_end(page)
        last_offset, signature = state
        delta = offset - last_offset
        if delta:
            pattern = self._patterns.get(signature)
            if pattern is None:
                pattern = _PatternEntry()
                self._patterns[signature] = pattern
                if len(self._patterns) > 4096:
                    self._patterns.clear()
            pattern.train(delta)
            state[0] = offset
            state[1] = _advance_signature(signature, delta)
        return self._lookahead(ip, page, offset, state[1])

    def _lookahead(self, ip: int, page: int, offset: int,
                   signature: int) -> List[PrefetchRequest]:
        budget = max(0, int(round(self.degree * self._scale)))
        requests: List[PrefetchRequest] = []
        path_confidence = 1.0
        current_offset = offset
        current_signature = signature
        while len(requests) < budget:
            pattern = self._patterns.get(current_signature)
            prediction = pattern.best() if pattern else None
            if prediction is None:
                break
            delta, confidence = prediction
            path_confidence *= confidence
            if path_confidence < self.LOOKAHEAD_FLOOR:
                break
            current_offset += delta
            if not 0 <= current_offset < _LINES_PER_PAGE:
                break  # SPP stops at page boundaries.
            target = (page << _PAGE_SHIFT) | (current_offset << LINE_SHIFT)
            score = self._perceptron.score(current_signature, ip,
                                           current_offset, delta)
            if score >= _Perceptron.ISSUE_THRESHOLD:
                requests.append(PrefetchRequest(
                    address=target, fill_level=2, trigger_ip=ip,
                    confidence=path_confidence))
                self._remember(target >> LINE_SHIFT,
                               (current_signature, ip, current_offset, delta))
            current_signature = _advance_signature(current_signature, delta)
        return requests

    def _remember(self, line: int,
                  features: Tuple[int, int, int, int]) -> None:
        self._issued[line] = features
        if len(self._issued) > 512:
            self._issued.popitem(last=False)

    def on_prefetch_feedback(self, address: int, useful: bool) -> None:
        features = self._issued.pop(address >> LINE_SHIFT, None)
        if features is None:
            return
        signature, ip, offset, delta = features
        self._perceptron.train(signature, ip, offset, delta, useful)
