"""IPCP: Instruction Pointer Classifier-based Prefetching (ISCA 2020).

IPCP classifies load IPs into three classes and runs a bouquet of
class-specific prefetchers:

* **CS** (constant stride): stride-confident IPs prefetch ``degree`` lines
  ahead and fill L1;
* **CPLX** (complex): IPs with recurring delta *signatures* use a
  signature-indexed delta predictor and fill L2;
* **GS** (global stream): IPs participating in dense region streams
  prefetch deep next-line runs.

Class priority is CS > GS > CPLX, matching the original's arbitration.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, List

from repro.config import LINE_SHIFT
from repro.prefetch.base import Prefetcher, PrefetchRequest

_REGION_SHIFT = 11  # 2 KiB GS tracking regions


class _IpEntry:
    __slots__ = ("last_line", "stride", "stride_confidence", "signature")

    def __init__(self, line: int) -> None:
        self.last_line = line
        self.stride = 0
        self.stride_confidence = 0
        self.signature = 0


class IpcpPrefetcher(Prefetcher):
    """Lightweight multi-class L1 prefetcher."""

    name = "ipcp"
    level = "L1"
    MAX_IPS = 128
    MAX_REGIONS = 32
    CS_THRESHOLD = 2
    GS_DENSITY = 4

    def __init__(self, degree: int = 4) -> None:
        self.degree = degree
        self._scale = 1.0
        self._ips: Dict[int, _IpEntry] = {}
        self._ip_lru: Deque[int] = deque()
        #: CPLX delta predictor: signature -> (delta, confidence).
        self._cplx: Dict[int, List[int]] = {}
        #: GS: region -> count of distinct-line touches.
        self._regions: "OrderedDict[int, set]" = OrderedDict()

    def set_degree_scale(self, scale: float) -> None:
        self._scale = max(0.0, scale)

    def _entry(self, ip: int, line: int) -> _IpEntry:
        entry = self._ips.get(ip)
        if entry is None:
            if len(self._ips) >= self.MAX_IPS:
                victim = self._ip_lru.popleft()
                self._ips.pop(victim, None)
            entry = _IpEntry(line)
            self._ips[ip] = entry
            self._ip_lru.append(ip)
        return entry

    def on_access(self, ip: int, address: int, hit: bool,
                  cycle: int) -> List[PrefetchRequest]:
        line = address >> LINE_SHIFT
        entry = self._ips.get(ip)
        degree = max(0, int(round(self.degree * self._scale)))
        if entry is None:
            self._entry(ip, line)
            self._note_region(address)
            return []
        delta = line - entry.last_line
        entry.last_line = line
        if delta == 0:
            return []
        # --- class training -------------------------------------------
        if delta == entry.stride:
            entry.stride_confidence = min(3, entry.stride_confidence + 1)
        else:
            entry.stride_confidence = max(0, entry.stride_confidence - 1)
            if entry.stride_confidence == 0:
                entry.stride = delta
        signature = entry.signature
        cplx_entry = self._cplx.get(signature)
        if cplx_entry is None:
            self._cplx[signature] = [delta, 1]
            if len(self._cplx) > 4096:
                self._cplx.clear()
        elif cplx_entry[0] == delta:
            cplx_entry[1] = min(3, cplx_entry[1] + 1)
        else:
            cplx_entry[1] -= 1
            if cplx_entry[1] <= 0:
                self._cplx[signature] = [delta, 1]
        entry.signature = ((signature << 3) ^ (delta & 0x3F)) & 0xFFF
        gs_dense = self._note_region(address)
        if not degree:
            return []
        # --- class arbitration: CS > GS > CPLX ------------------------
        if entry.stride_confidence >= self.CS_THRESHOLD and entry.stride:
            return self._emit_stride(ip, line, entry.stride, degree,
                                     fill_level=1,
                                     confidence=entry.stride_confidence / 3.0)
        if gs_dense:
            direction = 1 if delta > 0 else -1
            return self._emit_stride(ip, line, direction, degree + 2,
                                     fill_level=1, confidence=0.75)
        prediction = self._cplx.get(entry.signature)
        if prediction is not None and prediction[1] >= 2:
            target = (line + prediction[0]) << LINE_SHIFT
            if target > 0:
                return [PrefetchRequest(address=target, fill_level=2,
                                        trigger_ip=ip,
                                        confidence=prediction[1] / 3.0)]
        return []

    def _note_region(self, address: int) -> bool:
        region = address >> _REGION_SHIFT
        touched = self._regions.get(region)
        if touched is None:
            if len(self._regions) >= self.MAX_REGIONS:
                self._regions.popitem(last=False)
            touched = set()
            self._regions[region] = touched
        else:
            self._regions.move_to_end(region)
        touched.add((address >> LINE_SHIFT) & 0x1F)
        return len(touched) >= self.GS_DENSITY

    @staticmethod
    def _emit_stride(ip: int, line: int, stride: int, degree: int,
                     fill_level: int, confidence: float,
                     ) -> List[PrefetchRequest]:
        requests = []
        for distance in range(1, degree + 1):
            target = (line + stride * distance) << LINE_SHIFT
            if target <= 0:
                break
            requests.append(PrefetchRequest(
                address=target, fill_level=fill_level, trigger_ip=ip,
                confidence=confidence))
        return requests
