"""DDR4 channel model with PADC-style prefetch-aware scheduling.

Each channel owns a set of banks (open-page row buffers with tRP/tRCD/CAS
timing) and a shared data bus whose burst occupancy caps bandwidth at one
64-byte line per ``burst_cycles`` -- the constraint the whole paper is
about.  The scheduler is FR-FCFS within a priority class:

* class 0: demand reads and criticality-flagged prefetches (CLIP);
* class 1: ordinary prefetch reads (only when ``prefetch_aware``, which is
  the baseline PADC behaviour from Table 3);
* writes drain in batches once the write queue passes its watermark
  (7/8ths full, reads prioritised over writes).

The model is event-driven with bounded lookahead: requests are issued while
the bus reservation horizon stays within a few bursts, letting bank
preparation overlap data transfers like a real pipelined controller.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.analysis.invariants import SimulationInvariantError
from repro.config import DramConfig
from repro.dram.address_mapping import AddressMapping


class DramRequest:
    """One read request (writes are tracked as bare line addresses)."""

    __slots__ = ("line", "bank", "row", "is_prefetch", "crit",
                 "enqueued_at", "callback", "high_priority")

    def __init__(self, line: int, bank: int, row: int, is_prefetch: bool,
                 crit: bool, enqueued_at: int,
                 callback: Callable[[int], None]) -> None:
        self.line = line
        self.bank = bank
        self.row = row
        self.is_prefetch = is_prefetch
        self.crit = crit
        self.enqueued_at = enqueued_at
        self.callback = callback
        #: Demand reads and criticality-flagged prefetches outrank plain
        #: prefetches under PADC scheduling (precomputed: hot path).
        self.high_priority = not is_prefetch or crit


class _Bank:
    __slots__ = ("open_row", "ready_at")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.ready_at = 0


class DramChannelStats:
    """Per-channel accounting."""

    def __init__(self, banks: int = 0) -> None:
        self.reads = 0
        self.writes = 0
        self.row_hits = 0
        self.busy_cycles = 0
        self.total_read_latency = 0
        self.prefetch_reads = 0
        #: ACT commands per bank -- a row miss opens a row exactly once,
        #: so the list's sum is the row-miss count.  The DRAM power
        #: model consumes the per-bank counts.
        self.bank_activates = [0] * banks

    def utilization(self, elapsed_cycles: int) -> float:
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / elapsed_cycles)


class DramChannel:
    """One DDR4 channel: banks, a data bus, and the request scheduler."""

    #: Requests concurrently in flight per channel (bank-level parallelism
    #: cap; array latencies overlap, the data bus serialises transfers).
    MAX_IN_FLIGHT = 16

    def __init__(self, channel_id: int, config: DramConfig, engine) -> None:
        # Timing sanity once at construction: negative array timings or a
        # zero-cycle burst would silently break the tRP/tRCD/tCAS spacing
        # and bus-serialisation invariants the sanitizer checks per event.
        if config.burst_cycles < 1:
            raise SimulationInvariantError(
                f"burst_cycles must be >= 1, got {config.burst_cycles}")
        if min(config.trp_cycles, config.trcd_cycles,
               config.cas_cycles) < 0:
            raise SimulationInvariantError(
                "tRP/tRCD/tCAS timings must be non-negative")
        self.channel_id = channel_id
        self.config = config
        self.engine = engine
        self.banks = [_Bank() for _ in range(config.banks_per_channel)]
        self.read_queue: List[DramRequest] = []
        self.write_queue: List[DramRequest] = []
        self.bus_busy_until = 0
        self.in_flight = 0
        self.stats = DramChannelStats(banks=config.banks_per_channel)
        self._draining_writes = False
        self._writes_left_in_batch = config.write_drain_batch
        #: Write-drain trigger depth, fixed at construction (recomputing
        #: it per pick showed up in profiles).
        self._write_watermark = int(config.write_queue_entries
                                    * config.write_watermark)

    # ------------------------------------------------------------------

    def enqueue_read(self, request: DramRequest) -> None:
        self.read_queue.append(request)
        self._pump(self.engine.now)

    def enqueue_write(self, line: int, bank: int, row: int, now: int) -> None:
        request = DramRequest(line, bank, row, is_prefetch=False, crit=False,
                              enqueued_at=now, callback=_ignore_completion)
        self.write_queue.append(request)
        self._pump(now)

    # ------------------------------------------------------------------

    def _pump(self, now: int) -> None:
        while ((self.read_queue or self.write_queue)
               and self.in_flight < self.MAX_IN_FLIGHT):
            request = self._pick(now)
            if request is None:
                return
            self._service(request, now)

    def _pick(self, now: int) -> Optional[DramRequest]:
        config = self.config
        if self._draining_writes:
            request = self._pop_write(now)
            if request is not None:
                return request
            self._draining_writes = False
        if len(self.write_queue) >= self._write_watermark:
            self._draining_writes = True
            self._writes_left_in_batch = config.write_drain_batch
            request = self._pop_write(now)
            if request is not None:
                return request
        if self.read_queue:
            request = self._pop_read(now)
            if request is not None:
                return request
        if self.write_queue:
            # No serviceable reads: drain writes opportunistically.
            return self._pop_best(self.write_queue, None, now)
        return None

    def _pop_write(self, now: int) -> Optional[DramRequest]:
        if not self.write_queue:
            return None
        request = self._pop_best(self.write_queue, None, now)
        if request is None:
            return None
        self._writes_left_in_batch -= 1
        if self._writes_left_in_batch <= 0 or not self.write_queue:
            self._draining_writes = False
        return request

    def _pop_read(self, now: int) -> Optional[DramRequest]:
        if self.config.prefetch_aware:
            request = self._pop_best(self.read_queue, True, now)
            if request is not None:
                return request
        return self._pop_best(self.read_queue, None, now)

    def _pop_best(self, queue: List[DramRequest],
                  require_priority: Optional[bool],
                  now: int) -> Optional[DramRequest]:
        """FR-FCFS among *ready banks*: oldest row-hit first, else oldest.

        Requests whose bank is still busy are skipped so one hot bank never
        head-of-line-blocks the channel (each bank effectively has its own
        queue, as in a real controller).
        """
        best_index = -1
        best_hit = False
        horizon = now + self.config.burst_cycles
        banks = self.banks
        # Real schedulers only see the register file's worth of requests;
        # bounding the scan also keeps the pick O(queue capacity).
        window = self.config.read_queue_entries
        for index, request in enumerate(queue):
            if index >= window:
                break
            if require_priority and not request.high_priority:
                continue
            bank = banks[request.bank]
            if bank.ready_at > horizon:
                continue
            row_hit = bank.open_row == request.row
            if best_index == -1 or (row_hit and not best_hit):
                best_index = index
                best_hit = row_hit
                if row_hit:
                    break
        if best_index == -1:
            return None
        return queue.pop(best_index)

    def _service(self, request: DramRequest, now: int) -> None:
        config = self.config
        bank = self.banks[request.bank]
        start = max(now, bank.ready_at)
        if bank.open_row == request.row:
            # Column accesses to an open row pipeline at burst rate
            # (tCCD-class spacing); CAS latency overlaps across requests.
            array_latency = config.cas_cycles
            bank_busy = config.burst_cycles
            self.stats.row_hits += 1
        elif bank.open_row is None:
            array_latency = config.trcd_cycles + config.cas_cycles
            bank_busy = config.trcd_cycles + config.burst_cycles
            self.stats.bank_activates[request.bank] += 1
        else:
            array_latency = (config.trp_cycles + config.trcd_cycles
                             + config.cas_cycles)
            bank_busy = (config.trp_cycles + config.trcd_cycles
                         + config.burst_cycles)
            self.stats.bank_activates[request.bank] += 1
        data_ready = start + array_latency
        bus_start = max(data_ready, self.bus_busy_until)
        done = bus_start + config.burst_cycles
        bank.open_row = request.row
        bank.ready_at = start + bank_busy
        self.bus_busy_until = done
        self.stats.busy_cycles += config.burst_cycles
        self.in_flight += 1
        if request.callback is _ignore_completion:
            self.stats.writes += 1
            self.engine.schedule(done, self._finish, None, done)
        else:
            self.stats.reads += 1
            self.stats.total_read_latency += done - request.enqueued_at
            if request.is_prefetch:
                self.stats.prefetch_reads += 1
            self.engine.schedule(done, self._finish, request.callback, done)

    def _finish(self, callback: Optional[Callable[[int], None]],
                done: int) -> None:
        self.in_flight -= 1
        if callback is not None:
            callback(done)
        self._pump(self.engine.now)


def _ignore_completion(done_cycle: int) -> None:
    """Sentinel callback marking write requests."""


class DramSystem:
    """All channels plus the address mapping."""

    def __init__(self, config: DramConfig, engine) -> None:
        self.config = config
        self.mapping = AddressMapping(config)
        self.channels = [DramChannel(i, config, engine)
                         for i in range(config.channels)]

    def read(self, line: int, now: int, callback: Callable[[int], None],
             is_prefetch: bool = False, crit: bool = False) -> None:
        where = self.mapping.locate(line)
        request = DramRequest(line, where.bank, where.row, is_prefetch, crit,
                              now, callback)
        self.channels[where.channel].enqueue_read(request)

    def write(self, line: int, now: int) -> None:
        where = self.mapping.locate(line)
        self.channels[where.channel].enqueue_write(
            line, where.bank, where.row, now)

    @property
    def total_reads(self) -> int:
        return sum(c.stats.reads for c in self.channels)

    @property
    def total_writes(self) -> int:
        return sum(c.stats.writes for c in self.channels)

    def average_read_latency(self) -> float:
        reads = self.total_reads
        if not reads:
            return 0.0
        total = sum(c.stats.total_read_latency for c in self.channels)
        return total / reads

    def utilization(self, elapsed_cycles: int) -> float:
        """Mean data-bus utilisation across channels (DSPatch's signal --
        though DSPatch famously reads it per controller, not globally)."""
        if not self.channels:
            return 0.0
        return sum(c.stats.utilization(elapsed_cycles)
                   for c in self.channels) / len(self.channels)
