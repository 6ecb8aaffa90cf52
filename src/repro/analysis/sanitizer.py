"""Runtime invariant sanitizer for :class:`repro.sim.system.MulticoreSystem`.

Opt-in via ``REPRO_SANITIZE=1`` in the environment or
``SystemConfig.sanitize = True``.  When enabled, a :class:`Sanitizer`
wraps the *instances* of the hot components with checking shims:

* ``Engine.schedule`` / event drain -- integral, monotonic time;
* ``MshrFile`` allocate/merge/release -- occupancy never exceeds the
  Table-3 bound, no duplicate or phantom entries;
* ``Cache.fill`` / ``invalidate`` -- set occupancy <= associativity and
  tag-map/way agreement;
* ``DramChannel._service`` -- tRP/tRCD/tCAS spacing and data-bus
  serialisation (one burst on the bus at a time);
* ``MeshNoc.send`` -- per-link flit conservation and monotonic link
  reservations;
* ``Core.tick`` -- strict ROB FIFO retirement, nothing retires before
  it completes (checked once per tick).

Zero overhead when off: the enable flag is consulted **once at wiring
time** -- a disabled run installs no wrappers, adds no per-event
branches, and leaves every method the plain class attribute (tests
assert ``"schedule" not in vars(engine)``).

Order matters for the engine: every hierarchy port binds
``engine.schedule`` when it is built, so
:class:`~repro.sim.system.MulticoreSystem` calls :meth:`Sanitizer.
wrap_engine` *before* it builds the hierarchy, and
:func:`install_sanitizer` wraps everything else afterwards.  The other
shims are read per call (``mshr_file.allocate``, ``cache.fill``, ...),
so installing them after wiring is enough.

A violated invariant raises
:class:`repro.analysis.invariants.SimulationInvariantError` at the
first broken event, pointing at the component and the numbers involved.
"""

from __future__ import annotations

import os
from itertools import islice
from typing import Any, Dict, Tuple

from repro.analysis.invariants import SimulationInvariantError, check

__all__ = ["Sanitizer", "SimulationInvariantError", "install_sanitizer",
           "sanitize_enabled"]

_FALSEY = ("", "0", "false", "no", "off")


def sanitize_enabled(config: Any = None,
                     environ: Any = None) -> bool:
    """Should the sanitizer be installed?  Checked once at wiring time."""
    if config is not None and getattr(config, "sanitize", False):
        return True
    env = os.environ if environ is None else environ
    return env.get("REPRO_SANITIZE", "").strip().lower() not in _FALSEY


class Sanitizer:
    """Bookkeeping plus the wrapper installers.

    ``checks_run`` counts every individual invariant evaluated, broken
    down per category in ``checks_by_category`` -- the sanitizer tests
    use it to prove the hooks actually fired.
    """

    def __init__(self) -> None:
        self.checks_run = 0
        self.checks_by_category: Dict[str, int] = {}
        #: Flits injected per directed NoC link (conservation ledger).
        self.link_flits: Dict[Tuple[int, int], int] = {}
        self._total_link_flits = 0
        self._expected_link_flits = 0

    def _count(self, category: str, n: int = 1) -> None:
        self.checks_run += n
        self.checks_by_category[category] = (
            self.checks_by_category.get(category, 0) + n)

    # ------------------------------------------------------------------
    # Engine: integral, monotonic time
    # ------------------------------------------------------------------

    def wrap_engine(self, engine: Any) -> None:
        orig_schedule = engine.schedule
        orig_drain = engine._drain_events_at

        def schedule(cycle: int, callback: Any, *args: Any) -> None:
            self._count("engine", 2)
            check(isinstance(cycle, int),
                  "engine.schedule: non-integer cycle %r violates time "
                  "discipline (only next_wake may be float)", cycle)
            check(cycle >= engine.now,
                  "engine.schedule: cycle %d is in the past (now=%d)",
                  cycle, engine.now)
            orig_schedule(cycle, callback, *args)

        last_drain = {"now": engine.now}

        def drain(cycle: int) -> None:
            self._count("engine", 2)
            check(engine.now >= last_drain["now"],
                  "engine time moved backwards: now=%d after %d",
                  engine.now, last_drain["now"])
            check(cycle == engine.now,
                  "event drain at cycle %d != engine.now %d",
                  cycle, engine.now)
            last_drain["now"] = engine.now
            orig_drain(cycle)

        engine.schedule = schedule
        engine._drain_events_at = drain

    # ------------------------------------------------------------------
    # MSHR files: Table-3 occupancy bounds, entry consistency
    # ------------------------------------------------------------------

    def wrap_mshr(self, mshr_file: Any, label: str) -> None:
        orig_allocate = mshr_file.allocate
        orig_merge = mshr_file.merge
        orig_release = mshr_file.release

        def allocate(line: int, is_prefetch: bool, crit: bool,
                     trigger_ip: int, now: int) -> Any:
            self._count("mshr", 3)
            check(line not in mshr_file.entries,
                  "%s: allocate of line %#x already outstanding",
                  label, line)
            check(len(mshr_file.entries) < mshr_file.capacity,
                  "%s: allocate while full (occupancy %d, capacity %d); "
                  "caller must check .full first", label,
                  len(mshr_file.entries), mshr_file.capacity)
            mshr = orig_allocate(line, is_prefetch, crit, trigger_ip, now)
            check(len(mshr_file.entries) <= mshr_file.capacity,
                  "%s: occupancy %d exceeds Table-3 bound %d", label,
                  len(mshr_file.entries), mshr_file.capacity)
            return mshr

        def merge(mshr: Any, waiter: Any, is_prefetch: bool) -> None:
            self._count("mshr", 1)
            check(mshr_file.entries.get(mshr.line) is mshr,
                  "%s: merge into an entry not in the file (line %#x)",
                  label, getattr(mshr, "line", -1))
            orig_merge(mshr, waiter, is_prefetch)

        def release(line: int) -> Any:
            self._count("mshr", 1)
            check(line in mshr_file.entries,
                  "%s: release of line %#x with no outstanding entry",
                  label, line)
            return orig_release(line)

        mshr_file.allocate = allocate
        mshr_file.merge = merge
        mshr_file.release = release

    # ------------------------------------------------------------------
    # Caches: associativity bound + tag-map/way agreement
    # ------------------------------------------------------------------

    def wrap_cache(self, cache: Any, label: str) -> None:
        orig_fill = cache.fill
        orig_invalidate = cache.invalidate

        def _check_set(set_index: int) -> None:
            tag_map = cache._map[set_index]
            ways = cache._lines[set_index]
            self._count("cache", 2 + len(tag_map))
            check(len(tag_map) <= cache.ways,
                  "%s: set %d holds %d lines, associativity is %d",
                  label, set_index, len(tag_map), cache.ways)
            occupied = sum(1 for state in ways if state is not None)
            check(occupied == len(tag_map),
                  "%s: set %d way states (%d) disagree with tag map (%d)",
                  label, set_index, occupied, len(tag_map))
            for tag, way in tag_map.items():
                state = ways[way]
                check(state is not None and state.tag == tag,
                      "%s: set %d way %d does not hold mapped tag %#x",
                      label, set_index, way, tag)

        def fill(line: int, pc: int, now: int, **kwargs: Any) -> Any:
            evicted = orig_fill(line, pc, now, **kwargs)
            self._count("cache", 1)
            check(cache.probe(line),
                  "%s: line %#x absent immediately after fill",
                  label, line)
            _check_set(cache.set_index(line))
            return evicted

        def invalidate(line: int) -> Any:
            evicted = orig_invalidate(line)
            self._count("cache", 1)
            check(not cache.probe(line),
                  "%s: line %#x still resident after invalidate",
                  label, line)
            _check_set(cache.set_index(line))
            return evicted

        cache.fill = fill
        cache.invalidate = invalidate

    # ------------------------------------------------------------------
    # DRAM: tRP/tRCD/tCAS spacing and bus serialisation
    # ------------------------------------------------------------------

    def wrap_dram_channel(self, channel: Any) -> None:
        orig_service = channel._service
        config = channel.config

        def service(request: Any, now: int) -> None:
            bank = channel.banks[request.bank]
            pre_open = bank.open_row
            pre_ready = bank.ready_at
            pre_bus = channel.bus_busy_until
            orig_service(request, now)
            start = max(now, pre_ready)
            if pre_open == request.row:
                array = config.cas_cycles
                busy = config.burst_cycles
            elif pre_open is None:
                array = config.trcd_cycles + config.cas_cycles
                busy = config.trcd_cycles + config.burst_cycles
            else:
                array = (config.trp_cycles + config.trcd_cycles
                         + config.cas_cycles)
                busy = (config.trp_cycles + config.trcd_cycles
                        + config.burst_cycles)
            self._count("dram", 3)
            check(bank.open_row == request.row,
                  "DRAM ch%d bank %d: open row %r after servicing row %d",
                  channel.channel_id, request.bank, bank.open_row,
                  request.row)
            check(bank.ready_at == start + busy,
                  "DRAM ch%d bank %d: tRP/tRCD spacing violated -- bank "
                  "ready at %d, expected %d (start %d + busy %d)",
                  channel.channel_id, request.bank, bank.ready_at,
                  start + busy, start, busy)
            expected_bus = (max(start + array, pre_bus)
                            + config.burst_cycles)
            check(channel.bus_busy_until == expected_bus,
                  "DRAM ch%d: data-bus serialisation violated -- bus "
                  "busy until %d, expected %d (tCAS-gated data at %d, "
                  "previous burst until %d)",
                  channel.channel_id, channel.bus_busy_until,
                  expected_bus, start + array, pre_bus)

        channel._service = service

    # ------------------------------------------------------------------
    # NoC: flit conservation + monotonic link reservations
    # ------------------------------------------------------------------

    def wrap_noc(self, noc: Any) -> None:
        orig_send = noc.send

        def send(src: int, dst: int, now: int, flits: int,
                 high_priority: bool) -> int:
            route = noc.route(src, dst) if src != dst else []
            pre_links = {
                link: list(noc._links.get(link, (0, 0)))
                for link in route
            }
            pre_flits = noc.stats.flits
            arrival = orig_send(src, dst, now, flits, high_priority)
            self._count("noc", 2 + 2 * len(route))
            # Local slice accesses (src == dst) never enter the mesh and
            # are deliberately excluded from link/flit accounting.
            expected_flits = pre_flits + (flits if route else 0)
            check(noc.stats.flits == expected_flits,
                  "NoC flit conservation violated: %d flits injected "
                  "over %d link(s) but accounting moved %d -> %d", flits,
                  len(route), pre_flits, noc.stats.flits)
            check(arrival >= now,
                  "NoC packet arrives at %d before injection at %d",
                  arrival, now)
            for link, (pre_high, pre_any) in pre_links.items():
                reserved = noc._links[link]
                check(reserved[1] >= pre_any and reserved[0] >= pre_high,
                      "NoC link %r reservation moved backwards", link)
                check(reserved[0] <= reserved[1],
                      "NoC link %r: priority reservation %d beyond total "
                      "window %d", link, reserved[0], reserved[1])
                self.link_flits[link] = (
                    self.link_flits.get(link, 0) + flits)
                self._total_link_flits += flits
            self._expected_link_flits += flits * len(route)
            return arrival

        noc.send = send

    # ------------------------------------------------------------------
    # Cores: strict ROB FIFO retirement, checked per tick
    # ------------------------------------------------------------------

    def wrap_core(self, core: Any) -> None:
        """Check each tick's retirements, in O(retire width).

        The ROB's first ``retire_width + 1`` entries are noted before the
        tick; the ``retired`` counter then says how many left the head.
        Each must have completed by the tick's cycle, their ``seq``
        values must continue the retired sequence, and the new head must
        be the entry after them.
        """
        orig_tick = core.tick
        window = core.config.retire_width + 1
        state = {"last_seq": -1}

        def tick(cycle: int) -> None:
            before = list(islice(core.rob, window))
            retired_before = core.retired
            orig_tick(cycle)
            left = core.retired - retired_before
            last_seq = state["last_seq"]
            rob = core.rob
            check(left <= len(before)
                  and (not rob or rob[0].seq == last_seq + left + 1),
                  "core %d: ROB retirement out of FIFO order -- %d "
                  "instruction(s) left the head after seq %d, and the "
                  "head is now seq %r", core.core_id, left, last_seq,
                  rob[0].seq if rob else None)
            if not left:
                return
            self._count("rob", 2 * left)
            for entry in before[:left]:
                check(entry.seq == last_seq + 1,
                      "core %d: ROB retirement out of FIFO order -- seq %d "
                      "retired after seq %d", core.core_id, entry.seq,
                      last_seq)
                check(entry.done_at is not None and entry.done_at <= cycle,
                      "core %d: instruction seq %d retired at cycle %d "
                      "before completing (done_at=%r)", core.core_id,
                      entry.seq, cycle, entry.done_at)
                last_seq = entry.seq
            state["last_seq"] = last_seq

        core.tick = tick

    # ------------------------------------------------------------------
    # End-of-run quiescence
    # ------------------------------------------------------------------

    def final_check(self, system: Any) -> None:
        """After the drain the hardware must be quiescent and consistent."""
        self._count("final", 2)
        check(system.engine.pending_events == 0,
              "engine finished with %d undrained event(s)",
              system.engine.pending_events)
        check(self._total_link_flits == self._expected_link_flits,
              "NoC link-flit ledger inconsistent: %d recorded vs %d "
              "expected", self._total_link_flits,
              self._expected_link_flits)
        for node in system.nodes:
            for label, mshr_file in (("L1", node.l1_mshr),
                                     ("L2", node.l2_mshr)):
                self._count("final", 2)
                check(not mshr_file.entries,
                      "core %d %s MSHR not quiescent: %d entries "
                      "outstanding after drain", node.core_id, label,
                      len(mshr_file.entries))
                check(not mshr_file.pending,
                      "core %d %s MSHR left %d queued misses unreplayed",
                      node.core_id, label, len(mshr_file.pending))
        for slice_id, mshr_file in enumerate(system.llc_mshr):
            self._count("final", 2)
            check(not mshr_file.entries,
                  "LLC slice %d MSHR not quiescent: %d entries",
                  slice_id, len(mshr_file.entries))
            check(not mshr_file.pending,
                  "LLC slice %d MSHR left %d queued misses", slice_id,
                  len(mshr_file.pending))
        # Deferred import: repro.sim.stats resolves through repro.sim's
        # package __init__, which imports this module.
        from repro.sim.stats import derive_views
        prefetch = derive_views(system.counters.snapshot(),
                                system.engine.now,
                                system.config.criticality.name,
                                system.workload_names)["prefetch"]
        errors = prefetch.consistency_errors()
        self._count("final", 1)
        check(not errors, "prefetch statistics inconsistent: %s",
              "; ".join(errors))

    # ------------------------------------------------------------------

    def summary(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in
                          sorted(self.checks_by_category.items()))
        return f"sanitizer: {self.checks_run} checks ({parts})"


def install_sanitizer(system: Any, sanitizer: Sanitizer) -> None:
    """Wrap every checked component of ``system`` but its engine, which
    ``sanitizer`` wrapped before the hierarchy was built.

    Call once, right after construction.  The system's ``run`` invokes
    :meth:`Sanitizer.final_check` after the event drain.
    """
    sanitizer.wrap_noc(system.noc)
    for channel in system.dram.channels:
        sanitizer.wrap_dram_channel(channel)
    for slice_id, (cache, mshr_file) in enumerate(
            zip(system.llc, system.llc_mshr)):
        sanitizer.wrap_cache(cache, f"LLC[{slice_id}]")
        sanitizer.wrap_mshr(mshr_file, f"LLC[{slice_id}] MSHR")
    for node in system.nodes:
        sanitizer.wrap_cache(node.l1d, f"core{node.core_id}.L1D")
        sanitizer.wrap_cache(node.l2_cache, f"core{node.core_id}.L2")
        sanitizer.wrap_mshr(node.l1_mshr, f"core{node.core_id}.L1 MSHR")
        sanitizer.wrap_mshr(node.l2_mshr, f"core{node.core_id}.L2 MSHR")
    for core in system.cores:
        sanitizer.wrap_core(core)
