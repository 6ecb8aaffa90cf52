"""Typed per-component counter layer: the single source of results.

Every hierarchy component (L1 node, L2 node, prefetch filter chain, LLC
slice, NoC link, DRAM port) exposes its activity counters through a
``counters()`` method returning a flat ``{name: int}`` mapping -- one
:class:`CounterGroup` per component instance.  The groups are *pulled*,
not pushed: components keep plain integer attributes on their hot paths
and the registry reads them once, at result-collection time, so the
layer costs nothing on the hot path.  The snapshot lands on
``SimulationResult.counters`` and is the only record of a run's
activity: :func:`repro.sim.stats.derive_views` computes every typed
result view (levels, prefetch, DRAM, NoC, CLIP, criticality) from it,
and the energy model prices it -- the per-structure access counts the
paper feeds to CACTI-P and the Micron DRAM power calculator.  Ratios
are never counters: a component reports the integer sum and count, and
the view divides.

Group naming convention (stable; the views and the energy model key off
it -- ``docs/energy.md`` lists every counter and the field it feeds):

* ``core{N}.l1d`` / ``core{N}.l2``  -- private cache levels of core N,
  with each MSHR's late prefetch merges; the L1D group also carries the
  core's demand-load latency sums and counts by miss level;
* ``core{N}.chain``                 -- prefetch filter chain (candidate,
  issue, drop and use accounting, plus the ``clip_*``, ``crit_*`` and
  ``policy_*`` counters of whatever is attached);
* ``llc.slice{N}``                  -- one shared-LLC bank;
* ``noc``                           -- mesh totals including exact
  flit-hops (real XY route lengths) and summed packet latency;
* ``dram.ch{N}``                    -- one DRAM channel, including
  per-bank activate counts (``bank{J}_activates``), busy cycles and
  summed read latency.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

#: A component's counter snapshot: flat counter name -> value.
CounterDict = Dict[str, int]
#: Pull hook: zero-argument callable producing a component's snapshot.
CollectFn = Callable[[], CounterDict]


class CounterGroup:
    """One component's registered counter source.

    Wraps the component's ``counters()`` method (or any zero-argument
    callable) under a stable group name.  The group performs no
    bookkeeping of its own -- it is a named handle the registry
    snapshots on demand.
    """

    __slots__ = ("name", "collect")

    def __init__(self, name: str, collect: CollectFn) -> None:
        self.name = name
        self.collect = collect

    def snapshot(self) -> CounterDict:
        """The component's current counter values (a fresh dict)."""
        values = self.collect()
        for key, value in values.items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(
                    f"counter group {self.name!r} produced non-integer "
                    f"counter {key!r} = {value!r}")
        return dict(values)


class CounterRegistry:
    """Ordered collection of every component's :class:`CounterGroup`.

    The hierarchy builder registers one group per component at wiring
    time; :meth:`snapshot` reads them all at result-collection time.
    Registration order is preserved so the snapshot's group order is
    deterministic (construction order: cores, LLC slices, NoC, DRAM).
    """

    __slots__ = ("_groups",)

    def __init__(self) -> None:
        self._groups: List[CounterGroup] = []

    def register(self, name: str, collect: CollectFn) -> CounterGroup:
        """Register a component's counter source under ``name``.

        Names must be unique: two components may not claim the same
        group (that would silently shadow one of them in the snapshot).
        """
        if any(group.name == name for group in self._groups):
            raise ValueError(f"counter group {name!r} already registered")
        group = CounterGroup(name, collect)
        self._groups.append(group)
        return group

    def groups(self) -> Tuple[str, ...]:
        """Registered group names, in registration order."""
        return tuple(group.name for group in self._groups)

    def snapshot(self) -> Dict[str, CounterDict]:
        """Every group's current counters: ``{group: {counter: value}}``."""
        return {group.name: group.snapshot() for group in self._groups}


__all__ = ["CounterDict", "CounterGroup", "CounterRegistry"]
