"""Typed per-component counter layer.

Every hierarchy component (L1 node, L2 node, prefetch filter chain, LLC
slice, NoC link, DRAM port) exposes its activity counters through a
``counters()`` method returning a flat ``{name: int}`` mapping -- one
:class:`CounterGroup` per component instance.  The groups are *pulled*,
not pushed: components keep plain integer attributes on their hot paths
(exactly as before this layer existed) and the registry reads them once,
at result-collection time.  That keeps the refactor free on the hot path
and bit-identical on timing, while making per-structure access counts --
the inputs the paper feeds to CACTI-P and the Micron DRAM power
calculator -- first-class outputs on ``SimulationResult.counters``.

Group naming convention (stable; the energy model keys off the suffix):

* ``core{N}.l1d`` / ``core{N}.l2``  -- private cache levels of core N;
* ``core{N}.chain``                 -- prefetch filter chain (drop
  accounting plus CLIP filter/predictor/utility-CAM accesses);
* ``llc.slice{N}``                  -- one shared-LLC bank;
* ``noc``                           -- mesh totals including exact
  flit-hops (real XY route lengths);
* ``dram.ch{N}``                    -- one DRAM channel, including
  per-bank activate counts (``bank{J}_activates``).
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
