"""The port: a component's only connection to time and back-pressure.

A :class:`Port` bundles the two things every hierarchy component needs
and nothing else may touch directly:

* **latency scheduling** against the shared :class:`~repro.sim.engine.
  Engine` -- components call ``port.schedule``; lint rule SIM008 flags
  any hierarchy component calling ``engine.schedule`` itself, so the
  engine-facing surface stays in one reviewable place;
* **MSHR back-pressure** -- when the component's
  :class:`~repro.cache.mshr.MshrFile` is full, requests are deferred
  into its FIFO pending queue (:meth:`defer`) and replayed in order as
  registers free up (:meth:`replay`).  This queueing is the mechanism
  that inflates miss latency under bandwidth constraint (paper Fig. 3).

``port.schedule`` *is* the engine's ``schedule``, bound once at
construction, so a latency costs one call.  The runtime sanitizer
(:mod:`repro.analysis.sanitizer`) installs its checking shim as an
instance attribute of the engine, so :class:`~repro.sim.system.
MulticoreSystem` wraps the engine *before* it builds the hierarchy and
every port binds the shim.  The MSHR file belongs to the component
that owns the port, which calls it directly; the sanitizer's MSHR shims
are instance attributes of the file, so those calls find them.
Components read the cycle as ``port.engine.now``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cache.mshr import MshrFile
from repro.sim.engine import Engine


class Port:
    """One component's engine access plus (optional) MSHR back-pressure."""

    __slots__ = ("engine", "mshr", "schedule")

    def __init__(self, engine: Engine,
                 mshr: Optional[MshrFile] = None) -> None:
        self.engine = engine
        self.mshr = mshr
        #: ``schedule(cycle, callback, *args)`` runs ``callback(*args)``
        #: at ``cycle`` (the sanctioned latency path).  Passing ``args``
        #: through the engine's bucketed queue keeps hot call sites
        #: closure-free.
        self.schedule: Callable[..., None] = engine.schedule

    # -- MSHR back-pressure (the cold path: only a full file defers) ---

    def _require_mshr(self) -> MshrFile:
        mshr = self.mshr
        if mshr is None:
            raise TypeError("port has no MSHR file attached")
        return mshr

    def defer(self, thunk: Callable[[], None]) -> None:
        """Queue ``thunk`` until an MSHR register frees up (FIFO)."""
        self._require_mshr().pending.append(thunk)

    def replay(self) -> None:
        """Replay deferred requests in FIFO order while registers last.

        Callers invoke it only when the pending queue is non-empty.  A
        replayed request may re-fill the MSHR immediately; the loop
        re-checks ``full`` before each pop so later entries keep their
        place in line instead of being dropped or reordered.
        """
        mshr = self._require_mshr()
        while mshr.pending and not mshr.full:
            thunk = mshr.pending.popleft()
            thunk()
