"""Sweep service: coordinator, workers, and campaigns.

``repro serve`` runs one campaign -- a grid of sweep points -- behind a
stdlib-only HTTP/JSON protocol, and any number of ``repro worker``
processes, local or on other hosts, pull its points and post results
back (see ``docs/serving.md``).  It is the one fan-out across processes
that share only a URL; :func:`repro.experiments.sweep.run_sweep` with
``jobs > 1`` is the one fan-out inside a host.

* :mod:`repro.serve.queue`       -- the pure job-queue state machine
  (lease timeouts, heartbeat renewal, exponential-backoff retries,
  poison-job quarantine).  No clock, no I/O: every transition takes an
  explicit ``now``, which is what makes the fuzz suite deterministic.
* :mod:`repro.serve.wire`        -- JSON wire form of :class:`RunSpec`
  so jobs cross the HTTP boundary without losing their cache key.
* :mod:`repro.serve.manifest`    -- the resumable campaign manifest a
  coordinator persists on shutdown.
* :mod:`repro.serve.coordinator` -- the asyncio coordinator serving the
  worker protocol (``/claim``, ``/complete``, ``/fail``,
  ``/heartbeat``, ``/status``) and writing each accepted result to the
  campaign's :class:`ResultStore`.
* :mod:`repro.serve.worker`      -- the synchronous worker loop that
  pulls jobs, renews its leases from a heartbeat thread, and posts
  results (or failures) back; ``spawn_worker`` starts one as a
  subprocess for ``repro serve --workers N``.

Everything here is standard library only; simulation results cross the
wire via the stable ``SimulationResult.to_dict``/``from_dict`` round
trip, so a served point is bit-identical to a serial one.  Python reads
a campaign's results back with ``api.sweep(..., cache=<its cache
dir>)``, which serves every finished point from the store.
"""

from repro.serve.coordinator import Coordinator, ServeSettings
from repro.serve.manifest import load_manifest, write_manifest
from repro.serve.queue import (DONE, LEASED, PENDING, QUARANTINED, Job,
                               JobQueue, QueuePolicy)
from repro.serve.wire import spec_from_dict, spec_to_dict
from repro.serve.worker import worker_loop

__all__ = [
    "Coordinator", "ServeSettings", "load_manifest", "write_manifest",
    "Job", "JobQueue", "QueuePolicy", "PENDING", "LEASED", "DONE",
    "QUARANTINED", "spec_from_dict", "spec_to_dict", "worker_loop",
]
