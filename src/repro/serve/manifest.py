"""Resumable campaign manifests.

A manifest is the durable record of *what a campaign is* -- the full
spec list plus enough job state to restart without losing work::

    {
      "version": 1,
      "schema": <CACHE_SCHEMA_VERSION>,
      "jobs": [
        {"spec": {<wire form>}, "state": "pending" | "done" |
         "quarantined", "attempts": N, "error": null | "...",
         "producer": null | "cache" | "<worker id>"},
        ...
      ]
    }

Results are deliberately **not** in the manifest: completed points live
in the content-addressed :class:`ResultStore`, written at ``/complete``
time, so a killed coordinator has already persisted everything it
finished.  On resume the coordinator re-primes from the store -- every
previously completed point becomes a cache hit with zero recomputation
-- and only ``quarantined`` records are restored verbatim (so a poison
job is not retried forever across restarts).  ``leased`` jobs are
demoted to ``pending``: their workers are gone.

Writes are atomic (unique temp file + ``os.replace``) so a crash while
persisting never leaves a truncated manifest behind.  Manifests written
by older releases may also carry a ``"backend"`` field naming a removed
simulation backend; loading ignores it.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Union

from repro.experiments.sweep import CACHE_SCHEMA_VERSION, RunSpec
from repro.serve.queue import DONE, QUARANTINED, JobQueue
from repro.serve.wire import spec_from_dict, spec_to_dict

MANIFEST_VERSION = 1


def write_manifest(path: Union[str, Path], queue: JobQueue,
                   specs_by_key: Dict[str, RunSpec]) -> None:
    """Atomically persist the campaign state for a later resume."""
    path = Path(path)
    jobs: List[Dict] = []
    for job in queue.jobs():
        state = job.state
        if state not in (DONE, QUARANTINED):
            state = "pending"
        jobs.append({
            "spec": spec_to_dict(specs_by_key[job.key]),
            "state": state,
            "attempts": job.attempts,
            "error": job.error,
            "producer": job.producer,
        })
    payload = {
        "version": MANIFEST_VERSION,
        "schema": CACHE_SCHEMA_VERSION,
        "jobs": jobs,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent,
                               prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_manifest(path: Union[str, Path]) -> Dict:
    """Parse a manifest into resumable campaign state.

    Returns ``{"specs": [RunSpec, ...],
    "quarantined": {key: {"attempts": N, "error": ...}}}``.  A manifest
    written under a different :data:`CACHE_SCHEMA_VERSION` still
    resumes -- its specs re-key under the current schema and previously
    completed points simply miss the cache and re-run.
    """
    payload = json.loads(Path(path).read_text())
    if payload.get("version") != MANIFEST_VERSION:
        raise ValueError(
            f"unsupported manifest version {payload.get('version')!r} "
            f"in {path} (expected {MANIFEST_VERSION})")
    specs: List[RunSpec] = []
    quarantined: Dict[str, Dict] = {}
    for record in payload["jobs"]:
        spec = spec_from_dict(record["spec"])
        specs.append(spec)
        if record["state"] == QUARANTINED:
            quarantined[spec.cache_key()] = {
                "attempts": record.get("attempts", 0),
                "error": record.get("error"),
            }
    return {"specs": specs, "quarantined": quarantined}
