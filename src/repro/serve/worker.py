"""The synchronous sweep worker.

A worker is a plain process that pulls jobs from a coordinator over
the HTTP/JSON protocol (see :mod:`repro.serve.coordinator`), simulates
them, and posts the ``SimulationResult.to_dict`` payload back:

1. ``POST /claim``  -- get a job (spec wire form + lease length) or an
   idle/done hint;
2. while simulating, a daemon heartbeat thread renews the lease every
   ``lease_s / 3`` seconds; a rejected heartbeat means the lease was
   reassigned, so the result is still posted but the coordinator will
   (correctly) refuse it;
3. ``POST /complete`` on success, ``POST /fail`` with the traceback on
   any exception -- the coordinator decides retry vs quarantine.

Workers are stateless and interchangeable: any number may point at one
coordinator, locally or from another host, and claiming is pull-based
work stealing.  When the coordinator reports the campaign ``done`` (or
disappears entirely) the loop exits.

Lease pacing and idle polling only wait (``time.sleep``,
``Event.wait``): the worker never reads the clock, and nothing here
touches simulated time.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
import traceback
import urllib.error
import urllib.request
from typing import Callable, Dict, Optional

from repro.serve.wire import spec_from_dict

#: Consecutive coordinator connection failures before the worker gives
#: up (the coordinator is gone, not just busy).
MAX_CONNECT_FAILURES = 5
#: Idle poll floor/ceiling, seconds.
MIN_POLL = 0.05
MAX_POLL = 2.0


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def _post(url: str, path: str, payload: Dict,
          timeout: float = 10.0) -> Dict:
    request = urllib.request.Request(
        url + path, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def fetch_status(url: str, timeout: float = 10.0) -> Dict:
    """``GET /status`` -- also used by tests and ``repro serve``."""
    with urllib.request.urlopen(url + "/status",
                                timeout=timeout) as response:
        return json.loads(response.read())


def default_executor(spec_payload: Dict) -> Dict:
    """Simulate one wire-form spec; returns the result dict."""
    from repro.experiments.sweep import execute_spec
    return execute_spec(spec_from_dict(spec_payload))


class _Heartbeat(threading.Thread):
    """Renews one job's lease until stopped; remembers a rejection."""

    def __init__(self, url: str, worker_id: str, key: str,
                 interval: float) -> None:
        super().__init__(daemon=True)
        self._url = url
        self._worker_id = worker_id
        self._key = key
        self._interval = interval
        self._stop = threading.Event()
        self.lost = False

    def run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                ok = _post(self._url, "/heartbeat",
                           {"worker": self._worker_id,
                            "key": self._key}).get("ok", False)
            except (urllib.error.URLError, OSError, ValueError):
                continue  # transient; the lease may still be renewed later
            if not ok:
                self.lost = True
                return

    def stop(self) -> None:
        self._stop.set()


def spawn_worker(url: str, worker_id: str) -> subprocess.Popen:
    """Start one ``repro worker`` subprocess pointed at ``url``."""
    return subprocess.Popen([sys.executable, "-m", "repro", "worker",
                             "--url", url, "--id", worker_id])


def worker_loop(url: str, *,
                worker_id: Optional[str] = None,
                executor: Optional[Callable[[Dict], Dict]] = None,
                max_jobs: Optional[int] = None,
                progress: Optional[Callable[[str], None]] = None) -> int:
    """Pull and run jobs from ``url`` until the campaign is done.

    ``executor`` maps a spec wire dict to a result dict;
    the default simulates via :func:`execute_spec`.  ``max_jobs`` caps
    how many jobs this worker runs (for tests).  Returns a process exit
    code: 0 when the campaign finished or the worker drained cleanly,
    1 when the coordinator became unreachable.
    """
    url = url.rstrip("/")
    worker_id = worker_id or default_worker_id()
    executor = executor or default_executor
    connect_failures = 0
    completed = 0
    while True:
        try:
            reply = _post(url, "/claim", {"worker": worker_id})
        except (urllib.error.URLError, OSError, ValueError):
            connect_failures += 1
            if connect_failures >= MAX_CONNECT_FAILURES:
                return 1
            time.sleep(MIN_POLL * (2 ** connect_failures))
            continue
        connect_failures = 0
        job = reply.get("job")
        if job is None:
            if reply.get("done"):
                return 0
            time.sleep(min(MAX_POLL,
                           max(MIN_POLL, reply.get("retry_in", 0.0))))
            continue
        key = job["key"]
        lease_s = float(job.get("lease_s", 30.0))
        heartbeat = _Heartbeat(url, worker_id, key,
                               interval=max(MIN_POLL, lease_s / 3.0))
        heartbeat.start()
        try:
            result = executor(job["spec"])
        except Exception:
            heartbeat.stop()
            try:
                reply = _post(url, "/fail",
                              {"worker": worker_id, "key": key,
                               "error":
                               traceback.format_exc(limit=20)})
            except (urllib.error.URLError, OSError, ValueError):
                return 1
            if reply.get("done"):
                return 0
        else:
            heartbeat.stop()
            try:
                reply = _post(url, "/complete",
                              {"worker": worker_id, "key": key,
                               "result": result}, timeout=30.0)
            except (urllib.error.URLError, OSError, ValueError):
                return 1
            completed += 1
            if progress is not None:
                accepted = reply.get("accepted")
                progress(f"{worker_id}: {key[:12]} "
                         f"{'completed' if accepted else 'superseded'}")
            if reply.get("done"):
                # Our own report finished the campaign; don't race the
                # coordinator's shutdown with another /claim.
                return 0
        if max_jobs is not None and completed >= max_jobs:
            return 0
