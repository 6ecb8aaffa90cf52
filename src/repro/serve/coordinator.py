"""The asyncio sweep coordinator and its HTTP/JSON worker protocol.

The coordinator owns a campaign: a :class:`JobQueue` of content-keyed
sweep points, the :class:`ResultStore` its results land in (also primed
for TTL-free dedup), and a tiny stdlib-only HTTP server workers pull
jobs from.  It keeps counts, not results: Python reads a campaign back
through ``api.sweep(..., cache=<its cache dir>)``.  All queue
mutations happen on the event loop, so the state machine needs no
locks.  Protocol (all bodies JSON, ``Connection: close``):

``POST /claim``      ``{"worker": id}`` ->
    ``{"job": {"key", "spec", "attempt", "lease_s"}}`` or
    ``{"job": null, "done": bool, "retry_in": seconds}``
``POST /complete``   ``{"worker", "key", "result": <to_dict>}`` ->
    ``{"accepted": bool, "done": bool}`` -- ``accepted`` is false when
    the worker's lease was lost (the job was reassigned); the first
    accepted completion wins and later ones are ignored.
``POST /fail``       ``{"worker", "key", "error": text}`` ->
    ``{"state": "pending" | "quarantined" | ..., "done": bool}``
``POST /heartbeat``  ``{"worker", "key"}`` -> ``{"ok": bool}`` --
    ``false`` tells the worker its lease is gone: abandon the job.
``GET /status``      -> the full campaign status document (counts,
    cache accounting, per-worker activity, quarantined jobs + errors).

Fault tolerance: claims carry a lease that workers renew by heartbeat;
an expired lease re-queues the job with exponential backoff, and after
``max_attempts`` total failures the job is quarantined with its last
error kept for ``/status``.  Completed results are written to the
:class:`ResultStore` *immediately*, so a coordinator killed mid-campaign
has durably persisted everything it finished; the manifest written on
shutdown (see :mod:`repro.serve.manifest`) records the campaign itself,
and a resumed coordinator serves every previously completed point as a
cache hit.

This module legitimately reads the wall clock -- lease deadlines are
host time, not simulated time -- through one clock binding, which
carries an inline SIM007 ignore.  Simulated time never appears here.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.experiments.sweep import ResultStore, RunSpec
from repro.serve import manifest as manifest_mod
from repro.serve.queue import (CACHE_PRODUCER, JobQueue, QueuePolicy,
                               QUARANTINED)
from repro.serve.wire import spec_to_dict
from repro.sim.stats import SimulationResult

#: Seconds an idle worker is told to wait before re-polling ``/claim``.
DEFAULT_RETRY_IN = 0.25


@dataclass
class ServeSettings:
    """Coordinator-side campaign knobs."""

    host: str = "127.0.0.1"
    port: int = 0
    policy: QueuePolicy = None  # type: ignore[assignment]
    #: Seconds between lease-expiry sweeps / progress refreshes.
    tick: float = 0.25
    #: Seconds a graceful shutdown waits for in-flight jobs to land.
    drain_timeout: float = 5.0

    def __post_init__(self) -> None:
        if self.policy is None:
            self.policy = QueuePolicy()


class Coordinator:
    """One campaign: queue + store + protocol server + manifest."""

    def __init__(self, specs: Iterable[RunSpec], *,
                 store: ResultStore,
                 settings: Optional[ServeSettings] = None,
                 manifest_path: Union[str, None] = None,
                 quarantined: Optional[Dict[str, Dict]] = None,
                 progress: Optional[Callable[[str], None]] = None) -> None:
        self.settings = settings or ServeSettings()
        self.store = store
        self.manifest_path = manifest_path
        self.queue = JobQueue(self.settings.policy)
        self.specs_by_key: Dict[str, RunSpec] = {}
        self.cache_hits = 0
        self.simulated = 0
        self._progress = progress
        self._workers: Dict[str, Dict] = {}
        # Lease deadlines are host time, not simulated time.
        self._clock = time.monotonic  # sim-lint: ignore[SIM007]
        self._last_line = ""
        self._stopping = False
        self._finished_event: Optional[asyncio.Event] = None
        self._connections: List[asyncio.StreamWriter] = []
        self._server: Optional[asyncio.base_events.Server] = None
        self._watcher: Optional[asyncio.Task] = None
        self.url: Optional[str] = None
        self._prime(list(specs), quarantined or {})

    # -- campaign setup ------------------------------------------------

    def _prime(self, specs: List[RunSpec],
               quarantined: Dict[str, Dict]) -> None:
        """Enqueue every point, serving warm ones from the store and
        restoring quarantine records from a resumed manifest."""
        for spec in specs:
            key = spec.cache_key()
            if key in self.specs_by_key:
                continue
            self.specs_by_key[key] = spec
            self.queue.add(key, spec_to_dict(spec))
            if self.store.load(key) is not None:
                self.queue.mark_done(key, CACHE_PRODUCER)
                self.cache_hits += 1
            elif key in quarantined:
                record = quarantined[key]
                self.queue.mark_quarantined(key, record["attempts"],
                                            record.get("error"))

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind the protocol server; returns the bound (host, port)."""
        self._finished_event = asyncio.Event()
        if self.queue.finished:
            self._finished_event.set()
        self._server = await asyncio.start_server(
            self._handle_connection, self.settings.host,
            self.settings.port)
        host, port = self._server.sockets[0].getsockname()[:2]
        self.url = f"http://{host}:{port}"
        self._watcher = asyncio.ensure_future(self._watch())
        self._emit_progress(force=True)
        return host, port

    async def wait_finished(self,
                            timeout: Optional[float] = None) -> bool:
        """Block until the campaign is terminal (or ``timeout``)."""
        if self._finished_event is None:
            raise RuntimeError("coordinator not started; call start() "
                               "before wait_finished()")
        if timeout is None:
            await self._finished_event.wait()
            return True
        try:
            await asyncio.wait_for(self._finished_event.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    async def stop(self) -> None:
        """Graceful shutdown: wait briefly for in-flight jobs, persist
        the manifest, and close the server."""
        self._stopping = True
        deadline = self._clock() + self.settings.drain_timeout
        while (self.queue.counts().leased
               and self._clock() < deadline):
            await asyncio.sleep(min(0.05, self.settings.tick))
        self.write_manifest()
        if self._watcher is not None:
            self._watcher.cancel()
            self._watcher = None
        if self._server is not None:
            self._server.close()
            # Closing the listener does not close accepted connections;
            # drop any idle keep-waiting readers (a worker's in-flight
            # /claim) so their handler tasks end cleanly instead of
            # being cancelled at loop teardown.
            for writer in list(self._connections):
                writer.close()
            await self._server.wait_closed()
            await asyncio.sleep(0)
            self._server = None

    def write_manifest(self) -> None:
        if self.manifest_path:
            manifest_mod.write_manifest(self.manifest_path, self.queue,
                                        self.specs_by_key)

    async def _watch(self) -> None:
        """Periodic lease reaping + progress streaming."""
        while True:
            reaped = self.queue.expire(self._clock())
            if reaped or self.queue.finished:
                self._check_finished()
            self._emit_progress()
            await asyncio.sleep(self.settings.tick)

    def _check_finished(self) -> None:
        if (self._finished_event is not None and self.queue.finished):
            self._finished_event.set()

    # -- progress streaming --------------------------------------------

    def _emit_progress(self, force: bool = False) -> None:
        if self._progress is None:
            return
        counts = self.queue.counts()
        line = (f"progress: {counts.done}/{counts.total} done "
                f"({counts.leased} inflight, {counts.pending} pending, "
                f"{counts.quarantined} quarantined) | "
                f"cache hits {self.cache_hits} | "
                f"simulated {self.simulated}")
        if force or line != self._last_line:
            self._last_line = line
            self._progress(line)

    # -- protocol ------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._connections.append(writer)
        try:
            try:
                request = await _read_http_request(reader)
                if request is None:
                    return
                method, path, body = request
                status, payload = self._dispatch(method, path, body)
            except (asyncio.CancelledError, asyncio.IncompleteReadError,
                    ConnectionError):
                return  # connection dropped (worker died / shutdown)
            except Exception as exc:  # malformed request; keep serving
                status, payload = 400, {"error": repr(exc)}
            try:
                blob = json.dumps(payload).encode()
                reason = {200: "OK", 400: "Bad Request",
                          404: "Not Found"}.get(status, "OK")
                writer.write(
                    f"HTTP/1.1 {status} {reason}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(blob)}\r\n"
                    f"Connection: close\r\n\r\n".encode() + blob)
                await writer.drain()
            except (ConnectionError, BrokenPipeError):
                pass
        finally:
            writer.close()
            if writer in self._connections:
                self._connections.remove(writer)

    def _dispatch(self, method: str, path: str,
                  body: Dict) -> Tuple[int, Dict]:
        if method == "GET" and path == "/status":
            return 200, self.status()
        if method != "POST":
            return 404, {"error": f"unknown route {method} {path}"}
        handlers = {
            "/claim": self._handle_claim,
            "/complete": self._handle_complete,
            "/fail": self._handle_fail,
            "/heartbeat": self._handle_heartbeat,
        }
        handler = handlers.get(path)
        if handler is None:
            return 404, {"error": f"unknown route {method} {path}"}
        return 200, handler(body)

    def _note_worker(self, worker: str) -> Dict:
        record = self._workers.setdefault(
            worker, {"claims": 0, "completed": 0, "failed": 0})
        return record

    def _handle_claim(self, body: Dict) -> Dict:
        worker = body["worker"]
        record = self._note_worker(worker)
        if self._stopping:
            return {"job": None, "done": True, "retry_in": 0.0}
        job = self.queue.claim(worker, self._clock())
        self._check_finished()
        if job is None:
            runnable_at = self.queue.next_runnable_at()
            retry_in = DEFAULT_RETRY_IN
            if runnable_at is not None:
                retry_in = max(0.0, min(runnable_at - self._clock(),
                                        self.settings.policy.
                                        lease_timeout))
            return {"job": None, "done": self.queue.finished,
                    "retry_in": retry_in}
        record["claims"] += 1
        return {"job": {
            "key": job.key,
            "spec": job.payload,
            "attempt": job.attempts,
            "lease_s": self.settings.policy.lease_timeout,
        }}

    def _handle_complete(self, body: Dict) -> Dict:
        worker, key = body["worker"], body["key"]
        record = self._note_worker(worker)
        accepted = self.queue.complete(worker, key)
        if accepted:
            record["completed"] += 1
            result = SimulationResult.from_dict(body["result"])
            self.simulated += 1
            self.store.save(key, self.specs_by_key[key], result)
            self._check_finished()
            self._emit_progress()
        return {"accepted": accepted, "done": self.queue.finished}

    def _handle_fail(self, body: Dict) -> Dict:
        worker, key = body["worker"], body["key"]
        record = self._note_worker(worker)
        record["failed"] += 1
        state = self.queue.fail(worker, key, body.get("error", ""),
                                self._clock())
        self._check_finished()
        self._emit_progress()
        return {"state": state, "done": self.queue.finished}

    def _handle_heartbeat(self, body: Dict) -> Dict:
        ok = self.queue.heartbeat(body["worker"], body["key"],
                                  self._clock())
        return {"ok": ok}

    # -- status --------------------------------------------------------

    def status(self) -> Dict:
        counts = self.queue.counts()
        quarantined = [
            {"key": job.key,
             "label": self.specs_by_key[job.key].scheme.label,
             "attempts": job.attempts,
             "error": job.error}
            for job in self.queue.jobs() if job.state == QUARANTINED
        ]
        total = counts.total
        return {
            "total": total,
            "done": counts.done,
            "pending": counts.pending,
            "inflight": counts.leased,
            "quarantined": counts.quarantined,
            "cache_hits": self.cache_hits,
            "simulated": self.simulated,
            "cache_hit_ratio": (self.cache_hits / total) if total else 0.0,
            "finished": self.queue.finished,
            "stopping": self._stopping,
            "workers": dict(self._workers),
            "quarantine": quarantined,
        }


async def _read_http_request(
        reader: asyncio.StreamReader
) -> Optional[Tuple[str, str, Dict]]:
    """Parse one ``Connection: close`` HTTP/1.1 request; returns
    ``(method, path, json body)`` or ``None`` on an empty connection."""
    line = await reader.readline()
    if not line.strip():
        return None
    method, path, _ = line.decode("latin-1").split(None, 2)
    headers: Dict[str, str] = {}
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    body: Dict = {}
    if length:
        raw = await reader.readexactly(length)
        body = json.loads(raw)
    return method.upper(), path, body
