"""In-process distributed execution: the glue behind
``run_sweep(executor="distributed")``.

Starts a :class:`Coordinator` on an ephemeral localhost port inside a
background thread (it gets its own asyncio loop), spawns ``jobs``
worker subprocesses (``python -m repro worker --url ...``), and blocks
until the campaign is terminal.  The contract mirrors the local
``ProcessPoolExecutor`` path: results round-trip through
``to_dict``/``from_dict`` and are therefore bit-identical to serial
execution.

Failure handling:

* setup problems (cannot bind a socket, cannot spawn a single worker)
  raise :class:`DistributedUnavailable`, which ``run_sweep`` catches to
  fall back transparently to local execution;
* every worker dying mid-campaign stops the distributed run and hands
  the unfinished points back to ``run_sweep`` for local execution
  (completed points are kept -- they are already in the store);
* jobs the queue quarantined (poison jobs that failed
  ``max_attempts`` times on real workers) raise
  :class:`QuarantinedError` carrying the per-job errors.
"""

from __future__ import annotations

import asyncio
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.experiments.sweep import ResultStore, RunSpec
from repro.serve.coordinator import Coordinator, ServeSettings
from repro.sim.stats import SimulationResult


class DistributedUnavailable(RuntimeError):
    """Distributed execution could not start; fall back to local."""


class QuarantinedError(RuntimeError):
    """One or more jobs exhausted their retries on real workers."""

    def __init__(self, quarantine: List[Dict]) -> None:
        self.quarantine = quarantine
        lines = []
        for item in quarantine:
            error = (item.get("error") or "unknown error").strip()
            lines.append(f"  {item['label']} (key {item['key'][:12]}..., "
                         f"{item['attempts']} attempts): "
                         f"{error.splitlines()[-1]}")
        super().__init__(
            f"{len(quarantine)} job(s) quarantined after exhausting "
            f"retries:\n" + "\n".join(lines))


@dataclass
class DistributedOutcome:
    """What a distributed campaign produced."""

    results: Dict[RunSpec, SimulationResult]
    provenance: Dict[RunSpec, str]
    simulated: int
    cache_hits: int
    status: Dict
    #: Points the distributed run could not finish (all workers died);
    #: ``run_sweep`` executes these locally.
    remaining: List[RunSpec] = field(default_factory=list)


class _CoordinatorThread(threading.Thread):
    """Hosts the coordinator's asyncio loop off the caller's thread."""

    def __init__(self, coordinator: Coordinator) -> None:
        super().__init__(daemon=True, name="sweep-coordinator")
        self.coordinator = coordinator
        self.ready = threading.Event()
        self.done = threading.Event()
        self.error: Optional[BaseException] = None
        self._stop_requested = threading.Event()

    def run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced to the caller
            self.error = exc
        finally:
            self.ready.set()
            self.done.set()

    async def _main(self) -> None:
        await self.coordinator.start()
        self.ready.set()
        while not self._stop_requested.is_set():
            if await self.coordinator.wait_finished(timeout=0.1):
                break
        await self.coordinator.stop()

    def request_stop(self) -> None:
        self._stop_requested.set()


def spawn_worker(url: str, worker_id: str) -> subprocess.Popen:
    """Start one ``repro worker`` subprocess pointed at ``url``."""
    return subprocess.Popen([sys.executable, "-m", "repro", "worker",
                             "--url", url, "--id", worker_id])


def run_distributed(specs: Iterable[RunSpec], *, jobs: int,
                    store: Optional[ResultStore] = None,
                    settings: Optional[ServeSettings] = None,
                    manifest_path: Optional[str] = None,
                    progress=None) -> DistributedOutcome:
    """Run ``specs`` through a localhost coordinator + ``jobs`` worker
    subprocesses; see the module docstring for the failure contract."""
    spec_list = list(specs)
    coordinator = Coordinator(spec_list, store=store, settings=settings,
                              manifest_path=manifest_path,
                              progress=progress)
    thread = _CoordinatorThread(coordinator)
    thread.start()
    thread.ready.wait(timeout=30.0)
    if thread.error is not None or coordinator.url is None:
        raise DistributedUnavailable(
            f"coordinator failed to start: {thread.error!r}")
    workers: List[subprocess.Popen] = []
    try:
        if not coordinator.queue.finished:
            for index in range(max(1, jobs)):
                try:
                    workers.append(spawn_worker(coordinator.url,
                                                f"local-{index}"))
                except OSError as exc:
                    if not workers:
                        raise DistributedUnavailable(
                            f"could not spawn workers: {exc}") from exc
                    break
        while not thread.done.is_set():
            if thread.done.wait(timeout=0.2):
                break
            if (workers
                    and all(w.poll() is not None for w in workers)
                    and not coordinator.queue.finished):
                # Every worker died with work outstanding: abort the
                # distributed run and let run_sweep finish locally.
                break
    finally:
        thread.request_stop()
        thread.join(timeout=30.0)
        for worker in workers:
            if worker.poll() is None:
                worker.terminate()
        for worker in workers:
            try:
                worker.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait(timeout=5.0)
    if thread.error is not None:
        raise DistributedUnavailable(
            f"coordinator crashed: {thread.error!r}")
    status = coordinator.status()
    if status["quarantine"]:
        raise QuarantinedError(status["quarantine"])
    remaining = [spec for spec in spec_list
                 if spec not in coordinator.results]
    return DistributedOutcome(
        results=dict(coordinator.results),
        provenance=dict(coordinator.provenance),
        simulated=coordinator.simulated,
        cache_hits=coordinator.cache_hits,
        status=status,
        remaining=remaining)
