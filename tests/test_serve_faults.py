"""Fault-injection tests for the sweep service (``repro.serve``).

Three failure modes, each exercised with real processes:

* a worker SIGKILLed mid-job -- its lease expires and the job is
  reassigned to a healthy worker;
* a worker whose executor always raises -- the job is retried, then
  quarantined, and the injected error shows up in ``/status`` and in
  ``repro serve``'s output, which then exits 2;
* the coordinator itself SIGTERMed mid-campaign -- it persists a
  manifest, exits 130, and a ``--resume`` run completes the campaign
  with every already-finished point served from the cache (zero
  recomputation).

Two more run in process, through the coordinator's protocol handlers:
a result whose store entry cannot be written, and a spec the config
gate rejects.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.experiments.sweep import (ResultStore, RunSpec, Scheme,
                                     execute_spec)
from repro.serve.coordinator import Coordinator, ServeSettings
from repro.serve.queue import PENDING, QUARANTINED, QueuePolicy
from repro.serve.worker import fetch_status, spawn_worker
from repro.trace.mixes import homogeneous_mix

SRC = str(Path(__file__).resolve().parent.parent / "src")
MIX = tuple(homogeneous_mix("605.mcf_s-1536B", 2))


def tiny_spec(scheme: Scheme) -> RunSpec:
    return RunSpec(scheme=scheme, mix=MIX, channels=1, num_cores=2,
                   sim_instructions=800)


class CoordinatorThread(threading.Thread):
    """Serves a coordinator from its own asyncio loop until the campaign
    is terminal or :meth:`request_stop` is called.  The fixtures need
    ``QueuePolicy``/``ServeSettings`` values ``repro serve`` does not
    expose (sub-second leases, backoff and ticks)."""

    def __init__(self, coordinator: Coordinator) -> None:
        super().__init__(daemon=True)
        self.coordinator = coordinator
        self.ready = threading.Event()
        self._stop_requested = threading.Event()

    def run(self) -> None:
        try:
            asyncio.run(self._serve())
        finally:
            self.ready.set()

    async def _serve(self) -> None:
        await self.coordinator.start()
        self.ready.set()
        while not (self._stop_requested.is_set()
                   or await self.coordinator.wait_finished(timeout=0.1)):
            pass
        await self.coordinator.stop()

    def request_stop(self) -> None:
        self._stop_requested.set()


def start_coordinator(tmp_path, specs, policy):
    coordinator = Coordinator(
        specs, store=ResultStore(tmp_path / "cache"),
        settings=ServeSettings(policy=policy, tick=0.1,
                               drain_timeout=0.2))
    thread = CoordinatorThread(coordinator)
    thread.start()
    thread.ready.wait(timeout=30.0)
    assert coordinator.url is not None
    return coordinator, thread


def stop_coordinator(thread, processes):
    thread.request_stop()
    thread.join(timeout=30.0)
    for process in processes:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)


def wait_for(url, predicate, timeout=60.0):
    """Poll ``/status`` until ``predicate(status)`` holds."""
    last = None
    until = time.monotonic() + timeout
    while time.monotonic() < until:
        try:
            last = fetch_status(url)
        except OSError:
            time.sleep(0.05)
            continue
        if predicate(last):
            return last
        time.sleep(0.02)
    pytest.fail(f"condition not reached within {timeout}s; "
                f"last status: {last}")


def write_worker_script(tmp_path, name, executor_body):
    """A standalone worker process with an injected executor."""
    script = tmp_path / f"{name}.py"
    script.write_text(textwrap.dedent(f"""\
        import sys, time
        sys.path.insert(0, {SRC!r})
        from repro.serve.worker import worker_loop

        def executor(spec_payload):
        {textwrap.indent(executor_body, '    ')}

        sys.exit(worker_loop(sys.argv[1], worker_id={name!r},
                             executor=executor))
        """))
    return script


class TestWorkerSigkill:
    def test_lease_expires_and_job_is_reassigned(self, tmp_path):
        policy = QueuePolicy(lease_timeout=1.0, max_attempts=5,
                             backoff_base=0.05, backoff_cap=0.2)
        coordinator, thread = start_coordinator(
            tmp_path, [tiny_spec(Scheme(l1="berti"))], policy)
        processes = []
        try:
            hang = write_worker_script(
                tmp_path, "hangman", "time.sleep(600)\n")
            processes.append(subprocess.Popen(
                [sys.executable, str(hang), coordinator.url]))
            # The hung worker holds the lease (heartbeats keep it alive
            # well past lease_timeout) ...
            wait_for(coordinator.url, lambda s: s["inflight"] == 1)
            time.sleep(2.5 * policy.lease_timeout)
            status = fetch_status(coordinator.url)
            assert status["inflight"] == 1 and status["done"] == 0
            # ... until SIGKILL silences the heartbeat.
            os.kill(processes[0].pid, signal.SIGKILL)
            processes[0].wait(timeout=10.0)
            processes.append(spawn_worker(coordinator.url, "rescuer"))
            # The coordinator closes its server once the campaign is
            # terminal, so wait in-process rather than over HTTP.
            thread.join(timeout=60.0)
            assert not thread.is_alive()
            status = coordinator.status()
            assert status["done"] == 1
            assert status["quarantine"] == []
            job = coordinator.queue.jobs()[0]
            assert job.producer == "rescuer"
            assert job.attempts >= 1  # the expired lease was counted
        finally:
            stop_coordinator(thread, processes)


class TestPoisonJob:
    def test_always_raising_worker_quarantines_after_k_retries(
            self, tmp_path):
        """The poisoned job ends up quarantined, with the injected
        error visible in live ``/status`` output.

        A second, hung job keeps the campaign open so ``/status`` can
        be queried over real HTTP after the quarantine happens (once a
        campaign is terminal the coordinator shuts its server down).
        """
        policy = QueuePolicy(lease_timeout=60.0, max_attempts=2,
                             backoff_base=0.05, backoff_cap=0.1)
        coordinator, thread = start_coordinator(
            tmp_path, [tiny_spec(Scheme()),
                       tiny_spec(Scheme(l1="berti"))], policy)
        processes = []
        try:
            hang = write_worker_script(
                tmp_path, "hangman", "time.sleep(600)\n")
            processes.append(subprocess.Popen(
                [sys.executable, str(hang), coordinator.url]))
            wait_for(coordinator.url, lambda s: s["inflight"] == 1)
            poison = write_worker_script(
                tmp_path, "poison",
                'raise RuntimeError("injected-failure")\n')
            processes.append(subprocess.Popen(
                [sys.executable, str(poison), coordinator.url]))
            status = wait_for(coordinator.url,
                              lambda s: s["quarantined"] == 1)
            assert status["done"] == 0
            [item] = status["quarantine"]
            assert item["attempts"] == policy.max_attempts
            assert "injected-failure" in item["error"]
            assert item["label"] == "berti"
            assert status["workers"]["poison"]["failed"] == \
                policy.max_attempts
        finally:
            stop_coordinator(thread, processes)

    def test_quarantine_fails_the_served_campaign(self, tmp_path):
        """``repro serve`` names a quarantined job and exits 2 rather
        than finishing as if every point had run."""
        log = tmp_path / "serve.txt"
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
        with open(log, "w") as stdout:
            serve = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--schemes", "none", "--workloads", MIX[0],
                 "--channels", "1", "--cores", "2",
                 "--instructions", "800", "--workers", "0",
                 "--max-attempts", "1",
                 "--cache-dir", str(tmp_path / "cache")],
                stdout=stdout, env=env, cwd=str(tmp_path))
        processes = [serve]
        try:
            url = None
            until = time.monotonic() + 60.0
            while url is None and time.monotonic() < until:
                for line in log.read_text().splitlines():
                    if line.startswith("serving campaign on "):
                        url = line.split()[3]
                time.sleep(0.05)
            assert url is not None, log.read_text()
            poison = write_worker_script(
                tmp_path, "poison",
                'raise RuntimeError("injected-failure")\n')
            processes.append(subprocess.Popen(
                [sys.executable, str(poison), url]))
            assert serve.wait(timeout=60.0) == 2, log.read_text()
            assert ("quarantined: none after 1 attempt(s): "
                    "RuntimeError: injected-failure") in log.read_text()
        finally:
            for process in processes:
                if process.poll() is None:
                    process.kill()
                    process.wait(timeout=10.0)


class TestInProcessCoordinator:
    @staticmethod
    def post(coordinator, path, body):
        status, reply = coordinator._dispatch("POST", path, body)
        assert status == 200
        return reply

    def test_unwritable_store_entry_fails_the_job(self, tmp_path):
        """The store holds a campaign's only copy of a result, so a
        result whose entry cannot be written is not accepted: the job
        fails naming the entry, retries, and then quarantines instead
        of reading done with the point missing from the store."""
        spec = RunSpec(scheme=Scheme(l1="berti"), mix=MIX[:1], channels=1,
                       num_cores=1, sim_instructions=300)
        store = ResultStore(tmp_path / "cache")
        coordinator = Coordinator(
            [spec], store=store, settings=ServeSettings(
                policy=QueuePolicy(max_attempts=2, backoff_base=0.0)))
        key = spec.cache_key()
        entry = store.path_for(key)
        entry.mkdir(parents=True)  # a directory where the entry goes
        result = execute_spec(spec)
        for state in (PENDING, QUARANTINED):
            claim = self.post(coordinator, "/claim", {"worker": "w"})
            assert claim["job"]["key"] == key
            reply = self.post(coordinator, "/complete",
                              {"worker": "w", "key": key,
                               "result": result})
            assert reply["accepted"] is False
            [job] = coordinator.queue.jobs()
            assert job.state == state
            assert str(entry) in job.error
        assert reply["done"] is True
        status = coordinator.status()
        assert (status["done"], status["simulated"]) == (0, 0)
        assert str(entry) in status["quarantine"][0]["error"]
        assert store.load(key) is None

    def test_campaign_of_a_rejected_spec_starts(self, tmp_path):
        """Keys do not validate: a campaign over a spec the config gate
        rejects starts, and the spec fails where it is simulated, with
        the field-named error a worker reports."""
        spec = RunSpec(scheme=Scheme.parse("berti"), mix=MIX, channels=0,
                       num_cores=2, sim_instructions=800)
        coordinator = Coordinator([spec],
                                  store=ResultStore(tmp_path / "cache"))

        async def start_and_stop():
            await coordinator.start()
            await coordinator.stop()

        asyncio.run(start_and_stop())
        assert [job.state for job in coordinator.queue.jobs()] == [PENDING]
        with pytest.raises(ValueError,
                           match="dram.channels must be positive, got 0"):
            execute_spec(spec)


class TestCoordinatorSigterm:
    SCHEMES = ("none", "berti", "berti+clip", "bingo", "spp_ppf",
               "berti+hermes")

    def serve_command(self, tmp_path, extra):
        return [sys.executable, "-m", "repro", "serve",
                "--schemes", *self.SCHEMES,
                "--workloads", "605.mcf_s-1536B",
                "--channels", "1", "--cores", "2",
                "--instructions", "20000",
                "--workers", "1",
                "--cache-dir", str(tmp_path / "cache"),
                "--manifest", str(tmp_path / "manifest.json"),
                *extra]

    def test_sigterm_persists_manifest_and_resume_recomputes_nothing(
            self, tmp_path):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
        first = subprocess.Popen(
            self.serve_command(tmp_path,
                               ["--status-json",
                                str(tmp_path / "first.json")]),
            stdout=subprocess.PIPE, text=True, env=env,
            cwd=str(tmp_path))
        url = None
        for line in first.stdout:
            if line.startswith("serving campaign on "):
                url = line.split()[3]
                break
        assert url is not None, "serve never reported its URL"
        # Interrupt as soon as real progress exists but work remains.
        wait_for(url, lambda s: s["done"] >= 1)
        first.send_signal(signal.SIGTERM)
        first.stdout.read()  # drain so the child never blocks on write
        assert first.wait(timeout=60.0) == 130
        assert (tmp_path / "manifest.json").exists()
        interrupted = json.loads((tmp_path / "first.json").read_text())
        assert 1 <= interrupted["done"] < interrupted["total"]

        second = subprocess.run(
            self.serve_command(tmp_path,
                               ["--resume", "--status-json",
                                str(tmp_path / "second.json")]),
            capture_output=True, text=True, env=env,
            cwd=str(tmp_path), timeout=300.0)
        assert second.returncode == 0, second.stdout + second.stderr
        resumed = json.loads((tmp_path / "second.json").read_text())
        assert resumed["finished"]
        assert resumed["total"] == interrupted["total"]
        assert resumed["done"] == resumed["total"]
        # Every point the first run finished is a cache hit -- nothing
        # is simulated twice across the interruption.
        assert resumed["cache_hits"] == interrupted["done"]
        assert resumed["simulated"] == \
            interrupted["total"] - interrupted["done"]
