"""Fault-injection tests for the distributed sweep service.

Three failure modes, each exercised with real processes:

* a worker SIGKILLed mid-job -- its lease expires and the job is
  reassigned to a healthy worker;
* a worker whose executor always raises -- the job is retried, then
  quarantined, and the injected error shows up in ``/status``;
* the coordinator itself SIGTERMed mid-campaign -- it persists a
  manifest, exits 130, and a ``--resume`` run completes the campaign
  with every already-finished point served from the cache (zero
  recomputation).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.experiments.sweep import ResultStore, RunSpec, Scheme
from repro.serve.coordinator import Coordinator, ServeSettings
from repro.serve.executor import _CoordinatorThread, spawn_worker
from repro.serve.queue import QueuePolicy
from repro.serve.worker import fetch_status
from repro.trace.mixes import homogeneous_mix

SRC = str(Path(__file__).resolve().parent.parent / "src")
MIX = tuple(homogeneous_mix("605.mcf_s-1536B", 2))


def tiny_spec(scheme: Scheme) -> RunSpec:
    return RunSpec(scheme=scheme, mix=MIX, channels=1, num_cores=2,
                   sim_instructions=800)


def start_coordinator(tmp_path, specs, policy):
    """Coordinator in a background thread, like run_distributed does."""
    coordinator = Coordinator(
        specs, store=ResultStore(tmp_path / "cache"),
        settings=ServeSettings(policy=policy, tick=0.1,
                               drain_timeout=0.2))
    thread = _CoordinatorThread(coordinator)
    thread.start()
    thread.ready.wait(timeout=30.0)
    assert thread.error is None and coordinator.url is not None
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
            assert thread.done.wait(timeout=60.0)
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

    def test_quarantine_surfaces_through_run_sweep(self, tmp_path,
                                                   monkeypatch):
        """run_sweep(executor=...) raises QuarantinedError rather than
        silently dropping poison points."""
        from repro.experiments import sweep as sweep_mod
        from repro.serve import QuarantinedError
        from repro.serve import executor as serve_executor

        poison = write_worker_script(
            tmp_path, "poison2", 'raise RuntimeError("injected-failure")\n')

        def spawn_poison(url, worker_id):
            return subprocess.Popen(
                [sys.executable, str(poison), url])

        monkeypatch.setattr(serve_executor, "spawn_worker",
                            spawn_poison)
        with pytest.raises(QuarantinedError, match="injected-failure"):
            sweep_mod.run_sweep(
                [tiny_spec(Scheme())], jobs=1,
                store=ResultStore(tmp_path / "cache"),
                executor="distributed")


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
