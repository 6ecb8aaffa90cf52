"""Self-tests of the benchmark: ``python -m pytest bench -q``."""

from __future__ import annotations

import functools
import json
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run  # first: puts the checkout's src on sys.path
import layers

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    """A clock that reads the times a test scripts for it."""

    def __init__(self, times):
        self.times = iter(times)

    def __call__(self) -> float:
        return next(self.times)


def test_tracer_self_time_on_nested_tree():
    # root A [0, 10] holds B [2, 5] (which holds C [3, 4]) and D [6, 9].
    tracer = layers.LayerTracer(FakeClock([0, 2, 3, 4, 5, 6, 9, 10]))
    tracer.enter("a")
    tracer.enter("b")
    tracer.enter("c")
    tracer.leave()
    tracer.leave()
    tracer.enter("d")
    tracer.leave()
    tracer.leave()
    assert dict(tracer.self_s) == {"a": 4, "b": 2, "c": 1, "d": 3}
    assert tracer.total_s == 10
    assert dict(tracer.calls) == {"a": 1, "b": 1, "c": 1, "d": 1}


def test_host_meter_reference_seconds():
    meter = run.HostMeter()
    assert meter.AROUND == 3
    # Kernels start at 0, 1, ..., 9 s and take 10, 20, ..., 100 ms.  The
    # sample [4.5, 5.5] holds the one at 5 s; with the three on either
    # side (2-4 s and 6-8 s) their median takes 60 ms.
    meter.kernels = [(float(t), 0.01 * (t + 1)) for t in range(10)]
    meter.samples["s"].append((4.5, 5.5))
    (seconds,) = meter.reference_s("s")
    assert seconds == pytest.approx(
        (1.0 - 0.06) * run.REFERENCE_KERNEL_S / 0.06)


def test_host_meter_runs_kernels_inside_samples_and_restores_signal():
    before = signal.getsignal(signal.SIGALRM)
    with run.HostMeter() as meter:
        with meter.sample("busy"):
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                pass
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    ((start, end),) = meter.samples["busy"]
    assert sum(start < t < end for t, _ in meter.kernels) >= 2
    assert meter.reference_s("busy")[0] > 0


def test_span_wrapper_attributes_and_unwinds_on_error():
    tracer = layers.LayerTracer()

    def boom():
        raise ValueError("inside a span")

    wrapped = tracer.span("cache", boom)
    assert wrapped.span_layer == "cache" and wrapped.__name__ == "boom"
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.calls["cache"] == 1
    assert not tracer._stack


def test_scheduled_event_is_one_span_of_its_owner():
    from repro.sim.engine import Engine
    tracer = layers.LayerTracer()
    seen = []

    def record(what):
        seen.append(what)

    with layers.Instrumentation(tracer):
        engine = Engine()
        engine.schedule(1, record, "plain")
        engine.schedule(1, tracer.span("cache", record), "traced")
        engine.schedule(2, functools.partial(tracer.call, "cpu", record),
                        "cpu")
        engine.run([])
    assert seen == ["plain", "traced", "cpu"]
    # Three schedule spans plus the run span; one span per event.
    assert dict(tracer.calls) == {"engine": 4, "other": 1, "cache": 1,
                                  "cpu": 1}


def test_layer_of_maps_modules():
    from repro.cpu.core_model import Core
    from repro.sim.hierarchy import L1Node
    assert layers.layer_of(Core.tick) == "cpu"
    assert layers.layer_of(L1Node.request) == "hierarchy"
    assert layers.layer_of(print) == "other"


def test_tracing_leaves_digest_unchanged():
    grid = run.WORKLOADS["ref4_clip"].grid(0, smoke=True)
    specs = grid.specs()
    untraced = [run.build(spec).run() for spec in specs]
    recorder = layers.ClipRecorder()
    tracer, _, traced = run.traced_pass(specs, recorder)
    assert run.grid_digest(traced) == run.grid_digest(untraced)
    assert tracer.calls["clip"] == sum(map(len, recorder.logs.values()))
    for clip, log in recorder.logs.items():
        assert layers.clip_replay(clip.config, log)[1] == 0


@pytest.mark.parametrize("seed", [0, 1])
def test_smoke_run(seed, tmp_path):
    out = tmp_path / "smoke.json"
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed",
         str(seed), "--out", str(out)],
        stdout=subprocess.PIPE, text=True, timeout=300)
    elapsed = time.monotonic() - start
    assert done.returncode == 0
    assert elapsed < 60
    summary = json.loads(out.read_text())
    assert summary["correct"] and summary["failed"] == 0

    declared = {m["name"]: m["unit"]
                for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
    printed = {}
    for line in done.stdout.splitlines():
        if line.startswith(("#", "{")):
            continue
        workload, name, value, unit = line.split()
        assert NAME.fullmatch(name), name
        assert declared.get(name) == unit, (name, unit)
        float(value)
        printed.setdefault(workload, set()).add(name)
    names = {w["name"] for w in DECLARED["workloads"]}
    assert set(printed) == names
    for workload in names:
        assert printed[workload] == set(declared), workload
        metrics = summary["workloads"][workload]["metrics"]
        assert metrics["other.share"]["value"] <= 5.0, workload
