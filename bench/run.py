"""The repository benchmark: host-time cost of simulating CLIP systems.

One workload per run::

    python bench/run.py --workload ref4_clip --seed 0 --seconds 25 --trace 0

prints one ``<workload> <metric> <value> <unit>`` line per metric, a
``#`` line with the result digest, and, last, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace
0`` measures the end-to-end metrics from untraced runs; ``--trace 1``
measures the per-layer metrics from a separate traced run plus the
isolated-layer microbenchmarks.  Without ``--workload`` every workload
runs in both modes, each in its own subprocess, one after another;
``--out FILE`` also writes the collected data as JSON and ``--smoke``
shrinks every size for a quick check.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import heapq
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

try:
    import repro  # noqa: F401  (a checkout on PYTHONPATH wins)
except ImportError:
    sys.path.insert(0, str(ROOT / "src"))

import repro.experiments.sweep as sweep_module  # noqa: E402
from repro import api  # noqa: E402
from repro.experiments.hotpath import (bench_cache_access,  # noqa: E402
                                       bench_engine_drain)
from repro.experiments.sweep import (ResultStore, RunSpec,  # noqa: E402
                                     Scheme, Sweep)
from repro.sim.stats import SimulationResult  # noqa: E402
from repro.sim.system import MulticoreSystem  # noqa: E402
from repro.trace.mixes import heterogeneous_mixes  # noqa: E402
from repro.trace.synthetic import SyntheticWorkload  # noqa: E402
from repro.trace.workloads import get_workload  # noqa: E402

import layers  # noqa: E402

clock = time.perf_counter
cpu_clock = time.process_time

#: Fewest samples behind any median: timed points, sweep repetitions,
#: set-up samples, microbenchmark runs.
MIN_SAMPLES = 5
#: The same under ``--smoke``, which checks outputs rather than speed.
SMOKE_SAMPLES = 2
#: Warm (all cache hits) sweep passes after each timed point or cold pass.
WARM_PASSES = 20
#: Environment variables that would change what is measured.
REFUSED_ENV = ("REPRO_SANITIZE", "REPRO_BACKEND")
#: Scratch space for result stores, inside the checkout.
WORK_DIR = ROOT / ".bench_work"
#: CPU seconds of ``HostMeter.kernel`` on the reference host, about its
#: undisturbed time on the 2-core VM of ``bench/README.md``'s baseline.
REFERENCE_KERNEL_S = 0.005

REF_MIX = ("605.mcf_s-1536B", "623.xalancbmk_s-10B", "tc-14",
           "619.lbm_s-2676B")


@dataclass(frozen=True)
class Workload:
    """A grid of simulated points plus how seeds vary it."""

    name: str
    schemes: Tuple[str, ...]
    mixes: Tuple[Tuple[str, ...], ...]
    channels: Tuple[int, ...]
    instructions: int
    smoke_instructions: int
    #: Seeds other than 0 draw every core from this pool; ``None``
    #: shuffles the canonical workloads across the cores instead.
    pool: Optional[Tuple[str, ...]] = None
    #: The workload's defining property: CLIP and prefetch work present
    #: (True) or absent (False); ``None`` checks neither.
    clip_work: Optional[bool] = None
    #: Cold passes repeat in fresh subprocesses (cold trace cache).
    cold_sweep: bool = False

    def draw_mixes(self, seed: int) -> List[Tuple[str, ...]]:
        if seed == 0:
            return list(self.mixes)
        cores = len(self.mixes[0])
        if self.pool is not None:
            return [tuple(mix) for mix in heterogeneous_mixes(
                len(self.mixes), cores, seed=seed, pool=self.pool)]
        names = [name for mix in self.mixes for name in mix]
        random.Random(seed).shuffle(names)
        return [tuple(names[i:i + cores])
                for i in range(0, len(names), cores)]

    def grid(self, seed: int, smoke: bool) -> "Grid":
        return Grid(self.schemes, tuple(self.draw_mixes(seed)),
                    self.channels,
                    self.smoke_instructions if smoke else self.instructions)


@dataclass(frozen=True)
class Grid:
    """The arguments of one ``api.sweep`` call."""

    schemes: Tuple[str, ...]
    mixes: Tuple[Tuple[str, ...], ...]
    channels: Tuple[int, ...]
    instructions: int

    @property
    def cores(self) -> int:
        return len(self.mixes[0])

    def specs(self) -> List[RunSpec]:
        return list(Sweep.product(
            [Scheme.parse(s) for s in self.schemes], self.mixes,
            self.channels, num_cores=self.cores,
            sim_instructions=self.instructions))

    def sweep(self, store: ResultStore) -> api.SweepResult:
        return api.sweep(list(self.schemes), [list(m) for m in self.mixes],
                         channels=list(self.channels), num_cores=self.cores,
                         sim_instructions=self.instructions, cache=store,
                         jobs=1)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # The ROADMAP reference point: every layer under bandwidth pressure.
    Workload("ref4_clip", ("berti+clip",), (REF_MIX,), (2,), 20_000, 5_000,
             clip_work=True),
    # 16 cores: engine scan, 4x4 mesh and 16 LLC slices grow.
    Workload("scale16_clip", ("berti+clip",), (REF_MIX * 4,), (4,), 8_000,
             2_500, clip_work=True),
    # Ample bandwidth, no prefetcher, no CLIP: the core model dominates,
    # and CLIP/prefetch optimisations must change nothing here.  Seeds
    # draw xz SimPoints only: CloudSuite and CVP traces cost up to 8%
    # fewer engine events per instruction, so drawing them would change
    # the amount of work with the seed.
    Workload("core_bound", ("none",), (("657.xz_s-1306B",) * 4,), (8,),
             40_000, 4_000, pool=("657.xz_s-1306B", "657.xz_s-2302B"),
             clip_work=False),
    # The sweep/result-store layer the figures sit on: cold passes that
    # generate, simulate and save, then warm passes served from disk.
    Workload("sweep_cold_warm", ("none", "berti", "berti+clip", "bandit"),
             (("605.mcf_s-1536B", "619.lbm_s-2676B"),
              ("623.xalancbmk_s-10B", "tc-14")), (1, 2), 3_000, 600,
             cold_sweep=True),
)}


class _Line:
    __slots__ = ("tag", "hits")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.hits = 0

    def touch(self, cycle: int) -> int:
        self.hits += 1
        return cycle + self.hits


class HostMeter:
    """Times named samples in CPU seconds corrected for host speed.

    Samples and kernels are timed in this process's CPU seconds, so
    time it spends waiting for a CPU is not counted.  What remains is
    how fast the CPU runs it: other tenants of the shared host slow that
    by up to half, from one second to the next.  While the meter is
    active, a one-shot ``SIGALRM`` timer runs :meth:`kernel` every
    ``GAP_S`` seconds, in the middle of whatever is being timed; the
    handler runs between bytecodes and touches no simulator state.  A
    sample's reference seconds are its CPU seconds minus the kernels
    inside it, times ``REFERENCE_KERNEL_S`` over the median time of the
    kernels inside it and the ``AROUND`` on either side of it: what the
    sample would take on a host as fast as the reference.  A sample
    shorter than ``GAP_S`` holds no kernel, and one slow kernel beside
    it must not set its speed, hence ``AROUND``.  Only one process
    measures at a time, so the meter must not be active while a
    measuring subprocess runs.
    """

    GAP_S = 0.05
    AROUND = 3
    #: Lines the kernel works over: about 5 MB, more than the host's
    #: 2 MB L2 cache, as the simulator's working set is.
    LINES = 1 << 16

    def __init__(self) -> None:
        #: (start, CPU seconds) of every kernel run, in order.
        self.kernels: List[Tuple[float, float]] = []
        #: name -> (start, end) of every sample, in CPU time.
        self.samples: Dict[str, List[Tuple[float, float]]] = defaultdict(
            list)
        self._lines: List[_Line] = []
        self._active = False

    def kernel(self) -> int:
        """Fixed pure-Python work in the simulator's style (slotted
        objects scattered over a working set beyond the L2 cache, method
        calls, a small heap) that no change to ``repro`` can speed up or
        slow down: its CPU time measures the host's speed.  A kernel
        over 2048 lines tracked the simulator's slowdowns less well."""
        lines = self._lines
        heap: List[Tuple[int, int]] = []
        total = 0
        for i in range(5_000):
            key = (i * 2654435761) & 0xFFFFFFF
            total += lines[key & (self.LINES - 1)].touch(i)
            heapq.heappush(heap, (key, i))
            if len(heap) > 64:
                total ^= heapq.heappop(heap)[1]
        return total

    def _kernel(self) -> None:
        start = cpu_clock()
        self.kernel()
        self.kernels.append((start, cpu_clock() - start))

    def _tick(self, signum, frame) -> None:
        self._kernel()
        if self._active:
            signal.setitimer(signal.ITIMER_REAL, self.GAP_S)

    def __enter__(self) -> "HostMeter":
        if not self._lines:
            self._lines = [_Line(i) for i in range(self.LINES)]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        for _ in range(self.AROUND):  # kernels before every sample
            self._kernel()
        self._active = True
        self._tick(signal.SIGALRM, None)
        return self

    def __exit__(self, *exc) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(self.AROUND):  # and after every sample
            self._kernel()

    @contextlib.contextmanager
    def sample(self, name: str) -> Iterator[None]:
        start = cpu_clock()
        yield
        self.samples[name].append((start, cpu_clock()))

    def reference_s(self, name: str) -> List[float]:
        """Reference seconds of each ``name`` sample."""
        starts = [start for start, _ in self.kernels]
        seconds = []
        for start, end in self.samples[name]:
            first = bisect.bisect_left(starts, start)
            last = bisect.bisect_left(starts, end)
            inside = sum(k for _, k in self.kernels[first:last])
            around = [k for _, k in self.kernels[
                max(first - self.AROUND, 0):last + self.AROUND]]
            seconds.append((end - start - inside) * REFERENCE_KERNEL_S
                           / statistics.median(around))
        return seconds

    def median_s(self, name: str) -> float:
        return statistics.median(self.reference_s(name))


class Report:
    """Metrics plus the output checks that count as attempted/failed."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: Dict[str, Dict] = {}
        self.attempted = 0
        self.failed = 0

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def add_rate(self, name: str, work: float, seconds: Sequence[float],
                 unit: str) -> None:
        """The median of ``work`` per reference second over the samples;
        their n and quartiles go to a ``#`` line."""
        rates = [work / s for s in seconds]
        q1, median, q3 = statistics.quantiles(rates, n=4)
        self.add(name, median, unit)
        print(f"# {self.workload} {name} n {len(rates)} median {median!r} "
              f"q1 {q1!r} q3 {q3!r}")

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"# {self.workload} FAILED {what}", file=sys.stderr)

    def emit(self, digest: str) -> None:
        for name, metric in self.metrics.items():
            print(f"{self.workload} {name} {metric['value']!r} "
                  f"{metric['unit']}")
        print(f"# {self.workload} digest {digest}")
        print(json.dumps({"correct": self.failed == 0,
                          "attempted": max(1, self.attempted),
                          "failed": self.failed,
                          "metrics": self.metrics}))


# ---------------------------------------------------------------------------
# Shared steps
# ---------------------------------------------------------------------------

def grid_digest(results: Sequence[SimulationResult]) -> str:
    """sha256 over the points' ``SimulationResult.to_dict()``, in order."""
    blob = json.dumps([result.to_dict() for result in results],
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def check_results(report: Report, specs: Sequence[RunSpec],
                  results: Sequence[SimulationResult]) -> None:
    for spec, result in zip(specs, results):
        errors = result.prefetch.consistency_errors()
        report.check(not errors, f"prefetch consistency {errors}")
        expected = spec.cores * spec.instructions
        report.check(result.total_instructions == expected,
                     f"{result.total_instructions} instructions retired, "
                     f"expected {expected}")


def check_property(report: Report, workload: Workload,
                   results: Sequence[SimulationResult]) -> None:
    seen = sum(r.clip.prefetches_seen for r in results if r.clip)
    candidates = sum(r.prefetch.candidates for r in results)
    issued = sum(r.prefetch.issued for r in results)
    if workload.clip_work is True:
        report.check(seen > 0 and issued > 0,
                     f"no CLIP/prefetch work (seen {seen}, issued {issued})")
    elif workload.clip_work is False:
        report.check(all(r.clip is None for r in results)
                     and candidates == 0 and issued == 0,
                     f"CLIP/prefetch work on a bypass workload "
                     f"(candidates {candidates}, issued {issued})")


def build(spec: RunSpec, backend: str = "event") -> MulticoreSystem:
    config = spec.config()
    config.backend = backend
    return MulticoreSystem(config, list(spec.mix), label=spec.scheme.label)


def setup_sample(meter: HostMeter, grid: Grid,
                 specs: Sequence[RunSpec]) -> None:
    """One ``gen`` sample (generate every core trace the grid runs) and
    one ``build`` sample (build every point on a warm trace cache)."""
    traces = {(name, core) for mix in grid.mixes
              for core, name in enumerate(mix)}
    with meter.sample("gen"):
        for name, core in sorted(traces):
            SyntheticWorkload(get_workload(name)).generate(
                grid.instructions, core_id=core)
    with meter.sample("build"):
        for spec in specs:
            build(spec)


def setup_s(meter: HostMeter) -> float:
    return meter.median_s("gen") + meter.median_s("build")


def timed_pass(specs: Sequence[RunSpec], backend: str = "event",
               ) -> Tuple[float, int, List[SimulationResult]]:
    """Build and run every point; returns (host seconds in ``run()``,
    engine events, results)."""
    run_s = 0.0
    events = 0
    results = []
    for spec in specs:
        system = build(spec, backend)
        start = clock()
        results.append(system.run())
        run_s += clock() - start
        events += system.engine.events_processed
    return run_s, events, results


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@contextlib.contextmanager
def scratch_store() -> Iterator[ResultStore]:
    WORK_DIR.mkdir(exist_ok=True)
    root = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        yield ResultStore(root)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()


def warm_passes(meter: HostMeter, report: Report, grid: Grid,
                store: ResultStore, digest: str) -> None:
    """``WARM_PASSES`` ``warm`` samples; every point must hit the
    store."""
    points = len(grid.specs())
    for _ in range(WARM_PASSES):
        with meter.sample("warm"):
            warm = grid.sweep(store)
        report.check(warm.cache_hits == points and warm.simulated == 0,
                     f"warm pass hit {warm.cache_hits}/{points}")
        report.check(grid_digest(list(warm)) == digest,
                     "warm results differ from cold ones")


# ---------------------------------------------------------------------------
# End-to-end runs (--trace 0)
# ---------------------------------------------------------------------------

def end_to_end_points(report: Report, workload: Workload, grid: Grid,
                      seconds: float, min_samples: int) -> str:
    """Single-point workloads, in this process.  Each iteration takes one
    set-up sample, times one point (cache key, build, ``run()``, save)
    and a few warm passes, so every metric sees the same stretch of host
    time."""
    specs = grid.specs()
    (spec,) = specs
    reference = build(spec).run()  # warm-up point
    digest = grid_digest([reference])
    check_results(report, specs, [reference])
    check_property(report, workload, [reference])
    with HostMeter() as meter, scratch_store() as store:
        deadline = clock() + seconds
        iteration_s = 0.0
        # Stop before an iteration that would end past the deadline: a
        # 16-core iteration takes seconds.
        while (len(meter.samples["run"]) < min_samples
               or clock() + iteration_s < deadline):
            started = clock()
            setup_sample(meter, grid, specs)
            with meter.sample("point"):
                key = spec.cache_key()
                system = build(spec)
                with meter.sample("run"):
                    result = system.run()
                store.save(key, spec, result)
            report.check(grid_digest([result]) == digest,
                         "timed repeats disagree on the result digest")
            check_results(report, specs, [result])
            warm_passes(meter, report, grid, store, digest)
            iteration_s = clock() - started
    report.add_rate("instr_per_s", reference.total_instructions,
                    meter.reference_s("run"), "instr/s")
    report.add_rate("points_per_s", 1, meter.reference_s("point"), "1/s")
    report.add_rate("warm_points_per_s", 1, meter.reference_s("warm"),
                    "1/s")
    report.add("peak_rss_mb", peak_rss_mb(), "MB")
    report.add("setup_s", setup_s(meter), "s")
    return digest


def sweep_rep(name: str, grid: Grid) -> Dict:
    """One cold pass plus warm passes, in a fresh process, in reference
    seconds.  The cold pass also times each point's
    ``MulticoreSystem.run()``."""
    report = Report(name)
    specs = grid.specs()
    with HostMeter() as meter, scratch_store() as store:
        with layers.Patches() as patches:
            untimed_run = MulticoreSystem.run

            def timed_run(system: MulticoreSystem) -> SimulationResult:
                with meter.sample("run"):
                    return untimed_run(system)

            patches.patch(MulticoreSystem, "run", timed_run)
            with meter.sample("cold"):
                cold = grid.sweep(store)
        results = list(cold)
        digest = grid_digest(results)
        report.check(cold.simulated == len(specs),
                     f"cold pass simulated {cold.simulated}/{len(specs)}")
        check_results(report, specs, results)
        rss = peak_rss_mb()
        warm_passes(meter, report, grid, store, digest)
    return {"cold_s": meter.median_s("cold"),
            "run_s": sum(meter.reference_s("run")),
            "warm_s": meter.reference_s("warm"), "digest": digest,
            "instructions": sum(r.total_instructions for r in results),
            "rss_mb": rss, "attempted": report.attempted,
            "failed": report.failed}


def run_sweep_rep(report: Report, command: Sequence[str]) -> Optional[Dict]:
    """One repetition's result; a repetition that crashes or times out
    is a failed check."""
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=150)
    except subprocess.TimeoutExpired:
        report.check(False, "sweep repetition timed out")
        return None
    if done.returncode != 0:
        report.check(False, f"sweep repetition exited {done.returncode}")
        return None
    rep = json.loads(done.stdout.splitlines()[-1])
    report.attempted += rep["attempted"]
    report.failed += rep["failed"]
    return rep


def end_to_end_sweep(report: Report, workload: Workload, grid: Grid,
                     seconds: float, min_samples: int, seed: int,
                     smoke: bool) -> str:
    """The sweep workload: each repetition runs in a fresh subprocess, so
    every cold pass also pays trace generation; a set-up sample is taken
    here between repetitions, with the meter on only while no
    repetition runs."""
    specs = grid.specs()
    command = [sys.executable, str(Path(__file__).resolve()),
               "--sweep-rep", "--workload", workload.name,
               "--seed", str(seed), "--seconds", str(seconds)]
    if smoke:
        command.append("--smoke")
    reps: List[Dict] = []
    setup_sample(HostMeter(), grid, specs)  # fills the trace cache
    meter = HostMeter()
    deadline = clock() + seconds
    while len(meter.samples["gen"]) < min_samples or clock() < deadline:
        rep = run_sweep_rep(report, command)
        if rep is not None:
            reps.append(rep)
        with meter:
            setup_sample(meter, grid, specs)
    if not reps:
        raise RuntimeError("every sweep repetition crashed")
    digest = reps[0]["digest"]
    report.check(all(rep["digest"] == digest for rep in reps),
                 "cold passes disagree on the result digest")
    report.add_rate("instr_per_s", reps[0]["instructions"],
                    [rep["run_s"] for rep in reps], "instr/s")
    report.add_rate("points_per_s", len(specs),
                    [rep["cold_s"] for rep in reps], "1/s")
    report.add_rate("warm_points_per_s", len(specs),
                    [t for rep in reps for t in rep["warm_s"]], "1/s")
    report.add("peak_rss_mb",
               statistics.median(rep["rss_mb"] for rep in reps), "MB")
    report.add("setup_s", setup_s(meter), "s")
    return digest


# ---------------------------------------------------------------------------
# Per-layer runs (--trace 1)
# ---------------------------------------------------------------------------

def traced_pass(specs: Sequence[RunSpec], recorder: layers.ClipRecorder,
                ) -> Tuple[layers.LayerTracer, float, List]:
    """Build and run every point with every layer's entry points traced;
    returns (tracer, traced run seconds, results)."""
    tracer = layers.LayerTracer()
    results = []
    traced_s = 0.0
    with layers.Instrumentation(tracer, recorder) as instrumentation:
        for spec in specs:
            system = build(spec)
            instrumentation.wrap_hooks(system.cores)
            start = clock()
            tracer.enter("other")
            try:
                results.append(system.run())
            finally:
                tracer.leave()
            traced_s += clock() - start
    return tracer, traced_s, results


SWEEP_SPANS = (
    (RunSpec, "cache_key", "sweep.cache_key"),
    (sweep_module, "execute_spec", "sweep.simulate"),
    (ResultStore, "save", "sweep.store_save"),
    (ResultStore, "load", "sweep.store_load"),
    (SimulationResult, "from_dict", "sweep.from_dict"),
)


def sweep_layer(report: Report, grid: Grid, digest: str) -> None:
    """Self time of the sweep layer's steps over one cold pass (cache
    key, simulate, save) and one warm pass (load, rebuild)."""
    tracer = layers.LayerTracer()
    specs = grid.specs()
    with layers.Patches() as patches, scratch_store() as store:
        for owner, name, layer in SWEEP_SPANS:
            patches.span(tracer, owner, name, layer)
        cold = grid.sweep(store)
        cold_self = dict(tracer.self_s)
        warm = grid.sweep(store)
    report.check(cold.simulated == len(specs) and warm.cache_hits
                 == len(specs), "sweep layer pass missed or re-simulated")
    report.check(grid_digest(list(cold)) == digest
                 and grid_digest(list(warm)) == digest,
                 "sweep layer pass results differ from the reference")
    for name in ("cache_key", "simulate", "store_save"):
        report.add(f"sweep.{name}_s", cold_self.get(f"sweep.{name}", 0.0),
                   "s")
    for name in ("store_load", "from_dict"):
        layer = f"sweep.{name}"
        report.add(f"{layer}_s",
                   tracer.self_s[layer] - cold_self.get(layer, 0.0), "s")


def simulated_counts(report: Report, results: Sequence[SimulationResult],
                     events: int) -> None:
    """Exact simulated statistics: host time must not move these."""
    def level(name: str, field: str) -> int:
        return sum(getattr(r.levels[name], field) for r in results)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    clips = [r.clip for r in results if r.clip is not None]
    cores = [c for r in results for c in r.cores]
    packets = sum(r.noc.packets for r in results)
    dram_hits = sum(r.dram.row_hits for r in results)
    report.add("sim.cycles", sum(r.total_cycles for r in results), "cycles")
    report.add("cpu.ipc", ratio(sum(c.instructions for c in cores),
                                sum(c.cycles for c in cores)), "instr/cycle")
    report.add("cpu.mispredicts", sum(c.mispredicts for c in cores), "count")
    report.add("engine.events", events, "count")
    report.add("cache.l1d_miss_rate", ratio(
        level("L1D", "demand_misses"), level("L1D", "demand_accesses")),
        "ratio")
    report.add("cache.llc_miss_rate", ratio(
        level("LLC", "demand_misses"), level("LLC", "demand_accesses")),
        "ratio")
    report.add("hierarchy.l1d_miss_latency_cycles", ratio(
        level("L1D", "miss_latency_sum"), level("L1D", "miss_latency_count")),
        "cycles")
    report.add("noc.flits", sum(r.noc.flits for r in results), "count")
    report.add("noc.avg_latency_cycles", ratio(
        sum(r.noc.average_latency * r.noc.packets for r in results),
        packets), "cycles")
    report.add("dram.reads", sum(r.dram.reads for r in results), "count")
    report.add("dram.row_hit_rate", ratio(
        dram_hits, dram_hits + sum(r.dram.row_misses for r in results)),
        "ratio")
    report.add("dram.utilization", statistics.fmean(
        r.dram.utilization for r in results), "ratio")
    report.add("prefetch.issued", sum(r.prefetch.issued for r in results),
               "count")
    report.add("prefetch.accuracy", min(1.0, ratio(
        sum(r.prefetch.useful for r in results),
        sum(r.prefetch.issued for r in results))), "ratio")
    seen = sum(c.prefetches_seen for c in clips)
    report.add("clip.prefetches_seen", seen, "count")
    report.add("clip.allow_rate", ratio(
        sum(c.prefetches_allowed for c in clips), seen), "ratio")
    report.add("clip.prediction_accuracy", statistics.fmean(
        [c.prediction_accuracy for c in clips] or [0.0]), "ratio")


def microbenchmarks(report: Report, grid: Grid, spec: RunSpec,
                    clip_logs: Dict, deadline: float, min_samples: int,
                    smoke: bool) -> None:
    """Isolated-layer throughputs, round-robin until the deadline."""
    size = 20_000 if smoke else 200_000
    config = spec.config()
    core_trace = SyntheticWorkload(get_workload(spec.mix[0])).generate(
        grid.instructions, core_id=0)
    calls = sum(len(log) for log in clip_logs.values())
    mismatches: List[int] = []

    def cpu_replay() -> float:
        seconds_, retired = layers.core_replay(config, core_trace)
        report.check(retired == len(core_trace),
                     f"core replay retired {retired}/{len(core_trace)}")
        return retired / seconds_

    def clip_replay() -> float:
        total_s = 0.0
        for clip, log in clip_logs.items():
            seconds_, mismatched = layers.clip_replay(clip.config, log)
            total_s += seconds_
            mismatches.append(mismatched)
        return calls / total_s if total_s else 0.0

    measures = {
        "engine.drain_events_per_s": (
            lambda: bench_engine_drain(size)["events_per_sec"], "events/s"),
        "cache.accesses_per_s": (
            lambda: bench_cache_access(size)["accesses_per_sec"], "1/s"),
        "cpu.replay_instr_per_s": (cpu_replay, "instr/s"),
        "clip.replay_requests_per_s": (clip_replay, "calls/s"),
    }
    samples: Dict[str, List[float]] = {name: [] for name in measures}
    while (min(len(v) for v in samples.values()) < min_samples
           or clock() < deadline):
        for name, (measure, _) in measures.items():
            samples[name].append(measure())
    for name, (_, unit) in measures.items():
        report.add(name, statistics.median(samples[name]), unit)
    report.check(not any(mismatches),
                 f"CLIP replay decisions mismatched: {sum(mismatches)}")


def per_layer(report: Report, workload: Workload, grid: Grid,
              seconds: float, min_samples: int, smoke: bool) -> str:
    deadline = clock() + seconds
    specs = grid.specs()
    _, _, reference = timed_pass(specs)  # warm-up pass
    with HostMeter() as meter:
        for _ in range(min_samples):
            setup_sample(meter, grid, specs)
    report.add("trace.gen_s", meter.median_s("gen"), "s")
    report.add("sim.build_s", meter.median_s("build"), "s")
    digest = grid_digest(reference)
    check_results(report, specs, reference)
    check_property(report, workload, reference)

    untraced_s, events, results = timed_pass(specs)
    report.check(grid_digest(results) == digest,
                 "timed repeats disagree on the result digest")
    simulated_counts(report, reference, events)
    report.add("engine.host_us_per_event", untraced_s / events * 1e6, "us")

    recorder = layers.ClipRecorder()
    tracer, traced_s, traced = traced_pass(specs, recorder)
    report.check(grid_digest(traced) == digest,
                 "tracing changed the result digest")
    total = tracer.total_s
    for layer in layers.LAYERS:
        if layer not in ("clip", "prefetch"):
            report.add(f"{layer}.self_s", tracer.self_s[layer], "s")
        report.add(f"{layer}.share", 100 * tracer.self_s[layer] / total, "%")
        report.add(f"{layer}.calls", tracer.calls[layer], "count")
    report.add("trace.traced_s", total, "s")
    report.add("trace.overhead_x", traced_s / untraced_s, "x")
    if workload.clip_work is not None:
        present = tracer.calls["clip"] > 0 and tracer.calls["prefetch"] > 0
        absent = tracer.calls["clip"] == tracer.calls["prefetch"] == 0
        report.check(present if workload.clip_work else absent,
                     "traced CLIP/prefetch calls contradict the workload")

    batch = []
    for _ in range(3 if len(specs) == 1 else 1):
        batch_s, _, batch_results = timed_pass(specs, backend="batch")
        report.check(grid_digest(batch_results) == digest,
                     "batch backend digest differs from the event one")
        batch.append(sum(r.total_instructions for r in batch_results)
                     / batch_s)
    report.add("engine.batch_instr_per_s", statistics.median(batch),
               "instr/s")

    sweep_layer(report, grid, digest)
    microbenchmarks(report, grid, specs[0], recorder.logs, deadline,
                    min_samples, smoke)
    return digest


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def run_workload(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload]
    grid = workload.grid(args.seed, args.smoke)
    if args.sweep_rep:
        print(json.dumps(sweep_rep(workload.name, grid)))
        return 0
    samples = SMOKE_SAMPLES if args.smoke else MIN_SAMPLES
    report = Report(workload.name)
    print(f"# {workload.name} seed {args.seed} mixes "
          f"{json.dumps(grid.mixes)}")
    digest = "none"
    try:
        if args.trace:
            digest = per_layer(report, workload, grid, args.seconds,
                               samples, args.smoke)
        elif workload.cold_sweep:
            digest = end_to_end_sweep(report, workload, grid, args.seconds,
                                      samples, args.seed, args.smoke)
        else:
            digest = end_to_end_points(report, workload, grid, args.seconds,
                                       samples)
    except Exception:  # a point or pass that raises is a failed check
        traceback.print_exc()
        report.check(False, "a point or pass raised")
        report.emit(digest)
        return 1
    report.emit(digest)
    return 0


def run_subprocess(command: Sequence[str],
                   what: str) -> Tuple[List[str], Dict]:
    """One workload run's output lines and final JSON object.  A run
    that times out or prints no result counts as one failed check."""
    crashed = {"attempted": 1, "failed": 1, "metrics": {}}
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=900)
    except subprocess.TimeoutExpired:
        return [f"# {what} timed out"], crashed
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    try:
        return lines[:-1], json.loads(lines[-1])
    except (IndexError, ValueError):
        return lines + [f"# {what} exited {done.returncode} without a "
                        f"result"], crashed


def run_all(args: argparse.Namespace) -> int:
    """Every workload in both modes, one subprocess at a time."""
    seconds = args.seconds
    collected: Dict[str, Dict] = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(seconds), "--trace", str(trace)]
            if args.smoke:
                command.append("--smoke")
            lines, outcome = run_subprocess(command,
                                            f"{name} --trace {trace}")
            print("\n".join(lines), flush=True)
            entry = collected.setdefault(name, {"attempted": 0, "failed": 0,
                                                "metrics": {}})
            entry["attempted"] += outcome["attempted"]
            entry["failed"] += outcome["failed"]
            entry["metrics"].update(outcome["metrics"])
            for line in lines:
                if line.startswith(f"# {name} digest "):
                    entry[f"digest_trace{trace}"] = line.split()[-1]
    for name, entry in collected.items():
        print(f"# {name} fail_rate {entry['failed']}/{entry['attempted']}")
    attempted = sum(entry["attempted"] for entry in collected.values())
    failed = sum(entry["failed"] for entry in collected.values())
    summary = {"correct": failed == 0, "attempted": attempted,
               "failed": failed, "seed": args.seed, "seconds": seconds,
               "smoke": args.smoke, "workloads": collected}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps({k: summary[k]
                      for k in ("correct", "attempted", "failed")}))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for a quick check")
    parser.add_argument("--out", help="also write the results as JSON")
    parser.add_argument("--sweep-rep", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    refused = [name for name in REFUSED_ENV if os.environ.get(name)]
    if refused:
        parser.error(f"unset {', '.join(refused)}: they change what the "
                     f"benchmark measures")
    if args.seconds is None:
        args.seconds = (0.5 if args.smoke else json.loads(
            (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
