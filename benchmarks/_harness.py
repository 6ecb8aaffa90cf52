"""Benchmark-suite scale and helpers.

All figure benchmarks share one :class:`ExperimentRunner` (see conftest)
so the hundreds of simulations behind the paper's figures are executed
once per session — and at most once per *machine*: the runner persists
results in the ``.repro-cache/`` store, so re-invoking any benchmark
re-simulates nothing (``REPRO_NO_CACHE=1`` opts out, ``REPRO_JOBS=N``
parallelises cold runs).  The scale is deliberately small (DESIGN.md
section 2); pass a larger :class:`BenchScale` to the drivers for
higher-fidelity runs.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict

from repro.experiments import BenchScale
from repro.experiments import hotpath

#: Committed hot-path performance baseline (see docs/performance.md).
BENCH_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_PR7.json"

#: The scale every benchmark runs at.  8 cores with 1 scaled channel carry
#: the paper's constrained 8-cores-per-channel pressure.
BENCH_SCALE = BenchScale(
    num_cores=8,
    sim_instructions=8_000,
    channel_sweep=(1, 2, 4, 8, 16),
    constrained_channels=1,
    homogeneous_sample=6,
    heterogeneous_mixes=4,
)


def run_once(benchmark, func, *args, **kwargs):
    """Run a driver exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


def hotpath_baseline(payload: Dict) -> Dict:
    """The committed hot-path baseline to compare ``payload`` against.

    When no baseline exists yet (first run on a fresh checkout), or when
    ``REPRO_BENCH_WRITE=1`` requests a re-pin, the fresh payload is
    written to :data:`BENCH_BASELINE` and also returned -- the
    comparison then trivially passes, and the new file is ready to be
    reviewed and committed.
    """
    if os.environ.get("REPRO_BENCH_WRITE") or not BENCH_BASELINE.exists():
        hotpath.write_payload(payload, BENCH_BASELINE)
        return payload
    baseline = hotpath.load_baseline(BENCH_BASELINE)
    assert baseline is not None
    return baseline


def hotpath_tolerance() -> float:
    """Allowed end-to-end slowdown vs the committed baseline (the CI
    perf-smoke job widens this for noisy shared runners)."""
    return float(os.environ.get("REPRO_BENCH_TOLERANCE", "0.25"))
