"""Hot-path microbenchmarks: engine drain, cache access, end-to-end.

Unlike the figure benchmarks (which time cached *experiments*), these
time the simulator itself and maintain the repo's performance baseline,
``BENCH_PR7.json``:

* on a checkout without the baseline (or with ``REPRO_BENCH_WRITE=1``)
  the suite writes a fresh one, ready to be reviewed and committed;
* otherwise the end-to-end point is compared against the committed
  number and the suite fails on a regression past
  ``REPRO_BENCH_TOLERANCE`` (default 25%) -- the CI perf-smoke job runs
  exactly this.

``repro bench`` is the CLI face of the same suite
(:mod:`repro.experiments.hotpath`).
"""

from __future__ import annotations

from _harness import hotpath_baseline, hotpath_tolerance, run_once

from repro.experiments.hotpath import (bench_cache_access,
                                       bench_end_to_end,
                                       bench_engine_drain, run_suite)


def test_engine_drain(benchmark):
    result = run_once(benchmark, bench_engine_drain)
    assert result["events_per_sec"] > 0
    assert result["events"] == 200_000


def test_cache_access(benchmark):
    result = run_once(benchmark, bench_cache_access)
    assert result["accesses_per_sec"] > 0
    # The pattern must exercise both the hit fast path and evictions.
    assert 0.25 < result["hit_rate"] < 0.99


def test_end_to_end_point(benchmark):
    result = run_once(benchmark, bench_end_to_end)
    assert result["instructions"] == 40_000
    assert result["total_cycles"] > 0


def test_against_committed_baseline(benchmark):
    """The perf-smoke gate: end-to-end within tolerance of the baseline."""
    from repro.experiments.hotpath import compare_to_baseline

    payload = run_once(benchmark, run_suite, repeats=3, quiet=True)
    baseline = hotpath_baseline(payload)
    failures = compare_to_baseline(payload, baseline, hotpath_tolerance())
    assert not failures, "; ".join(failures)
