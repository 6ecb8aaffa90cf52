"""Integration tests for distributed sweep execution.

These spin up the real thing: a coordinator on an ephemeral localhost
port plus actual ``python -m repro worker`` subprocesses, then assert
the distributed result set is **bit-identical** (per-point
``to_dict()`` diff) to a serial ``run_sweep`` of the same grid.
"""

from __future__ import annotations

import warnings

import pytest

from repro import api
from repro.experiments.sweep import (ResultStore, RunSpec, Scheme,
                                     run_sweep)
from repro.serve import executor as serve_executor
from repro.serve.wire import spec_from_dict, spec_to_dict
from repro.trace.mixes import homogeneous_mix

MIX = tuple(homogeneous_mix("605.mcf_s-1536B", 2))
TINY = dict(num_cores=2, sim_instructions=800)


def tiny_spec(scheme: Scheme, channels: int = 1) -> RunSpec:
    return RunSpec(scheme=scheme, mix=MIX, channels=channels, **TINY)


def small_grid() -> list:
    return [tiny_spec(Scheme()), tiny_spec(Scheme(l1="berti")),
            tiny_spec(Scheme(l1="berti", clip=True))]


class TestWire:
    """The worker-protocol wire form of a sweep point."""

    SCHEMES = (
        Scheme(),
        Scheme(l1="berti"),
        Scheme(l2="bingo", clip=True),
        Scheme(l1="berti", clip=True,
               clip_overrides={"accuracy_threshold": 0.5,
                               "criticality_count_threshold": 2}),
        Scheme(l1="berti", hermes=True, criticality="fvp",
               llc_kib=256),
    )

    @pytest.mark.parametrize("scheme", SCHEMES,
                             ids=[s.label for s in SCHEMES])
    def test_round_trip_preserves_spec_and_cache_key(self, scheme):
        spec = tiny_spec(scheme)
        rebuilt = spec_from_dict(spec_to_dict(spec))
        assert rebuilt == spec
        assert rebuilt.cache_key() == spec.cache_key()

    def test_wire_form_is_json_safe(self):
        import json
        spec = tiny_spec(self.SCHEMES[3])
        payload = json.loads(json.dumps(spec_to_dict(spec)))
        assert spec_from_dict(payload) == spec


class TestDistributedRunSweep:
    def test_matches_serial_per_point(self, tmp_path):
        """Coordinator + 2 real worker subprocesses over localhost
        complete a small grid bit-identically to serial execution."""
        grid = small_grid()
        serial = run_sweep(grid)
        store = ResultStore(tmp_path / "cache")
        distributed = run_sweep(grid, jobs=2, store=store,
                                executor="distributed")
        assert set(distributed.results) == set(serial.results)
        for spec in grid:
            assert distributed.results[spec].to_dict() == \
                serial.results[spec].to_dict(), spec.scheme.label
        # Every point was simulated by a spawned worker subprocess.
        assert distributed.simulated == len(grid)
        producers = {distributed.provenance[spec] for spec in grid}
        assert producers <= {f"local-{i}" for i in range(2)}

    def test_warm_rerun_is_all_cache_hits(self, tmp_path):
        grid = small_grid()[:2]
        store = ResultStore(tmp_path / "cache")
        cold = run_sweep(grid, jobs=2, store=store,
                         executor="distributed")
        warm = run_sweep(grid, jobs=2, store=store,
                         executor="distributed")
        assert warm.simulated == 0
        assert warm.cache_hits == len(grid)
        for spec in grid:
            assert warm.results[spec].to_dict() == \
                cold.results[spec].to_dict()
            assert warm.provenance[spec] == "cache"

    def test_fallback_to_local_when_workers_cannot_spawn(
            self, tmp_path, monkeypatch):
        """No worker can start -> RuntimeWarning + local completion."""
        def refuse(url, worker_id):
            raise OSError("spawn refused for test")
        monkeypatch.setattr(serve_executor, "spawn_worker", refuse)
        grid = small_grid()[:2]
        serial = run_sweep(grid)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = run_sweep(grid, jobs=2,
                                store=ResultStore(tmp_path / "cache"),
                                executor="distributed")
        assert any(issubclass(w.category, RuntimeWarning)
                   and "falling back" in str(w.message)
                   for w in caught)
        for spec in grid:
            assert outcome.results[spec].to_dict() == \
                serial.results[spec].to_dict()

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            run_sweep(small_grid()[:1], executor="carrier-pigeon")


class TestApiSweep:
    def test_provenance_surfaces_through_api(self, tmp_path):
        result = api.sweep(["berti"], [MIX], jobs=2,
                           cache=str(tmp_path / "cache"),
                           executor="distributed",
                           **TINY)
        [spec] = list(result.specs)
        assert result.producer(spec).startswith("local-")
        # Warm pass through the same cache: served without simulating.
        warm = api.sweep(["berti"], [MIX], jobs=2,
                         cache=str(tmp_path / "cache"),
                         executor="distributed",
                         **TINY)
        [spec] = list(warm.specs)
        assert warm.producer(spec) == "cache"
        assert warm[spec].to_dict() == result[spec].to_dict()
