"""Integration tests for a served sweep campaign.

The wire form of a sweep point must keep its cache key, and a campaign
run for real -- ``repro serve`` on an ephemeral localhost port plus two
``python -m repro worker`` subprocesses -- must store every point
**bit-identically** (per-point ``to_dict()`` diff) to a serial
``run_sweep`` of the same grid.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments.sweep import (ResultStore, RunSpec, Scheme,
                                     run_sweep)
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


class TestServedCampaign:
    def test_stored_results_match_serial(self, tmp_path, capsys):
        """``repro serve --workers 2`` over localhost stores each point
        of a small grid bit-identically to serial execution."""
        cache = tmp_path / "cache"
        code = main(["serve", "--schemes", "none", "berti", "berti+clip",
                     "--workloads", MIX[0], "--channels", "1",
                     "--cores", str(TINY["num_cores"]),
                     "--instructions", str(TINY["sim_instructions"]),
                     "--workers", "2", "--cache-dir", str(cache)])
        out = capsys.readouterr().out
        assert code == 0, out
        # Every point was simulated by a spawned worker subprocess.
        assert "simulated 3 point(s); 0 of 3 served" in out
        store = ResultStore(cache)
        assert len(store) == 3
        serial = run_sweep(small_grid())
        for spec in small_grid():
            stored = store.load(spec.cache_key())
            assert stored is not None, spec.scheme.label
            assert stored.to_dict() == serial[spec].to_dict(), \
                spec.scheme.label
