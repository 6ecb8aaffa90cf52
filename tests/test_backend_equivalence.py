"""Pinned equivalence of the one simulation path, golden points + fuzz.

This module used to run every configuration below under two engines --
the event engine and a batch-stepped one -- and require identical
``SimulationResult.to_dict()``.  The engines agreed everywhere, and the
batch engine's one profitable idea (replaying branch outcomes once per
trace) now lives in the core model itself.  Before the batch engine was
deleted, the agreed result of each seeded fuzz config was pinned as a
sha256 in ``tests/data/equivalence/fuzz_digests.json``; the surviving
path is held to those digests.  The test names are kept from the
two-engine suite; the golden points' agreed results are the goldens
themselves, compared leaf by leaf in ``test_hierarchy_equivalence.py``.

* every golden-matrix point from :mod:`equivalence_points` carries the
  per-component counter layer;
* a seeded random-config fuzz sweeps core counts, channel counts,
  schemes, and workload mixes the matrix does not cover, and each
  result must hash to its pinned digest.

Re-pin the digests only for an intended, reviewed behaviour change:
``PYTHONPATH=src python tests/test_backend_equivalence.py`` rewrites the
file from the current simulator.
"""

from __future__ import annotations

import json
import random

import pytest

from equivalence_points import GOLDEN_DIR, POINTS, result_digest

from repro.experiments.sweep import RunSpec, Scheme
from repro.sim.system import run_system

DIGESTS_PATH = GOLDEN_DIR / "fuzz_digests.json"


def _pinned_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text())["digests"]


# ---------------------------------------------------------------------------
# Golden matrix: the hierarchy-equivalence + learned-policy points
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("point", sorted(POINTS))
def test_batch_matches_event_on_golden_point(point):
    config, mix = POINTS[point]()
    result = run_system(config, mix).to_dict()
    # Guard against vacuous equality on an idle machine.
    assert result["total_cycles"] > 0
    assert result["dram"]["reads"] > 0
    # Counter-layer signal: every expected component group is present
    # and the hierarchy actually moved data.
    counters = result["counters"]
    assert counters, f"no counter groups on point {point!r}"
    for core_id in range(config.num_cores):
        assert f"core{core_id}.l1d" in counters
        assert f"core{core_id}.l2" in counters
        assert f"core{core_id}.chain" in counters
    assert "noc" in counters and counters["noc"]["flit_hops"] > 0
    assert any(group.startswith("dram.ch") for group in counters)
    total_dram_reads = sum(values["reads"] for group, values
                           in counters.items()
                           if group.startswith("dram.ch"))
    assert total_dram_reads == result["dram"]["reads"]


# ---------------------------------------------------------------------------
# Seeded random-config fuzz
# ---------------------------------------------------------------------------

_FUZZ_WORKLOADS = [
    "605.mcf_s-1536B", "602.gcc_s-1850B", "619.lbm_s-2676B",
    "620.omnetpp_s-141B", "623.xalancbmk_s-10B", "649.fotonik3d_s-10881B",
    "bfs-14", "pr-14", "cc-14", "tc-14",
]

_FUZZ_SCHEMES = [
    "none", "berti", "berti+clip", "ipcp", "ipcp+clip", "stride",
    "streamer+clip", "spp_ppf", "bingo", "berti+fvp", "berti+fdp",
]

#: The learned schemes fuzz on their own seed range so adding them did
#: not reshuffle the draws (and hence the coverage) of seeds 0..7.
_LEARNED_FUZZ_SCHEMES = [
    "bandit", "berti+perceptron", "bandit+fdp", "berti+perceptron+clip",
    "streamer+perceptron",
]

_FUZZ_SEEDS = range(8)
_LEARNED_FUZZ_SEEDS = range(100, 106)


def _fuzz_spec(seed, schemes=None):
    rng = random.Random(seed)
    cores = rng.choice([1, 2, 4])
    return RunSpec(
        scheme=Scheme.parse(rng.choice(schemes or _FUZZ_SCHEMES)),
        mix=tuple(rng.choice(_FUZZ_WORKLOADS) for _ in range(cores)),
        channels=rng.choice([1, 2]),
        num_cores=cores,
        sim_instructions=rng.choice([800, 1_500, 2_000]),
    )


def _spec_for_seed(seed):
    return _fuzz_spec(seed, _LEARNED_FUZZ_SCHEMES
                      if seed in _LEARNED_FUZZ_SEEDS else None)


def _assert_matches_pinned(seed):
    """Run fuzz ``seed`` and compare against its pinned digest."""
    spec = _spec_for_seed(seed)
    result = run_system(spec.config(), list(spec.mix)).to_dict()
    assert result_digest(result) == _pinned_digests()[str(seed)], (
        f"fuzz seed {seed} ({spec.scheme.label} x{spec.cores} "
        f"ch{spec.channels}) diverged from the pinned two-engine result")
    # The per-component counter layer is part of the contract, asserted
    # explicitly so a serialisation change cannot silently drop it.
    assert result["counters"], f"no counter groups on fuzz seed {seed}"
    return spec, result


@pytest.mark.parametrize("seed", _FUZZ_SEEDS)
def test_batch_matches_event_on_fuzzed_config(seed):
    _assert_matches_pinned(seed)


@pytest.mark.parametrize("seed", _LEARNED_FUZZ_SEEDS)
def test_batch_matches_event_on_fuzzed_learned_config(seed):
    """Learned policies carry the most update-order-sensitive state in
    the simulator (bandit Q tables, perceptron weights, xorshift
    streams); fuzz them like any static scheme."""
    spec, result = _assert_matches_pinned(seed)
    # The policy must actually have run: its counters join the chain
    # group on every core.
    for core_id in range(spec.cores):
        chain = result["counters"][f"core{core_id}.chain"]
        assert chain["policy_epochs"] >= 0


def test_fuzz_specs_are_deterministic_and_diverse():
    """The fuzz points must stay stable run-to-run (same seeds -> same
    specs), actually vary the knobs the golden matrix fixes, and each
    have exactly one pinned digest."""
    a = [_fuzz_spec(seed) for seed in _FUZZ_SEEDS]
    b = [_fuzz_spec(seed) for seed in _FUZZ_SEEDS]
    assert a == b
    assert len({spec.cores for spec in a}) > 1
    assert len({spec.channels for spec in a}) > 1
    assert len({spec.scheme for spec in a}) > 1
    learned = [_fuzz_spec(seed, schemes=_LEARNED_FUZZ_SCHEMES)
               for seed in _LEARNED_FUZZ_SEEDS]
    assert learned == [_fuzz_spec(seed, schemes=_LEARNED_FUZZ_SCHEMES)
                       for seed in _LEARNED_FUZZ_SEEDS]
    assert {spec.scheme.learned for spec in learned} == \
        {"bandit", "perceptron"}
    assert sorted(_pinned_digests(), key=int) == \
        [str(seed) for seed in [*_FUZZ_SEEDS, *_LEARNED_FUZZ_SEEDS]]


if __name__ == "__main__":
    payload = json.loads(DIGESTS_PATH.read_text())
    for seed in [*_FUZZ_SEEDS, *_LEARNED_FUZZ_SEEDS]:
        spec = _spec_for_seed(seed)
        payload["digests"][str(seed)] = result_digest(
            run_system(spec.config(), list(spec.mix)).to_dict())
    DIGESTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"re-pinned {len(payload['digests'])} digests in {DIGESTS_PATH}")
