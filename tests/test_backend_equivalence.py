"""The counter layer on every golden point, and a seeded config fuzz.

* every golden-matrix pin from :mod:`equivalence_points` carries the
  per-component counter layer, and its counters agree with the DRAM
  view (``test_hierarchy_equivalence.py`` proves that a fresh run
  equals each pin, so the checks read the pins);
* a seeded random-config fuzz sweeps core counts, channel counts,
  schemes, and workload mixes the matrix does not cover, and each
  result must equal its pin ``tests/data/equivalence/fuzz/<seed>.json``
  leaf by leaf.

The golden points' full results are compared leaf by leaf in
``test_hierarchy_equivalence.py``.  The fuzz results were first pinned
while a second, batch-stepped engine still had to agree with the event
engine on every config; that engine is gone.  Re-pin with
``python scripts/regenerate_equivalence_goldens.py``.
"""

from __future__ import annotations

import pytest

from equivalence_points import (FUZZ_SEEDS, GOLDEN_DIR, LEARNED_FUZZ_SCHEMES,
                                LEARNED_FUZZ_SEEDS, POINTS, check_result_pin,
                                fuzz_point_spec, fuzz_spec, load_pin)


# ---------------------------------------------------------------------------
# Golden matrix: the hierarchy-equivalence + learned-policy points
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("point", sorted(POINTS))
def test_golden_point_reports_every_counter_group(point):
    pin = load_pin(point)
    result = pin["result"]
    # Guard against vacuous equality on an idle machine.
    assert result["total_cycles"] > 0
    assert result["dram"]["reads"] > 0
    # Counter-layer signal: every expected component group is present
    # and the hierarchy actually moved data.
    counters = result["counters"]
    assert counters, f"no counter groups on point {point!r}"
    for core_id in range(len(pin["workloads"])):
        assert counters[f"core{core_id}.cpu"]["instructions"] > 0
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

def _assert_matches_pinned(seed):
    """Run fuzz ``seed`` and compare it with its pin, leaf by leaf."""
    result = check_result_pin(f"fuzz/{seed}")
    # The per-component counter layer is part of the contract, asserted
    # explicitly so a serialisation change cannot silently drop it.
    assert result["counters"], f"no counter groups on fuzz seed {seed}"
    return fuzz_point_spec(seed), result


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzzed_config_matches_pin(seed):
    _assert_matches_pinned(seed)


@pytest.mark.parametrize("seed", LEARNED_FUZZ_SEEDS)
def test_fuzzed_learned_config_matches_pin(seed):
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
    have exactly one pinned result."""
    a = [fuzz_spec(seed) for seed in FUZZ_SEEDS]
    b = [fuzz_spec(seed) for seed in FUZZ_SEEDS]
    assert a == b
    assert len({spec.cores for spec in a}) > 1
    assert len({spec.channels for spec in a}) > 1
    assert len({spec.scheme for spec in a}) > 1
    learned = [fuzz_spec(seed, schemes=LEARNED_FUZZ_SCHEMES)
               for seed in LEARNED_FUZZ_SEEDS]
    assert learned == [fuzz_spec(seed, schemes=LEARNED_FUZZ_SCHEMES)
                       for seed in LEARNED_FUZZ_SEEDS]
    assert {spec.scheme.learned for spec in learned} == \
        {"bandit", "perceptron"}
    pinned = sorted((path.stem for path in (GOLDEN_DIR / "fuzz").glob(
        "*.json")), key=int)
    assert pinned == [str(seed)
                      for seed in [*FUZZ_SEEDS, *LEARNED_FUZZ_SEEDS]]
