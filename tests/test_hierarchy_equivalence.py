"""Fixed-seed equivalence on the 10 golden-matrix points.

Every point of :mod:`equivalence_points`' golden matrix must reproduce
its pinned ``SimulationResult.to_dict()`` bit for bit: same cycle
counts, same counters, same event interleaving.  A diff here means a
change moved simulated behaviour; the failure names the leaves that
moved.  Re-pin only an intended change, with
``python scripts/regenerate_equivalence_goldens.py``.
"""

from __future__ import annotations

import pytest

from equivalence_points import POINTS, check_result_pin, load_pin


@pytest.mark.parametrize("point", sorted(POINTS))
def test_result_identical_to_pre_refactor_golden(point):
    check_result_pin(point)


def test_points_cover_clip_with_prefetchers():
    """The acceptance criteria require >= 2 points, one with CLIP +
    prefetchers enabled; keep the point set honest."""
    assert len(POINTS) >= 2
    clip_points = []
    for name, build in POINTS.items():
        config, _ = build()
        if config.clip.enabled and config.l1_prefetcher.name != "none":
            clip_points.append(name)
    assert clip_points, "no golden point exercises CLIP + prefetchers"


def test_goldens_have_signal():
    """Goldens must pin non-trivial activity, not an idle machine."""
    for name in POINTS:
        result = load_pin(name)["result"]
        assert result["total_cycles"] > 0
        assert result["dram"]["reads"] > 0
        if name != "none_mcf":
            assert result["prefetch"]["issued"] > 0
