"""Pinned results of the six baseline criticality predictors.

CATCH, FVP, FP, CBP and ROBO learn from retiring ROB entries (the
core's retire hook, which also hands them the head-stall time and, for
ROBO, the ROB occupancy after the pop); CRISP learns from load
responses.  The golden matrix runs only FVP and CRISP, and no fuzz seed
selects a criticality predictor, so each predictor gets one small point
(:func:`equivalence_points.criticality_point`), with its prefetch gate
on and off.

Each point's ``SimulationResult.to_dict()`` is pinned in
``tests/data/equivalence/criticality/<point>.json`` and compared leaf
by leaf.  Re-pin only for an intended, reviewed behaviour change:
``python scripts/regenerate_equivalence_goldens.py``.
"""

from __future__ import annotations

import pytest

from equivalence_points import (CRITICALITY_POINTS, GOLDEN_DIR,
                                check_result_pin, load_pin)

from repro.criticality import predictor_names


@pytest.mark.parametrize("point", sorted(CRITICALITY_POINTS))
def test_criticality_point_matches_pinned_digest(point):
    check_result_pin(f"criticality/{point}")


def test_points_cover_every_predictor_gated_and_not():
    pinned = [path.stem for path in (GOLDEN_DIR / "criticality").glob(
        "*.json")]
    assert sorted(pinned) == sorted(CRITICALITY_POINTS)
    assert len(CRITICALITY_POINTS) == 2 * len(predictor_names()) == 12
    # Gating changes what the prefetcher may issue, so the two results
    # of one predictor must differ: otherwise the gate went untested.
    for name in predictor_names():
        assert load_pin(f"criticality/{name}-gated")["result"] != \
            load_pin(f"criticality/{name}-ungated")["result"]
