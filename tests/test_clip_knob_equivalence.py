"""Pinned results of CLIP under each of its knobs.

Every golden and fuzz point runs CLIP at its defaults, so none of them
reaches the non-default branches of ``repro.core``: the signature
toggles, page indexing, the stage-I and stage-II filters switched off,
the criticality flag to the NoC and DRAM, the criticality threshold,
the table sizes and dynamic CLIP.  Each knob gets one point
(:func:`equivalence_points.clip_knob_point`): 2 cores running
``623.xalancbmk_s-10B`` + ``tc-14`` with Berti at L1 and 12,000
instructions, at 1 channel (bandwidth-constrained) or, for dynamic
CLIP, at 4 channels, where it bypasses filtering.  Every point runs long
enough for CLIP's phase detector to fire, so the phase pause is covered
too.

Each point's ``SimulationResult.to_dict()`` is pinned in
``tests/data/equivalence/clip_knob/<point>.json`` and compared leaf by
leaf.  Re-pin only for an intended, reviewed behaviour change:
``python scripts/regenerate_equivalence_goldens.py``.
"""

from __future__ import annotations

import pytest

from equivalence_points import (CLIP_KNOB_POINTS, GOLDEN_DIR,
                                check_result_pin, load_pin)


@pytest.mark.parametrize("point", sorted(CLIP_KNOB_POINTS))
def test_clip_knob_point_matches_pinned_digest(point):
    check_result_pin(f"clip_knob/{point}")


def test_every_knob_changes_the_result():
    """A knob whose point equals the default point at the same channel
    count pins nothing: its branch would go untested."""
    pinned = [path.stem for path in (GOLDEN_DIR / "clip_knob").glob(
        "*.json")]
    assert sorted(pinned) == sorted(CLIP_KNOB_POINTS)
    assert len(CLIP_KNOB_POINTS) == 14
    for point, (channels, overrides) in CLIP_KNOB_POINTS.items():
        if overrides:
            assert load_pin(f"clip_knob/{point}")["result"] != \
                load_pin(f"clip_knob/default-{channels}ch")["result"], point
