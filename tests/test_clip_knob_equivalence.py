"""Pinned results of CLIP under each of its knobs.

Every golden and fuzz point runs CLIP at its defaults, so none of them
reaches the non-default branches of ``repro.core``: the signature
toggles, page indexing, the stage-I and stage-II filters switched off,
the criticality flag to the NoC and DRAM, the criticality threshold,
the table sizes and dynamic CLIP.  Each knob gets one point here: 2
cores running ``623.xalancbmk_s-10B`` + ``tc-14`` with Berti at L1 and
12,000 instructions, at 1 channel (bandwidth-constrained) or, for
dynamic CLIP, at 4 channels, where it bypasses filtering.  Every point
runs long enough for CLIP's phase detector to fire, so the phase pause
is covered too.

``RunSpec`` cannot express every knob, so the configs are built
directly.  The sha256 of each point's ``SimulationResult.to_dict()`` is
pinned in ``tests/data/equivalence/clip_knob_digests.json``.  Re-pin
only for an intended, reviewed behaviour change:
``PYTHONPATH=src python tests/test_clip_knob_equivalence.py`` rewrites
the file from the current simulator.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Tuple

import pytest

from equivalence_points import GOLDEN_DIR, result_digest

from repro.config import SystemConfig, scaled_config
from repro.sim.system import run_system

DIGESTS_PATH = GOLDEN_DIR / "clip_knob_digests.json"

MIX = ["623.xalancbmk_s-10B", "tc-14"]

_SIGNATURE_TOGGLES = ("signature_use_address",
                      "signature_use_branch_history",
                      "signature_use_criticality_history")

#: point id -> (DRAM channels, ``ClipConfig`` overrides).
POINTS: Dict[str, Tuple[int, Dict[str, object]]] = {
    "default-1ch": (1, {}),
    "default-4ch": (4, {}),
    **{f"{toggle}-off": (1, {toggle: False})
       for toggle in _SIGNATURE_TOGGLES},
    "signature-ip-only": (1, dict.fromkeys(_SIGNATURE_TOGGLES, False)),
    "index_by_page": (1, {"index_by_page": True}),
    "use_criticality_filter-off": (1, {"use_criticality_filter": False}),
    "use_accuracy_filter-off": (1, {"use_accuracy_filter": False}),
    "criticality_conscious_noc_dram-off": (
        1, {"criticality_conscious_noc_dram": False}),
    "criticality_count_threshold-1": (
        1, {"criticality_count_threshold": 1}),
    "tables-half": (1, {"filter_sets": 16, "predictor_sets": 64}),
    "tables-double": (1, {"filter_sets": 64, "predictor_sets": 256}),
    "dynamic-4ch": (4, {"dynamic": True}),
}


def _point(channels: int,
           overrides: Dict[str, object]) -> Tuple[SystemConfig, List[str]]:
    config = scaled_config(num_cores=2, channels=channels,
                           sim_instructions=12_000)
    config.l1_prefetcher = dataclasses.replace(config.l1_prefetcher,
                                               name="berti")
    config.clip = dataclasses.replace(config.clip, enabled=True,
                                      **overrides)
    return config, list(MIX)


def _digest(point: str) -> str:
    config, mix = _point(*POINTS[point])
    return result_digest(run_system(config, mix).to_dict())


@pytest.mark.parametrize("point", sorted(POINTS))
def test_clip_knob_point_matches_pinned_digest(point):
    pinned = json.loads(DIGESTS_PATH.read_text())["digests"]
    assert _digest(point) == pinned[point], (
        f"CLIP knob point {point!r} diverged from its pinned result")


def test_every_knob_changes_the_result():
    """A knob whose point equals the default point at the same channel
    count pins nothing: its branch would go untested."""
    pinned = json.loads(DIGESTS_PATH.read_text())["digests"]
    assert sorted(pinned) == sorted(POINTS)
    assert len(POINTS) == 14
    for point, (channels, overrides) in POINTS.items():
        if overrides:
            assert pinned[point] != pinned[f"default-{channels}ch"], point


if __name__ == "__main__":
    payload = {
        "about": "sha256 of json.dumps(SimulationResult.to_dict(), "
                 "sort_keys=True) for each CLIP knob point of "
                 "tests/test_clip_knob_equivalence.py",
        "digests": {point: _digest(point) for point in sorted(POINTS)},
    }
    DIGESTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"re-pinned {len(payload['digests'])} digests in {DIGESTS_PATH}")
