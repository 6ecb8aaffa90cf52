"""Pinned results of the six baseline criticality predictors.

CATCH, FVP, FP, CBP and ROBO learn from retiring ROB entries (the
core's retire hook, which also hands them the head-stall time and, for
ROBO, the ROB occupancy after the pop); CRISP learns from load
responses.  The golden matrix runs only FVP and CRISP, and no fuzz seed
selects a criticality predictor, so each predictor gets one small point
here, with its prefetch gate on and off: 2 cores, a warm-up long enough
that the retire hooks start mid-run (they are silent during warm-up),
and enough retirements after it to close CATCH's and FP's 2048-retire
intervals.

``RunSpec`` carries no warm-up, so the configs are built directly.  The
sha256 of each point's ``SimulationResult.to_dict()`` is pinned in
``tests/data/equivalence/criticality_digests.json``.  Re-pin only for an
intended, reviewed behaviour change:
``PYTHONPATH=src python tests/test_criticality_equivalence.py`` rewrites
the file from the current simulator.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

import pytest

from equivalence_points import GOLDEN_DIR, result_digest

from repro.config import SystemConfig, scaled_config
from repro.criticality import predictor_names
from repro.sim.system import run_system

DIGESTS_PATH = GOLDEN_DIR / "criticality_digests.json"

MIX = ["605.mcf_s-1536B", "620.omnetpp_s-141B"]


def _point(name: str, gate: bool) -> Tuple[SystemConfig, List[str]]:
    config = scaled_config(num_cores=2, channels=1, sim_instructions=6_000,
                           warmup_instructions=1_000)
    config.criticality.name = name
    config.criticality.gate = gate
    return config, list(MIX)


#: point id -> (predictor name, gate).
POINTS: Dict[str, Tuple[str, bool]] = {
    f"{name}-{'gated' if gate else 'ungated'}": (name, gate)
    for name in predictor_names() for gate in (True, False)
}


def _digest(point: str) -> str:
    config, mix = _point(*POINTS[point])
    return result_digest(run_system(config, mix).to_dict())


@pytest.mark.parametrize("point", sorted(POINTS))
def test_criticality_point_matches_pinned_digest(point):
    pinned = json.loads(DIGESTS_PATH.read_text())["digests"]
    assert _digest(point) == pinned[point], (
        f"criticality point {point!r} diverged from its pinned result")


def test_points_cover_every_predictor_gated_and_not():
    pinned = json.loads(DIGESTS_PATH.read_text())["digests"]
    assert sorted(pinned) == sorted(POINTS)
    assert len(POINTS) == 2 * len(predictor_names()) == 12
    # Gating changes what the prefetcher may issue, so the two results
    # of one predictor must differ: otherwise the gate went untested.
    for name in predictor_names():
        assert pinned[f"{name}-gated"] != pinned[f"{name}-ungated"]


if __name__ == "__main__":
    payload = {
        "about": "sha256 of json.dumps(SimulationResult.to_dict(), "
                 "sort_keys=True) for each criticality-predictor point "
                 "of tests/test_criticality_equivalence.py",
        "digests": {point: _digest(point) for point in sorted(POINTS)},
    }
    DIGESTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"re-pinned {len(payload['digests'])} digests in {DIGESTS_PATH}")
