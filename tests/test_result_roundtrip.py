"""Serialisation invariance: results round-trip and cache keys hold.

Two pins that make the hot-path ``__slots__`` / dict-fast-path work
safe to land:

* ``SimulationResult.to_dict()/from_dict()`` stays lossless for every
  committed equivalence golden (the goldens double as a corpus of
  realistic, fully-populated result trees);
* ``RunSpec.cache_key()`` is byte-stable -- the keys below were
  captured before the perf refactor, so any accidental change to config
  materialisation (field order, defaults, repr of nested values) or a
  spurious ``CACHE_SCHEMA_VERSION`` bump fails here instead of silently
  invalidating every on-disk sweep cache.
"""

from __future__ import annotations

import json

import pytest

from equivalence_points import GOLDEN_DIR, POINTS

from repro.experiments.sweep import CACHE_SCHEMA_VERSION, RunSpec, Scheme
from repro.sim.stats import SimulationResult


@pytest.mark.parametrize("point", sorted(POINTS))
def test_result_dict_roundtrip_is_lossless(point):
    golden = json.loads((GOLDEN_DIR / f"{point}.json").read_text())
    tree = golden["result"]
    rebuilt = SimulationResult.from_dict(tree)
    assert rebuilt.to_dict() == tree
    # A second hop catches asymmetries between the two directions.
    assert SimulationResult.from_dict(rebuilt.to_dict()).to_dict() == tree


#: (RunSpec factory kwargs, sha256 hex) captured at schema version 4
#: (the counter snapshot became the source of every result view and
#: grew the counters those views read; the materialised config is the
#: one version 3 hashed); see the module docstring before editing.
_PINNED_KEYS = [
    (dict(scheme="berti+clip", mix=("605.mcf_s-1536B",) * 4,
          channels=1, num_cores=4, sim_instructions=8000),
     "c6accde998617c030fb7ce86e5788e7c830ba8219e57e9eda1dbac6f8f009e6d"),
    (dict(scheme="none", mix=("623.xalancbmk_s-10B", "tc-14"),
          channels=1, num_cores=2, sim_instructions=2500),
     "5b8555658424d2dcf3e69387417adcbcc55dec1c1018b1874b3506b57fcf61cc"),
    (dict(scheme="spp_ppf+clip+fdp",
          mix=("619.lbm_s-2676B", "605.mcf_s-1536B"),
          channels=2, num_cores=2, sim_instructions=2500),
     "f0b59ff1d928c3db5418578a39114f12333af1f70cb34a090e02c980fdfbf409"),
    (dict(scheme="bandit", mix=("605.mcf_s-1536B", "619.lbm_s-2676B"),
          channels=1, num_cores=2, sim_instructions=4000),
     "61bf999022a296f315e0314af60fb4ff8913035659fff0054452669b21718351"),
    (dict(scheme="berti+perceptron",
          mix=("605.mcf_s-1536B", "623.xalancbmk_s-10B"),
          channels=1, num_cores=2, sim_instructions=4000),
     "83f5c08ec538edc544879d9cd43997507cb607a22caddcc49e9088931a7b2458"),
]


def test_cache_schema_version_matches_learned_release():
    """Version 3 was the learned-policy release (``SystemConfig.learned``
    joined the materialised config); version 4 changed the ``to_dict``
    layout additively (the counter groups gained the sums every result
    view is derived from), so every version-3 entry must be re-simulated
    (stale entries read as misses, never as load errors).  Bump this pin
    only together with a deliberate schema change."""
    assert CACHE_SCHEMA_VERSION == 4


@pytest.mark.parametrize("kwargs,expected",
                         _PINNED_KEYS,
                         ids=[k[0]["scheme"] for k in _PINNED_KEYS])
def test_sweep_cache_keys_unchanged(kwargs, expected):
    spec = RunSpec(scheme=Scheme.parse(kwargs["scheme"]),
                   mix=kwargs["mix"], channels=kwargs["channels"],
                   num_cores=kwargs["num_cores"],
                   sim_instructions=kwargs["sim_instructions"])
    assert spec.cache_key() == expected
