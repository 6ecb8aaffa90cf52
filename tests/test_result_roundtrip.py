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
  invalidating every on-disk sweep cache.  Beyond the five pins, every
  kind of scheme knob is checked against the ``dataclasses.asdict``
  encoding the key was first defined by.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from equivalence_points import GOLDEN_DIR, POINTS

from repro.criticality import predictor_names
from repro.experiments.sweep import (CACHE_SCHEMA_VERSION, L1_PREFETCHERS,
                                     L2_PREFETCHERS, RunSpec, Scheme)
from repro.sim.stats import SimulationResult
from repro.throttle import throttler_names


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
#: grew the counters those views read), re-pinned when the materialised
#: config lost its 17 dead or fixed settings: no older key can be
#: reached, so the version stayed; see the module docstring before
#: editing.
_PINNED_KEYS = [
    (dict(scheme="berti+clip", mix=("605.mcf_s-1536B",) * 4,
          channels=1, num_cores=4, sim_instructions=8000),
     "33babcbfde2861f98dd916d559299bb0343369ec63b2a8556998abfc9ddd3014"),
    (dict(scheme="none", mix=("623.xalancbmk_s-10B", "tc-14"),
          channels=1, num_cores=2, sim_instructions=2500),
     "19cb1082a89b470f8b20c228ef2babb30467c1d98161e0f6d30a25637f4ff6b3"),
    (dict(scheme="spp_ppf+clip+fdp",
          mix=("619.lbm_s-2676B", "605.mcf_s-1536B"),
          channels=2, num_cores=2, sim_instructions=2500),
     "8525fb45a0417dcd63c8ff81e77d1cd7354d38f10e2f9c7238e2e3dc68bba87d"),
    (dict(scheme="bandit", mix=("605.mcf_s-1536B", "619.lbm_s-2676B"),
          channels=1, num_cores=2, sim_instructions=4000),
     "d225bf8def426d1812f70b784d81df6ef2937531904ad61e488319dff25ac283"),
    (dict(scheme="berti+perceptron",
          mix=("605.mcf_s-1536B", "623.xalancbmk_s-10B"),
          channels=1, num_cores=2, sim_instructions=4000),
     "25c48008eefe6a2bcf6a2aa33bb8a24a6b9dc57838ef5a060fe9e2cf6aef1147"),
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


def asdict_key(spec: RunSpec) -> str:
    """The key as first defined: an ``asdict`` copy of the config fed to
    the same ``json.dumps`` call."""
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "config": dataclasses.asdict(spec.config()),
        "mix": list(spec.mix),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _key_schemes() -> dict:
    """One scheme per knob ``cache_key()`` must encode, by test id."""
    schemes = {head: Scheme.parse(head) for head in
               (*L1_PREFETCHERS, *L2_PREFETCHERS, "bandit", "none")}
    for token in ("clip", "hermes", "dspatch", "perceptron",
                  *predictor_names(), *throttler_names()):
        schemes[f"berti+{token}"] = Scheme.parse(f"berti+{token}")
    schemes["none+bandit"] = Scheme.parse("none+bandit")
    schemes["berti+fvp-measure"] = Scheme.parse("berti+fvp",
                                                crit_gate=False)
    schemes["llc_kib"] = Scheme.parse("berti+clip", llc_kib=256)
    # 12 cores: the little-core overrides run to two-digit ids.
    schemes["big_cores"] = Scheme.parse("berti", num_cores=12, big_cores=2)
    schemes["big_cores-frequency"] = Scheme.parse(
        "berti+clip", num_cores=12, big_cores=5, frequency_ghz=2.5)
    schemes["frequency"] = Scheme.parse("berti+clip", frequency_ghz=3.2)
    schemes["clip_filter_scale"] = Scheme.parse("berti",
                                                clip_filter_scale=0.25)
    schemes["clip_predictor_scale"] = Scheme.parse(
        "berti", clip_predictor_scale=2.0)
    schemes["clip_overrides"] = Scheme.parse(
        "berti", clip_overrides={"use_accuracy_filter": False,
                                 "criticality_count_threshold": 6,
                                 "accuracy_threshold": 0.75})
    schemes["num_cores-sim_instructions"] = Scheme.parse(
        "ipcp+clip", num_cores=3, sim_instructions=3_000)
    return schemes


KEY_SCHEMES = _key_schemes()


@pytest.mark.parametrize("name", sorted(KEY_SCHEMES))
def test_cache_key_matches_asdict_encoding(name):
    scheme = KEY_SCHEMES[name]
    for channels in (1, 2, 8):
        spec = RunSpec(scheme=scheme,
                       mix=("605.mcf_s-1536B",) * (scheme.num_cores or 2),
                       channels=channels, num_cores=2,
                       sim_instructions=2_500)
        assert spec.cache_key() == asdict_key(spec), channels


def test_cache_key_ignores_attributes_outside_the_fields(monkeypatch):
    """``bench/run.py`` sets ``config.backend`` on a built config; an
    attribute that is not a declared field, at any depth, is not part
    of the key."""
    spec = RunSpec(scheme=Scheme.parse("berti+clip"),
                   mix=("605.mcf_s-1536B",) * 2, channels=1, num_cores=2)
    plain = spec.cache_key()
    build = RunSpec.config

    def with_extras(self):
        config = build(self)
        config.backend = "event"
        config.clip.note = "not a field"
        return config

    monkeypatch.setattr(RunSpec, "config", with_extras)
    assert spec.cache_key() == plain == asdict_key(spec)
