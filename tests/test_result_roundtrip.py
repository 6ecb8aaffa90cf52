"""Serialisation invariance: results round-trip and cache keys hold.

Two pins that make the hot-path ``__slots__`` / dict-fast-path work
safe to land:

* ``SimulationResult.to_dict()/from_dict()`` stays lossless for every
  committed equivalence golden (the goldens double as a corpus of
  realistic, fully-populated result trees);
* ``RunSpec.cache_key()`` is byte-stable -- five keys are pinned in
  ``tests/data/cache_keys.json``, so any accidental change to config
  materialisation (field order, defaults, repr of nested values) or a
  spurious ``CACHE_SCHEMA_VERSION`` bump fails here instead of silently
  invalidating every on-disk sweep cache.  Beyond the five pins, every
  kind of scheme knob is checked against the ``dataclasses.asdict``
  encoding the key was first defined by.  A deliberate schema change
  re-pins the keys with ``python
  scripts/regenerate_equivalence_goldens.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from equivalence_points import (CACHE_KEY_PIN, KEYED_SPECS, POINTS,
                                assert_unchanged, load_pin)

from repro.criticality import predictor_names
from repro.experiments.sweep import (CACHE_SCHEMA_VERSION, L1_PREFETCHERS,
                                     L2_PREFETCHERS, RunSpec, Scheme)
from repro.sim.stats import SimulationResult
from repro.throttle import throttler_names


@pytest.mark.parametrize("point", sorted(POINTS))
def test_result_dict_roundtrip_is_lossless(point):
    tree = load_pin(point)["result"]
    rebuilt = SimulationResult.from_dict(tree)
    assert rebuilt.to_dict() == tree
    # A second hop catches asymmetries between the two directions.
    assert SimulationResult.from_dict(rebuilt.to_dict()).to_dict() == tree


def test_cache_schema_version_matches_learned_release():
    """Version 3 was the learned-policy release (``SystemConfig.learned``
    joined the materialised config); versions 4 and 5 changed the
    ``to_dict`` layout additively (4: the counter groups gained the sums
    every result view is derived from; 5: the ``core{N}.cpu`` groups and
    CLIP's drop reasons joined the snapshot), so every older entry must
    be re-simulated (stale entries read as misses, never as load
    errors).  Bump this pin only together with a deliberate schema
    change."""
    assert CACHE_SCHEMA_VERSION == 5


@pytest.mark.parametrize("name", KEYED_SPECS)
def test_sweep_cache_keys_unchanged(name):
    pinned = json.loads(CACHE_KEY_PIN.read_text())
    assert_unchanged(f"cache key {name!r}", pinned[name],
                     KEYED_SPECS[name].cache_key())


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
