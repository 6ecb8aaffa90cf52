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
  invalidating every on-disk sweep cache.  Beyond the five pins, two
  specs over every kind of scheme knob share a key exactly when the
  ``dataclasses.asdict`` encoding the key was first defined by is equal
  for both, which is exactly when their materialised configs and mixes
  are equal, and every leaf of a materialised config moves
  :func:`~repro.experiments.sweep.config_key`.
  A deliberate key change re-pins the keys with ``python
  scripts/regenerate_equivalence_goldens.py --additive``.
"""

from __future__ import annotations

import copy
import dataclasses
import json

import pytest

from equivalence_points import (CACHE_KEY_PIN, KEYED_SPECS, POINTS,
                                assert_unchanged, load_pin)

from repro.criticality import predictor_names
from repro.experiments.sweep import (CACHE_SCHEMA_VERSION, L1_PREFETCHERS,
                                     L2_PREFETCHERS, RunSpec, Scheme,
                                     config_key)
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
    CLIP's drop reasons joined the snapshot); version 6 counts the
    caches' ``writebacks``, which every older entry holds as 0.  So
    every older entry must be re-simulated (stale entries read as
    misses, never as load errors).  Bump this pin only together with a
    deliberate schema change."""
    assert CACHE_SCHEMA_VERSION == 6


@pytest.mark.parametrize("name", KEYED_SPECS)
def test_sweep_cache_keys_unchanged(name):
    pinned = json.loads(CACHE_KEY_PIN.read_text())
    assert_unchanged(f"cache key {name!r}", pinned[name],
                     KEYED_SPECS[name].cache_key())


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
    schemes["big_cores"] = Scheme.parse("berti", big_cores=2)
    schemes["big_cores-frequency"] = Scheme.parse(
        "berti+clip", big_cores=5, frequency_ghz=2.5)
    schemes["frequency"] = Scheme.parse("berti+clip", frequency_ghz=3.2)
    # Fig. 18's table sizes: a quarter of the filter, twice the
    # predictor.
    schemes["clip_filter_scale"] = Scheme.parse(
        "berti", clip_overrides={"filter_sets": 8})
    schemes["clip_predictor_scale"] = Scheme.parse(
        "berti", clip_overrides={"predictor_sets": 256})
    schemes["clip_overrides"] = Scheme.parse(
        "berti", clip_overrides={"use_accuracy_filter": False,
                                 "criticality_count_threshold": 6,
                                 "accuracy_threshold": 0.75})
    schemes["num_cores-sim_instructions"] = Scheme.parse("ipcp+clip")
    return schemes


KEY_SCHEMES = _key_schemes()

#: (cores, instructions) of the knobs that size the machine; every
#: other knob runs 2 cores x 2,500 instructions.  12 cores: the
#: little-core overrides run to two-digit ids.
KEY_SIZES = {"big_cores": (12, 2_500), "big_cores-frequency": (12, 2_500),
             "num_cores-sim_instructions": (3, 3_000)}


#: The only knobs that build the same config: ``bandit`` and
#: ``none+bandit`` parse to one scheme.
SAME_CONFIG = {"bandit": {"none+bandit"}, "none+bandit": {"bandit"}}


@pytest.fixture(scope="module")
def keyed_specs():
    """(config, mix, ``asdict`` encoding, key) of every knob at 1, 2
    and 8 channels, by (test id, channels)."""
    specs = {}
    for name, scheme in KEY_SCHEMES.items():
        cores, instructions = KEY_SIZES.get(name, (2, 2_500))
        for channels in (1, 2, 8):
            spec = RunSpec(scheme=scheme,
                           mix=("605.mcf_s-1536B",) * cores,
                           channels=channels, num_cores=cores,
                           sim_instructions=instructions)
            config = spec.config()
            encoding = json.dumps(
                {"config": dataclasses.asdict(config),
                 "mix": list(spec.mix)},
                sort_keys=True, default=repr)
            specs[name, channels] = (config, spec.mix, encoding,
                                     spec.cache_key())
    return specs


@pytest.mark.parametrize("name", sorted(KEY_SCHEMES))
def test_cache_key_matches_asdict_encoding(name, keyed_specs):
    """The key was first a hash of the ``asdict`` encoding of the
    config and mix.  The ``repr`` key shares exactly where that
    encoding does, against every other knob at every channel count,
    and that is exactly where the configs and mixes are equal."""
    shared = set()
    for channels in (1, 2, 8):
        config, mix, encoding, key = keyed_specs[name, channels]
        for other, (other_config, other_mix, other_encoding,
                    other_key) in keyed_specs.items():
            same = other_encoding == encoding
            assert same == (other_config == config and other_mix == mix)
            assert (other_key == key) == same, other
            if same and other != (name, channels):
                assert other[1] == channels, other
                shared.add(other[0])
    assert shared == SAME_CONFIG.get(name, set())


def _leaves(value, path=()):
    """(path, value) of every leaf under a config: a path step is a
    field name, or a key of a map of configs."""
    if dataclasses.is_dataclass(value):
        for item in dataclasses.fields(value):
            yield from _leaves(getattr(value, item.name),
                               path + (item.name,))
    elif isinstance(value, dict):
        for key, nested in value.items():
            yield from _leaves(nested, path + (key,))
    else:
        yield path, value


def _other(value):
    """A value of the same type that differs from ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, tuple):
        return value + ("x",)
    raise TypeError(f"no key check for a {type(value).__name__} leaf")


def test_every_config_leaf_moves_the_key():
    """The key hashes ``repr(config)``, so a field left out of a
    dataclass ``repr`` (``repr=False``, a hand-written ``__repr__``)
    would let two different configs share a cache entry.  Each core's
    workload moves the key too."""
    spec = RunSpec(scheme=Scheme.parse("berti+clip", big_cores=1),
                   mix=("605.mcf_s-1536B",) * 2, channels=1, num_cores=2)
    config = spec.config()
    assert list(config.core_overrides) == [1]
    plain = config_key(config, spec.mix)
    leaves = list(_leaves(config))
    assert any(path[0] == "core_overrides" for path, _ in leaves)
    for path, value in leaves:
        changed = copy.deepcopy(config)
        parent = changed
        for step in path[:-1]:
            parent = (parent[step] if isinstance(parent, dict)
                      else getattr(parent, step))
        setattr(parent, path[-1], _other(value))
        assert config_key(changed, spec.mix) != plain, path
    for core in range(len(spec.mix)):
        mix = spec.mix[:core] + ("602.gcc_s-1850B",) + spec.mix[core + 1:]
        assert config_key(config, mix) != plain, mix


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
    assert spec.cache_key() == plain
