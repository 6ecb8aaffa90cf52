"""Tests for the typed sweep API: Scheme/RunSpec/Sweep, the parallel
executor, the on-disk result store, and result serialisation."""

from __future__ import annotations

import collections
import json
import re

import pytest

from repro.config import SystemConfig
from repro.experiments import BenchScale, ExperimentRunner
from repro.experiments.sweep import (CACHE_SCHEMA_VERSION, L1_PREFETCHERS,
                                     L2_PREFETCHERS, ResultStore, RunSpec,
                                     Scheme, Sweep, execute_spec, run_sweep)
from repro.sim.stats import SimulationResult
from repro.trace.mixes import homogeneous_mix

MIX = tuple(homogeneous_mix("605.mcf_s-1536B", 2))
TINY = dict(num_cores=2, sim_instructions=1_000)


def tiny_spec(scheme: Scheme, channels: int = 1,
              mix=MIX) -> RunSpec:
    return RunSpec(scheme=scheme, mix=mix, channels=channels, **TINY)


def _with_result(entry: dict, **fields) -> dict:
    return {**entry, "result": {**entry["result"], **fields}}


#: Store entries that are valid JSON of the wrong shape, each built from
#: a good entry; ``ResultStore.load`` must read every one as a miss.
WRONG_SHAPES = {
    "top-level-list": lambda entry: [entry],
    "top-level-string": lambda entry: "entry",
    "levels-a-list": lambda entry: _with_result(
        entry, levels=list(entry["result"]["levels"].values())),
    "counters-a-list": lambda entry: _with_result(
        entry, counters=list(entry["result"]["counters"].values())),
    "counter-group-a-list-of-strings": lambda entry: _with_result(
        entry, counters={"core0.l1d": ["abc"]}),
}


class TestScheme:
    def test_parse_maps_levels(self):
        assert Scheme.parse("berti").l1 == "berti"
        assert Scheme.parse("bingo").l2 == "bingo"
        assert Scheme.parse("spp_ppf+clip") == Scheme(l2="spp_ppf",
                                                      clip=True)
        assert Scheme.parse("none") == Scheme()

    def test_parse_tokens(self):
        scheme = Scheme.parse("berti+clip")
        assert scheme.l1 == "berti" and scheme.clip
        assert Scheme.parse("berti+hermes").hermes
        assert Scheme.parse("berti+fvp").criticality == "fvp"
        assert Scheme.parse("berti+nst").throttle == "nst"

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            Scheme.parse("oracle")
        with pytest.raises(ValueError, match="unknown scheme token"):
            Scheme.parse("berti+warp")

    def test_label_round_trips(self):
        for name in ("none", "berti", "bingo", "berti+clip",
                     "spp_ppf+clip", "berti+hermes", "berti+dspatch",
                     "bandit", "berti+perceptron", "bandit+fdp"):
            assert Scheme.parse(name).label == name

    @pytest.mark.parametrize("l1", L1_PREFETCHERS)
    @pytest.mark.parametrize("l2", L2_PREFETCHERS)
    @pytest.mark.parametrize("clip", [False, True])
    def test_two_level_label_parses_back(self, l1, l2, clip):
        scheme = Scheme(l1=l1, l2=l2, clip=clip)
        assert Scheme.parse(scheme.label) == scheme

    def test_l2_token_needs_an_l1_head(self):
        with pytest.raises(ValueError, match="unknown scheme token"):
            Scheme.parse("bingo+spp_ppf")
        with pytest.raises(ValueError, match="unknown scheme token"):
            Scheme.parse("none+bingo")

    def test_parse_learned_tokens(self):
        assert Scheme.parse("bandit").learned == "bandit"
        assert Scheme.parse("bandit").l1 == "none"
        perceptron = Scheme.parse("berti+perceptron")
        assert perceptron.l1 == "berti"
        assert perceptron.learned == "perceptron"
        # The learned token canonicalises after clip in the label.
        assert Scheme.parse("berti+perceptron+clip").label \
            == "berti+clip+perceptron"

    def test_learned_config_materialises_and_validates(self):
        config = Scheme.parse("bandit").build_config(
            channels=1, num_cores=1, sim_instructions=500)
        assert config.learned.policy == "bandit"
        config.validate()
        # A bandit scheme owns the L1 slot: a static L1 prefetcher
        # alongside it must be rejected.
        import dataclasses
        config.l1_prefetcher = dataclasses.replace(config.l1_prefetcher,
                                                   name="berti")
        with pytest.raises(ValueError, match="bandit"):
            config.validate()

    def test_clip_overrides_canonical_order(self):
        a = Scheme(l1="berti", clip_overrides={"b": 1, "a": 2})
        b = Scheme(l1="berti", clip_overrides={"a": 2, "b": 1})
        assert a == b and hash(a) == hash(b)

    def test_baseline_keeps_structural_knobs_only(self):
        scheme = Scheme(l1="berti", clip=True, criticality="fvp",
                        llc_kib=64, frequency_ghz=3.2, big_cores=1)
        base = scheme.baseline()
        assert base == Scheme(llc_kib=64, frequency_ghz=3.2, big_cores=1)

    def test_build_config_applies_structural_knobs(self):
        """The machine's size comes from the arguments, the structural
        knobs from the scheme."""
        scheme = Scheme(l1="berti", llc_kib=64)
        config = scheme.build_config(channels=1, num_cores=4,
                                     sim_instructions=1_000)
        assert config.num_cores == 4
        assert config.sim_instructions == 1_000
        assert config.llc_slice.size_kib == 64
        assert config.l1_prefetcher.name == "berti"


class TestRunSpec:
    def test_mix_length_validated(self):
        with pytest.raises(ValueError, match="mix length"):
            RunSpec(scheme=Scheme(), mix=("a",), channels=1, **TINY)

    def test_cache_key_ignores_override_order(self):
        # Regression: the legacy runner keyed on repr(overrides), so two
        # dicts with different insertion order missed the cache.
        a = tiny_spec(Scheme(l1="berti",
                             clip_overrides={"use_accuracy_filter": False,
                                             "dynamic": True}))
        b = tiny_spec(Scheme(l1="berti",
                             clip_overrides={"dynamic": True,
                                             "use_accuracy_filter": False}))
        assert a == b
        assert a.cache_key() == b.cache_key()

    def test_cache_key_distinguishes_configs(self):
        berti = tiny_spec(Scheme(l1="berti"))
        assert berti.cache_key() != tiny_spec(Scheme()).cache_key()
        assert (berti.cache_key()
                != tiny_spec(Scheme(l1="berti"), channels=2).cache_key())

    def test_cache_key_embeds_schema_version(self, monkeypatch):
        spec = tiny_spec(Scheme())
        before = spec.cache_key()
        monkeypatch.setattr("repro.experiments.sweep.CACHE_SCHEMA_VERSION",
                            CACHE_SCHEMA_VERSION + 1)
        assert spec.cache_key() != before


class TestSweep:
    def test_product_and_dedup(self):
        schemes = [Scheme(), Scheme(l1="berti")]
        sweep = Sweep.product(schemes, [MIX], [1, 2], **TINY)
        assert len(sweep) == 4
        assert Sweep(list(sweep) * 2).specs == sweep.specs  # de-duplicated

    def test_with_baselines_adds_reference_points(self):
        sweep = Sweep.product([Scheme(l1="berti")], [MIX], [1], **TINY)
        expanded = sweep.with_baselines()
        assert len(expanded) == 2
        assert any(spec.scheme == Scheme() for spec in expanded)


class TestSerialisation:
    def test_round_trip_through_json(self):
        result = SimulationResult.from_dict(
            execute_spec(tiny_spec(Scheme(l1="berti"))))
        data = json.loads(json.dumps(result.to_dict()))
        rebuilt = SimulationResult.from_dict(data)
        assert rebuilt.to_dict() == result.to_dict()
        assert rebuilt.ipc_per_core == result.ipc_per_core
        assert rebuilt.levels["L1D"].demand_accesses == \
            result.levels["L1D"].demand_accesses


class TestExecutor:
    SPECS = [tiny_spec(Scheme()), tiny_spec(Scheme(l1="berti")),
             tiny_spec(Scheme(l1="berti", clip=True)),
             tiny_spec(Scheme(), channels=2)]

    def test_parallel_matches_serial(self):
        serial = run_sweep(self.SPECS, jobs=1)
        parallel = run_sweep(self.SPECS, jobs=4)
        assert serial.simulated == parallel.simulated == len(self.SPECS)
        assert ({s: r.to_dict() for s, r in serial.results.items()}
                == {s: r.to_dict() for s, r in parallel.results.items()})

    def test_result_keeps_sweep_order(self):
        """``run_sweep`` returns the points in sweep order, without
        repeats, and finds a point by its coordinates."""
        specs = [self.SPECS[2], self.SPECS[0], self.SPECS[3]]
        swept = run_sweep(specs + [specs[0]])
        assert swept.specs == tuple(specs)
        assert swept.simulated == 3 and swept.cache_hits == 0
        assert list(swept) == [swept[spec] for spec in specs]
        assert swept.only("berti+clip") is swept[specs[0]]
        assert swept.find(channels=1) == [swept[specs[0]], swept[specs[1]]]
        with pytest.raises(LookupError, match="0 sweep points match"):
            swept.only("berti")
        with pytest.raises(LookupError, match="2 sweep points match"):
            swept.only(Scheme())

    def test_unwritable_entry_keeps_the_result(self, tmp_path):
        """The store is a cache: a point whose entry cannot be written
        still returns its result, with a warning naming the entry, and
        the next sweep over the store simulates it again."""
        store = ResultStore(tmp_path)
        spec = self.SPECS[0]
        path = store.path_for(spec.cache_key())
        path.mkdir(parents=True)
        with pytest.warns(RuntimeWarning, match=re.escape(str(path))):
            first = run_sweep([spec], store=store)
        assert first.simulated == 1
        with pytest.warns(RuntimeWarning, match="not written"):
            again = run_sweep([spec], store=store)
        assert again.simulated == 1 and again.cache_hits == 0
        assert again[spec].to_dict() == first[spec].to_dict()
        assert path.is_dir()

    def test_store_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = run_sweep(self.SPECS[:2], jobs=1, store=store)
        assert cold.simulated == 2 and cold.cache_hits == 0
        warm = run_sweep(self.SPECS[:2], jobs=1, store=store)
        assert warm.simulated == 0 and warm.cache_hits == 2
        assert ({s: r.to_dict() for s, r in cold.results.items()}
                == {s: r.to_dict() for s, r in warm.results.items()})

    def test_one_cache_key_per_point(self, tmp_path, monkeypatch):
        """A key materialises and validates the whole config, so a
        store-backed point computes it once: the cold pass reuses the
        lookup's key for the save."""
        calls = []
        cache_key = RunSpec.cache_key

        def counted(spec):
            calls.append(spec)
            return cache_key(spec)

        monkeypatch.setattr(RunSpec, "cache_key", counted)
        store = ResultStore(tmp_path)
        cold = run_sweep(self.SPECS[:1], store=store)
        assert cold.simulated == 1 and len(calls) == 1
        calls.clear()
        warm = run_sweep(self.SPECS[:1], store=store)
        assert warm.cache_hits == 1 and len(calls) == 1

    def test_config_work_per_point(self, tmp_path, monkeypatch):
        """A cold point builds its config twice (the key, the run) and
        validates it three times (each build, then ``MulticoreSystem``);
        a warm point builds and validates it once, for its key."""
        calls = collections.Counter()

        def count(owner, name):
            method = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(Scheme, "build_config")
        count(SystemConfig, "validate")
        store = ResultStore(tmp_path)
        cold = run_sweep(self.SPECS[:1], store=store)
        assert cold.simulated == 1
        assert calls == {"build_config": 2, "validate": 3}
        calls.clear()
        warm = run_sweep(self.SPECS[:1], store=store)
        assert warm.cache_hits == 1
        assert calls == {"build_config": 1, "validate": 1}

    def test_store_rejects_other_schema_version(self, tmp_path,
                                                monkeypatch):
        store = ResultStore(tmp_path)
        spec = self.SPECS[0]
        run_sweep([spec], store=store)
        key = spec.cache_key()
        assert store.load(key) is not None
        payload = json.loads(store.path_for(key).read_text())
        payload["schema"] = CACHE_SCHEMA_VERSION + 1
        store.path_for(key).write_text(json.dumps(payload))
        assert store.load(key) is None

    def test_stale_schema_entry_is_a_miss_not_an_error(self, tmp_path):
        """A cache written before the schema bump (version 1, results
        without the counter/energy fields) must read as a miss and be
        re-simulated -- never raise out of ``load`` or ``run_sweep``."""
        store = ResultStore(tmp_path)
        spec = self.SPECS[0]
        key = spec.cache_key()
        fresh = run_sweep([spec], store=store)
        payload = json.loads(store.path_for(key).read_text())
        # Rewind the entry to the previous release: old version number
        # and a result lacking every field the counter layer added.
        payload["schema"] = CACHE_SCHEMA_VERSION - 1
        for gone in ("counters", "energy_mj", "edp_mj_s",
                     "energy_breakdown_mj"):
            payload["result"].pop(gone)
        store.path_for(key).write_text(json.dumps(payload))
        assert store.load(key) is None
        outcome = run_sweep([spec], store=store)
        assert outcome.simulated == 1 and outcome.cache_hits == 0
        # The re-run repopulated the entry at the current schema.
        assert store.load(key) is not None
        assert (outcome.results[spec].to_dict()
                == fresh.results[spec].to_dict())

    def test_store_ignores_corrupt_entry(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = self.SPECS[0]
        key = spec.cache_key()
        store.path_for(key).parent.mkdir(parents=True)
        store.path_for(key).write_text("{not json")
        assert store.load(key) is None
        outcome = run_sweep([spec], store=store)
        assert outcome.simulated == 1

    @pytest.mark.parametrize("content", [b"", b'{"label": "caf\xe9"}'],
                             ids=["empty", "not-utf-8"])
    def test_store_reads_unreadable_bytes_as_miss(self, tmp_path, content):
        """An empty entry and one that is not UTF-8 are misses: the
        point is re-simulated and its entry overwritten."""
        store = ResultStore(tmp_path)
        spec = self.SPECS[0]
        key = spec.cache_key()
        path = store.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(content)
        assert store.load(key) is None
        outcome = run_sweep([spec], store=store)
        assert outcome.simulated == 1 and outcome.cache_hits == 0
        assert (store.load(key).to_dict()
                == outcome.results[spec].to_dict())

    def test_store_reads_directory_at_entry_path_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = self.SPECS[0].cache_key()
        store.path_for(key).mkdir(parents=True)
        assert store.load(key) is None

    @pytest.mark.parametrize("shape", sorted(WRONG_SHAPES))
    def test_store_reads_wrong_shape_as_miss(self, tmp_path, shape):
        """Valid JSON of another shape used to raise ``AttributeError``
        (``payload.get`` on a list or string, ``.items()`` on a list) or
        ``ValueError`` (``dict()`` of a list of strings) out of
        ``run_sweep``; it is a miss, and the point is re-simulated."""
        store = ResultStore(tmp_path)
        spec = self.SPECS[0]
        key = spec.cache_key()
        fresh = run_sweep([spec], store=store)
        entry = json.loads(store.path_for(key).read_text())
        store.path_for(key).write_text(
            json.dumps(WRONG_SHAPES[shape](entry)))
        assert store.load(key) is None
        outcome = run_sweep([spec], store=store)
        assert outcome.simulated == 1 and outcome.cache_hits == 0
        assert (outcome.results[spec].to_dict()
                == fresh.results[spec].to_dict())

    def test_concurrent_writers_never_corrupt_an_entry(self, tmp_path):
        """Regression: ``save`` used to write through one fixed temp
        path per key, so two concurrent writers (distributed-sweep
        workers landing the same point, threads sharing a pid) could
        interleave truncate/rename and leave a torn entry.  With
        unique temp files + atomic rename, every read during the storm
        sees a complete, loadable entry."""
        import threading

        store = ResultStore(tmp_path)
        spec = self.SPECS[0]
        key = spec.cache_key()
        outcome = run_sweep([spec], store=store)
        expected = outcome.results[spec].to_dict()
        failures = []

        def writer():
            try:
                for _ in range(40):
                    store.save(key, spec, outcome.results[spec])
            except BaseException as exc:
                failures.append(exc)

        def reader():
            try:
                for _ in range(200):
                    loaded = store.load(key)
                    assert loaded is not None, "torn cache entry"
                    assert loaded.to_dict() == expected
            except BaseException as exc:
                failures.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(6)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not failures, failures
        # The storm leaves exactly the entry, no stray temp files.
        assert store.load(key).to_dict() == expected
        leftovers = [p for p in store.path_for(key).parent.iterdir()
                     if p.suffix != ".json"]
        assert leftovers == []


class TestRunnerIntegration:
    SCALE = BenchScale(num_cores=2, sim_instructions=1_000,
                       channel_sweep=(1, 2), constrained_channels=1,
                       homogeneous_sample=2, heterogeneous_mixes=1)

    def test_warm_rerun_skips_simulation(self, tmp_path):
        store = ResultStore(tmp_path)
        sweep = Sweep.product([Scheme(), Scheme(l1="berti")], [MIX],
                              [1, 2], **TINY)
        cold = ExperimentRunner(self.SCALE, store=store)
        cold.run_sweep(sweep)
        assert cold.runs == len(sweep)
        warm = ExperimentRunner(self.SCALE, store=store)
        results = warm.run_sweep(sweep)
        assert warm.runs == 0
        assert set(results) == set(sweep)

    def test_parallel_runner_matches_serial(self, tmp_path):
        sweep = Sweep.product([Scheme(), Scheme(l1="ipcp")], [MIX], [1],
                              **TINY)
        serial = ExperimentRunner(self.SCALE).run_sweep(sweep)
        parallel = ExperimentRunner(self.SCALE, jobs=2).run_sweep(sweep)
        assert ({s: r.to_dict() for s, r in serial.items()}
                == {s: r.to_dict() for s, r in parallel.items()})

    def test_memo_prevents_duplicate_disk_reads(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = ExperimentRunner(self.SCALE, store=store)
        spec = tiny_spec(Scheme(l1="berti"))
        first = runner.run_sweep([spec])[spec]
        # memo, not a fresh from_dict
        assert runner.run_sweep([spec])[spec] is first
