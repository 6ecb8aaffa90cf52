"""State written by older releases.

Releases with two simulation engines recorded the engine's name as
provenance: a ``"backend"`` field in every result-store entry and in
serve campaign manifests.  Results never depended on it (cache keys
excluded it).  Such a store entry is also a schema-3 entry, which the
schema-5 store (the counter snapshot grew twice) must treat as a miss;
the re-simulated result still reproduces every value it pinned.

Releases whose ``Scheme`` also carried a point's size and Fig. 18's
table scaling wrote those four fields into every manifest's schemes,
null unless set; they resume unchanged.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from equivalence_points import leaf_changes

from repro.cli import main
from repro.experiments.sweep import (CACHE_SCHEMA_VERSION, ResultStore,
                                     RunSpec, Scheme, run_sweep)
from repro.serve.manifest import load_manifest
from repro.serve.wire import spec_to_dict

#: A store holding one entry written by the two-engine release (under
#: the batch engine), verbatim.
OLD_STORE = Path(__file__).parent / "data" / "store_with_backend_field"

#: A finished ``repro serve`` campaign's manifest, written by the release
#: before ``Scheme`` lost ``num_cores``, ``sim_instructions``,
#: ``clip_filter_scale`` and ``clip_predictor_scale`` (every scheme
#: carries them as null), verbatim: berti, berti+clip and their
#: baseline on one 605.mcf core, 500 instructions, one channel.
OLD_MANIFEST = (Path(__file__).parent / "data"
                / "manifest_with_scheme_size_fields.json")

SPEC = RunSpec(scheme=Scheme(l1="berti"), mix=("605.mcf_s-1536B",),
               channels=1, num_cores=1, sim_instructions=500)

#: The groups schema 5 added: the one core's ``cpu`` group, which feeds
#: ``cores`` and ``branch_accuracy``.
ADDED_GROUPS = {"core0.cpu"}

#: Counters schema 4 added to each group kind this berti-only point
#: registers (no CLIP, no criticality predictor).
ADDED_COUNTERS = {
    "l1d": {"late_prefetch_merges", "l1d_miss_latency_sum",
            "l1d_miss_latency_count", "l2_miss_latency_sum",
            "l2_miss_latency_count", "llc_miss_latency_sum",
            "llc_miss_latency_count"},
    "l2": {"late_prefetch_merges"},
    "chain": {"pf_candidates"},
    "noc": {"total_latency"},
    "dram": {"total_read_latency"},
    "llc": set(),
}


def test_store_entry_with_backend_field_is_a_miss(tmp_path):
    shutil.copytree(OLD_STORE, tmp_path / "store")
    store = ResultStore(tmp_path / "store")
    [path] = (tmp_path / "store").glob("*/*.json")
    entry = json.loads(path.read_text())
    assert entry["backend"] == "batch" and entry["schema"] == 3
    assert store.load(path.stem) is None
    outcome = run_sweep([SPEC], store=store)
    assert outcome.cache_hits == 0 and outcome.simulated == 1
    fresh = outcome.results[SPEC].to_dict()
    # Every leaf the old entry pinned survives bit-identically...
    assert [change for change in leaf_changes(entry["result"], fresh)
            if not change.added] == []
    # ...and the only new leaves are the groups schema 5 added and the
    # counters schema 4 added.
    old_counters = entry["result"]["counters"]
    assert set(fresh) == set(entry["result"])
    assert set(fresh["counters"]) == set(old_counters) | ADDED_GROUPS
    for group, values in fresh["counters"].items():
        if group in ADDED_GROUPS:
            continue
        head, _, tail = group.partition(".")
        kind = tail if head.startswith("core") else head
        assert set(values) - set(old_counters[group]) == \
            ADDED_COUNTERS[kind], group


def test_serve_resume_ignores_manifest_backend_field(tmp_path, capsys):
    store = ResultStore(tmp_path / "cache")
    run_sweep([SPEC], store=store)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "version": 1,
        "schema": CACHE_SCHEMA_VERSION,
        "backend": "batch",
        "jobs": [{"spec": spec_to_dict(SPEC), "state": "done",
                  "attempts": 1, "error": None, "producer": "local-0"}],
    }))
    assert load_manifest(manifest)["specs"] == [SPEC]
    code = main(["serve", "--resume", "--manifest", str(manifest),
                 "--cache-dir", str(tmp_path / "cache"), "--workers", "0"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "simulated 0 point(s); 1 of 1 served from the disk cache" in out
    assert "backend" not in json.loads(manifest.read_text())


def test_serve_resumes_manifest_with_removed_scheme_fields(tmp_path,
                                                           capsys):
    manifest = tmp_path / "manifest.json"
    shutil.copy(OLD_MANIFEST, manifest)
    specs = load_manifest(manifest)["specs"]
    assert specs == [RunSpec(scheme=Scheme.parse(name),
                             mix=("605.mcf_s-1536B",), channels=1,
                             num_cores=1, sim_instructions=500)
                     for name in ("berti", "berti+clip", "none")]
    run_sweep(specs, store=ResultStore(tmp_path / "cache"))
    code = main(["serve", "--resume", "--manifest", str(manifest),
                 "--cache-dir", str(tmp_path / "cache"), "--workers", "0"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "simulated 0 point(s); 3 of 3 served from the disk cache" in out
    # Set, a removed field named a point no scheme can spell now.
    payload = json.loads(OLD_MANIFEST.read_text())
    payload["jobs"][0]["spec"]["scheme"]["clip_filter_scale"] = 0.5
    manifest.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="'clip_filter_scale'"):
        load_manifest(manifest)
