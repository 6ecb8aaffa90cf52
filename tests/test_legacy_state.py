"""State written before the simulation-backend option was removed.

Releases with two simulation engines recorded the engine's name as
provenance: a ``"backend"`` field in every result-store entry and in
serve campaign manifests.  Results never depended on it (cache keys
excluded it), so such state must keep loading unchanged.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from repro.cli import main
from repro.experiments.sweep import (CACHE_SCHEMA_VERSION, ResultStore,
                                     RunSpec, Scheme, run_sweep)
from repro.serve.manifest import load_manifest
from repro.serve.wire import spec_to_dict

#: A store holding one entry written by the two-engine release (under
#: the batch engine), verbatim.
OLD_STORE = Path(__file__).parent / "data" / "store_with_backend_field"

SPEC = RunSpec(scheme=Scheme(l1="berti"), mix=("605.mcf_s-1536B",),
               channels=1, num_cores=1, sim_instructions=500)


def test_store_entry_with_backend_field_is_a_cache_hit(tmp_path):
    shutil.copytree(OLD_STORE, tmp_path / "store")
    store = ResultStore(tmp_path / "store")
    key = SPEC.cache_key()
    entry = json.loads(store.path_for(key).read_text())
    assert entry["backend"] == "batch"
    outcome = run_sweep([SPEC], store=store)
    assert outcome.cache_hits == 1 and outcome.simulated == 0
    assert outcome.results[SPEC].to_dict() == entry["result"]
    # The entry is also exactly what simulating today produces.
    assert run_sweep([SPEC]).results[SPEC].to_dict() == entry["result"]


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
