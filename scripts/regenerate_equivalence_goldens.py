#!/usr/bin/env python3
"""Regenerate the hierarchy-refactor equivalence goldens.

Runs every point in ``tests/equivalence_points.py`` and rewrites the
golden ``SimulationResult.to_dict()`` JSON under
``tests/data/equivalence/``, then reruns every figure and table driver
at its micro scale and rewrites ``tests/data/figure_drivers.json``
(what each returns and prints, and how many points it simulates).
Only run this when a simulator behaviour change is intended and
reviewed -- the whole value of the goldens is that refactors which are
supposed to be behaviour-preserving cannot silently drift.

``--additive`` is the safe mode for result-schema *extensions* (new
counters, new derived columns): it refuses to write unless every leaf
already present in the old golden is bit-identical in the new result,
so only genuinely new fields can land.  A pinned value that moved is an
error, not a rewrite.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

from equivalence_points import (  # noqa: E402
    DRIVER_PIN, GOLDEN_DIR, POINTS, figure_driver_outputs)

from repro.sim.system import run_system  # noqa: E402


def pinned_leaf_changes(old, new, path=""):
    """Leaves present in ``old`` that are missing or different in ``new``.

    New keys in ``new`` are allowed anywhere (that is the point of an
    additive regeneration); anything the old golden pinned must survive
    bit-identically, including list lengths and elements.
    """
    out = []
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old):
            if key not in new:
                out.append(f"  {path}.{key}: pinned leaf disappeared"
                           if path else f"  {key}: pinned leaf disappeared")
            else:
                out.extend(pinned_leaf_changes(
                    old[key], new[key],
                    f"{path}.{key}" if path else str(key)))
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            out.append(f"  {path}: list length {len(old)} -> {len(new)}")
        else:
            for i, (o, n) in enumerate(zip(old, new)):
                out.extend(pinned_leaf_changes(o, n, f"{path}[{i}]"))
    elif old != new:
        out.append(f"  {path}: pinned={old!r} new={new!r}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--additive", action="store_true",
        help="only allow new result fields: every leaf present in the "
             "existing golden must match the fresh run bit-identically, "
             "otherwise nothing is written and the diff is reported")
    args = parser.parse_args(argv)

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    failures = 0
    for name, build in POINTS.items():
        config, mix = build()
        result = run_system(config, mix)
        payload = {"point": name, "workloads": mix,
                   "result": result.to_dict()}
        path = GOLDEN_DIR / f"{name}.json"
        if args.additive and path.exists():
            old = json.loads(path.read_text())
            changes = pinned_leaf_changes(old, payload)
            if changes:
                failures += 1
                print(f"REFUSING {path}: pinned values changed "
                      f"(not additive):")
                print("\n".join(changes[:40]))
                continue
        path.write_text(json.dumps(payload, indent=1, sort_keys=True)
                        + "\n")
        print(f"wrote {path} (total_cycles={result.total_cycles})")

    drivers = figure_driver_outputs()
    if args.additive and DRIVER_PIN.exists():
        changes = pinned_leaf_changes(json.loads(DRIVER_PIN.read_text()),
                                      drivers)
        if changes:
            print(f"REFUSING {DRIVER_PIN}: pinned values changed "
                  f"(not additive):")
            print("\n".join(changes[:40]))
            return 1
    DRIVER_PIN.write_text(json.dumps(drivers, indent=1) + "\n")
    print(f"wrote {DRIVER_PIN} ({len(drivers)} drivers, "
          f"{sum(d['runs'] for d in drivers.values())} points)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
