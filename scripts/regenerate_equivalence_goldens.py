#!/usr/bin/env python3
"""Re-pin every simulation fact the tests compare against.

One command rewrites, from the current simulator, every pin that
``tests/equivalence_points.py`` names:

* the 50 result pins under ``tests/data/equivalence/``: the full
  ``SimulationResult.to_dict()`` of the 10 golden-matrix points and of
  the 14 fuzz, 12 criticality-predictor and 14 CLIP-knob points;
* ``tests/data/figure_drivers.json``: what every figure and table driver
  returns, prints and simulates at a micro scale;
* ``tests/data/equivalence/trace_digests.json``: the sha256 of every
  generated trace;
* ``tests/data/sanitizer_checks.json``: the sanitizer's per-category
  check counts on three golden points;
* ``tests/data/cache_keys.json``: five sweep cache keys.

It prints what moved.  For each result pin that moved: per-core IPC,
L1D/L2/LLC average miss latency and DRAM reads, old -> new.  Then, for
every pin that moved, the leaves that moved.  Run it only for an
intended, reviewed behaviour change: the whole value of the pins is that
a refactor which should preserve behaviour cannot drift silently.  On
an unchanged simulator it writes nothing.

``--additive`` is the mode for result-schema extensions (new counters,
new derived columns): it writes nothing at all if any pinned value moved
or disappeared, so only new leaves can land.  The cache keys are not
results: an additive schema change bumps ``CACHE_SCHEMA_VERSION``, which
moves every key on purpose, so they are re-pinned in either mode.
Exit status 1 means ``--additive`` refused.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

from equivalence_points import (  # noqa: E402
    CACHE_KEY_PIN, DRIVER_PIN, GOLDEN_DIR, KEYED_SPECS, RESULT_PINS,
    SANITIZED_POINTS, SANITIZER_PIN, TRACE_PIN, LeafChange, all_traces,
    describe, figure_driver_outputs, leaf_changes, pin_path,
    sanitizer_check_counts, simulate_pin, trace_digests)

TRACE_ABOUT = ("sha256 of json.dumps([[ip, op.name, address, taken, dst, "
               "list(srcs)] for each record]) for each generated trace "
               "of tests/test_trace_equivalence.py, keyed "
               "workload/core<id>/<length>")


def _text(tree: object, indent: int = 1, sort_keys: bool = True) -> str:
    return json.dumps(tree, indent=indent, sort_keys=sort_keys) + "\n"


def fresh_pins() -> Dict[Path, Tuple[object, str]]:
    """Every pin file -> (its fresh JSON tree, the text it should hold)."""
    pins: Dict[Path, Tuple[object, str]] = {}
    for name in RESULT_PINS:
        payload = simulate_pin(name)
        pins[pin_path(name)] = (payload, _text(payload))
    drivers = figure_driver_outputs()
    pins[DRIVER_PIN] = (drivers, _text(drivers, sort_keys=False))
    traces = {"about": TRACE_ABOUT, "digests": trace_digests(all_traces())}
    pins[TRACE_PIN] = (traces, _text(traces, indent=2, sort_keys=False))
    checks = {point: sanitizer_check_counts(point)
              for point in SANITIZED_POINTS}
    pins[SANITIZER_PIN] = (checks, _text(checks))
    keys = {name: spec.cache_key() for name, spec in KEYED_SPECS.items()}
    pins[CACHE_KEY_PIN] = (keys, _text(keys))
    return pins


def _summary(result: dict) -> List[str]:
    """Per-core IPC, L1D/L2/LLC average miss latency and DRAM reads."""
    ipc = " ".join(f"{core['instructions'] / core['cycles']:.4f}"
                   if core["cycles"] else "0" for core in result["cores"])
    latencies = [
        f"{level['miss_latency_sum'] / level['miss_latency_count']:.1f}"
        if level["miss_latency_count"] else "0"
        for level in (result["levels"][name]
                      for name in ("L1D", "L2", "LLC"))]
    return [ipc, *latencies, str(result["dram"]["reads"])]


def _summary_table(rows: Dict[str, Tuple[dict, dict]]) -> str:
    """One line per moved result pin, each cell ``old -> new``."""
    header = ["pin", "IPC per core", "L1D miss lat", "L2 miss lat",
              "LLC miss lat", "DRAM reads"]
    table = [header]
    for name, (old, new) in rows.items():
        table.append([name] + [
            before if before == after else f"{before} -> {after}"
            for before, after in zip(_summary(old), _summary(new))])
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    return "\n".join("  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths)).rstrip()
                     for row in table)


def _name(path: Path) -> str:
    return str(path.relative_to(REPO))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Re-pin every simulation fact the tests compare "
                    "against, and print what moved.")
    parser.add_argument(
        "--additive", action="store_true",
        help="write nothing if any pinned value moved or disappeared, so "
             "only new leaves can land (the cache keys are re-pinned "
             "either way)")
    args = parser.parse_args(argv)

    pins = fresh_pins()
    old = {path: json.loads(path.read_text())
           for path in pins if path.exists()}
    changes: Dict[Path, List[LeafChange]] = {
        path: leaf_changes(old[path], tree)
        for path, (tree, _) in pins.items() if path in old}
    new = [path for path in pins if path not in old]
    # Every file under GOLDEN_DIR is a pin, so one no point writes is a
    # pin whose point is gone.
    stale = [path for path in sorted(GOLDEN_DIR.rglob("*.json"))
             if path not in pins]

    moved_results: Dict[str, Tuple[dict, dict]] = {}
    for name in RESULT_PINS:
        path = pin_path(name)
        if changes.get(path):
            moved_results[name] = (old[path]["result"],
                                   pins[path][0]["result"])
    if moved_results:
        print(f"{len(moved_results)} result pin(s) moved "
              f"(old -> new; miss latencies in cycles):")
        print(_summary_table(moved_results))
        print()
    for path, moved in changes.items():
        if moved:
            print(f"{_name(path)}: {len(moved)} leaf change(s)")
            print(describe(moved))
    for path in new:
        print(f"{_name(path)}: new pin")
    for path in stale:
        print(f"{_name(path)}: its point is gone; the pin is removed")

    refused = [path for path, moved in changes.items()
               if path != CACHE_KEY_PIN
               and any(not change.added for change in moved)] + stale
    if args.additive and refused:
        print(f"REFUSING (--additive): {len(refused)} pin(s) lost or "
              f"changed a pinned value; nothing written")
        return 1
    written = 0
    for path, (_, text) in pins.items():
        if path not in old or path.read_text() != text:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            written += 1
    for path in stale:
        path.unlink()
    moved_count = sum(bool(moved) for moved in changes.values())
    print(f"{len(pins)} pins: {moved_count} moved, {len(new)} new, "
          f"{len(stale)} removed; {written} file(s) written")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
