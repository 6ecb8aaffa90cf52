#!/usr/bin/env python
"""Speed gate: check a ``bench/compare.py --out`` report.

    python bench/compare.py --base base/src --change src \\
        --workload ref4_clip --workload core_bound --out compare.json
    python scripts/check_compare.py compare.json

Exits 1, naming each problem, when the report shows

* a ``regressed`` verdict on any end-to-end metric of any workload;
* a failed check in any run of the change;
* a workload with no verdict at all (fewer than two pairs in which both
  sides ran), or no workload: a comparison of nothing passes nothing.

``improved``, ``within bound`` and ``unresolved`` (the base's own runs
spread wider than the bound) pass.  Both sides run one after the other
on the same machine, so the bounds in ``BENCHMARK.json`` hold whatever
the machine's speed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List


def problems(report: Dict) -> List[str]:
    """What fails the gate in ``report``; empty when it passes."""
    if not report:
        return ["the report holds no workload"]
    found = []
    for workload, entry in sorted(report.items()):
        failed = entry["failed"]["change"]
        if failed:
            found.append(f"{workload}: the change failed {failed} check(s)")
        if not entry["verdicts"]:
            found.append(f"{workload}: no pair in which both sides ran")
        for metric, result in sorted(entry["verdicts"].items()):
            if result["verdict"] == "regressed":
                found.append(f"{workload}: {metric} regressed, median "
                             f"{result['gain']:+.1%} against the base")
    return found


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: check_compare.py REPORT", file=sys.stderr)
        return 2
    found = problems(json.loads(Path(argv[0]).read_text()))
    for problem in found:
        print(problem)
    if found:
        return 1
    print(f"{argv[0]}: no regressed metric and no failed check")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
