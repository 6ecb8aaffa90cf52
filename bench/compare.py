"""Paired A/B comparison of two checkouts on the benchmark.

    python bench/compare.py --base ../parent/src --change src

Each side is a directory put on ``PYTHONPATH`` (a checkout's ``src``);
both sides run this checkout's ``bench/run.py``, so the benchmark code
and settings are identical, and each run measures for ``run_seconds``
from ``BENCHMARK.json``.  For every workload, 10 pairs run one after
another, alternating which side goes first; pair ``i`` uses seed ``i``
on both sides.  For every end-to-end metric
the report gives each side's median and quartiles, the change's win
rate, and a verdict:

* ``improved``     -- the change wins at least 9 of every 10 pairs (ties
  count for neither) and the medians differ, in the better direction,
  by more than the base's interquartile range;
* ``unresolved``   -- the base's own spread is wider than the metric's
  bound and not every change run reads better than every base run;
* ``regressed``    -- the change's median is worse than the base's by
  more than the bound in ``BENCHMARK.json``;
* ``within bound`` -- otherwise.

Comparing a checkout with itself is the benchmark's two-set check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Alternating pairs per workload; pair ``i`` runs seed ``i``.
PAIRS = 10


def run_once(src: str, workload: str, seed: int, seconds: float) -> Dict:
    """One ``--trace 0`` run against ``src``; its final JSON object."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        return {"correct": False, "attempted": 1, "failed": 1,
                "metrics": {}}
    return json.loads(lines[-1])


def quartiles(values: Sequence[float]) -> List[float]:
    """(q1, median, q3) as ``statistics.quantiles`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return [q1, median, q3]


def verdict(base: Sequence[float], change: Sequence[float], higher: bool,
            bound: float, more_failures: bool = False) -> Dict:
    """Medians, quartiles, win rate and verdict for paired samples.  A
    gain needs wins in nine tenths of all pairs run, crashed ones
    included, and does not count when the change failed more checks."""
    sign = 1 if higher else -1
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (c_med - b_med) / b_med
    spread = (b_q3 - b_q1) / b_med
    all_better = (min(change) > max(base) if higher
                  else max(change) < min(base))
    if (wins >= 0.9 * PAIRS and gain > 0 and not more_failures
            and abs(c_med - b_med) > b_q3 - b_q1):
        outcome = "improved"
    elif spread > bound and not all_better:
        outcome = "unresolved"
    elif gain < -bound:
        outcome = "regressed"
    else:
        outcome = "within bound"
    return {"base": [b_q1, b_med, b_q3], "change": [c_q1, c_med, c_q3],
            "base_spread": spread,
            "change_spread": (c_q3 - c_q1) / c_med,
            "gain": gain, "wins": wins, "pairs": PAIRS,
            "verdict": outcome}


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True,
                        help="PYTHONPATH of the parent (its src)")
    parser.add_argument("--change", required=True,
                        help="PYTHONPATH of the change (its src)")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="repeatable; default: every workload")
    parser.add_argument("--out", help="also write raw runs and verdicts")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    report: Dict[str, Dict] = {}
    for workload in workloads:
        runs: Dict[str, List[Dict]] = {"base": [], "change": []}
        for seed in range(PAIRS):
            order = ("base", "change") if seed % 2 == 0 else (
                "change", "base")
            for side in order:
                runs[side].append(run_once(getattr(args, side), workload,
                                           seed, spec["run_seconds"]))
        failed = {side: sum(r["failed"] for r in rs)
                  for side, rs in runs.items()}
        usable = [i for i in range(PAIRS)
                  if runs["base"][i]["metrics"]
                  and runs["change"][i]["metrics"]]
        print(f"{workload}: {len(usable)}/{PAIRS} usable pairs, "
              f"failed checks base {failed['base']} "
              f"change {failed['change']}")
        verdicts = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [runs["base"][i]["metrics"][name]["value"]
                    for i in usable]
            change = [runs["change"][i]["metrics"][name]["value"]
                      for i in usable]
            if len(usable) < 2:
                continue
            result = verdict(base, change, metric["better"] == "higher",
                             metric["bound"],
                             failed["change"] > failed["base"])
            verdicts[name] = result
            print(f"  {name:18} base {result['base'][1]:.6g} "
                  f"[{result['base'][0]:.6g}, {result['base'][2]:.6g}] "
                  f"change {result['change'][1]:.6g} "
                  f"[{result['change'][0]:.6g}, {result['change'][2]:.6g}] "
                  f"spread {result['base_spread']:.3f}/"
                  f"{result['change_spread']:.3f} "
                  f"gain {result['gain']:+.3f} "
                  f"wins {result['wins']}/{result['pairs']} "
                  f"bound {metric['bound']} -> {result['verdict']}",
                  flush=True)
        report[workload] = {"runs": runs, "failed": failed,
                            "verdicts": verdicts}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
