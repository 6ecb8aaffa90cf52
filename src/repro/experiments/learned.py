"""Head-to-head figure: CLIP vs learned selection vs learned filtering.

The ROADMAP's learned-scheme-family question, answered at the paper's
bandwidth-constrained operating point: does a contextual-bandit
prefetcher *selector* (arxiv 2307.08635 idiom) or a hashed-perceptron
prefetch *filter* (arxiv 2403.15181 / PPF idiom) recover the trade
CLIP's hand-built criticality filter makes -- performance without
spending saturated DRAM bandwidth?

Every scheme is scored by weighted speedup against the shared
no-prefetching baseline on each mix, at the scaled constrained channel
count, so the comparison isolates the control policy: the bandit picks
*which* prefetcher runs, the perceptron and CLIP pick *which
candidates* an always-on Berti may issue.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.experiments.report import print_figure
from repro.experiments.runner import ExperimentRunner
from repro.experiments.statistics import geometric_mean
from repro.experiments.sweep import Scheme

#: The head-to-head contenders: unfiltered Berti as the spend-everything
#: reference, CLIP's hand-built filter, bandit-learned selection, and
#: perceptron-learned filtering.
LEARNED_SCHEMES = ("berti", "berti+clip", "bandit", "berti+perceptron")


def learned_study(runner: Optional[ExperimentRunner] = None,
                  schemes: Sequence[str] = LEARNED_SCHEMES,
                  sample: int = 3,
                  quiet: bool = False) -> Dict:
    """Compare static and learned prefetch control under constrained
    bandwidth across ``sample`` homogeneous workload mixes.

    Returns per-scheme per-mix weighted speedups, geomeans, and
    per-scheme prefetch traffic (mean issued / filter-dropped per core),
    so the table shows not just who wins but how much bandwidth each
    policy chose to spend.
    """
    runner = runner if runner is not None else ExperimentRunner()
    workloads = runner.scale.sample_homogeneous()[:sample]
    channels = runner.scale.constrained_channels
    parsed = [Scheme.parse(name) for name in schemes]
    mixes = runner.homogeneous(workloads)

    # One batched sweep over every (scheme x mix) plus the shared
    # baselines: jobs>1 fans out, warm reruns are pure cache hits.
    ratios = runner.speedups(parsed, mixes, [channels])
    results = runner.results(parsed, mixes, [channels])

    speedups: Dict[str, Dict[str, float]] = {}
    traffic: Dict[str, Dict[str, float]] = {}
    for name, scheme in zip(schemes, parsed):
        per_mix = dict(zip(workloads, ratios[scheme, channels]))
        per_mix["geomean"] = geometric_mean(
            [per_mix[workload] for workload in workloads])
        speedups[name] = per_mix
        runs = [results[runner.spec(scheme, mix, channels)]
                for mix in mixes]
        cores = max(1, sum(len(result.cores) for result in runs))
        traffic[name] = {
            "issued_per_core":
                sum(result.prefetch.issued for result in runs) / cores,
            "dropped_per_core":
                sum(result.prefetch.dropped_filter for result in runs)
                / cores,
        }

    if not quiet:
        rows = []
        for name in schemes:
            rows.append([name]
                        + [speedups[name][workload]
                           for workload in workloads]
                        + [speedups[name]["geomean"],
                           traffic[name]["issued_per_core"],
                           traffic[name]["dropped_per_core"]])
        print_figure(
            f"Learned prefetch control vs CLIP "
            f"({channels} channel(s), weighted speedup vs none)",
            ["scheme"] + list(workloads)
            + ["geomean", "pf/core", "dropped/core"],
            rows)
        best = max(schemes, key=lambda name: speedups[name]["geomean"])
        print(f"best geomean: {best} "
              f"({speedups[best]['geomean']:.3f})")

    return {
        "channels": channels,
        "workloads": list(workloads),
        "speedups": speedups,
        "traffic": traffic,
    }


__all__ = ["LEARNED_SCHEMES", "learned_study"]
