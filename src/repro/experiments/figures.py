"""Drivers that regenerate every table and figure of the paper.

Each driver prints the paper's rows/series at a scaled-down configuration
(see :class:`repro.experiments.runner.BenchScale` and DESIGN.md section 2)
and returns the numbers for programmatic use.  The scaled channel axis maps
to the paper's channel axis by cores-per-channel: with the default 8-core
scale, 1 scaled channel corresponds to the paper's 8-channel (constrained)
point and 8-16 scaled channels to its 64-channel (unconstrained) point.

Drivers describe their grid as typed :class:`~repro.experiments.sweep.Scheme`
values and hand it to the runner whole: ``runner.results`` and
``runner.speedups`` run every (scheme x mix x channel) point and its
no-prefetching baseline as one batch before any point is read, and
:func:`speedup_series` turns the speedups into the per-channel geomean
series most figures plot.  A driver that reads no baseline hands
``runner.run_sweep`` only the points it reads.  A runner constructed
with ``jobs > 1`` fans the independent simulations across processes,
and one constructed with a :class:`~repro.experiments.sweep.ResultStore`
serves warm reruns from disk.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional, Sequence, TypeVar

from repro.analysis.invariants import check
from repro.config import ClipConfig, SystemConfig
from repro.core.storage import storage_overhead, storage_table
from repro.criticality import predictor_names
from repro.energy import dynamic_energy
from repro.experiments.report import print_figure
from repro.experiments.runner import ExperimentRunner
from repro.experiments.statistics import arithmetic_mean, geometric_mean
from repro.experiments.sweep import Scheme
from repro.sim.stats import weighted_speedup
from repro.throttle import throttler_names
from repro.trace.workloads import CLOUDSUITE_WORKLOADS, CVP_WORKLOADS

#: Prefetchers compared throughout the evaluation (paper Figs. 1, 2, 9, 19).
PREFETCHER_SCHEMES = ["berti", "ipcp", "bingo", "spp_ppf"]

Label = TypeVar("Label", bound=Hashable)


def _runner(runner: Optional[ExperimentRunner]) -> ExperimentRunner:
    return runner if runner is not None else ExperimentRunner()


def _sampled(runner: ExperimentRunner) -> List[List[str]]:
    """The homogeneous mixes of the scale's sampled workloads."""
    return runner.homogeneous(runner.scale.sample_homogeneous())


def speedup_series(runner: ExperimentRunner,
                   schemes: Mapping[Label, Scheme],
                   mixes: Sequence[Sequence[str]],
                   channels: Sequence[int]) -> Dict[Label, List[float]]:
    """Each labelled scheme's geomean weighted speedup over ``mixes``,
    one value per channel count: the series most figures plot."""
    speedups = runner.speedups(list(schemes.values()), mixes, channels)
    return {label: [geometric_mean(speedups[scheme, ch]) for ch in channels]
            for label, scheme in schemes.items()}


def print_series(title: str, header: str, series: Dict[str, List[float]],
                 channels: Sequence[int]) -> None:
    """Print one row per series, one column per channel count."""
    print_figure(title, [header] + [f"ch={c}" for c in channels],
                 [[label] + values for label, values in series.items()])


def _constrained(runner: ExperimentRunner,
                 schemes: Mapping[Label, Scheme],
                 mixes: Sequence[Sequence[str]]) -> Dict[Label, float]:
    """Each scheme's geomean speedup over ``mixes`` at the constrained
    channel count."""
    channels = runner.scale.constrained_channels
    series = speedup_series(runner, schemes, mixes, [channels])
    return {label: values[0] for label, values in series.items()}


# ---------------------------------------------------------------------------
# Figures 1-3: the problem (prefetchers under constrained bandwidth)
# ---------------------------------------------------------------------------

def figure1(runner: Optional[ExperimentRunner] = None,
            quiet: bool = False) -> Dict:
    """Fig. 1: prefetcher weighted speedup vs DRAM channels (homogeneous).

    Paper shape: every prefetcher loses against no-prefetching at the
    constrained end and wins at the unconstrained end.
    """
    runner = _runner(runner)
    mixes = _sampled(runner)
    channels = list(runner.scale.channel_sweep)
    schemes = {name: Scheme.parse(name) for name in PREFETCHER_SCHEMES}
    series = speedup_series(runner, schemes, mixes, channels)
    if not quiet:
        print_series("Figure 1: normalized weighted speedup, homogeneous "
                     "mixes", "prefetcher", series, channels)
    return {"channels": channels, "series": series}


def figure2(runner: Optional[ExperimentRunner] = None,
            quiet: bool = False) -> Dict:
    """Fig. 2: prefetcher weighted speedup vs channels (heterogeneous)."""
    runner = _runner(runner)
    channels = list(runner.scale.channel_sweep)
    schemes = {name: Scheme.parse(name) for name in PREFETCHER_SCHEMES}
    series = speedup_series(runner, schemes, runner.heterogeneous(),
                            channels)
    if not quiet:
        print_series("Figure 2: normalized weighted speedup, heterogeneous "
                     "mixes", "prefetcher", series, channels)
    return {"channels": channels, "series": series}


def figure3(runner: Optional[ExperimentRunner] = None,
            quiet: bool = False) -> Dict:
    """Fig. 3: demand miss latency inflation (Berti / no-prefetching).

    Paper shape: >=1.9x at L2/LLC for 4-8 channels, shrinking with more
    channels.
    """
    runner = _runner(runner)
    mixes = _sampled(runner)
    channels = list(runner.scale.channel_sweep)
    levels = ["L1D", "L2", "LLC"]
    berti = Scheme.parse("berti")
    results = runner.results([berti], mixes, channels)
    inflation: Dict[str, List[float]] = {level: [] for level in levels}
    for ch in channels:
        ratios: Dict[str, List[float]] = {level: [] for level in levels}
        for mix in mixes:
            base = results[runner.spec(berti.baseline(), mix, ch)]
            with_pf = results[runner.spec(berti, mix, ch)]
            for level in levels:
                base_latency = base.levels[level].average_miss_latency
                if base_latency > 0:
                    ratios[level].append(
                        with_pf.levels[level].average_miss_latency
                        / base_latency)
        for level in levels:
            inflation[level].append(arithmetic_mean(ratios[level]))
    if not quiet:
        rows = [[level] + inflation[level] for level in levels]
        print_figure("Figure 3: average demand miss latency with Berti, "
                     "normalized to no prefetching",
                     ["level"] + [f"ch={c}" for c in channels], rows)
    return {"channels": channels, "inflation": inflation}


# ---------------------------------------------------------------------------
# Figures 4-6: why existing solutions fall short
# ---------------------------------------------------------------------------

def figure4(runner: Optional[ExperimentRunner] = None,
            quiet: bool = False) -> Dict:
    """Fig. 4: accuracy and coverage of baseline criticality predictors.

    Measured in the presence of Berti prefetching, against the paper's
    ground truth (load stalls the ROB head while serviced beyond L1).
    Paper shape: high coverage, low accuracy.
    """
    runner = _runner(runner)
    mixes = _sampled(runner)
    channels = runner.scale.constrained_channels
    measured = {name: Scheme.parse("berti", criticality=name,
                                   crit_gate=False)
                for name in predictor_names()}
    results = runner.run_sweep(runner.spec(scheme, mix, channels)
                               for scheme in measured.values()
                               for mix in mixes)
    accuracy: Dict[str, float] = {}
    coverage: Dict[str, float] = {}
    for name, scheme in measured.items():
        accs, covs = [], []
        for mix in mixes:
            result = results[runner.spec(scheme, mix, channels)]
            check(result.criticality is not None,
                  "run with criticality=%r returned no measurement", name)
            accs.append(result.criticality.accuracy)
            covs.append(result.criticality.coverage)
        accuracy[name] = arithmetic_mean(accs)
        coverage[name] = arithmetic_mean(covs)
    if not quiet:
        rows = [[name, accuracy[name], coverage[name]]
                for name in predictor_names()]
        print_figure("Figure 4: criticality prediction accuracy/coverage "
                     "of prior predictors",
                     ["predictor", "accuracy", "coverage"], rows)
    return {"accuracy": accuracy, "coverage": coverage}


def _both_mixes(runner: ExperimentRunner, figure: str, title: str,
                schemes: Dict[str, Scheme], quiet: bool) -> Dict:
    """Figs. 5, 6 and 21: each scheme's speedup series over the
    homogeneous sample and over the heterogeneous mixes, at the first
    three channel counts."""
    channels = list(runner.scale.channel_sweep[:3])
    homog = speedup_series(runner, schemes, _sampled(runner), channels)
    heterog = speedup_series(runner, schemes, runner.heterogeneous(),
                             channels)
    if not quiet:
        print_series(f"Figure {figure}a: {title} (homogeneous)", "scheme",
                     homog, channels)
        print_series(f"Figure {figure}b: {title} (heterogeneous)", "scheme",
                     heterog, channels)
    return {"channels": channels, "homogeneous": homog,
            "heterogeneous": heterog}


def figure5(runner: Optional[ExperimentRunner] = None,
            quiet: bool = False) -> Dict:
    """Fig. 5: Berti gated by baseline criticality predictors.

    Paper shape: none of the prior predictors rescues Berti at low
    bandwidth.
    """
    gated = {"berti": Scheme.parse("berti")}
    for name in predictor_names():
        gated[f"berti+{name}"] = Scheme.parse("berti", criticality=name)
    return _both_mixes(_runner(runner), "5",
                       "Berti + criticality predictors", gated, quiet)


def figure6(runner: Optional[ExperimentRunner] = None,
            quiet: bool = False) -> Dict:
    """Fig. 6: Berti with prefetch throttlers (FDP/HPAC/SPAC/NST).

    Paper shape: marginal improvements; big slowdowns remain.
    """
    throttled = {"berti": Scheme.parse("berti")}
    for name in throttler_names():
        throttled[f"berti+{name}"] = Scheme.parse("berti", throttle=name)
    return _both_mixes(_runner(runner), "6", "Berti + throttlers",
                       throttled, quiet)


# ---------------------------------------------------------------------------
# Figures 9-16: CLIP's key results
# ---------------------------------------------------------------------------

def figure9(runner: Optional[ExperimentRunner] = None,
            quiet: bool = False) -> Dict:
    """Fig. 9: CLIP with the four prefetchers at the constrained point.

    Paper: CLIP improves Berti by 24% (homog) and 9% (heterog) at 8
    channels for 64 cores.
    """
    runner = _runner(runner)
    channels = runner.scale.constrained_channels
    variants = channel_sweep_schemes()
    homog = _constrained(runner, variants, _sampled(runner))
    heterog = _constrained(runner, variants, runner.heterogeneous())
    if not quiet:
        rows = [[s, homog[s], homog[s + "+clip"], heterog[s],
                 heterog[s + "+clip"]] for s in PREFETCHER_SCHEMES]
        print_figure(f"Figure 9: CLIP at the constrained point "
                     f"(ch={channels})",
                     ["prefetcher", "homog", "homog+CLIP", "heterog",
                      "heterog+CLIP"], rows)
    return {"homogeneous": homog, "heterogeneous": heterog}


def _per_mix_runs(runner: ExperimentRunner,
                  workloads: Sequence[str]) -> Dict[str, Dict]:
    """Shared per-mix Berti vs Berti+CLIP runs (Figs. 10, 11, 14-16)."""
    channels = runner.scale.constrained_channels
    berti = Scheme.parse("berti")
    berti_clip = Scheme.parse("berti+clip")
    mixes = runner.homogeneous(workloads)
    results = runner.results([berti, berti_clip], mixes, [channels])
    out: Dict[str, Dict] = {}
    for workload, mix in zip(workloads, mixes):
        base = results[runner.spec(berti.baseline(), mix, channels)]
        with_pf = results[runner.spec(berti, mix, channels)]
        with_clip = results[runner.spec(berti_clip, mix, channels)]
        out[workload] = {
            "berti_ws": weighted_speedup(with_pf, base),
            "clip_ws": weighted_speedup(with_clip, base),
            "berti_l1_latency": with_pf.average_l1_miss_latency(),
            "clip_l1_latency": with_clip.average_l1_miss_latency(),
            "berti_issued": with_pf.prefetch.issued,
            "clip_issued": with_clip.prefetch.issued,
            "clip": with_clip.clip,
        }
    return out


def figure10(runner: Optional[ExperimentRunner] = None,
             quiet: bool = False,
             workloads: Optional[Sequence[str]] = None) -> Dict:
    """Fig. 10: per-mix weighted speedup, Berti vs Berti+CLIP.

    Paper: Berti+CLIP turns a 16% average slowdown into an 8% gain; only
    3 of 45 mixes still slow down with CLIP (26 without).
    """
    runner = _runner(runner)
    workloads = list(workloads or runner.scale.sample_homogeneous())
    per_mix = _per_mix_runs(runner, workloads)
    rows = [[w, per_mix[w]["berti_ws"], per_mix[w]["clip_ws"]]
            for w in workloads]
    berti_avg = geometric_mean([per_mix[w]["berti_ws"] for w in workloads])
    clip_avg = geometric_mean([per_mix[w]["clip_ws"] for w in workloads])
    rows.append(["geomean", berti_avg, clip_avg])
    if not quiet:
        print_figure("Figure 10: per-mix weighted speedup (constrained "
                     "bandwidth)", ["mix", "Berti", "Berti+CLIP"], rows)
    return {"per_mix": per_mix, "berti_avg": berti_avg,
            "clip_avg": clip_avg}


def figure11(runner: Optional[ExperimentRunner] = None,
             quiet: bool = False,
             workloads: Optional[Sequence[str]] = None) -> Dict:
    """Fig. 11: per-mix average L1 miss latency (Berti vs Berti+CLIP).

    Paper: average drops from 168 to 132 cycles.
    """
    runner = _runner(runner)
    workloads = list(workloads or runner.scale.sample_homogeneous())
    per_mix = _per_mix_runs(runner, workloads)
    rows = [[w, per_mix[w]["berti_l1_latency"],
             per_mix[w]["clip_l1_latency"]] for w in workloads]
    berti_avg = arithmetic_mean(
        [per_mix[w]["berti_l1_latency"] for w in workloads])
    clip_avg = arithmetic_mean(
        [per_mix[w]["clip_l1_latency"] for w in workloads])
    rows.append(["mean", berti_avg, clip_avg])
    if not quiet:
        print_figure("Figure 11: average L1 miss latency (cycles)",
                     ["mix", "Berti", "Berti+CLIP"], rows)
    return {"per_mix": per_mix, "berti_avg": berti_avg,
            "clip_avg": clip_avg}


def figure12(runner: Optional[ExperimentRunner] = None,
             quiet: bool = False) -> Dict:
    """Fig. 12: L1/L2/LLC miss coverage, Berti vs Berti+CLIP.

    Paper: CLIP gives up ~7% coverage at L1 and 2-3% at L2/LLC in exchange
    for latency.
    """
    runner = _runner(runner)
    mixes = _sampled(runner)
    channels = runner.scale.constrained_channels
    schemes = {"berti": Scheme.parse("berti"),
               "berti+clip": Scheme.parse("berti+clip")}
    results = runner.run_sweep(runner.spec(scheme, mix, channels)
                               for scheme in schemes.values()
                               for mix in mixes)
    coverage: Dict[str, Dict[str, float]] = {}
    for label, scheme in schemes.items():
        per_level: Dict[str, List[float]] = {"L1D": [], "L2": [], "LLC": []}
        for mix in mixes:
            result = results[runner.spec(scheme, mix, channels)]
            for level in per_level:
                per_level[level].append(result.levels[level].miss_coverage)
        coverage[label] = {level: arithmetic_mean(values)
                           for level, values in per_level.items()}
    if not quiet:
        rows = [[level, coverage["berti"][level],
                 coverage["berti+clip"][level]]
                for level in ["L1D", "L2", "LLC"]]
        print_figure("Figure 12: miss coverage by level",
                     ["level", "Berti", "Berti+CLIP"], rows)
    return coverage


def figure13(runner: Optional[ExperimentRunner] = None,
             quiet: bool = False,
             workloads: Optional[Sequence[str]] = None,
             baselines: Sequence[str] = ("fvp", "cbp", "robo")) -> Dict:
    """Fig. 13: CLIP's critical-load prediction accuracy vs best prior.

    Paper: 93% average for the critical signature vs 41% for the best
    prior predictor.
    """
    runner = _runner(runner)
    workloads = list(workloads or runner.scale.sample_homogeneous())
    channels = runner.scale.constrained_channels
    mixes = runner.homogeneous(workloads)
    berti_clip = Scheme.parse("berti+clip")
    priors = {name: Scheme.parse("berti", criticality=name,
                                 crit_gate=False)
              for name in baselines}
    results = runner.run_sweep(runner.spec(scheme, mix, channels)
                               for scheme in [berti_clip, *priors.values()]
                               for mix in mixes)
    per_mix: Dict[str, Dict[str, float]] = {}
    for workload, mix in zip(workloads, mixes):
        clip = results[runner.spec(berti_clip, mix, channels)]
        best_prior = 0.0
        for name, scheme in priors.items():
            result = results[runner.spec(scheme, mix, channels)]
            check(result.criticality is not None,
                  "run with criticality=%r returned no measurement", name)
            best_prior = max(best_prior, result.criticality.accuracy)
        check(clip.clip is not None,
              "berti+clip run returned no CLIP statistics")
        per_mix[workload] = {
            "clip_accuracy": clip.clip.prediction_accuracy,
            "best_prior_accuracy": best_prior,
        }
    clip_avg = arithmetic_mean(
        [m["clip_accuracy"] for m in per_mix.values()])
    prior_avg = arithmetic_mean(
        [m["best_prior_accuracy"] for m in per_mix.values()])
    if not quiet:
        rows = [[w, per_mix[w]["clip_accuracy"],
                 per_mix[w]["best_prior_accuracy"]] for w in workloads]
        rows.append(["mean", clip_avg, prior_avg])
        print_figure("Figure 13: critical-load prediction accuracy",
                     ["mix", "critical signature", "best prior"], rows)
    return {"per_mix": per_mix, "clip_avg": clip_avg,
            "prior_avg": prior_avg}


def figure14(runner: Optional[ExperimentRunner] = None,
             quiet: bool = False,
             workloads: Optional[Sequence[str]] = None) -> Dict:
    """Fig. 14: CLIP's criticality prediction coverage per mix."""
    runner = _runner(runner)
    workloads = list(workloads or runner.scale.sample_homogeneous())
    per_mix = _per_mix_runs(runner, workloads)
    rows = []
    coverages = []
    for workload in workloads:
        clip_result = per_mix[workload]["clip"]
        coverages.append(clip_result.prediction_coverage)
        rows.append([workload, clip_result.prediction_coverage])
    average = arithmetic_mean(coverages)
    rows.append(["mean", average])
    if not quiet:
        print_figure("Figure 14: criticality prediction coverage",
                     ["mix", "coverage"], rows)
    return {"per_mix": {w: c for w, c in zip(workloads, coverages)},
            "average": average}


def figure15(runner: Optional[ExperimentRunner] = None,
             quiet: bool = False,
             workloads: Optional[Sequence[str]] = None) -> Dict:
    """Fig. 15: number of critical IPs, static- vs dynamic-critical.

    Paper: few IPs overall; ~50% are dynamic-critical.
    """
    runner = _runner(runner)
    workloads = list(workloads or runner.scale.sample_homogeneous())
    per_mix = _per_mix_runs(runner, workloads)
    rows = []
    out: Dict[str, Dict[str, int]] = {}
    for workload in workloads:
        clip_result = per_mix[workload]["clip"]
        static = clip_result.static_critical_ips
        dynamic = clip_result.dynamic_critical_ips
        out[workload] = {"static": static, "dynamic": dynamic}
        rows.append([workload, static, dynamic])
    if not quiet:
        print_figure("Figure 15: critical IPs per mix",
                     ["mix", "static-critical", "dynamic-critical"], rows)
    return out


def figure16(runner: Optional[ExperimentRunner] = None,
             quiet: bool = False,
             workloads: Optional[Sequence[str]] = None) -> Dict:
    """Fig. 16: reduction in prefetch requests with CLIP (paper: ~50%)."""
    runner = _runner(runner)
    workloads = list(workloads or runner.scale.sample_homogeneous())
    per_mix = _per_mix_runs(runner, workloads)
    rows = []
    reductions = {}
    for workload in workloads:
        berti_issued = per_mix[workload]["berti_issued"]
        clip_issued = per_mix[workload]["clip_issued"]
        reduction = (1.0 - clip_issued / berti_issued
                     if berti_issued else 0.0)
        reductions[workload] = reduction
        rows.append([workload, berti_issued, clip_issued, reduction])
    average = arithmetic_mean(list(reductions.values()))
    rows.append(["mean", "", "", average])
    if not quiet:
        print_figure("Figure 16: prefetch traffic reduction with CLIP",
                     ["mix", "Berti issued", "CLIP issued", "reduction"],
                     rows)
    return {"per_mix": reductions, "average": average}


# ---------------------------------------------------------------------------
# Figures 17-21 and sensitivity studies
# ---------------------------------------------------------------------------

def figure17(runner: Optional[ExperimentRunner] = None,
             quiet: bool = False) -> Dict:
    """Fig. 17: CloudSuite + CVP workloads vs channels.

    Paper: prefetchers gain little on these traces (<10% even
    unconstrained), so CLIP's effect is small too.
    """
    runner = _runner(runner)
    mixes = runner.homogeneous(CLOUDSUITE_WORKLOADS + CVP_WORKLOADS)
    channels = list(runner.scale.channel_sweep[:4])
    schemes = {"berti": Scheme.parse("berti"),
               "berti+clip": Scheme.parse("berti+clip")}
    series = speedup_series(runner, schemes, mixes, channels)
    if not quiet:
        print_series("Figure 17: CloudSuite + CVP homogeneous workloads",
                     "scheme", series, channels)
    return {"channels": channels, "series": series}


def figure18(runner: Optional[ExperimentRunner] = None,
             quiet: bool = False) -> Dict:
    """Fig. 18: sensitivity to CLIP table sizes (0.25x - 4x).

    Paper: 2x/4x marginal gains; 0.5x/0.25x lose >7%.
    """
    runner = _runner(runner)
    factors = [0.25, 0.5, 1.0, 2.0, 4.0]
    sets = {"filter": ClipConfig().filter_sets,
            "predictor": ClipConfig().predictor_sets}
    scaled = {("reference", 1.0): Scheme.parse("berti+clip")}
    scaled.update({
        (which, factor): Scheme.parse("berti", clip_overrides={
            f"{which}_sets": max(1, int(size * factor))})
        for which, size in sets.items()
        for factor in factors if factor != 1.0
    })
    speedups = _constrained(runner, scaled, _sampled(runner))
    reference = speedups.pop(("reference", 1.0))
    tables: Dict[str, Dict[float, float]] = {"filter": {}, "predictor": {}}
    for (which, factor), value in speedups.items():
        tables[which][factor] = value / reference if reference else 0.0
    for which in tables:
        tables[which][1.0] = 1.0
    if not quiet:
        rows = [[which] + [tables[which][f] for f in factors]
                for which in tables]
        print_figure("Figure 18: CLIP table-size sensitivity (relative "
                     "to 1x)", ["table"] + [f"{f}x" for f in factors], rows)
    return {"factors": factors, "tables": tables,
            "reference_ws": reference}


def channel_sweep_schemes() -> Dict[str, Scheme]:
    """The Figs. 9 and 19-20 comparison space: each prefetcher with and
    without CLIP.  Shared by those drivers and ``repro sweep``."""
    variants: Dict[str, Scheme] = {}
    for name in PREFETCHER_SCHEMES:
        variants[name] = Scheme.parse(name)
        variants[name + "+clip"] = Scheme.parse(name + "+clip")
    return variants


def figure19(runner: Optional[ExperimentRunner] = None,
             quiet: bool = False) -> Dict:
    """Fig. 19: CLIP with all prefetchers across channels (homogeneous)."""
    runner = _runner(runner)
    mixes = _sampled(runner)
    channels = list(runner.scale.channel_sweep[:3])
    series = speedup_series(runner, channel_sweep_schemes(), mixes,
                            channels)
    if not quiet:
        print_series("Figure 19: CLIP vs channels (homogeneous)", "scheme",
                     series, channels)
    return {"channels": channels, "series": series}


def figure20(runner: Optional[ExperimentRunner] = None,
             quiet: bool = False) -> Dict:
    """Fig. 20: CLIP with all prefetchers across channels (heterogeneous)."""
    runner = _runner(runner)
    channels = list(runner.scale.channel_sweep[:3])
    series = speedup_series(runner, channel_sweep_schemes(),
                            runner.heterogeneous(), channels)
    if not quiet:
        print_series("Figure 20: CLIP vs channels (heterogeneous)",
                     "scheme", series, channels)
    return {"channels": channels, "series": series}


def figure21(runner: Optional[ExperimentRunner] = None,
             quiet: bool = False) -> Dict:
    """Fig. 21: Hermes and DSPatch vs CLIP with Berti.

    Paper shape: CLIP wins at 4-8 channels; Hermes overtakes at 16;
    DSPatch trails CLIP under constrained bandwidth.
    """
    schemes = {name: Scheme.parse(name)
               for name in ("berti", "berti+hermes", "berti+dspatch",
                            "berti+clip")}
    return _both_mixes(_runner(runner), "21", "Hermes / DSPatch / CLIP",
                       schemes, quiet)


# ---------------------------------------------------------------------------
# Tables and auxiliary studies
# ---------------------------------------------------------------------------

def table2(quiet: bool = False) -> Dict:
    """Table 2: CLIP storage overhead (paper total: 1.56 KB/core)."""
    rows = storage_table()
    total_kib = storage_overhead()
    if not quiet:
        print_figure("Table 2: CLIP storage overhead",
                     ["structure", "bytes"],
                     [[r.structure, r.bytes] for r in rows]
                     + [["total (KB)", total_kib * 1024 / 1000]])
    return {"rows": {r.structure: r.bytes for r in rows},
            "total_kib": total_kib,
            "total_kb": total_kib * 1024 / 1000}


def table3(quiet: bool = False) -> Dict:
    """Table 3: the baseline system configuration (full scale)."""
    config = SystemConfig()
    entries = {
        "cores": config.num_cores,
        "rob_entries": config.core.rob_entries,
        "issue_width": config.core.issue_width,
        "retire_width": config.core.retire_width,
        "l1d_kib": config.l1d.size_kib,
        "l1d_ways": config.l1d.ways,
        "l2_kib": config.l2.size_kib,
        "llc_slice_kib": config.llc_slice.size_kib,
        "llc_replacement": config.llc_slice.replacement,
        "dram_channels": config.dram.channels,
        "mesh_dim": config.mesh_dim,
        "dram_trp_cycles": config.dram.trp_cycles,
        "write_watermark": config.dram.write_watermark,
    }
    if not quiet:
        print_figure("Table 3: baseline system parameters",
                     ["parameter", "value"], list(entries.items()))
    return entries


def energy_study(runner: Optional[ExperimentRunner] = None,
                 quiet: bool = False) -> Dict:
    """Section 5.1 energy claim: CLIP cuts dynamic memory-hierarchy energy
    (paper: -18.21% for homogeneous mixes)."""
    runner = _runner(runner)
    mixes = _sampled(runner)
    channels = runner.scale.constrained_channels
    schemes = {"berti": Scheme.parse("berti"),
               "berti+clip": Scheme.parse("berti+clip")}
    results = runner.run_sweep(runner.spec(scheme, mix, channels)
                               for scheme in schemes.values()
                               for mix in mixes)
    totals: Dict[str, List[float]] = {}
    for label, scheme in schemes.items():
        # Counter-driven: CLIP structure activity comes off the
        # result's own counters, not a caller-supplied estimate.
        totals[label] = [
            dynamic_energy(results[runner.spec(scheme, mix,
                                               channels)]).total_mj
            for mix in mixes]
    berti_mj = arithmetic_mean(totals["berti"])
    clip_mj = arithmetic_mean(totals["berti+clip"])
    saving = 1.0 - clip_mj / berti_mj if berti_mj else 0.0
    if not quiet:
        print_figure("Energy: dynamic memory-hierarchy energy",
                     ["scheme", "mJ (mean/mix)"],
                     [["berti", berti_mj], ["berti+clip", clip_mj],
                      ["saving", saving]])
    return {"berti_mj": berti_mj, "clip_mj": clip_mj, "saving": saving}


def llc_sensitivity(runner: Optional[ExperimentRunner] = None,
                    quiet: bool = False) -> Dict:
    """Section 5.2 LLC-size sweep: CLIP's edge grows as the LLC shrinks."""
    runner = _runner(runner)
    # Scaled stand-ins for the paper's 512 KB / 2 MB / 4 MB per core.
    sizes_kib = [64, 128, 256]
    labels = ("berti", "berti+clip")
    grid = {(label, size): Scheme.parse(label, llc_kib=size)
            for label in labels for size in sizes_kib}
    speedups = _constrained(runner, grid, _sampled(runner))
    out = {size: {label: speedups[label, size] for label in labels}
           for size in sizes_kib}
    if not quiet:
        rows = [[size, out[size]["berti"], out[size]["berti+clip"]]
                for size in sizes_kib]
        print_figure("LLC sensitivity (scaled slice KiB)",
                     ["llc_kib", "Berti", "Berti+CLIP"], rows)
    return out


def core_count_sensitivity(runner: Optional[ExperimentRunner] = None,
                           quiet: bool = False) -> Dict:
    """Section 5.2 core-count sweep: CLIP matters while there is less than
    one channel per 2-4 cores."""
    runner = _runner(runner)
    workloads = runner.scale.sample_homogeneous()[:4]
    schemes = {label: Scheme.parse(label)
               for label in ("berti", "berti+clip")}
    grid = {(cores, channels): runner.homogeneous(workloads, cores)
            for cores, channels in [(4, 1), (8, 1), (8, 2), (16, 2)]}
    # One batch for the whole grid: cold points fan out across the
    # runner's jobs together instead of per grid entry.
    runner.run_sweep(spec for (_, channels), mixes in grid.items()
                     for spec in runner.grid(list(schemes.values()), mixes,
                                             [channels]))
    out: Dict[str, Dict[str, float]] = {}
    for (cores, channels), mixes in grid.items():
        series = speedup_series(runner, schemes, mixes, [channels])
        out[f"{cores}c/{channels}ch"] = {
            label: values[0] for label, values in series.items()}
    if not quiet:
        rows = [[key, out[key]["berti"], out[key]["berti+clip"]]
                for key in out]
        print_figure("Core-count sensitivity",
                     ["config", "Berti", "Berti+CLIP"], rows)
    return out


def ablation_study(runner: Optional[ExperimentRunner] = None,
                   quiet: bool = False) -> Dict:
    """Ablation of CLIP's design choices (paper section 4.2 and 5.1).

    Variants, all measured as weighted speedup at the constrained point:

    * ``full``            -- CLIP as proposed;
    * ``no-accuracy``     -- stage I only (paper: accuracy filtering
      contributes the smaller share of the benefit);
    * ``no-criticality``  -- stage II only;
    * ``no-priority``     -- no criticality-conscious NoC/DRAM (paper:
      priority contributes just 2.8% of the 24%);
    * ``ip-only-signature``   -- drop address+histories from the signature;
    * ``no-branch-history``   -- drop only the branch history;
    * ``threshold-1``         -- criticality count threshold of 1 (vs 4).
    """
    runner = _runner(runner)
    ablations = {
        "no-accuracy": {"use_accuracy_filter": False},
        "no-criticality": {"use_criticality_filter": False},
        "no-priority": {"criticality_conscious_noc_dram": False},
        "ip-only-signature": {"signature_use_address": False,
                              "signature_use_branch_history": False,
                              "signature_use_criticality_history": False},
        "no-branch-history": {"signature_use_branch_history": False},
        "threshold-1": {"criticality_count_threshold": 1},
    }
    variants = {"berti (no CLIP)": Scheme.parse("berti"),
                "full": Scheme.parse("berti+clip")}
    variants.update({
        name: Scheme.parse("berti", clip_overrides=fields)
        for name, fields in ablations.items()
    })
    out = _constrained(runner, variants, _sampled(runner))
    if not quiet:
        print_figure("Ablation: CLIP design choices (weighted speedup at "
                     "the constrained point)",
                     ["variant", "weighted speedup"],
                     [[k, v] for k, v in out.items()])
    return out
