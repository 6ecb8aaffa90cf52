"""Drivers that regenerate every table and figure of the paper.

Each driver prints the paper's rows/series at a scaled-down configuration
(see :class:`repro.experiments.runner.BenchScale` and DESIGN.md section 2)
and returns the numbers for programmatic use.  The scaled channel axis maps
to the paper's channel axis by cores-per-channel: with the default 8-core
scale, 1 scaled channel corresponds to the paper's 8-channel (constrained)
point and 8-16 scaled channels to its 64-channel (unconstrained) point.

Drivers describe their grid as typed :class:`~repro.experiments.sweep.Scheme`
values and submit the whole figure as one batch (``runner.run_sweep``)
before reading any individual point, so a runner constructed with
``jobs > 1`` fans the independent simulations across processes and one
constructed with a :class:`~repro.experiments.sweep.ResultStore` serves
warm reruns from disk.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.invariants import check
from repro.config import SystemConfig
from repro.core.storage import storage_overhead, storage_table
from repro.criticality import predictor_names
from repro.energy import dynamic_energy
from repro.experiments.report import print_figure
from repro.experiments.runner import ExperimentRunner
from repro.experiments.statistics import arithmetic_mean, geometric_mean
from repro.experiments.sweep import Scheme
from repro.sim.stats import weighted_speedup
from repro.throttle import throttler_names

#: Prefetchers compared throughout the evaluation (paper Figs. 1, 2, 9, 19).
PREFETCHER_SCHEMES = ["berti", "ipcp", "bingo", "spp_ppf"]


def _runner(runner: Optional[ExperimentRunner]) -> ExperimentRunner:
    return runner if runner is not None else ExperimentRunner()


def _scheme(name: str, **fields) -> Scheme:
    """Typed scheme from a legacy name plus field overrides."""
    return Scheme.parse(name, **fields)


def _submit_homogeneous(runner: ExperimentRunner,
                        schemes: Sequence[Scheme],
                        channels: Sequence[int],
                        workloads: Sequence[str]) -> None:
    """Submit a whole (scheme x channel x workload) grid, plus the
    matching baselines, as one parallel/cached sweep."""
    specs = []
    for scheme in schemes:
        for ch in channels:
            for workload in workloads:
                specs.append(runner.spec_homogeneous(scheme, workload, ch))
                specs.append(runner.spec_homogeneous(scheme.baseline(),
                                                     workload, ch))
    runner.run_sweep(specs)


def _submit_heterogeneous(runner: ExperimentRunner,
                          schemes: Sequence[Scheme],
                          channels: Sequence[int],
                          mixes: Sequence[Sequence[str]]) -> None:
    specs = []
    for scheme in schemes:
        for ch in channels:
            for mix in mixes:
                specs.append(runner.spec(scheme, mix, ch))
                specs.append(runner.spec(scheme.baseline(), mix, ch))
    runner.run_sweep(specs)


def _homog_speedups(runner: ExperimentRunner, scheme: Scheme,
                    channels: int,
                    workloads: Sequence[str]) -> List[float]:
    _submit_homogeneous(runner, [scheme], [channels], workloads)
    return [runner.speedup_homogeneous(scheme, workload, channels)
            for workload in workloads]


def _hetero_speedups(runner: ExperimentRunner, scheme: Scheme,
                     channels: int,
                     mixes: Sequence[Sequence[str]]) -> List[float]:
    _submit_heterogeneous(runner, [scheme], [channels], mixes)
    return [runner.speedup_mix(scheme, mix, channels) for mix in mixes]


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
    workloads = runner.scale.sample_homogeneous()
    channels = list(runner.scale.channel_sweep)
    schemes = {name: _scheme(name) for name in PREFETCHER_SCHEMES}
    _submit_homogeneous(runner, list(schemes.values()), channels,
                        workloads)
    series: Dict[str, List[float]] = {}
    for name, scheme in schemes.items():
        series[name] = [
            geometric_mean(_homog_speedups(runner, scheme, ch, workloads))
            for ch in channels
        ]
    if not quiet:
        rows = [[scheme] + series[scheme] for scheme in PREFETCHER_SCHEMES]
        print_figure("Figure 1: normalized weighted speedup, homogeneous "
                     "mixes", ["prefetcher"] + [f"ch={c}" for c in channels],
                     rows)
    return {"channels": channels, "series": series}


def figure2(runner: Optional[ExperimentRunner] = None,
            quiet: bool = False) -> Dict:
    """Fig. 2: prefetcher weighted speedup vs channels (heterogeneous)."""
    runner = _runner(runner)
    mixes = runner.heterogeneous()
    channels = list(runner.scale.channel_sweep)
    schemes = {name: _scheme(name) for name in PREFETCHER_SCHEMES}
    _submit_heterogeneous(runner, list(schemes.values()), channels, mixes)
    series: Dict[str, List[float]] = {}
    for name, scheme in schemes.items():
        series[name] = [
            geometric_mean(_hetero_speedups(runner, scheme, ch, mixes))
            for ch in channels
        ]
    if not quiet:
        rows = [[scheme] + series[scheme] for scheme in PREFETCHER_SCHEMES]
        print_figure("Figure 2: normalized weighted speedup, heterogeneous "
                     "mixes", ["prefetcher"] + [f"ch={c}" for c in channels],
                     rows)
    return {"channels": channels, "series": series}


def figure3(runner: Optional[ExperimentRunner] = None,
            quiet: bool = False) -> Dict:
    """Fig. 3: demand miss latency inflation (Berti / no-prefetching).

    Paper shape: >=1.9x at L2/LLC for 4-8 channels, shrinking with more
    channels.
    """
    runner = _runner(runner)
    workloads = runner.scale.sample_homogeneous()
    channels = list(runner.scale.channel_sweep)
    levels = ["L1D", "L2", "LLC"]
    none, berti = _scheme("none"), _scheme("berti")
    _submit_homogeneous(runner, [none, berti], channels, workloads)
    inflation: Dict[str, List[float]] = {level: [] for level in levels}
    for ch in channels:
        ratios: Dict[str, List[float]] = {level: [] for level in levels}
        for workload in workloads:
            base = runner.run(runner.spec_homogeneous(none, workload, ch))
            with_pf = runner.run(runner.spec_homogeneous(berti, workload,
                                                         ch))
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
    workloads = runner.scale.sample_homogeneous()
    channels = runner.scale.constrained_channels
    measured = {name: _scheme("berti", criticality=name, crit_gate=False)
                for name in predictor_names()}
    _submit_homogeneous(runner, list(measured.values()), [channels],
                        workloads)
    accuracy: Dict[str, float] = {}
    coverage: Dict[str, float] = {}
    for name, scheme in measured.items():
        accs, covs = [], []
        for workload in workloads:
            result = runner.run(
                runner.spec_homogeneous(scheme, workload, channels))
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


def figure5(runner: Optional[ExperimentRunner] = None,
            quiet: bool = False) -> Dict:
    """Fig. 5: Berti gated by baseline criticality predictors.

    Paper shape: none of the prior predictors rescues Berti at low
    bandwidth.
    """
    runner = _runner(runner)
    workloads = runner.scale.sample_homogeneous()
    hetero = runner.heterogeneous()
    channels = list(runner.scale.channel_sweep[:3])
    gated = {"berti": _scheme("berti")}
    for name in predictor_names():
        gated[f"berti+{name}"] = _scheme("berti", criticality=name)
    _submit_homogeneous(runner, list(gated.values()), channels, workloads)
    _submit_heterogeneous(runner, list(gated.values()), channels, hetero)
    homog: Dict[str, List[float]] = {}
    heterog: Dict[str, List[float]] = {}
    for label, scheme in gated.items():
        homog[label] = [
            geometric_mean(_homog_speedups(runner, scheme, ch, workloads))
            for ch in channels
        ]
        heterog[label] = [
            geometric_mean(_hetero_speedups(runner, scheme, ch, hetero))
            for ch in channels
        ]
    if not quiet:
        print_figure("Figure 5a: Berti + criticality predictors "
                     "(homogeneous)",
                     ["scheme"] + [f"ch={c}" for c in channels],
                     [[s] + homog[s] for s in gated])
        print_figure("Figure 5b: Berti + criticality predictors "
                     "(heterogeneous)",
                     ["scheme"] + [f"ch={c}" for c in channels],
                     [[s] + heterog[s] for s in gated])
    return {"channels": channels, "homogeneous": homog,
            "heterogeneous": heterog}


def figure6(runner: Optional[ExperimentRunner] = None,
            quiet: bool = False) -> Dict:
    """Fig. 6: Berti with prefetch throttlers (FDP/HPAC/SPAC/NST).

    Paper shape: marginal improvements; big slowdowns remain.
    """
    runner = _runner(runner)
    workloads = runner.scale.sample_homogeneous()
    hetero = runner.heterogeneous()
    channels = list(runner.scale.channel_sweep[:3])
    throttled = {"berti": _scheme("berti")}
    for name in throttler_names():
        throttled[f"berti+{name}"] = _scheme("berti", throttle=name)
    _submit_homogeneous(runner, list(throttled.values()), channels,
                        workloads)
    _submit_heterogeneous(runner, list(throttled.values()), channels,
                          hetero)
    homog: Dict[str, List[float]] = {}
    heterog: Dict[str, List[float]] = {}
    for label, scheme in throttled.items():
        homog[label] = [
            geometric_mean(_homog_speedups(runner, scheme, ch, workloads))
            for ch in channels
        ]
        heterog[label] = [
            geometric_mean(_hetero_speedups(runner, scheme, ch, hetero))
            for ch in channels
        ]
    if not quiet:
        print_figure("Figure 6a: Berti + throttlers (homogeneous)",
                     ["scheme"] + [f"ch={c}" for c in channels],
                     [[s] + homog[s] for s in throttled])
        print_figure("Figure 6b: Berti + throttlers (heterogeneous)",
                     ["scheme"] + [f"ch={c}" for c in channels],
                     [[s] + heterog[s] for s in throttled])
    return {"channels": channels, "homogeneous": homog,
            "heterogeneous": heterog}


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
    workloads = runner.scale.sample_homogeneous()
    hetero = runner.heterogeneous()
    channels = runner.scale.constrained_channels
    variants = {}
    for name in PREFETCHER_SCHEMES:
        variants[name] = _scheme(name)
        variants[name + "+clip"] = _scheme(name + "+clip")
    _submit_homogeneous(runner, list(variants.values()), [channels],
                        workloads)
    _submit_heterogeneous(runner, list(variants.values()), [channels],
                          hetero)
    homog: Dict[str, float] = {}
    heterog: Dict[str, float] = {}
    for label, scheme in variants.items():
        homog[label] = geometric_mean(
            _homog_speedups(runner, scheme, channels, workloads))
        heterog[label] = geometric_mean(
            _hetero_speedups(runner, scheme, channels, hetero))
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
    none = _scheme("none")
    berti = _scheme("berti")
    berti_clip = _scheme("berti+clip")
    _submit_homogeneous(runner, [none, berti, berti_clip], [channels],
                        workloads)
    out: Dict[str, Dict] = {}
    for workload in workloads:
        base = runner.run(runner.spec_homogeneous(none, workload,
                                                  channels))
        with_pf = runner.run(runner.spec_homogeneous(berti, workload,
                                                     channels))
        with_clip = runner.run(runner.spec_homogeneous(berti_clip,
                                                       workload, channels))
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
    workloads = runner.scale.sample_homogeneous()
    channels = runner.scale.constrained_channels
    schemes = {"berti": _scheme("berti"),
               "berti+clip": _scheme("berti+clip")}
    _submit_homogeneous(runner, list(schemes.values()), [channels],
                        workloads)
    coverage: Dict[str, Dict[str, float]] = {}
    for label, scheme in schemes.items():
        per_level: Dict[str, List[float]] = {"L1D": [], "L2": [], "LLC": []}
        for workload in workloads:
            result = runner.run(
                runner.spec_homogeneous(scheme, workload, channels))
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
    berti_clip = _scheme("berti+clip")
    priors = {name: _scheme("berti", criticality=name, crit_gate=False)
              for name in baselines}
    _submit_homogeneous(runner, [berti_clip] + list(priors.values()),
                        [channels], workloads)
    per_mix: Dict[str, Dict[str, float]] = {}
    for workload in workloads:
        clip = runner.run(
            runner.spec_homogeneous(berti_clip, workload, channels))
        best_prior = 0.0
        for name, scheme in priors.items():
            result = runner.run(
                runner.spec_homogeneous(scheme, workload, channels))
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
    workloads = runner.cloud_workloads()
    channels = list(runner.scale.channel_sweep[:4])
    schemes = {"berti": _scheme("berti"),
               "berti+clip": _scheme("berti+clip")}
    _submit_homogeneous(runner, list(schemes.values()), channels,
                        workloads)
    series: Dict[str, List[float]] = {label: [] for label in schemes}
    for ch in channels:
        for label, scheme in schemes.items():
            series[label].append(geometric_mean(
                _homog_speedups(runner, scheme, ch, workloads)))
    if not quiet:
        rows = [[s] + series[s] for s in series]
        print_figure("Figure 17: CloudSuite + CVP homogeneous workloads",
                     ["scheme"] + [f"ch={c}" for c in channels], rows)
    return {"channels": channels, "series": series}


def figure18(runner: Optional[ExperimentRunner] = None,
             quiet: bool = False) -> Dict:
    """Fig. 18: sensitivity to CLIP table sizes (0.25x - 4x).

    Paper: 2x/4x marginal gains; 0.5x/0.25x lose >7%.
    """
    runner = _runner(runner)
    workloads = runner.scale.sample_homogeneous()
    channels = runner.scale.constrained_channels
    factors = [0.25, 0.5, 1.0, 2.0, 4.0]
    scaled = {
        ("filter", factor): _scheme("berti", clip_filter_scale=factor)
        for factor in factors if factor != 1.0
    }
    scaled.update({
        ("predictor", factor): _scheme("berti",
                                       clip_predictor_scale=factor)
        for factor in factors if factor != 1.0
    })
    _submit_homogeneous(runner,
                        [_scheme("berti+clip")] + list(scaled.values()),
                        [channels], workloads)
    tables: Dict[str, Dict[float, float]] = {"filter": {}, "predictor": {}}
    reference = geometric_mean(_homog_speedups(
        runner, _scheme("berti+clip"), channels, workloads))
    for (which, factor), scheme in scaled.items():
        value = geometric_mean(_homog_speedups(
            runner, scheme, channels, workloads))
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
    """The Fig. 19-20 comparison space: each prefetcher with and without
    CLIP.  Shared by the figure drivers and ``repro sweep``."""
    variants: Dict[str, Scheme] = {}
    for name in PREFETCHER_SCHEMES:
        variants[name] = _scheme(name)
        variants[name + "+clip"] = _scheme(name + "+clip")
    return variants


def figure19(runner: Optional[ExperimentRunner] = None,
             quiet: bool = False) -> Dict:
    """Fig. 19: CLIP with all prefetchers across channels (homogeneous)."""
    runner = _runner(runner)
    workloads = runner.scale.sample_homogeneous()
    channels = list(runner.scale.channel_sweep[:3])
    variants = channel_sweep_schemes()
    _submit_homogeneous(runner, list(variants.values()), channels,
                        workloads)
    series: Dict[str, List[float]] = {}
    for label, scheme in variants.items():
        series[label] = [
            geometric_mean(_homog_speedups(runner, scheme, ch, workloads))
            for ch in channels
        ]
    if not quiet:
        rows = [[s] + series[s] for s in series]
        print_figure("Figure 19: CLIP vs channels (homogeneous)",
                     ["scheme"] + [f"ch={c}" for c in channels], rows)
    return {"channels": channels, "series": series}


def figure20(runner: Optional[ExperimentRunner] = None,
             quiet: bool = False) -> Dict:
    """Fig. 20: CLIP with all prefetchers across channels (heterogeneous)."""
    runner = _runner(runner)
    mixes = runner.heterogeneous()
    channels = list(runner.scale.channel_sweep[:3])
    variants = channel_sweep_schemes()
    _submit_heterogeneous(runner, list(variants.values()), channels, mixes)
    series: Dict[str, List[float]] = {}
    for label, scheme in variants.items():
        series[label] = [
            geometric_mean(_hetero_speedups(runner, scheme, ch, mixes))
            for ch in channels
        ]
    if not quiet:
        rows = [[s] + series[s] for s in series]
        print_figure("Figure 20: CLIP vs channels (heterogeneous)",
                     ["scheme"] + [f"ch={c}" for c in channels], rows)
    return {"channels": channels, "series": series}


def figure21(runner: Optional[ExperimentRunner] = None,
             quiet: bool = False) -> Dict:
    """Fig. 21: Hermes and DSPatch vs CLIP with Berti.

    Paper shape: CLIP wins at 4-8 channels; Hermes overtakes at 16;
    DSPatch trails CLIP under constrained bandwidth.
    """
    runner = _runner(runner)
    workloads = runner.scale.sample_homogeneous()
    hetero = runner.heterogeneous()
    channels = list(runner.scale.channel_sweep[:3])
    schemes = {name: _scheme(name)
               for name in ("berti", "berti+hermes", "berti+dspatch",
                            "berti+clip")}
    _submit_homogeneous(runner, list(schemes.values()), channels,
                        workloads)
    _submit_heterogeneous(runner, list(schemes.values()), channels, hetero)
    homog: Dict[str, List[float]] = {}
    heterog: Dict[str, List[float]] = {}
    for label, scheme in schemes.items():
        homog[label] = [
            geometric_mean(_homog_speedups(runner, scheme, ch, workloads))
            for ch in channels
        ]
        heterog[label] = [
            geometric_mean(_hetero_speedups(runner, scheme, ch, hetero))
            for ch in channels
        ]
    if not quiet:
        print_figure("Figure 21a: Hermes / DSPatch / CLIP (homogeneous)",
                     ["scheme"] + [f"ch={c}" for c in channels],
                     [[s] + homog[s] for s in schemes])
        print_figure("Figure 21b: Hermes / DSPatch / CLIP (heterogeneous)",
                     ["scheme"] + [f"ch={c}" for c in channels],
                     [[s] + heterog[s] for s in schemes])
    return {"channels": channels, "homogeneous": homog,
            "heterogeneous": heterog}


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
    workloads = runner.scale.sample_homogeneous()
    channels = runner.scale.constrained_channels
    schemes = {"berti": _scheme("berti"),
               "berti+clip": _scheme("berti+clip")}
    _submit_homogeneous(runner, list(schemes.values()), [channels],
                        workloads)
    totals: Dict[str, List[float]] = {label: [] for label in schemes}
    for workload in workloads:
        for label, scheme in schemes.items():
            result = runner.run(
                runner.spec_homogeneous(scheme, workload, channels))
            # Counter-driven: CLIP structure activity comes off the
            # result's own counters, not a caller-supplied estimate.
            totals[label].append(dynamic_energy(result).total_mj)
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
    workloads = runner.scale.sample_homogeneous()
    channels = runner.scale.constrained_channels
    # Scaled stand-ins for the paper's 512 KB / 2 MB / 4 MB per core.
    sizes_kib = [64, 128, 256]
    grid = {(label, size): _scheme(label, llc_kib=size)
            for label in ("berti", "berti+clip") for size in sizes_kib}
    _submit_homogeneous(runner, list(grid.values()), [channels], workloads)
    out: Dict[int, Dict[str, float]] = {}
    for size in sizes_kib:
        out[size] = {
            label: geometric_mean(_homog_speedups(
                runner, grid[(label, size)], channels, workloads))
            for label in ("berti", "berti+clip")
        }
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
    grid = [(4, 1), (8, 1), (8, 2), (16, 2)]
    # One batch for the whole grid: cold points fan out across
    # REPRO_JOBS together instead of per grid entry.
    specs = []
    for cores, channels in grid:
        for label in ("berti", "berti+clip"):
            scheme = _scheme(label, num_cores=cores)
            for workload in workloads:
                specs.append(runner.spec_homogeneous(scheme, workload,
                                                     channels))
                specs.append(runner.spec_homogeneous(scheme.baseline(),
                                                     workload, channels))
    runner.run_sweep(specs)
    out: Dict[str, Dict[str, float]] = {}
    for cores, channels in grid:
        key = f"{cores}c/{channels}ch"
        out[key] = {
            label: geometric_mean(_homog_speedups(
                runner, _scheme(label, num_cores=cores), channels,
                workloads))
            for label in ("berti", "berti+clip")
        }
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
    workloads = runner.scale.sample_homogeneous()
    channels = runner.scale.constrained_channels
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
    variants = {"full": _scheme("berti+clip")}
    variants.update({
        name: _scheme("berti", clip_overrides=fields)
        for name, fields in ablations.items()
    })
    _submit_homogeneous(runner, [_scheme("berti")] + list(variants.values()),
                        [channels], workloads)
    berti = geometric_mean(_homog_speedups(runner, _scheme("berti"),
                                           channels, workloads))
    out: Dict[str, float] = {"berti (no CLIP)": berti}
    for name, scheme in variants.items():
        out[name] = geometric_mean(_homog_speedups(
            runner, scheme, channels, workloads))
    if not quiet:
        print_figure("Ablation: CLIP design choices (weighted speedup at "
                     "the constrained point)",
                     ["variant", "weighted speedup"],
                     [[k, v] for k, v in out.items()])
    return out
