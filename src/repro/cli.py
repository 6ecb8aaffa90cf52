"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``        simulate one configuration and print a result summary
``figure``     regenerate one of the paper's figures/tables by name
``sweep``      run a (scheme x workload x channel) grid in parallel,
               with results persisted in the on-disk cache
``serve``      coordinate a distributed sweep campaign over the
               repro.serve HTTP/JSON worker protocol (docs/serving.md)
``worker``     pull and simulate jobs from a ``serve`` coordinator
``workloads``  list the available workload models
``characterize``  static characterisation of one workload model
``lint``       run the simulator static-analysis passes; its arguments go
               unchanged to ``python -m repro.analysis``
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from repro import experiments
from repro.experiments.sweep import RunSpec, Scheme
from repro.sim.stats import weighted_speedup
from repro.sim.system import run_system
from repro.trace import homogeneous_mix, workload_names

FIGURES = {
    "fig1": experiments.figure1, "fig2": experiments.figure2,
    "fig3": experiments.figure3, "fig4": experiments.figure4,
    "fig5": experiments.figure5, "fig6": experiments.figure6,
    "fig9": experiments.figure9, "fig10": experiments.figure10,
    "fig11": experiments.figure11, "fig12": experiments.figure12,
    "fig13": experiments.figure13, "fig14": experiments.figure14,
    "fig15": experiments.figure15, "fig16": experiments.figure16,
    "fig17": experiments.figure17, "fig18": experiments.figure18,
    "fig19": experiments.figure19, "fig20": experiments.figure20,
    "fig21": experiments.figure21,
    "energy": experiments.energy_study,
    "power": experiments.power_budget_study,
    "learned": experiments.learned_study,
    "llc": experiments.llc_sensitivity,
    "cores": experiments.core_count_sensitivity,
    "ablation": experiments.ablation_study,
}
TABLES = {"table2": experiments.table2, "table3": experiments.table3}


def _scheme_name(name: str) -> str:
    """Argument type of a scheme name: one ``Scheme.parse`` rejects is a
    usage error (``repro <verb>: error: ...``, exit 2)."""
    try:
        Scheme.parse(name)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return name


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    """Grid + cache-directory options shared by ``sweep`` and ``serve``."""
    parser.add_argument("--schemes", nargs="+", default=None,
                        type=_scheme_name,
                        help="scheme names, e.g. berti berti+clip "
                             "(default: the Fig. 19-20 comparison "
                             "space)")
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="workload model names (default: the "
                             "scale's homogeneous sample)")
    parser.add_argument("--channels", nargs="+", type=int, default=None,
                        help="channel counts (default: the Fig. 19-20 "
                             "sweep, 1 2 4)")
    parser.add_argument("--cores", type=int, default=8)
    parser.add_argument("--instructions", type=int, default=8_000)
    parser.add_argument("--cache-dir", default=None,
                        help="result cache directory (default: "
                             ".repro-cache/, or $REPRO_CACHE_DIR)")


def _build_grid(args: argparse.Namespace):
    """The (scale, schemes, workloads, channels) a ``sweep`` or ``serve``
    invocation describes: a runner at that scale runs the homogeneous
    mixes of the workloads, and ``runner.grid(...)`` is the point set."""
    from repro.experiments.figures import channel_sweep_schemes

    scale = experiments.BenchScale(num_cores=args.cores,
                                   sim_instructions=args.instructions)
    if args.schemes is not None:
        schemes = {name: Scheme.parse(name) for name in args.schemes}
    else:
        schemes = channel_sweep_schemes()
    workloads = args.workloads or scale.sample_homogeneous()
    channels = args.channels or list(scale.channel_sweep[:3])
    return scale, schemes, workloads, channels


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CLIP (MICRO 2023) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one configuration")
    run.add_argument("--workload", default="605.mcf_s-1536B",
                     help="workload model name (see `workloads`)")
    run.add_argument("--cores", type=int, default=8)
    run.add_argument("--channels", type=int, default=1)
    run.add_argument("--instructions", type=int, default=10_000)
    run.add_argument("--scheme", default="berti", type=_scheme_name,
                     help="scheme name, e.g. berti+clip or berti+spp_ppf "
                          "(default: berti)")
    run.add_argument("--dynamic-clip", action="store_true",
                     help="run the scheme with Dynamic CLIP (section 5.3)")
    run.add_argument("--baseline", action="store_true",
                     help="also run no-prefetching and report weighted "
                          "speedup")
    run.add_argument("--latency-report", action="store_true",
                     help="capture per-load latencies and print "
                          "percentiles/histogram")
    run.add_argument("--markdown-report", metavar="PATH", default=None,
                     help="write a full markdown report of the run")
    run.add_argument("--tlb", action="store_true",
                     help="model the Table-3 TLB hierarchy (DTLB/STLB + "
                          "page walks)")
    run.add_argument("--sanitize", action="store_true",
                     help="install the runtime invariant sanitizer "
                          "(also: REPRO_SANITIZE=1)")

    compare = sub.add_parser(
        "compare", help="compare schemes on one workload (markdown table)")
    compare.add_argument("--workload", default="605.mcf_s-1536B")
    compare.add_argument("--cores", type=int, default=8)
    compare.add_argument("--channels", type=int, default=1)
    compare.add_argument("--instructions", type=int, default=8_000)
    compare.add_argument("--schemes", nargs="+", type=_scheme_name,
                         default=["none", "berti", "berti+clip"])

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("name", choices=sorted(FIGURES) + sorted(TABLES))
    figure.add_argument("--cores", type=int, default=None)
    figure.add_argument("--instructions", type=int, default=None)
    figure.add_argument("--jobs", "-j", type=int, default=1,
                        help="simulate independent sweep points across "
                             "this many processes")
    figure.add_argument("--cache", action="store_true",
                        help="persist/reuse results in the on-disk cache "
                             "(.repro-cache/)")

    sweep = sub.add_parser(
        "sweep", help="run a (scheme x workload x channel) grid, "
                      "parallel and disk-cached")
    _add_grid_arguments(sweep)
    sweep.add_argument("--jobs", "-j", type=int, default=1,
                       help="worker processes for independent points")
    sweep.add_argument("--no-cache", action="store_true",
                       help="do not read or write the on-disk cache")
    sweep.add_argument("--csv", metavar="PATH", default=None,
                       help="also export the speedup series as CSV")

    serve = sub.add_parser(
        "serve", help="coordinate a distributed sweep campaign "
                      "(workers connect with `repro worker`)")
    _add_grid_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="protocol port (default: an ephemeral one, "
                            "printed at startup)")
    serve.add_argument("--workers", type=int, default=0,
                       help="also spawn this many local worker "
                            "subprocesses (0: wait for `repro worker`)")
    serve.add_argument("--manifest", default=None, metavar="PATH",
                       help="persist the resumable campaign manifest "
                            "here (written at startup and on shutdown)")
    serve.add_argument("--resume", action="store_true",
                       help="load the campaign from --manifest instead "
                            "of the grid options")
    serve.add_argument("--lease-timeout", type=float, default=30.0,
                       help="seconds a claimed job stays leased "
                            "without a heartbeat (default 30)")
    serve.add_argument("--max-attempts", type=int, default=3,
                       help="failures (incl. lease expiries) before a "
                            "job is quarantined (default 3)")
    serve.add_argument("--status-json", default=None, metavar="PATH",
                       help="write the final /status document here")

    worker = sub.add_parser(
        "worker", help="pull and simulate jobs from a `repro serve` "
                       "coordinator")
    worker.add_argument("--url", required=True,
                        help="coordinator base URL, e.g. "
                             "http://127.0.0.1:8377")
    worker.add_argument("--id", default=None,
                        help="worker id (default: <hostname>-<pid>)")
    worker.add_argument("--max-jobs", type=int, default=None,
                        help="exit after completing this many jobs")
    worker.add_argument("--verbose", action="store_true",
                        help="print one line per completed job")

    sub.add_parser("workloads", help="list workload models")

    # Listed for --help only: main() hands `lint ARGS` to the lint
    # parser before this one runs.
    sub.add_parser("lint", help="run the simulator static-analysis "
                                "passes (see python -m repro.analysis -h)")

    characterize = sub.add_parser(
        "characterize", help="static characterisation of a workload model")
    characterize.add_argument("--workload", default="605.mcf_s-1536B")
    characterize.add_argument("--instructions", type=int, default=20_000)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    scheme = Scheme.parse(args.scheme)
    if args.dynamic_clip:
        scheme = dataclasses.replace(scheme, clip=True,
                                     clip_overrides={"dynamic": True})
    mix = homogeneous_mix(args.workload, args.cores)

    def machine(point: Scheme):
        """The config of ``point`` on this invocation's machine: the
        scheme and its baseline share the TLB and the sanitizer."""
        config = RunSpec(scheme=point, mix=mix, channels=args.channels,
                         sim_instructions=args.instructions).config()
        if args.tlb:
            config.tlb.enabled = True
        if args.sanitize:
            config.sanitize = True
        return config

    config = machine(scheme)
    if args.latency_report:
        config.capture_request_trace = 200_000
    from repro.sim.system import MulticoreSystem
    system = MulticoreSystem(config, mix, label=scheme.label)
    result = system.run()
    print(f"workload        : {args.workload} x{args.cores} cores, "
          f"{args.channels} channel(s)")
    print(f"instructions    : {result.total_instructions}")
    print(f"cycles          : {result.total_cycles}")
    print(f"aggregate IPC   : {sum(result.ipc_per_core):.3f}")
    print(f"L1 miss latency : {result.average_l1_miss_latency():.1f} cycles")
    print(f"DRAM reads/writes: {result.dram.reads}/{result.dram.writes} "
          f"(util {result.dram.utilization:.2f})")
    if result.prefetch.issued:
        print(f"prefetches      : {result.prefetch.issued} issued, "
              f"accuracy {result.prefetch.accuracy:.2f}, "
              f"lateness {result.prefetch.lateness:.2f}")
    if result.clip is not None:
        print(f"CLIP            : kept "
              f"{result.clip.prefetches_allowed}/"
              f"{result.clip.prefetches_seen} candidates, prediction "
              f"accuracy {result.clip.prediction_accuracy:.2f}, coverage "
              f"{result.clip.prediction_coverage:.2f}")
    if args.markdown_report:
        from repro.experiments.report import run_report
        from pathlib import Path
        text = run_report(result,
                          title=f"{args.workload} x{args.cores} cores, "
                                f"{args.channels} channel(s)",
                          trace=system.request_trace)
        Path(args.markdown_report).write_text(text)
        print(f"wrote {args.markdown_report}")
    if args.latency_report and system.request_trace is not None:
        from repro.sim.tracing import format_latency_report
        print("\n-- latency report --")
        print(format_latency_report(system.request_trace))
    if args.baseline:
        baseline = run_system(machine(scheme.baseline()), mix)
        print(f"weighted speedup vs no-prefetching: "
              f"{weighted_speedup(result, baseline):.3f}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.name in TABLES:
        TABLES[args.name]()
        return 0
    scale_fields = {}
    if args.cores is not None:
        scale_fields["num_cores"] = args.cores
    if args.instructions is not None:
        scale_fields["sim_instructions"] = args.instructions
    scale = dataclasses.replace(experiments.BenchScale(), **scale_fields)
    store = experiments.ResultStore() if args.cache else None
    runner = experiments.ExperimentRunner(scale, store=store,
                                          jobs=args.jobs)
    FIGURES[args.name](runner)
    # Cache accounting in the same shape `repro sweep` prints, so CI can
    # assert a warm rerun simulated nothing.
    print(f"simulated {runner.runs} point(s)")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.figures import print_series, speedup_series

    scale, schemes, workloads, channels = _build_grid(args)
    store = None if args.no_cache else experiments.ResultStore(
        args.cache_dir)
    runner = experiments.ExperimentRunner(scale, store=store,
                                          jobs=args.jobs)
    mixes = runner.homogeneous(workloads)
    series = speedup_series(runner, schemes, mixes, channels)
    print_series(f"Sweep: weighted speedup vs no-prefetching "
                 f"({args.cores} cores, {len(mixes)} workload(s))",
                 "scheme", series, channels)
    if args.csv:
        from repro.experiments.export import export_series_csv
        export_series_csv(series, channels, args.csv)
        print(f"wrote {args.csv}")
    # A fresh runner has no memo: every point it did not simulate came
    # from the disk store.
    points = len(runner.grid(list(schemes.values()), mixes, channels))
    print(f"\nsimulated {runner.runs} point(s); "
          f"{points - runner.runs} of {points} served from the disk "
          f"cache")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run one distributed campaign to completion (or interruption).

    SIGTERM/SIGINT trigger a graceful shutdown: in-flight jobs get a
    short drain window, the campaign manifest is persisted, and every
    completed point is already durable in the result store -- so a
    rerun (``--resume`` or the same grid) recomputes nothing.  Values
    the campaign cannot run with are usage errors (exit 2), reported
    before a port is bound.
    """
    import asyncio
    import json as json_mod
    from pathlib import Path

    from repro.experiments.sweep import ResultStore
    from repro.serve.coordinator import Coordinator, ServeSettings
    from repro.serve.manifest import load_manifest
    from repro.serve.queue import QueuePolicy

    try:
        if args.resume and not args.manifest:
            raise ValueError("--resume requires --manifest PATH")
        if args.workers < 0:
            raise ValueError(f"workers must be at least 0, got "
                             f"{args.workers}")
        policy = QueuePolicy(lease_timeout=args.lease_timeout,
                             max_attempts=args.max_attempts)
    except ValueError as exc:
        print(f"repro serve: error: {exc}", file=sys.stderr)
        return 2
    quarantined = {}
    if args.resume:
        state = load_manifest(args.manifest)
        specs = state["specs"]
        quarantined = state["quarantined"]
    else:
        scale, schemes, workloads, channels = _build_grid(args)
        runner = experiments.ExperimentRunner(scale)
        specs = list(runner.grid(list(schemes.values()),
                                 runner.homogeneous(workloads), channels))
    settings = ServeSettings(host=args.host, port=args.port, policy=policy)
    coordinator = Coordinator(specs, store=ResultStore(args.cache_dir),
                              settings=settings,
                              manifest_path=args.manifest,
                              quarantined=quarantined,
                              progress=print)
    interrupted = asyncio.run(_serve_campaign(coordinator,
                                              args.workers))
    status = coordinator.status()
    if args.status_json:
        Path(args.status_json).write_text(
            json_mod.dumps(status, indent=2, sort_keys=True))
        print(f"wrote {args.status_json}")
    print(f"simulated {coordinator.simulated} point(s); "
          f"{coordinator.cache_hits} of {status['total']} served from "
          f"the disk cache")
    for item in status["quarantine"]:
        error = (item["error"] or "unknown error").strip()
        print(f"quarantined: {item['label']} after {item['attempts']} "
              f"attempt(s): {error.splitlines()[-1]}")
    if interrupted:
        print("interrupted; campaign is resumable"
              + (f" from {args.manifest}" if args.manifest else ""))
        return 130
    return 2 if status["quarantine"] else 0


async def _serve_campaign(coordinator, local_workers: int) -> bool:
    """Serve until the campaign is terminal or a signal arrives;
    returns True when interrupted."""
    import asyncio
    import signal

    from repro.serve.worker import spawn_worker

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    await coordinator.start()
    print(f"serving campaign on {coordinator.url} "
          f"({len(coordinator.queue)} point(s), "
          f"{coordinator.cache_hits} already cached)")
    # Durable from the start, so a kill at any point is resumable.
    coordinator.write_manifest()
    workers = [spawn_worker(coordinator.url, f"local-{index}")
               for index in range(local_workers)]
    interrupted = False
    try:
        while True:
            if stop.is_set():
                interrupted = True
                break
            if await coordinator.wait_finished(timeout=0.2):
                break
            if workers and not coordinator.queue.finished and \
                    all(w.poll() is not None for w in workers):
                print("all local workers exited with work outstanding; "
                      "waiting for external workers (Ctrl-C to stop)")
                workers = []
    finally:
        await coordinator.stop()
        for worker in workers:
            if worker.poll() is None:
                worker.terminate()
        for worker in workers:
            try:
                worker.wait(timeout=5.0)
            except Exception:
                worker.kill()
    return interrupted


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.serve.worker import worker_loop
    return worker_loop(args.url, worker_id=args.id, max_jobs=args.max_jobs,
                       progress=print if args.verbose else None)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        from repro.analysis.lint import main as lint_main
        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "workloads":
        for name in workload_names():
            print(name)
        return 0
    if args.command == "compare":
        from repro import api
        from repro.experiments.report import comparison_report
        swept = api.sweep(args.schemes,
                          homogeneous_mix(args.workload, args.cores),
                          channels=args.channels,
                          sim_instructions=args.instructions, cache=False)
        results = {scheme: swept.only(scheme=scheme)
                   for scheme in args.schemes}
        baseline = "none" if "none" in results else args.schemes[0]
        print(comparison_report(
            results, baseline=baseline,
            title=f"{args.workload} x{args.cores} cores, "
                  f"{args.channels} channel(s)"))
        return 0
    if args.command == "characterize":
        from repro.trace.analysis import format_profile, profile_trace
        from repro.trace.synthetic import SyntheticWorkload
        from repro.trace.workloads import get_workload
        trace = SyntheticWorkload(get_workload(args.workload)).generate(
            args.instructions)
        print(format_profile(profile_trace(trace), name=args.workload))
        return 0
    return 1  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
