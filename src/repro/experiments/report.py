"""Rendering: markdown reports and aligned plain-text tables.

Renders one :class:`SimulationResult` (plus optional comparisons and a
request trace) as a self-contained markdown document -- the artifact to
attach to a design discussion or regression ticket -- and hosts the
plain-text table helpers the figure drivers print with (formerly in
``repro.experiments.reporting``; the numeric mean helpers from that
module moved to ``repro.experiments.statistics``).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from repro.sim.metrics import compare_schemes, summarize
from repro.sim.stats import SimulationResult
from repro.sim.tracing import RequestTrace


def _table(headers, rows) -> str:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(_cell(c) for c in row) + " |")
    return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned ASCII table."""
    materialised = [[_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in materialised:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def print_figure(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> None:
    print()
    print(f"== {title} ==")
    print(format_table(headers, rows))


def run_report(result: SimulationResult, title: str = "Simulation report",
               trace: Optional[RequestTrace] = None) -> str:
    """Markdown report for a single simulation."""
    summary = summarize(result)
    sections = [f"# {title}", "",
                f"Configuration: `{result.config_label}`, "
                f"{len(result.cores)} cores, "
                f"{result.total_instructions} instructions, "
                f"{result.total_cycles} cycles.", ""]
    sections.append("## Headline metrics\n")
    sections.append(_table(
        ["metric", "value"],
        sorted(summary.items())))
    sections.append("\n## Per-core\n")
    sections.append(_table(
        ["core", "workload", "IPC", "loads", "mispredicts",
         "critical loads"],
        [[c.core_id, c.workload, c.ipc, c.loads, c.mispredicts,
          c.critical_load_instances] for c in result.cores]))
    sections.append("\n## Cache levels\n")
    sections.append(_table(
        ["level", "demand accesses", "demand misses", "miss coverage",
         "avg miss latency"],
        [[name, level.demand_accesses, level.demand_misses,
          level.miss_coverage, level.average_miss_latency]
         for name, level in result.levels.items()]))
    if result.clip is not None:
        clip = result.clip
        sections.append("\n## CLIP\n")
        sections.append(_table(
            ["metric", "value"],
            [["prediction accuracy", clip.prediction_accuracy],
             ["prediction coverage", clip.prediction_coverage],
             ["candidates seen", clip.prefetches_seen],
             ["candidates allowed", clip.prefetches_allowed],
             ["static-critical IPs", clip.static_critical_ips],
             ["dynamic-critical IPs", clip.dynamic_critical_ips],
             ["exploration windows", clip.windows],
             ["phase changes", clip.phase_changes]]))
    if trace is not None and len(trace):
        sections.append("\n## Demand-load latency\n")
        sections.append(_table(
            ["percentile", "cycles"],
            [["p50", trace.percentile(0.5)],
             ["p90", trace.percentile(0.9)],
             ["p99", trace.percentile(0.99)]]))
    return "\n".join(sections) + "\n"


def comparison_report(results: Mapping[str, SimulationResult],
                      baseline: str = "none",
                      title: str = "Scheme comparison") -> str:
    """Markdown report comparing several schemes on the same mix."""
    rows = compare_schemes(results, baseline=baseline)
    columns = ["scheme", "weighted_speedup", "aggregate_ipc", "l1_mpki",
               "l1_miss_latency", "prefetch_issued", "prefetch_accuracy",
               "dram_utilization"]
    body = _table(columns,
                  [[row[c] for c in columns] for row in rows])
    return f"# {title}\n\nBaseline: `{baseline}`.\n\n{body}\n"
