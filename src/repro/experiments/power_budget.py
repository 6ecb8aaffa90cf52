"""Power-budget sweep: best performance under a fixed package budget.

The paper's pitch is that criticality-filtered prefetching buys
performance *without* spending DRAM bandwidth -- and bandwidth is energy.
This driver turns that into an operating-point search: sweep DVFS
frequency and core mix (symmetric big cores vs a big/little split) for
Berti+CLIP, compute each point's mean package power
(:func:`repro.energy.package_power_w`), and report the
best-performing point that fits under a fixed package budget.

Speedups across frequencies are not comparable as raw IPC ratios (IPC is
per *core* cycle and the core clock changes), so every point is scored by
its *frequency-adjusted* weighted speedup against one fixed reference:
the symmetric no-prefetching system at the base 4 GHz clock.  Per core,

    speedup_i = (ipc_i * f) / (ipc_ref_i * f_ref)

which is the ratio of instruction *rates* (instructions per second) and
therefore frequency-safe.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.energy import BASE_FREQUENCY_GHZ, package_power_w
from repro.experiments.report import print_figure
from repro.experiments.runner import ExperimentRunner
from repro.experiments.statistics import arithmetic_mean
from repro.experiments.sweep import Scheme
from repro.sim.stats import SimulationResult

#: DVFS operating points swept (GHz); the last is the Table-3 reference.
FREQUENCIES_GHZ: Tuple[float, ...] = (3.0, 3.5, 4.0)

#: Default package budget in watts at benchmark scale (8 cores at 2 W
#: each leaves no uncore headroom, so the budget forces a trade-off).
DEFAULT_BUDGET_W = 14.0


def frequency_adjusted_speedup(result: SimulationResult,
                               reference: SimulationResult,
                               frequency_ghz: float,
                               reference_ghz: float) -> float:
    """Weighted speedup by instruction *rate*, valid across frequencies."""
    if len(result.cores) != len(reference.cores):
        raise ValueError("core counts differ between result and reference")
    if not result.cores:
        raise ValueError("empty results")
    total = 0.0
    for mine, theirs in zip(result.cores, reference.cores):
        if theirs.ipc <= 0:
            raise ValueError(
                f"reference core {theirs.core_id} has zero IPC")
        total += (mine.ipc * frequency_ghz) / (theirs.ipc * reference_ghz)
    return total / len(result.cores)


def _variants(num_cores: int) -> Dict[str, Optional[int]]:
    """Core-mix variants: symmetric, and a half-big/half-little split."""
    return {"symmetric": None, "big.little": num_cores // 2}


def power_budget_study(runner: Optional[ExperimentRunner] = None,
                       budget_w: float = DEFAULT_BUDGET_W,
                       frequencies: Sequence[float] = FREQUENCIES_GHZ,
                       sample: int = 3,
                       quiet: bool = False) -> Dict:
    """Sweep (frequency x core mix) for Berti+CLIP under a power budget.

    Averages package power, energy, EDP, and frequency-adjusted weighted
    speedup over ``sample`` homogeneous mixes at the constrained channel
    count, then picks the fastest point whose mean package power fits
    under ``budget_w``.  Returns the full grid plus the winner.
    """
    runner = runner if runner is not None else ExperimentRunner()
    workloads = runner.scale.sample_homogeneous()[:sample]
    channels = runner.scale.constrained_channels
    num_cores = runner.scale.num_cores
    variants = _variants(num_cores)

    reference = Scheme()  # symmetric, no prefetching, base clock
    grid: Dict[Tuple[str, float], Scheme] = {
        (variant, freq): Scheme(
            l1="berti", clip=True, big_cores=big_cores,
            frequency_ghz=None if freq == BASE_FREQUENCY_GHZ else freq)
        for variant, big_cores in variants.items()
        for freq in frequencies
    }

    # One batched sweep: every grid point on every mix, plus the shared
    # reference points, so jobs>1 fans out and warm reruns are free.  The
    # fixed reference stands in for each point's own baseline (which
    # would keep its clock and core mix), so no baseline runs.
    mixes = runner.homogeneous(workloads)
    results = runner.run_sweep(runner.spec(scheme, mix, channels)
                               for mix in mixes
                               for scheme in [reference, *grid.values()])

    out: Dict[Tuple[str, float], Dict[str, float]] = {}
    for (variant, freq), scheme in grid.items():
        config = scheme.build_config(channels, num_cores,
                                     runner.scale.sim_instructions)
        powers, energies, edps, speedups = [], [], [], []
        for mix in mixes:
            result = results[runner.spec(scheme, mix, channels)]
            ref = results[runner.spec(reference, mix, channels)]
            powers.append(package_power_w(result, config))
            energies.append(result.energy_mj)
            edps.append(result.edp_mj_s)
            speedups.append(frequency_adjusted_speedup(
                result, ref, freq, BASE_FREQUENCY_GHZ))
        out[(variant, freq)] = {
            "power_w": arithmetic_mean(powers),
            "energy_mj": arithmetic_mean(energies),
            "edp_mj_s": arithmetic_mean(edps),
            "speedup": arithmetic_mean(speedups),
        }

    feasible = {point: row for point, row in out.items()
                if row["power_w"] <= budget_w}
    best = (max(feasible, key=lambda point: feasible[point]["speedup"])
            if feasible else None)

    if not quiet:
        rows = []
        for (variant, freq), row in sorted(out.items()):
            rows.append([variant, freq, row["power_w"], row["energy_mj"],
                         row["edp_mj_s"], row["speedup"],
                         "yes" if row["power_w"] <= budget_w else "no"])
        print_figure(
            f"Power budget: berti+clip under {budget_w:g} W "
            f"(vs none@{BASE_FREQUENCY_GHZ:g} GHz)",
            ["mix", "GHz", "power W", "energy mJ", "EDP mJ.s",
             "speedup", "fits"],
            rows)
        if best is not None:
            variant, freq = best
            print(f"best under budget: {variant} @ {freq:g} GHz "
                  f"(speedup {feasible[best]['speedup']:.3f})")
        else:
            print("no operating point fits under the budget")

    return {
        "budget_w": budget_w,
        "grid": {f"{variant}@{freq:g}GHz": row
                 for (variant, freq), row in out.items()},
        "best": (f"{best[0]}@{best[1]:g}GHz" if best else None),
    }


__all__ = ["DEFAULT_BUDGET_W", "FREQUENCIES_GHZ",
           "frequency_adjusted_speedup", "power_budget_study"]
