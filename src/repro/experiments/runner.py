"""Shared experiment runner built on the typed sweep layer.

Most figures compare several schemes against the *same* no-prefetching
baseline on the *same* workload mixes.  The runner builds each figure's
grid from :meth:`ExperimentRunner.spec` points -- one core per workload
of a mix, at the runner's instruction count, with every point's
baseline -- memoises results per
:class:`~repro.experiments.sweep.RunSpec` within the process, and --
when constructed with a :class:`~repro.experiments.sweep.ResultStore` --
persists them on disk so warm reruns of any figure are free.  Every
batch fans out across processes when the runner was constructed with
``jobs > 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.sweep import (ResultStore, RunSpec, Scheme, Sweep,
                                     run_sweep)
from repro.sim.stats import SimulationResult, weighted_speedup
from repro.trace.mixes import heterogeneous_mixes, homogeneous_mix
from repro.trace.workloads import SPEC_HOMOGENEOUS_MIXES


@dataclass(frozen=True)
class BenchScale:
    """How far the experiments are scaled down from the paper's setup.

    The paper simulates 64 cores with {4..64} DDR4 channels for 200M
    instructions per core.  The default benchmark scale runs 8 cores, so
    one scaled channel carries the paper's 8-cores-per-channel pressure
    (the constrained operating point), and 16 channels the paper's
    unconstrained one.
    """

    num_cores: int = 8
    sim_instructions: int = 10_000
    #: Scaled channel counts standing in for the paper's {4, 8, 16, 32, 64}.
    channel_sweep: Tuple[int, ...] = (1, 2, 4, 8, 16)
    #: The paper's 8-channel headline operating point, scaled.
    constrained_channels: int = 1
    #: Number of homogeneous mixes sampled for averaged figures.
    homogeneous_sample: int = 9
    #: Number of heterogeneous mixes (paper: 200).
    heterogeneous_mixes: int = 6

    def sample_homogeneous(self) -> List[str]:
        step = max(1, len(SPEC_HOMOGENEOUS_MIXES) // self.homogeneous_sample)
        return SPEC_HOMOGENEOUS_MIXES[::step][:self.homogeneous_sample]


class ExperimentRunner:
    """Runs figure grids at one scale and caches their results."""

    def __init__(self, scale: Optional[BenchScale] = None,
                 store: Optional[ResultStore] = None,
                 jobs: int = 1) -> None:
        self.scale = scale or BenchScale()
        self.store = store
        self.jobs = jobs
        self._memo: Dict[RunSpec, SimulationResult] = {}
        #: Number of simulations actually executed (memo and disk-cache
        #: hits do not count).
        self.runs = 0

    # ------------------------------------------------------------------
    # Points and mixes
    # ------------------------------------------------------------------

    def spec(self, scheme: Scheme, mix: Sequence[str],
             channels: int) -> RunSpec:
        """The :class:`RunSpec` of one point at this scale's instruction
        count, on one core per workload of ``mix``."""
        return RunSpec(scheme=scheme, mix=tuple(mix), channels=channels,
                       sim_instructions=self.scale.sim_instructions)

    def homogeneous(self, workloads: Sequence[str],
                    cores: Optional[int] = None) -> List[List[str]]:
        """One homogeneous mix per workload, on ``cores`` cores (default:
        this scale's)."""
        return [homogeneous_mix(workload, cores or self.scale.num_cores)
                for workload in workloads]

    def heterogeneous(self, count: Optional[int] = None) -> List[List[str]]:
        return heterogeneous_mixes(count or self.scale.heterogeneous_mixes,
                                   self.scale.num_cores)

    def grid(self, schemes: Sequence[Scheme],
             mixes: Sequence[Sequence[str]],
             channels: Sequence[int]) -> Sweep:
        """Every scheme on every mix at every channel count, as
        :meth:`spec` points, plus each point's no-prefetching
        baseline."""
        return Sweep(self.spec(scheme, mix, ch) for scheme in schemes
                     for mix in mixes for ch in channels).with_baselines()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run_sweep(self, sweep: Iterable[RunSpec],
                  ) -> Dict[RunSpec, SimulationResult]:
        """Execute a batch of independent specs.

        Points already memoised in-process are free; the rest go through
        :func:`repro.experiments.sweep.run_sweep`, which consults the
        disk store and fans true misses across ``self.jobs`` processes.
        """
        outcome = run_sweep(sweep, jobs=self.jobs, store=self.store,
                            known=self._memo)
        self._memo.update(outcome.results)
        self.runs += outcome.simulated
        return outcome.results

    def results(self, schemes: Sequence[Scheme],
                mixes: Sequence[Sequence[str]],
                channels: Sequence[int]) -> Dict[RunSpec, SimulationResult]:
        """Run :meth:`grid` as one batch; look a point up with
        :meth:`spec`."""
        return self.run_sweep(self.grid(schemes, mixes, channels))

    def speedups(self, schemes: Sequence[Scheme],
                 mixes: Sequence[Sequence[str]],
                 channels: Sequence[int],
                 ) -> Dict[Tuple[Scheme, int], List[float]]:
        """Weighted speedup over no-prefetching at the same channel
        count, keyed ``(scheme, channels)``: one value per mix, in
        order."""
        results = self.results(schemes, mixes, channels)
        return {
            (scheme, ch): [
                weighted_speedup(
                    results[self.spec(scheme, mix, ch)],
                    results[self.spec(scheme.baseline(), mix, ch)])
                for mix in mixes]
            for scheme in schemes for ch in channels
        }


__all__ = ["BenchScale", "ExperimentRunner", "Scheme", "RunSpec", "Sweep",
           "ResultStore"]
