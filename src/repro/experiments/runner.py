"""Shared experiment runner built on the typed sweep layer.

Most figures compare several schemes against the *same* no-prefetching
baseline on the *same* workload mixes.  The runner canonicalises every
request into a frozen :class:`~repro.experiments.sweep.RunSpec`, memoises
results per spec within the process, and — when constructed with a
:class:`~repro.experiments.sweep.ResultStore` — persists them on disk so
warm reruns of any figure are free.  Batched requests
(:meth:`ExperimentRunner.run_sweep`) fan out across processes when the
runner was constructed with ``jobs > 1``.

The legacy calling convention (scheme *strings* plus ``**overrides``
kwargs) was removed after its deprecation cycle: passing a string now
raises ``TypeError`` pointing at :meth:`Scheme.parse` and the
:mod:`repro.api` facade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from repro.config import SystemConfig
from repro.experiments.sweep import (ResultStore, RunSpec, Scheme, Sweep,
                                     run_sweep)
from repro.sim.stats import SimulationResult, weighted_speedup
from repro.trace.mixes import heterogeneous_mixes, homogeneous_mix
from repro.trace.workloads import (CLOUDSUITE_WORKLOADS, CVP_WORKLOADS,
                                   SPEC_HOMOGENEOUS_MIXES)

SchemeLike = Union[Scheme, str]


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
    """Canonicalises experiment requests into specs and caches results."""

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
    # Spec construction
    # ------------------------------------------------------------------

    def coerce_scheme(self, scheme: SchemeLike, overrides: Mapping,
                      ) -> Scheme:
        """Accept a typed :class:`Scheme`; reject the removed string form."""
        if isinstance(scheme, Scheme):
            if overrides:
                raise TypeError(
                    "**overrides cannot be combined with a typed Scheme; "
                    "use dataclasses.replace on the scheme instead")
            return scheme
        raise TypeError(
            "string schemes and **overrides were removed (deprecated in "
            "the sweep-API redesign): pass a typed "
            "repro.experiments.sweep.Scheme -- e.g. "
            f"Scheme.parse({scheme!r}) -- or use the repro.api facade, "
            "whose simulate()/sweep() accept scheme names directly; see "
            "docs/api.md")

    def spec(self, scheme: SchemeLike, mix: Sequence[str], channels: int,
             **overrides) -> RunSpec:
        """The canonical :class:`RunSpec` for one request at this scale."""
        spec_scheme = self.coerce_scheme(scheme, overrides)
        return RunSpec(scheme=spec_scheme, mix=tuple(mix),
                       channels=channels,
                       num_cores=self.scale.num_cores,
                       sim_instructions=self.scale.sim_instructions)

    def spec_homogeneous(self, scheme: SchemeLike, workload: str,
                         channels: int, **overrides) -> RunSpec:
        spec_scheme = self.coerce_scheme(scheme, overrides)
        cores = spec_scheme.num_cores or self.scale.num_cores
        return self.spec(spec_scheme, homogeneous_mix(workload, cores),
                         channels)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, spec: RunSpec) -> SimulationResult:
        """Run (or recall) one spec."""
        return self.run_sweep([spec])[spec]

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

    # ------------------------------------------------------------------
    # Legacy surface (thin shims over the spec layer)
    # ------------------------------------------------------------------

    def config_for(self, scheme: SchemeLike, channels: int,
                   **overrides) -> SystemConfig:
        spec_scheme = self.coerce_scheme(scheme, overrides)
        return spec_scheme.build_config(channels, self.scale.num_cores,
                                        self.scale.sim_instructions)

    def run_mix(self, scheme: SchemeLike, mix: Sequence[str],
                channels: int, **overrides) -> SimulationResult:
        return self.run(self.spec(scheme, mix, channels, **overrides))

    def run_homogeneous(self, scheme: SchemeLike, workload: str,
                        channels: int, **overrides) -> SimulationResult:
        return self.run(self.spec_homogeneous(scheme, workload, channels,
                                              **overrides))

    # ------------------------------------------------------------------

    def speedup_homogeneous(self, scheme: SchemeLike, workload: str,
                            channels: int, **overrides) -> float:
        """Weighted speedup vs no-prefetching at the same channel count."""
        spec_scheme = self.coerce_scheme(scheme, overrides)
        target = self.spec_homogeneous(spec_scheme, workload, channels)
        base = self.spec_homogeneous(spec_scheme.baseline(), workload,
                                     channels)
        results = self.run_sweep([target, base])
        return weighted_speedup(results[target], results[base])

    def speedup_mix(self, scheme: SchemeLike, mix: Sequence[str],
                    channels: int, **overrides) -> float:
        spec_scheme = self.coerce_scheme(scheme, overrides)
        target = self.spec(spec_scheme, mix, channels)
        base = self.spec(spec_scheme.baseline(), mix, channels)
        results = self.run_sweep([target, base])
        return weighted_speedup(results[target], results[base])

    # ------------------------------------------------------------------

    def heterogeneous(self, count: Optional[int] = None) -> List[List[str]]:
        return heterogeneous_mixes(count or self.scale.heterogeneous_mixes,
                                   self.scale.num_cores)

    def cloud_workloads(self) -> List[str]:
        return CLOUDSUITE_WORKLOADS + CVP_WORKLOADS


__all__ = ["BenchScale", "ExperimentRunner", "Scheme", "RunSpec", "Sweep",
           "ResultStore"]
