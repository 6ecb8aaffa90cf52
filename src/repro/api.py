"""The public API of the repro package.

This module is the single documented entrypoint for running simulations:

>>> from repro import api
>>> config = api.scaled_config(num_cores=4, channels=1,
...                            sim_instructions=2000)
>>> config.clip.enabled = True
>>> result = api.simulate(config, ["605.mcf_s-1536B"] * 4)
>>> result.total_instructions
8000

and for sweeping scheme/workload/channel grids with on-disk caching:

>>> swept = api.sweep(["none", "berti", "berti+clip"],
...                   ["605.mcf_s-1536B"] * 4,
...                   channels=1, num_cores=4, sim_instructions=2000)
>>> sorted(r.config_label for r in swept)
['berti', 'berti+clip', 'none']

Results carry the per-component counter layer
(``SimulationResult.counters``, see ``docs/simulator.md``) and the
counter-driven energy columns (``energy_mj``, ``edp_mj_s``,
``energy_breakdown_mj``); :func:`power_budget` searches DVFS/core-mix
operating points under a fixed package power budget.

Everything else under ``repro.*`` is implementation: importable and
stable within a release, but the facade is what README, ``examples/``
and ``docs/api.md`` teach, and what deprecation policy covers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple, Union)

from repro.config import SystemConfig, scaled_config
from repro.energy import dynamic_energy, package_power_w
from repro.experiments.sweep import (ResultStore, RunSpec, Scheme, Sweep,
                                     run_sweep)
from repro.sim.stats import SimulationResult, weighted_speedup
from repro.sim.system import run_system

__all__ = [
    "simulate", "sweep", "power_budget", "SweepResult", "Scheme",
    "RunSpec", "SystemConfig", "scaled_config", "SimulationResult",
    "weighted_speedup", "dynamic_energy", "package_power_w",
]

#: A scheme argument: a typed :class:`Scheme` or a legacy-style name
#: such as ``"berti+clip"`` (parsed with :meth:`Scheme.parse`).
SchemeLike = Union[str, Scheme]
#: A workload argument: one mix (sequence of workload names, one per
#: core) or a sequence of mixes.
WorkloadsLike = Union[Sequence[str], Sequence[Sequence[str]]]


def simulate(config: SystemConfig, workloads: Sequence[str],
             label: str = "") -> SimulationResult:
    """Run one simulation and return its :class:`SimulationResult`.

    ``workloads`` names one trace per core (see
    :func:`repro.trace.homogeneous_mix` for the common N-copies case).
    """
    return run_system(config, list(workloads), label=label)


@dataclass(frozen=True)
class SweepResult:
    """What :func:`sweep` ran: every point's result plus provenance.

    Iterating yields :class:`SimulationResult` objects in sweep order;
    ``items()`` pairs them with their :class:`RunSpec` for filtering.
    """

    specs: Tuple[RunSpec, ...]
    results: Mapping[RunSpec, SimulationResult]
    #: Points actually simulated by this call.
    simulated: int
    #: Points served from the on-disk cache.
    cache_hits: int
    #: Per-point producer: ``"cache"``, ``"local"``, or the distributed
    #: worker id that simulated the point (``executor="distributed"``).
    provenance: Mapping[RunSpec, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[SimulationResult]:
        return (self.results[spec] for spec in self.specs)

    def __getitem__(self, spec: RunSpec) -> SimulationResult:
        return self.results[spec]

    def items(self) -> Iterator[Tuple[RunSpec, SimulationResult]]:
        return ((spec, self.results[spec]) for spec in self.specs)

    def producer(self, spec: RunSpec) -> str:
        """Who produced a point: ``"cache"``, ``"local"``, or a
        distributed worker id."""
        return self.provenance[spec]

    def find(self, scheme: Optional[SchemeLike] = None,
             mix: Optional[Sequence[str]] = None,
             channels: Optional[int] = None) -> List[SimulationResult]:
        """Results matching every given coordinate, in sweep order."""
        if isinstance(scheme, str):
            scheme = Scheme.parse(scheme)
        return [self.results[spec] for spec in self.specs
                if (scheme is None or spec.scheme == scheme)
                and (mix is None or spec.mix == tuple(mix))
                and (channels is None or spec.channels == channels)]

    def only(self, scheme: Optional[SchemeLike] = None,
             mix: Optional[Sequence[str]] = None,
             channels: Optional[int] = None) -> SimulationResult:
        """The single result matching the coordinates, or ``LookupError``."""
        matches = self.find(scheme=scheme, mix=mix, channels=channels)
        if len(matches) != 1:
            raise LookupError(
                f"{len(matches)} sweep points match "
                f"(scheme={scheme!r}, mix={mix!r}, channels={channels!r}); "
                f"expected exactly one")
        return matches[0]


def _as_schemes(schemes: Union[SchemeLike,
                               Iterable[SchemeLike]]) -> List[Scheme]:
    if isinstance(schemes, (str, Scheme)):
        schemes = [schemes]
    return [Scheme.parse(s) if isinstance(s, str) else s for s in schemes]


def _as_mixes(workloads: WorkloadsLike) -> List[Tuple[str, ...]]:
    items = list(workloads)
    if not items:
        raise ValueError("no workloads given")
    if isinstance(items[0], str):
        return [tuple(items)]  # type: ignore[arg-type]
    return [tuple(mix) for mix in items]


def sweep(schemes: Union[SchemeLike, Iterable[SchemeLike]],
          workloads: WorkloadsLike, *,
          channels: Union[int, Sequence[int]] = 1,
          num_cores: int = 8,
          sim_instructions: int = 10_000,
          baselines: bool = False,
          jobs: int = 1,
          cache: Union[bool, str, ResultStore] = True,
          executor: str = "local",
          on_result: Optional[Callable[[RunSpec, SimulationResult],
                                       None]] = None) -> SweepResult:
    """Simulate the cross product of schemes x workload mixes x channels.

    ``schemes`` accepts typed :class:`Scheme` objects or legacy-style
    names ("berti+clip"); ``workloads`` accepts one mix or a list of
    mixes; ``channels`` one count or several.  ``baselines=True`` adds
    the matching no-prefetching reference point for every point (for
    :func:`weighted_speedup` denominators).  Completed points are served
    from the on-disk cache (``cache`` may be ``False``, a directory, or
    a :class:`ResultStore`); fresh points fan out across ``jobs``
    processes.

    ``executor="distributed"`` fans the misses out through the
    :mod:`repro.serve` coordinator/worker service instead of a local
    process pool (``jobs`` worker subprocesses; bit-identical results;
    transparent fallback to local execution when the service cannot
    start); :attr:`SweepResult.provenance` then records which worker
    produced each point.  See ``docs/serving.md``.
    """
    grid = Sweep.product(_as_schemes(schemes), _as_mixes(workloads),
                         [channels] if isinstance(channels, int)
                         else list(channels),
                         num_cores=num_cores,
                         sim_instructions=sim_instructions)
    if baselines:
        grid = grid.with_baselines()
    if isinstance(cache, ResultStore):
        store: Optional[ResultStore] = cache
    elif cache is True:
        store = ResultStore()
    elif cache:
        store = ResultStore(cache)
    else:
        store = None
    outcome = run_sweep(grid, jobs=jobs, store=store, executor=executor,
                        on_result=on_result)
    return SweepResult(specs=tuple(grid), results=outcome.results,
                       simulated=outcome.simulated,
                       cache_hits=outcome.cache_hits,
                       provenance=dict(outcome.provenance))


def power_budget(budget_w: Optional[float] = None, *,
                 num_cores: int = 8,
                 sim_instructions: int = 10_000,
                 sample: int = 3,
                 jobs: int = 1,
                 cache: Union[bool, str, ResultStore] = True,
                 quiet: bool = True) -> Dict:
    """Best Berti+CLIP operating point under a package power budget.

    Sweeps DVFS frequency and core mix (symmetric vs big/little, see
    :func:`repro.config.big_little_overrides`), scores each point by its
    frequency-adjusted weighted speedup over the no-prefetching baseline
    at the base clock, and reports the fastest point whose mean package
    power (:func:`repro.energy.package_power_w`) fits under ``budget_w``.
    Returns the grid plus the winner; ``quiet=False`` also prints the
    figure.  Caching semantics match :func:`sweep`.
    """
    from repro.experiments.power_budget import (DEFAULT_BUDGET_W,
                                                power_budget_study)
    from repro.experiments.runner import BenchScale, ExperimentRunner
    if isinstance(cache, ResultStore):
        store: Optional[ResultStore] = cache
    elif cache is True:
        store = ResultStore()
    elif cache:
        store = ResultStore(cache)
    else:
        store = None
    runner = ExperimentRunner(
        BenchScale(num_cores=num_cores,
                   sim_instructions=sim_instructions),
        store=store, jobs=jobs)
    return power_budget_study(
        runner,
        budget_w=DEFAULT_BUDGET_W if budget_w is None else budget_w,
        sample=sample, quiet=quiet)
