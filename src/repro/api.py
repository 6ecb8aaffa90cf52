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

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.config import SystemConfig, scaled_config
from repro.energy import dynamic_energy, package_power_w
from repro.experiments.sweep import (ResultStore, RunSpec, Scheme,
                                     SchemeLike, Sweep, SweepResult,
                                     run_sweep)
from repro.sim.stats import SimulationResult, weighted_speedup
from repro.sim.system import run_system

__all__ = [
    "simulate", "sweep", "power_budget", "SweepResult", "Scheme",
    "RunSpec", "SystemConfig", "scaled_config", "SimulationResult",
    "weighted_speedup", "dynamic_energy", "package_power_w",
]

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


def _store(cache: Union[bool, str, ResultStore]) -> Optional[ResultStore]:
    """The store a ``cache`` argument names: ``True`` the default
    directory, a path that directory, ``False`` none."""
    if isinstance(cache, ResultStore):
        return cache
    if cache is True:
        return ResultStore()
    return ResultStore(cache) if cache else None


def sweep(schemes: Union[SchemeLike, Iterable[SchemeLike]],
          workloads: WorkloadsLike, *,
          channels: Union[int, Sequence[int]] = 1,
          num_cores: Optional[int] = None,
          sim_instructions: int = 10_000,
          baselines: bool = False,
          jobs: int = 1,
          cache: Union[bool, str, ResultStore] = True) -> SweepResult:
    """Simulate the cross product of schemes x workload mixes x channels.

    ``schemes`` accepts typed :class:`Scheme` objects or legacy-style
    names ("berti+clip"); ``workloads`` accepts one mix or a list of
    mixes; ``channels`` one count or several.  A point runs one core per
    workload of its mix; ``num_cores``, when given, must agree with
    every mix.  ``baselines=True`` adds the matching no-prefetching
    reference point for every point (for :func:`weighted_speedup`
    denominators).  Completed points are served from the on-disk cache
    (``cache`` may be ``False``, a directory, or a
    :class:`ResultStore`); fresh points fan out across ``jobs``
    processes.

    A campaign run with ``repro serve`` and ``repro worker`` writes the
    same store under the same keys: ``cache=<its cache dir>`` over the
    campaign's grid reads every point as a hit.  See
    ``docs/serving.md``.
    """
    grid = Sweep.product(_as_schemes(schemes), _as_mixes(workloads),
                         [channels] if isinstance(channels, int)
                         else list(channels),
                         num_cores=num_cores,
                         sim_instructions=sim_instructions)
    if baselines:
        grid = grid.with_baselines()
    return run_sweep(grid, jobs=jobs, store=_store(cache))


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
    runner = ExperimentRunner(
        BenchScale(num_cores=num_cores,
                   sim_instructions=sim_instructions),
        store=_store(cache), jobs=jobs)
    return power_budget_study(
        runner,
        budget_w=DEFAULT_BUDGET_W if budget_w is None else budget_w,
        sample=sample, quiet=quiet)
