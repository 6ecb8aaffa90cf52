"""repro: reproduction of CLIP (MICRO 2023).

CLIP: Load Criticality based Data Prefetching for Bandwidth-constrained
Many-core Systems (Biswabandan Panda, MICRO 2023).

The documented public surface is :mod:`repro.api` (see ``docs/api.md``):

>>> from repro import api
>>> config = api.scaled_config(num_cores=4, channels=1,
...                            sim_instructions=2000)
>>> config.clip.enabled = True
>>> result = api.simulate(config, ["605.mcf_s-1536B"] * 4)
>>> result.total_instructions
8000

``api.sweep`` runs scheme/workload/channel grids with disk caching.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro import api
from repro.api import SweepResult, simulate, sweep
from repro.config import (ClipConfig, CoreConfig, DramConfig,
                          PrefetcherConfig, SystemConfig, scaled_config)
from repro.sim.stats import SimulationResult, weighted_speedup
from repro.sim.system import MulticoreSystem, run_system

__version__ = "1.1.0"

__all__ = [
    "api", "simulate", "sweep", "SweepResult",
    "ClipConfig", "CoreConfig", "DramConfig", "PrefetcherConfig",
    "SystemConfig", "scaled_config", "SimulationResult", "weighted_speedup",
    "MulticoreSystem", "run_system", "__version__",
]
