"""Package power model: cores + uncore under DVFS-style scaling.

Following the lumos-style power-budgeted heterogeneous-system modeling,
each core's power scales with its microarchitectural size (issue width
linearly, ROB as a square root -- wider structures pay superlinear
wiring but clock-gate well) and cubically with frequency (classic
voltage-frequency scaling, P proportional to C V^2 f with V proportional
to f).  The uncore (NoC + LLC + DRAM interface) runs on its own fixed
clock: its *dynamic* power is the counter-driven memory-hierarchy energy
(:func:`repro.energy.dynamic_energy`) divided by wall-clock time, plus a
static floor per channel.

Only *relative* power matters for the budget driver's decisions, exactly
as only relative energy matters for the paper's energy claims.
"""

from __future__ import annotations

import math

from repro.config import CoreConfig, SystemConfig
from repro.sim.stats import SimulationResult

#: The Table-3 reference core (6-wide, 512-entry ROB) at 4 GHz.
BASE_FREQUENCY_GHZ = 4.0
BASE_CORE_POWER_W = 2.0
BASE_ISSUE_WIDTH = 6
BASE_ROB_ENTRIES = 512

#: Uncore static floor: package baseline plus per-DRAM-channel interface.
UNCORE_STATIC_BASE_W = 1.0
UNCORE_STATIC_PER_CHANNEL_W = 0.5


def core_power_w(core: CoreConfig) -> float:
    """One core's power at its configured frequency.

    ``width x sqrt(rob) x (f / f_base)^3`` relative to the reference
    core -- a little core (narrow issue, small ROB) costs a fraction of
    a big one, and dropping frequency buys cubic savings.
    """
    width = core.issue_width / BASE_ISSUE_WIDTH
    rob = math.sqrt(core.rob_entries / BASE_ROB_ENTRIES)
    ratio = core.frequency_ghz / BASE_FREQUENCY_GHZ
    return BASE_CORE_POWER_W * width * rob * ratio ** 3


def cores_power_w(config: SystemConfig) -> float:
    """Total core power, honouring per-core overrides (big/little)."""
    return sum(core_power_w(config.core_for(core_id))
               for core_id in range(config.num_cores))


def uncore_static_w(config: SystemConfig) -> float:
    return (UNCORE_STATIC_BASE_W
            + UNCORE_STATIC_PER_CHANNEL_W * config.dram.channels)


def execution_seconds(result: SimulationResult,
                      config: SystemConfig) -> float:
    """Wall-clock time of the run at the configured core frequency."""
    return result.total_cycles / (config.core.frequency_ghz * 1e9)


def package_power_w(result: SimulationResult,
                    config: SystemConfig) -> float:
    """Mean package power over the run: cores + uncore dynamic + static.

    Uncore dynamic power is the result's counter-driven memory-hierarchy
    energy (``energy_mj``) spread over the run's wall-clock time.
    """
    seconds = execution_seconds(result, config)
    uncore_dynamic = ((result.energy_mj / 1e3) / seconds if seconds > 0
                      else 0.0)
    return cores_power_w(config) + uncore_dynamic + uncore_static_w(config)


__all__ = ["BASE_FREQUENCY_GHZ", "BASE_CORE_POWER_W", "core_power_w",
           "cores_power_w", "uncore_static_w", "execution_seconds",
           "package_power_w"]
