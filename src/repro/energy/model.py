"""Dynamic energy of the memory hierarchy.

The paper feeds CACTI-P (7 nm) and the Micron DRAM power calculator with
per-structure access counts.  We embed CACTI-class per-access energies
(order-of-magnitude figures for 7 nm SRAM arrays and DDR4 devices; only
*relative* energy matters for the paper's claims) and aggregate them with
the simulation's access counts.  CLIP's own structures are charged too, as
the paper notes its energy accounting includes them.

The model is *counter-driven*: exact flit-hop counts (real XY route
lengths), per-channel activates, and CLIP filter/predictor/utility-CAM
accesses come straight off ``SimulationResult.counters``, the
per-component snapshot (``repro.sim.counters``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.sim.stats import SimulationResult

#: Per-access dynamic energies in picojoules (7 nm class, tag+data).
ENERGY_PJ = {
    "l1d_access": 12.0,
    "l2_access": 35.0,
    "llc_access": 90.0,
    "noc_flit_hop": 4.0,
    "dram_read": 15_000.0,
    "dram_write": 15_500.0,
    "dram_activate": 9_000.0,
    # CLIP structures (Table 2 scale: a few hundred bytes each).
    "clip_filter": 0.6,
    "clip_predictor": 0.8,
    "clip_utility_cam": 1.5,
    # Learned-policy tables (bandit Q entries / perceptron weight
    # lanes; same few-hundred-byte class as the CLIP structures).
    "policy_table": 0.9,
}


@dataclass
class EnergyBreakdown:
    """Dynamic energy by component, in millijoules."""

    components_mj: Dict[str, float] = field(default_factory=dict)

    @property
    def total_mj(self) -> float:
        return sum(self.components_mj.values())


def dynamic_energy(result: SimulationResult) -> EnergyBreakdown:
    """Aggregate dynamic energy from a result's counter snapshot."""
    picojoules = _counter_picojoules(result.counters)
    breakdown = EnergyBreakdown()
    breakdown.components_mj = {
        name: pj / 1e9 for name, pj in picojoules.items()
    }
    return breakdown


def _counter_picojoules(
        counters: Dict[str, Dict[str, int]]) -> Dict[str, float]:
    """Exact per-component energy from the counter snapshot."""
    pj: Dict[str, float] = {}

    def charge(component: str, picojoules: float) -> None:
        pj[component] = pj.get(component, 0.0) + picojoules

    for group, values in counters.items():
        if group.endswith(".l1d"):
            accesses = values["demand_accesses"] + values["prefetch_fills"]
            charge("L1D", accesses * ENERGY_PJ["l1d_access"])
        elif group.endswith(".l2"):
            accesses = values["demand_accesses"] + values["prefetch_fills"]
            charge("L2", accesses * ENERGY_PJ["l2_access"])
        elif group.startswith("llc.slice"):
            accesses = values["demand_accesses"] + values["prefetch_fills"]
            charge("LLC", accesses * ENERGY_PJ["llc_access"])
        elif group == "noc":
            charge("NoC", values["flit_hops"] * ENERGY_PJ["noc_flit_hop"])
        elif group.startswith("dram.ch"):
            charge("DRAM",
                   values["reads"] * ENERGY_PJ["dram_read"]
                   + values["writes"] * ENERGY_PJ["dram_write"]
                   + values["activates"] * ENERGY_PJ["dram_activate"])
        elif group.endswith(".chain"):
            clip_pj = (
                values.get("clip_filter_accesses", 0)
                * ENERGY_PJ["clip_filter"]
                + values.get("clip_predictor_accesses", 0)
                * ENERGY_PJ["clip_predictor"]
                + values.get("clip_utility_cam_accesses", 0)
                * ENERGY_PJ["clip_utility_cam"])
            if clip_pj:
                charge("CLIP", clip_pj)
            policy_pj = (values.get("policy_table_accesses", 0)
                         * ENERGY_PJ["policy_table"])
            if policy_pj:
                charge("Policy", policy_pj)
    return pj
