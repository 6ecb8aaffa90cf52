"""Fixed-seed scheme x workload-mix points pinning simulator behaviour.

These points define the equivalence contract of the hierarchy refactor:
``SimulationResult.to_dict()`` for every point must be bit-identical to
the golden JSON captured from the pre-refactor ``MulticoreSystem``
(commit 365ec1d and earlier), stored in ``tests/data/equivalence/``.

Regenerate the goldens (only when a behaviour change is *intended* and
reviewed) with ``python scripts/regenerate_equivalence_goldens.py``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.config import SystemConfig, scaled_config

GOLDEN_DIR = Path(__file__).parent / "data" / "equivalence"
#: What every figure and table driver returns and prints at the micro
#: scale of :func:`figure_driver_outputs`.
DRIVER_PIN = Path(__file__).parent / "data" / "figure_drivers.json"


def result_digest(result: dict) -> str:
    """sha256 over a ``to_dict()`` tree with sorted keys."""
    return hashlib.sha256(
        json.dumps(result, sort_keys=True).encode()).hexdigest()


def _base(instructions: int = 2_500,
          warmup: int = 0) -> SystemConfig:
    return scaled_config(num_cores=2, channels=1,
                         sim_instructions=instructions,
                         warmup_instructions=warmup)


def _point_none_mcf() -> Tuple[SystemConfig, List[str]]:
    """No prefetching: the bare demand path core->L1->L2->NoC->LLC->DRAM."""
    config = _base()
    config.l1_prefetcher = dataclasses.replace(config.l1_prefetcher,
                                               name="none")
    return config, ["605.mcf_s-1536B", "605.mcf_s-1536B"]


def _point_clip_berti_hetero() -> Tuple[SystemConfig, List[str]]:
    """CLIP + L1 berti + L2 spp_ppf over a heterogeneous mix.

    Exercises the prefetch filter chain (CLIP gate, duplicate/MSHR
    drops), criticality-flagged NoC/DRAM priority, and both prefetcher
    issue levels.
    """
    config = _base()
    config.l1_prefetcher = dataclasses.replace(config.l1_prefetcher,
                                               name="berti")
    config.l2_prefetcher = dataclasses.replace(config.l2_prefetcher,
                                               name="spp_ppf")
    config.clip.enabled = True
    return config, ["623.xalancbmk_s-10B", "tc-14"]


def _point_mechanisms_stride() -> Tuple[SystemConfig, List[str]]:
    """Stride + Hermes + DSPatch + FDP throttle + criticality gate + TLB.

    Pins the related-work hooks (off-chip predictor launches, DSPatch
    candidate modulation), the throttling epoch, the baseline
    criticality gate, MMU translation latency, and warmup accounting.
    """
    config = _base(instructions=2_500, warmup=500)
    config.l1_prefetcher = dataclasses.replace(config.l1_prefetcher,
                                               name="stride")
    config.related = dataclasses.replace(config.related, hermes=True,
                                         dspatch=True)
    config.throttle.name = "fdp"
    config.criticality.name = "fvp"
    config.criticality.gate = True
    config.tlb = dataclasses.replace(config.tlb, enabled=True)
    return config, ["619.lbm_s-2676B", "605.mcf_s-1536B"]


def _point_bingo_hpac() -> Tuple[SystemConfig, List[str]]:
    """Bingo L1 spatial prefetcher under the HPAC coordinated throttle.

    Pins the footprint/bitmap learning path and the multi-signal HPAC
    epoch decisions.  Bingo only predicts once generations retire into
    its event history, so this point runs long enough on a
    region-churning mix for replays to actually fire.
    """
    config = _base(instructions=8_000)
    config.l1_prefetcher = dataclasses.replace(config.l1_prefetcher,
                                               name="bingo")
    config.throttle.name = "hpac"
    return config, ["605.mcf_s-1536B", "605.mcf_s-472B"]


def _point_ipcp_nst() -> Tuple[SystemConfig, List[str]]:
    """IPCP L1 prefetcher with the NST (negative-slack) throttle.

    Pins the per-class (CS/CPLX/GS) IPCP state machines and the NST
    epoch rescaling over an irregular mix.
    """
    config = _base()
    config.l1_prefetcher = dataclasses.replace(config.l1_prefetcher,
                                               name="ipcp")
    config.throttle.name = "nst"
    return config, ["602.gcc_s-1850B", "605.mcf_s-994B"]


def _point_spp_ppf_l2() -> Tuple[SystemConfig, List[str]]:
    """SPP+PPF alone at L2 (no L1 prefetcher).

    Pins the signature-path lookahead and perceptron filter without any
    L1-side traffic shaping in front of it.
    """
    config = _base()
    config.l1_prefetcher = dataclasses.replace(config.l1_prefetcher,
                                               name="none")
    config.l2_prefetcher = dataclasses.replace(config.l2_prefetcher,
                                               name="spp_ppf")
    return config, ["bfs-14", "649.fotonik3d_s-10881B"]


def _point_streamer_clip() -> Tuple[SystemConfig, List[str]]:
    """Streamer L1 prefetcher gated by CLIP over graph workloads.

    Pins stream-direction training plus the CLIP admission path for a
    prefetcher with very different candidate volume than berti.
    """
    config = _base()
    config.l1_prefetcher = dataclasses.replace(config.l1_prefetcher,
                                               name="streamer")
    config.clip.enabled = True
    return config, ["pr-14", "cc-14"]


def _point_bingo_l2_crisp() -> Tuple[SystemConfig, List[str]]:
    """Berti L1 + Bingo L2 with the CRISP criticality measurer.

    Pins dual-level prefetch interaction (L1 fills seeding L2 training)
    and a non-gating baseline criticality predictor's bookkeeping.
    """
    config = _base()
    config.l2_prefetcher = dataclasses.replace(config.l2_prefetcher,
                                               name="bingo")
    config.criticality.name = "crisp"
    config.criticality.gate = False
    return config, ["620.omnetpp_s-141B", "623.xalancbmk_s-165B"]


def _point_bandit_selector() -> Tuple[SystemConfig, List[str]]:
    """Contextual-bandit per-core prefetcher selection (learned family).

    Pins the policy-epoch cadence, the deterministic arm warm-up and
    the epsilon-greedy xorshift stream, and the SelectedPrefetcher arm
    multiplexer under a bandwidth-hungry mix.  A short epoch makes
    several selection decisions land inside the pinned window.
    """
    config = _base(instructions=4_000)
    config.l1_prefetcher = dataclasses.replace(config.l1_prefetcher,
                                               name="none")
    config.learned = dataclasses.replace(config.learned, policy="bandit",
                                         epoch_accesses=64)
    return config, ["605.mcf_s-1536B", "619.lbm_s-2676B"]


def _point_perceptron_filter() -> Tuple[SystemConfig, List[str]]:
    """Hashed-perceptron prefetch filtering over Berti (learned family).

    Pins the perceptron lane hashing, the bandwidth-adaptive admission
    threshold, probe admissions, and delayed fate training -- the
    learned competitor to the CLIP admission path pinned by
    ``clip_berti_hetero``.
    """
    config = _base(instructions=4_000)
    config.l1_prefetcher = dataclasses.replace(config.l1_prefetcher,
                                               name="berti")
    config.learned = dataclasses.replace(config.learned,
                                         policy="perceptron",
                                         epoch_accesses=64)
    return config, ["605.mcf_s-1536B", "623.xalancbmk_s-10B"]


#: name -> builder returning (config, workload mix).
POINTS: Dict[str, Callable[[], Tuple[SystemConfig, List[str]]]] = {
    "none_mcf": _point_none_mcf,
    "clip_berti_hetero": _point_clip_berti_hetero,
    "mechanisms_stride": _point_mechanisms_stride,
    "bingo_hpac": _point_bingo_hpac,
    "ipcp_nst": _point_ipcp_nst,
    "spp_ppf_l2": _point_spp_ppf_l2,
    "streamer_clip": _point_streamer_clip,
    "bingo_l2_crisp": _point_bingo_l2_crisp,
    "bandit_selector": _point_bandit_selector,
    "perceptron_filter": _point_perceptron_filter,
}


#: Every figure and table driver, in the order :func:`figure_driver_outputs`
#: runs them; the order fixes how many points each one finds already run.
DRIVERS = (
    "figure1", "figure2", "figure3", "figure4", "figure5", "figure6",
    "figure9", "figure10", "figure11", "figure12", "figure13", "figure14",
    "figure15", "figure16", "figure17", "figure18", "figure19", "figure20",
    "figure21", "energy_study", "llc_sensitivity", "core_count_sensitivity",
    "ablation_study", "power_budget_study", "learned_study", "table2",
    "table3",
)


def figure_driver_outputs() -> Dict[str, dict]:
    """Run every driver once on one shared micro-scale runner.

    Each entry holds the driver's returned dict as JSON data, the text
    it printed, and how many points it simulated (``runner.runs``
    delta; points an earlier driver ran come from the runner's memo).
    """
    from repro import experiments
    scale = experiments.BenchScale(
        num_cores=2, sim_instructions=600, channel_sweep=(1, 2),
        constrained_channels=1, homogeneous_sample=2,
        heterogeneous_mixes=1)
    runner = experiments.ExperimentRunner(scale)
    outputs: Dict[str, dict] = {}
    for name in DRIVERS:
        driver = getattr(experiments, name)
        before = runner.runs
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            returned = (driver() if name.startswith("table")
                        else driver(runner))
        outputs[name] = {
            "returned": json.loads(json.dumps(
                returned, sort_keys=True, default=dataclasses.asdict)),
            "printed": printed.getvalue(),
            "runs": runner.runs - before,
        }
    return outputs
