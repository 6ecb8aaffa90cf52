"""Every pinned simulation fact, and the one comparator that checks a pin.

A pin is a JSON file under ``tests/data/`` that a test compares with a
fresh run.  ``python scripts/regenerate_equivalence_goldens.py`` is the
one command that rewrites them all, from the builders in this module:

* **result pins**, ``tests/data/equivalence/<name>.json``: the full
  ``SimulationResult.to_dict()`` of one point as ``{"point",
  "workloads", "result"}`` (:data:`RESULT_PINS`, 50 points):

  - the 10 golden-matrix points of :data:`POINTS`, first captured from
    the pre-refactor monolithic ``MulticoreSystem``;
  - ``fuzz/<seed>``: 14 seeded random configs (:func:`fuzz_spec`);
  - ``criticality/<predictor>-<gated|ungated>``: the six baseline
    criticality predictors with their prefetch gate on and off;
  - ``clip_knob/<knob>``: CLIP under each of its knobs;

* what every figure and table driver returns, prints and simulates
  (:data:`DRIVER_PIN`, :func:`figure_driver_outputs`);
* the sha256 of every generated trace (:data:`TRACE_PIN`,
  :func:`trace_digests`), a digest because traces run to 40,000
  records;
* the sanitizer's per-category check counts on three golden points
  (:data:`SANITIZER_PIN`) and five sweep cache keys
  (:data:`CACHE_KEY_PIN`).

:func:`leaf_changes` compares a pinned JSON tree with a fresh one, leaf
by leaf; every pin test and the regeneration script use it, so a failing
pin names the leaves that moved.  Re-pin only for an intended, reviewed
behaviour change: the whole value of the pins is that a refactor which
should preserve behaviour cannot drift silently.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import itertools
import json
import random
from pathlib import Path
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

from repro import experiments
from repro.config import SystemConfig, scaled_config
from repro.criticality import predictor_names
from repro.experiments.sweep import RunSpec, Scheme
from repro.sim.system import MulticoreSystem, run_system
from repro.trace.record import TraceRecord
from repro.trace.synthetic import SyntheticWorkload
from repro.trace.workloads import get_workload, workload_names

DATA_DIR = Path(__file__).parent / "data"
#: The result pins, one ``<name>.json`` per :data:`RESULT_PINS` entry.
GOLDEN_DIR = DATA_DIR / "equivalence"
#: What every figure and table driver returns and prints at the micro
#: scale of :func:`figure_driver_outputs`.
DRIVER_PIN = DATA_DIR / "figure_drivers.json"
#: ``{"about", "digests"}``: :func:`trace_digests` of every pinned trace.
TRACE_PIN = GOLDEN_DIR / "trace_digests.json"
#: :func:`sanitizer_check_counts` of each :data:`SANITIZED_POINTS` point.
SANITIZER_PIN = DATA_DIR / "sanitizer_checks.json"
#: ``RunSpec.cache_key()`` of each :data:`KEYED_SPECS` spec.
CACHE_KEY_PIN = DATA_DIR / "cache_keys.json"

Point = Tuple[SystemConfig, List[str]]


# ---------------------------------------------------------------------------
# The comparator
# ---------------------------------------------------------------------------

class _Missing:
    def __repr__(self) -> str:
        return "<absent>"


#: Stands for the side of a :class:`LeafChange` that lacks the leaf.
MISSING = _Missing()


class LeafChange(NamedTuple):
    """One leaf where a fresh tree differs from its pin."""

    path: str
    pinned: object
    fresh: object

    @property
    def added(self) -> bool:
        """Only the fresh tree has this leaf: an additive change."""
        return self.pinned is MISSING

    def __str__(self) -> str:
        old, new = self.pinned, self.fresh
        if isinstance(old, str) and isinstance(new, str) \
                and "\n" in old + new:
            # Printed text: show the first line that differs.
            for number, (before, after) in enumerate(itertools.zip_longest(
                    old.splitlines(), new.splitlines()), 1):
                if before != after:
                    return (f"{self.path} line {number}: {_show(before)} "
                            f"-> {_show(after)}")
        return f"{self.path}: {_show(old)} -> {_show(new)}"


def _show(value: object, width: int = 72) -> str:
    text = repr(value)
    return text if len(text) <= width else text[:width - 3] + "..."


def leaf_changes(pinned: object, fresh: object,
                 path: str = "") -> List[LeafChange]:
    """Every leaf where the JSON tree ``fresh`` differs from ``pinned``.

    Dicts compare key by key and lists element by element; a list whose
    length changed is one change at the list's path.  A leaf only one
    side has is reported with :data:`MISSING` on the other side, so
    ``[c for c in changes if not c.added]`` is what an additive change
    must leave empty.  Leaves compare by type as well as value, as their
    JSON text would: ``1`` and ``1.0`` differ.
    """
    if isinstance(pinned, dict) and isinstance(fresh, dict):
        changes = []
        for key in sorted(pinned.keys() | fresh.keys()):
            changes += leaf_changes(pinned.get(key, MISSING),
                                    fresh.get(key, MISSING),
                                    f"{path}.{key}" if path else str(key))
        return changes
    if (isinstance(pinned, list) and isinstance(fresh, list)
            and len(pinned) == len(fresh)):
        changes = []
        for index, (old, new) in enumerate(zip(pinned, fresh)):
            changes += leaf_changes(old, new, f"{path}[{index}]")
        return changes
    if type(pinned) is type(fresh) and pinned == fresh:
        return []
    return [LeafChange(path, pinned, fresh)]


def describe(changes: Sequence[LeafChange], limit: int = 20) -> str:
    """The first ``limit`` changes, one indented line each."""
    lines = [f"  {change}" for change in changes[:limit]]
    if len(changes) > limit:
        lines.append(f"  ... and {len(changes) - limit} more")
    return "\n".join(lines)


def assert_unchanged(what: str, pinned: object, fresh: object) -> None:
    """Fail naming every leaf of ``fresh`` that differs from ``pinned``."""
    changes = leaf_changes(pinned, fresh)
    if changes:
        raise AssertionError(f"{what} moved:\n{describe(changes)}")


# ---------------------------------------------------------------------------
# Golden matrix: one hand-picked point per mechanism
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Seeded random-config fuzz
# ---------------------------------------------------------------------------

_FUZZ_WORKLOADS = [
    "605.mcf_s-1536B", "602.gcc_s-1850B", "619.lbm_s-2676B",
    "620.omnetpp_s-141B", "623.xalancbmk_s-10B", "649.fotonik3d_s-10881B",
    "bfs-14", "pr-14", "cc-14", "tc-14",
]

_FUZZ_SCHEMES = [
    "none", "berti", "berti+clip", "ipcp", "ipcp+clip", "stride",
    "streamer+clip", "spp_ppf", "bingo", "berti+fvp", "berti+fdp",
]

#: The learned schemes fuzz on their own seed range so adding them did
#: not reshuffle the draws (and hence the coverage) of seeds 0..7.
LEARNED_FUZZ_SCHEMES = [
    "bandit", "berti+perceptron", "bandit+fdp", "berti+perceptron+clip",
    "streamer+perceptron",
]

FUZZ_SEEDS = range(8)
LEARNED_FUZZ_SEEDS = range(100, 106)


def fuzz_spec(seed: int,
              schemes: Optional[Sequence[str]] = None) -> RunSpec:
    """The point fuzz ``seed`` draws: cores, channels, length, scheme
    and mix the golden matrix fixes."""
    rng = random.Random(seed)
    cores = rng.choice([1, 2, 4])
    return RunSpec(
        scheme=Scheme.parse(rng.choice(schemes or _FUZZ_SCHEMES)),
        mix=tuple(rng.choice(_FUZZ_WORKLOADS) for _ in range(cores)),
        channels=rng.choice([1, 2]),
        num_cores=cores,
        sim_instructions=rng.choice([800, 1_500, 2_000]),
    )


def fuzz_point_spec(seed: int) -> RunSpec:
    """The pinned point of ``seed``, static or learned by its range."""
    return fuzz_spec(seed, LEARNED_FUZZ_SCHEMES
                     if seed in LEARNED_FUZZ_SEEDS else None)


def _fuzz_point(seed: int) -> Point:
    spec = fuzz_point_spec(seed)
    return spec.config(), list(spec.mix)


# ---------------------------------------------------------------------------
# The six baseline criticality predictors
# ---------------------------------------------------------------------------

_CRITICALITY_MIX = ["605.mcf_s-1536B", "620.omnetpp_s-141B"]

#: point id -> (predictor name, gate).
CRITICALITY_POINTS: Dict[str, Tuple[str, bool]] = {
    f"{name}-{'gated' if gate else 'ungated'}": (name, gate)
    for name in predictor_names() for gate in (True, False)
}


def criticality_point(name: str, gate: bool) -> Point:
    """2 cores with a 1,000-instruction warm-up, so the retire hooks
    (silent during warm-up) start mid-run, and 6,000 instructions after
    it, enough to close CATCH's and FP's 2048-retire intervals.
    ``RunSpec`` carries no warm-up, so the config is built directly."""
    config = scaled_config(num_cores=2, channels=1, sim_instructions=6_000,
                           warmup_instructions=1_000)
    config.criticality.name = name
    config.criticality.gate = gate
    return config, list(_CRITICALITY_MIX)


# ---------------------------------------------------------------------------
# CLIP under each of its knobs
# ---------------------------------------------------------------------------

_CLIP_KNOB_MIX = ["623.xalancbmk_s-10B", "tc-14"]

_SIGNATURE_TOGGLES = ("signature_use_address",
                      "signature_use_branch_history",
                      "signature_use_criticality_history")

#: point id -> (DRAM channels, ``ClipConfig`` overrides).
CLIP_KNOB_POINTS: Dict[str, Tuple[int, Dict[str, object]]] = {
    "default-1ch": (1, {}),
    "default-4ch": (4, {}),
    **{f"{toggle}-off": (1, {toggle: False})
       for toggle in _SIGNATURE_TOGGLES},
    "signature-ip-only": (1, dict.fromkeys(_SIGNATURE_TOGGLES, False)),
    "index_by_page": (1, {"index_by_page": True}),
    "use_criticality_filter-off": (1, {"use_criticality_filter": False}),
    "use_accuracy_filter-off": (1, {"use_accuracy_filter": False}),
    "criticality_conscious_noc_dram-off": (
        1, {"criticality_conscious_noc_dram": False}),
    "criticality_count_threshold-1": (
        1, {"criticality_count_threshold": 1}),
    "tables-half": (1, {"filter_sets": 16, "predictor_sets": 64}),
    "tables-double": (1, {"filter_sets": 64, "predictor_sets": 256}),
    "dynamic-4ch": (4, {"dynamic": True}),
}


def clip_knob_point(channels: int, overrides: Dict[str, object]) -> Point:
    """2 cores with Berti at L1 and CLIP on, 12,000 instructions: long
    enough for CLIP's phase detector to fire.  ``RunSpec`` cannot
    express every knob, so the config is built directly."""
    config = scaled_config(num_cores=2, channels=channels,
                           sim_instructions=12_000)
    config.l1_prefetcher = dataclasses.replace(config.l1_prefetcher,
                                               name="berti")
    config.clip = dataclasses.replace(config.clip, enabled=True,
                                      **overrides)
    return config, list(_CLIP_KNOB_MIX)


# ---------------------------------------------------------------------------
# Result pins
# ---------------------------------------------------------------------------

#: Pin name -> builder of its (config, workload mix); the pin lives in
#: ``GOLDEN_DIR / f"{name}.json"``.
RESULT_PINS: Dict[str, Callable[[], Point]] = {
    **POINTS,
    **{f"fuzz/{seed}": functools.partial(_fuzz_point, seed)
       for seed in [*FUZZ_SEEDS, *LEARNED_FUZZ_SEEDS]},
    **{f"criticality/{point}": functools.partial(criticality_point, *args)
       for point, args in CRITICALITY_POINTS.items()},
    **{f"clip_knob/{point}": functools.partial(clip_knob_point, *args)
       for point, args in CLIP_KNOB_POINTS.items()},
}


def pin_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def load_pin(name: str) -> dict:
    """The pinned ``{"point", "workloads", "result"}`` of ``name``."""
    return json.loads(pin_path(name).read_text())


def simulate_pin(name: str) -> dict:
    """Run result pin ``name`` now, in its pinned shape."""
    config, mix = RESULT_PINS[name]()
    return {"point": name, "workloads": mix,
            "result": run_system(config, mix).to_dict()}


def check_result_pin(name: str) -> dict:
    """Run result pin ``name``, fail naming every leaf that moved, and
    return the fresh result."""
    fresh = simulate_pin(name)
    assert_unchanged(f"result pin {name!r}", load_pin(name), fresh)
    return fresh["result"]


# ---------------------------------------------------------------------------
# Figure and table drivers
# ---------------------------------------------------------------------------

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


#: The micro scale every driver pin runs at: 2 cores, 600 instructions,
#: channels 1 and 2, two homogeneous mixes and one heterogeneous mix.
DRIVER_SCALE = experiments.BenchScale(
    num_cores=2, sim_instructions=600, channel_sweep=(1, 2),
    constrained_channels=1, homogeneous_sample=2, heterogeneous_mixes=1)


def figure_driver_outputs() -> Dict[str, dict]:
    """Run every driver once on one shared micro-scale runner.

    Each entry holds the driver's returned dict as JSON data, the text
    it printed, and how many points it simulated (``runner.runs``
    delta; points an earlier driver ran come from the runner's memo).
    """
    runner = experiments.ExperimentRunner(DRIVER_SCALE)
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


# ---------------------------------------------------------------------------
# Generated traces
# ---------------------------------------------------------------------------

#: Instructions per trace of every registered workload, at each core id.
TRACE_LENGTH = 6_000
TRACE_CORE_IDS = (0, 5)

_REF_MIX = ("605.mcf_s-1536B", "623.xalancbmk_s-10B", "tc-14",
            "619.lbm_s-2676B")
#: ``bench/run.py``'s workloads at seed 0: (mixes, instructions per core).
BENCH_TRACES: Dict[str, Tuple[Tuple[Tuple[str, ...], ...], int]] = {
    "ref4_clip": ((_REF_MIX,), 20_000),
    "scale16_clip": ((_REF_MIX * 4,), 8_000),
    "core_bound": ((("657.xz_s-1306B",) * 4,), 40_000),
    "sweep_cold_warm": ((("605.mcf_s-1536B", "619.lbm_s-2676B"),
                         ("623.xalancbmk_s-10B", "tc-14")), 3_000),
}

#: (workload, core id, instructions).
Trace = Tuple[str, int, int]


def trace_key(name: str, core_id: int, length: int) -> str:
    return f"{name}/core{core_id}/{length}"


def registered_traces(name: str) -> List[Trace]:
    return [(name, core_id, TRACE_LENGTH) for core_id in TRACE_CORE_IDS]


def bench_traces(bench: str) -> List[Trace]:
    mixes, length = BENCH_TRACES[bench]
    return sorted({(name, core_id, length) for mix in mixes
                   for core_id, name in enumerate(mix)})


def all_traces() -> List[Trace]:
    traces = {trace for name in workload_names()
              for trace in registered_traces(name)}
    for bench in BENCH_TRACES:
        traces.update(bench_traces(bench))
    return sorted(traces)


def generate_trace(name: str, core_id: int,
                   length: int) -> List[TraceRecord]:
    return SyntheticWorkload(get_workload(name)).generate(length,
                                                          core_id=core_id)


def trace_digest(records: Sequence[TraceRecord]) -> str:
    """sha256 over every field of every record, in order."""
    fields = [[r.ip, r.op.name, r.address, r.taken, r.dst, list(r.srcs)]
              for r in records]
    return hashlib.sha256(json.dumps(fields).encode()).hexdigest()


def trace_digests(traces: Sequence[Trace]) -> Dict[str, str]:
    """:func:`trace_key` -> :func:`trace_digest`, in ``traces`` order."""
    return {trace_key(*trace): trace_digest(generate_trace(*trace))
            for trace in traces}


# ---------------------------------------------------------------------------
# Sanitizer check counts and cache keys
# ---------------------------------------------------------------------------

#: The bare demand path, CLIP over two prefetch levels, and the
#: related-work hooks (Hermes, DSPatch, a throttle, the MMU).
SANITIZED_POINTS = ("none_mcf", "clip_berti_hetero", "mechanisms_stride")


def sanitizer_check_counts(point: str) -> Dict[str, int]:
    """``checks_by_category`` of golden ``point`` run sanitized.  Every
    scheduled event, MSHR operation, fill, DRAM service and NoC packet
    is one shim call, so a component that binds a method before the
    sanitizer wraps it -- or skips one -- moves these counts."""
    config, mix = POINTS[point]()
    config.sanitize = True
    system = MulticoreSystem(config, mix)
    system.run()
    return dict(sorted(system.sanitizer.checks_by_category.items()))


def _keyed(scheme: str, mix: Tuple[str, ...], channels: int,
           num_cores: int, sim_instructions: int) -> RunSpec:
    return RunSpec(scheme=Scheme.parse(scheme), mix=mix, channels=channels,
                   num_cores=num_cores, sim_instructions=sim_instructions)


#: Specs whose ``cache_key()`` is pinned, by scheme name.  A change to
#: config materialisation (field order, defaults, repr of nested values)
#: or a ``CACHE_SCHEMA_VERSION`` bump moves these keys and so makes
#: every on-disk sweep cache unreachable.
KEYED_SPECS: Dict[str, RunSpec] = {
    "berti+clip": _keyed("berti+clip", ("605.mcf_s-1536B",) * 4,
                         1, 4, 8000),
    "none": _keyed("none", ("623.xalancbmk_s-10B", "tc-14"), 1, 2, 2500),
    "spp_ppf+clip+fdp": _keyed("spp_ppf+clip+fdp",
                               ("619.lbm_s-2676B", "605.mcf_s-1536B"),
                               2, 2, 2500),
    "bandit": _keyed("bandit", ("605.mcf_s-1536B", "619.lbm_s-2676B"),
                     1, 2, 4000),
    "berti+perceptron": _keyed("berti+perceptron",
                               ("605.mcf_s-1536B", "623.xalancbmk_s-10B"),
                               1, 2, 4000),
}
