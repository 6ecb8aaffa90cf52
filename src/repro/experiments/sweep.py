"""Typed sweep API: declarative simulation points, parallel execution,
and a persistent on-disk result cache.

Every paper figure is a sweep over (scheme x mix x channel-count) points.
This module gives that grid a first-class representation:

* :class:`Scheme`   -- frozen, typed description of one prefetching
  configuration (which prefetcher at which level, CLIP on/off, Hermes /
  DSPatch comparators, structural knobs), parsed from names like
  ``"berti+clip"`` by :meth:`Scheme.parse`.
* :class:`RunSpec`  -- frozen, hashable description of one simulation
  point: a scheme, a workload mix, and a channel count.  Two specs that
  build the same :class:`~repro.config.SystemConfig` for the same mix
  share one canonical :meth:`RunSpec.cache_key`.
* :class:`Sweep`    -- an ordered, de-duplicated collection of specs with
  :meth:`Sweep.product` / :meth:`Sweep.zip` constructors.
* :func:`run_sweep` -- executes the independent points of a sweep, fanning
  them across a ``ProcessPoolExecutor`` when ``jobs > 1`` and serving warm
  points from a :class:`ResultStore` under ``.repro-cache/``.

Results cross process and disk boundaries via the stable
``SimulationResult.to_dict`` / ``from_dict`` round trip, so a point
executed with ``--jobs 4`` is bit-identical to the same point executed
serially.  Cache entries are invalidated wholesale by bumping
:data:`CACHE_SCHEMA_VERSION` whenever simulator behaviour changes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple, Union)

from repro.config import SystemConfig, big_little_overrides, scaled_config
from repro.sim.stats import SimulationResult
from repro.sim.system import run_system

#: Version of the (simulator behaviour, result schema) pair.  Bump this on
#: any change that alters simulation outcomes or the ``to_dict`` layout;
#: every existing cache entry becomes unreachable (keys embed the version)
#: and is re-simulated on demand.
CACHE_SCHEMA_VERSION = 4

#: Default location of the persistent result store, relative to the
#: working directory; override with the ``REPRO_CACHE_DIR`` environment
#: variable or an explicit :class:`ResultStore`.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Prefetchers that attach to the L1D ("l1" recipes in the legacy dicts).
L1_PREFETCHERS = ("berti", "ipcp", "stride", "streamer")
#: Prefetchers that attach to the L2.
L2_PREFETCHERS = ("bingo", "spp_ppf")


# ---------------------------------------------------------------------------
# Scheme: what runs on the hardware
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scheme:
    """Typed description of one prefetching configuration.

    Every knob is an explicit field, so a scheme is hashable,
    comparable, and canonical: two schemes built from the same knobs are
    equal regardless of construction order.
    """

    #: L1D prefetcher name ("none", "berti", "ipcp", "stride", "streamer").
    l1: str = "none"
    #: L2 prefetcher name ("none", "bingo", "spp_ppf").
    l2: str = "none"
    #: Enable CLIP filtering.
    clip: bool = False
    #: Hermes off-chip predictor comparator (Fig. 21).
    hermes: bool = False
    #: DSPatch comparator (Fig. 21).
    dspatch: bool = False
    #: Baseline criticality predictor ("catch", "fvp", ... or None).
    criticality: Optional[str] = None
    #: Whether the criticality predictor gates prefetches (Fig. 5) or only
    #: measures (Fig. 4).
    crit_gate: bool = True
    #: Prefetch throttler ("fdp", "hpac", "spac", "nst" or None).
    throttle: Optional[str] = None
    #: Learned online policy ("bandit" selector, "perceptron" filter,
    #: or None for the static chain).
    learned: Optional[str] = None
    #: Scale CLIP's criticality-filter sets (Fig. 18); implies CLIP on.
    clip_filter_scale: Optional[float] = None
    #: Scale CLIP's predictor sets (Fig. 18); implies CLIP on.
    clip_predictor_scale: Optional[float] = None
    #: Extra ``ClipConfig`` field overrides (ablations); implies CLIP on.
    #: Stored as a sorted tuple of (field, value) pairs so the scheme
    #: stays hashable and canonical; constructors accept a mapping.
    clip_overrides: Tuple[Tuple[str, object], ...] = ()
    #: Structural knobs (apply to the no-prefetching baseline too).
    llc_kib: Optional[int] = None
    num_cores: Optional[int] = None
    sim_instructions: Optional[int] = None
    #: DVFS operating point: re-clock the cores (and the uncore latencies
    #: expressed in core cycles) to this frequency in GHz.  ``None``
    #: keeps the Table-3 4 GHz reference clock.
    frequency_ghz: Optional[float] = None
    #: Heterogeneous (big/little) mix: the first ``big_cores`` cores keep
    #: the reference core, the rest run the little-core preset
    #: (:func:`repro.config.little_core`).  ``None`` keeps the system
    #: symmetric.
    big_cores: Optional[int] = None

    def __post_init__(self) -> None:
        overrides = self.clip_overrides
        if isinstance(overrides, Mapping):
            overrides = overrides.items()
        object.__setattr__(self, "clip_overrides",
                           tuple(sorted(tuple(overrides))))

    # -- construction --------------------------------------------------

    @classmethod
    def parse(cls, name: str, **fields) -> "Scheme":
        """Build a scheme from a legacy ``"berti+clip"``-style name.

        The first ``+``-separated token names a prefetcher, "none", or
        "bandit" (the learned selector owns the L1 slot); later tokens
        toggle "clip", "hermes", "dspatch", "perceptron" (the learned
        filter), a criticality predictor, or a throttler.  Extra
        ``fields`` override the parsed values, e.g.
        ``Scheme.parse("berti", criticality="fvp")``.
        """
        from repro.criticality import predictor_names
        from repro.throttle import throttler_names
        parsed: Dict[str, object] = {}
        tokens = name.split("+")
        head = tokens[0]
        if head in L1_PREFETCHERS:
            parsed["l1"] = head
        elif head in L2_PREFETCHERS:
            parsed["l2"] = head
        elif head == "bandit":
            # The bandit selector heads a scheme on its own: it owns
            # the L1 slot and picks among its configured arms at run
            # time ("bandit" is a complete scheme name).
            parsed["learned"] = head
        elif head != "none":
            raise ValueError(
                f"unknown scheme {name!r}; the leading token must be a "
                f"prefetcher from {L1_PREFETCHERS + L2_PREFETCHERS}, "
                f"'bandit', or 'none'")
        for token in tokens[1:]:
            if token in ("clip", "hermes", "dspatch"):
                parsed[token] = True
            elif token in ("bandit", "perceptron"):
                parsed["learned"] = token
            elif token in predictor_names():
                parsed["criticality"] = token
            elif token in throttler_names():
                parsed["throttle"] = token
            else:
                raise ValueError(f"unknown scheme token {token!r} "
                                 f"in {name!r}")
        parsed.update(fields)
        return cls(**parsed)

    # -- derived views -------------------------------------------------

    @property
    def label(self) -> str:
        """Legacy-compatible display name ("berti+clip" style)."""
        parts = [self.l1 if self.l1 != "none"
                 else self.l2 if self.l2 != "none" else "none"]
        if self.l1 != "none" and self.l2 != "none":
            parts.append(self.l2)
        for flag in ("clip", "hermes", "dspatch"):
            if getattr(self, flag):
                parts.append(flag)
        if self.criticality:
            parts.append(self.criticality)
        if self.throttle:
            parts.append(self.throttle)
        if self.learned:
            # A learned policy with no static prefetcher heads the
            # label ("bandit", "bandit+fdp"); otherwise it rides along
            # ("berti+perceptron").
            if parts[0] == "none":
                parts[0] = self.learned
            else:
                parts.append(self.learned)
        return "+".join(parts)

    def baseline(self) -> "Scheme":
        """The matching no-prefetching reference configuration.

        Keeps the structural knobs that must also apply to the baseline
        (core count, instructions, LLC size) and drops every scheme knob,
        mirroring the legacy ``_baseline_overrides`` filter.
        """
        return Scheme(llc_kib=self.llc_kib, num_cores=self.num_cores,
                      sim_instructions=self.sim_instructions,
                      frequency_ghz=self.frequency_ghz,
                      big_cores=self.big_cores)

    def build_config(self, channels: int, num_cores: int,
                     sim_instructions: int) -> SystemConfig:
        """Materialise the :class:`SystemConfig` for this scheme.

        ``num_cores`` / ``sim_instructions`` are the sweep-level defaults;
        the scheme's own structural fields take precedence.
        """
        config = scaled_config(
            num_cores=self.num_cores or num_cores,
            channels=channels,
            sim_instructions=self.sim_instructions or sim_instructions)
        config.l1_prefetcher = dataclasses.replace(
            config.l1_prefetcher, name=self.l1)
        config.l2_prefetcher = dataclasses.replace(
            config.l2_prefetcher, name=self.l2)
        if self.clip:
            config.clip = dataclasses.replace(config.clip, enabled=True)
        if self.criticality:
            config.criticality.name = self.criticality
        config.criticality.gate = self.crit_gate
        if self.throttle:
            config.throttle.name = self.throttle
        if self.learned:
            config.learned = dataclasses.replace(config.learned,
                                                 policy=self.learned)
        if self.hermes or self.dspatch:
            config.related = dataclasses.replace(
                config.related, hermes=self.hermes, dspatch=self.dspatch)
        if self.clip_filter_scale is not None:
            config.clip = dataclasses.replace(
                config.clip, enabled=True,
                filter_sets=max(1, int(config.clip.filter_sets
                                       * self.clip_filter_scale)))
        if self.clip_predictor_scale is not None:
            config.clip = dataclasses.replace(
                config.clip, enabled=True,
                predictor_sets=max(1, int(config.clip.predictor_sets
                                          * self.clip_predictor_scale)))
        if self.clip_overrides:
            config.clip = dataclasses.replace(
                config.clip, enabled=True, **dict(self.clip_overrides))
        if self.llc_kib is not None:
            config.llc_slice = dataclasses.replace(
                config.llc_slice, size_kib=self.llc_kib)
        if self.big_cores is not None:
            config.core_overrides = big_little_overrides(
                config.num_cores, self.big_cores)
        if self.frequency_ghz is not None:
            config = config.at_frequency(self.frequency_ghz)
        config.validate()
        return config


# ---------------------------------------------------------------------------
# RunSpec: one simulation point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunSpec:
    """Frozen, hashable description of one simulation point."""

    scheme: Scheme
    mix: Tuple[str, ...]
    channels: int
    #: Sweep-level defaults; ``scheme.num_cores``/``sim_instructions``
    #: take precedence when set.
    num_cores: int = 8
    sim_instructions: int = 10_000

    def __post_init__(self) -> None:
        object.__setattr__(self, "mix", tuple(self.mix))
        if len(self.mix) != self.cores:
            raise ValueError("mix length does not match core count")

    @property
    def cores(self) -> int:
        return self.scheme.num_cores or self.num_cores

    @property
    def instructions(self) -> int:
        return self.scheme.sim_instructions or self.sim_instructions

    def config(self) -> SystemConfig:
        return self.scheme.build_config(self.channels, self.num_cores,
                                        self.sim_instructions)

    def cache_key(self) -> str:
        """Canonical content hash of this point.

        Hashes the fully-materialised :class:`SystemConfig` (not the
        scheme's surface syntax), the workload mix, and
        :data:`CACHE_SCHEMA_VERSION`; two specs that simulate the same
        system on the same mix share one key however they were written.
        """
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "config": dataclasses.asdict(self.config()),
            "mix": list(self.mix),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                          default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Sweep: an ordered collection of points
# ---------------------------------------------------------------------------

class Sweep:
    """An ordered, de-duplicated collection of :class:`RunSpec` points."""

    def __init__(self, specs: Iterable[RunSpec] = ()) -> None:
        seen: Dict[RunSpec, None] = {}
        for spec in specs:
            seen.setdefault(spec)
        self.specs: Tuple[RunSpec, ...] = tuple(seen)

    @classmethod
    def product(cls, schemes: Sequence[Scheme],
                mixes: Sequence[Sequence[str]],
                channels: Sequence[int], *,
                num_cores: int = 8,
                sim_instructions: int = 10_000) -> "Sweep":
        """Full cross product: every scheme on every mix at every channel
        count — the shape of Figs. 6, 9-10 and 19-21."""
        return cls(RunSpec(scheme=scheme, mix=tuple(mix), channels=ch,
                           num_cores=num_cores,
                           sim_instructions=sim_instructions)
                   for scheme in schemes
                   for mix in mixes
                   for ch in channels)

    @classmethod
    def zip(cls, schemes: Sequence[Scheme],
            mixes: Sequence[Sequence[str]],
            channels: Sequence[int], *,
            num_cores: int = 8,
            sim_instructions: int = 10_000) -> "Sweep":
        """Aligned triples (scheme[i], mix[i], channels[i]) — for
        irregular grids the product constructor over-covers."""
        if not (len(schemes) == len(mixes) == len(channels)):
            raise ValueError(
                f"zip lengths differ: {len(schemes)} schemes, "
                f"{len(mixes)} mixes, {len(channels)} channel counts")
        return cls(RunSpec(scheme=scheme, mix=tuple(mix), channels=ch,
                           num_cores=num_cores,
                           sim_instructions=sim_instructions)
                   for scheme, mix, ch in zip(schemes, mixes, channels))

    def with_baselines(self) -> "Sweep":
        """This sweep plus the no-prefetching baseline of every point."""
        extra = [dataclasses.replace(spec, scheme=spec.scheme.baseline())
                 for spec in self.specs]
        return Sweep(self.specs + tuple(extra))

    def __iter__(self) -> Iterator[RunSpec]:
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __add__(self, other: "Sweep") -> "Sweep":
        return Sweep(self.specs + tuple(other))


# ---------------------------------------------------------------------------
# ResultStore: the persistent cache
# ---------------------------------------------------------------------------

class ResultStore:
    """Persistent result cache under ``.repro-cache/``.

    One JSON file per point, named by :meth:`RunSpec.cache_key` and
    sharded by the key's first byte (``.repro-cache/ab/abcdef....json``).
    Each file records the schema version, the spec's human-readable
    label, and the serialised result; writes go through a *unique* temp
    file + atomic rename, so a crashed run never leaves a truncated
    entry behind and any number of concurrent writers (pool processes,
    distributed-sweep workers landing the same key, threads sharing a
    pid) may race on one shard without corrupting it -- last rename
    wins, every intermediate state is a complete entry.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str) -> Optional[SimulationResult]:
        """The stored result for ``key``, or ``None`` on a miss.

        Reads only ``schema`` and ``result``: other fields are
        provenance, and entries written by older releases may carry
        more of it (e.g. the removed simulation-backend name).
        """
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if payload.get("schema") != CACHE_SCHEMA_VERSION:
            return None
        try:
            return SimulationResult.from_dict(payload["result"])
        except (KeyError, TypeError):
            return None

    def save(self, key: str, spec: RunSpec,
             result: SimulationResult) -> None:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "label": spec.scheme.label,
            "mix": list(spec.mix),
            "channels": spec.channels,
            "result": result.to_dict(),
        }
        # A mkstemp-unique temp file per call: a pid-suffixed name is
        # not enough once threads (or a coordinator and its workers)
        # share a process -- two writers interleaving on one temp path
        # used to land a truncated/corrupt shard.
        handle, tmp = tempfile.mkstemp(dir=path.parent,
                                       prefix=f".{key[:16]}.",
                                       suffix=".tmp")
        try:
            with os.fdopen(handle, "w") as stream:
                stream.write(json.dumps(payload, sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def execute_spec(spec: RunSpec) -> Dict:
    """Simulate one point and return the result as a plain dict.

    Module-level (picklable) so ``ProcessPoolExecutor`` workers can run
    it; the dict form crosses the process boundary and round-trips back
    through ``SimulationResult.from_dict`` in the parent.
    """
    result = run_system(spec.config(), list(spec.mix),
                        label=spec.scheme.label)
    return result.to_dict()


#: Producer label (``SweepOutcome.provenance``) for disk-cache hits.
CACHE_PRODUCER = "cache"
#: Producer label for points simulated in this process / its pool.
LOCAL_PRODUCER = "local"

EXECUTORS = ("local", "distributed")


@dataclass
class SweepOutcome:
    """What :func:`run_sweep` did: the results plus cache accounting."""

    results: Dict[RunSpec, SimulationResult]
    #: Points actually simulated this call.
    simulated: int = 0
    #: Points served from the disk store.
    cache_hits: int = 0
    #: Who produced each point: ``"cache"``, ``"local"``, or the id of
    #: the distributed worker that simulated it.
    provenance: Dict[RunSpec, str] = field(default_factory=dict)

    def __getitem__(self, spec: RunSpec) -> SimulationResult:
        return self.results[spec]


def run_sweep(sweep: Iterable[RunSpec], *, jobs: int = 1,
              store: Optional[ResultStore] = None,
              known: Optional[Mapping[RunSpec, SimulationResult]] = None,
              on_result: Optional[Callable[[RunSpec, SimulationResult],
                                           None]] = None,
              executor: str = "local") -> SweepOutcome:
    """Execute every point of ``sweep``, in parallel when ``jobs > 1``.

    ``known`` points (e.g. an in-process memo) are returned as-is; the
    rest are looked up in ``store`` and only the true misses are
    simulated — serially for ``jobs <= 1``, otherwise fanned across a
    ``ProcessPoolExecutor`` with ``jobs`` workers.  Both paths round-trip
    results through ``to_dict``/``from_dict``, so the executed results
    are identical regardless of ``jobs``.  Fresh results are written back
    to ``store`` and reported through ``on_result`` as they arrive.

    ``executor="distributed"`` runs the misses through a localhost
    coordinator + ``jobs`` worker subprocesses speaking the
    :mod:`repro.serve` protocol instead of a process pool — same
    ``to_dict`` round trip, so still bit-identical — and records which
    worker produced each point in :attr:`SweepOutcome.provenance`.
    When the distributed service cannot start (or loses every worker
    mid-campaign), execution falls back transparently to the local
    path; points whose jobs were quarantined (failed repeatedly on
    real workers) raise :class:`repro.serve.QuarantinedError`.
    """
    if executor not in EXECUTORS:
        raise ValueError(f"unknown executor {executor!r}: expected one "
                         f"of {', '.join(EXECUTORS)}")
    specs = list(Sweep(sweep))
    outcome = SweepOutcome(results={})
    pending: List[RunSpec] = []
    for spec in specs:
        if known is not None and spec in known:
            outcome.results[spec] = known[spec]
            continue
        if store is not None:
            cached = store.load(spec.cache_key())
            if cached is not None:
                outcome.results[spec] = cached
                outcome.cache_hits += 1
                outcome.provenance[spec] = CACHE_PRODUCER
                if on_result is not None:
                    on_result(spec, cached)
                continue
        pending.append(spec)

    if executor == "distributed" and pending:
        pending = _run_distributed_pending(pending, outcome, jobs=jobs,
                                           store=store, on_result=on_result)

    def record(spec: RunSpec, result: SimulationResult) -> None:
        outcome.results[spec] = result
        outcome.simulated += 1
        outcome.provenance[spec] = LOCAL_PRODUCER
        if store is not None:
            store.save(spec.cache_key(), spec, result)
        if on_result is not None:
            on_result(spec, result)

    if jobs <= 1 or len(pending) <= 1:
        for spec in pending:
            record(spec, SimulationResult.from_dict(execute_spec(spec)))
    else:
        workers = min(jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for spec, data in zip(pending, pool.map(execute_spec, pending)):
                record(spec, SimulationResult.from_dict(data))
    return outcome


def _run_distributed_pending(pending: List[RunSpec],
                             outcome: SweepOutcome, *, jobs: int,
                             store: Optional[ResultStore],
                             on_result) -> List[RunSpec]:
    """Run the cache misses through :func:`repro.serve.run_distributed`.

    Folds whatever the campaign finished into ``outcome`` and returns
    the points still pending (normally none; the fallback remainder
    when the service degraded), which the caller executes locally.
    """
    from repro.serve.executor import (DistributedUnavailable,
                                      run_distributed)
    try:
        dist = run_distributed(pending, jobs=jobs, store=store)
    except DistributedUnavailable as exc:
        warnings.warn(
            f"distributed sweep executor unavailable ({exc}); falling "
            f"back to local execution", RuntimeWarning, stacklevel=3)
        return pending
    for spec in pending:
        if spec not in dist.results:
            continue
        outcome.results[spec] = dist.results[spec]
        outcome.provenance[spec] = dist.provenance[spec]
        if on_result is not None:
            on_result(spec, dist.results[spec])
    outcome.simulated += dist.simulated
    outcome.cache_hits += dist.cache_hits
    if dist.remaining:
        warnings.warn(
            f"distributed sweep lost its workers with "
            f"{len(dist.remaining)} point(s) outstanding; finishing "
            f"them locally", RuntimeWarning, stacklevel=3)
    return dist.remaining
