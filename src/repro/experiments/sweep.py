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
* :class:`Sweep`    -- an ordered, de-duplicated collection of specs;
  :meth:`Sweep.product` builds a full grid.
* :func:`run_sweep` -- executes the independent points of a sweep, fanning
  them across a ``ProcessPoolExecutor`` when ``jobs > 1`` and serving warm
  points from a :class:`ResultStore` under ``.repro-cache/``; it returns
  a :class:`SweepResult`.

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
from dataclasses import dataclass
from pathlib import Path
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from repro.config import SystemConfig, big_little_overrides, scaled_config
from repro.prefetch.base import prefetchers_at
from repro.sim.stats import SimulationResult
from repro.sim.system import run_system

#: Version of the (simulator behaviour, result schema) pair.  Bump this on
#: any change that alters simulation outcomes or the ``to_dict`` layout;
#: every existing cache entry becomes unreachable (keys embed the version)
#: and is re-simulated on demand.
CACHE_SCHEMA_VERSION = 6

#: Default location of the persistent result store, relative to the
#: working directory; override with the ``REPRO_CACHE_DIR`` environment
#: variable or an explicit :class:`ResultStore`.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Prefetchers that attach to the L1D ("l1" recipes in the legacy dicts).
L1_PREFETCHERS = prefetchers_at("L1")
#: Prefetchers that attach to the L2, sorted as ``Scheme.parse``'s
#: message has always listed them.
L2_PREFETCHERS = tuple(sorted(prefetchers_at("L2")))


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
    #: Extra ``ClipConfig`` field overrides (ablations, Fig. 18's table
    #: sizes); implies CLIP on.
    #: Stored as a sorted tuple of (field, value) pairs so the scheme
    #: stays hashable and canonical; constructors accept a mapping.
    clip_overrides: Tuple[Tuple[str, object], ...] = ()
    #: Structural knobs (apply to the no-prefetching baseline too).
    llc_kib: Optional[int] = None
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
        name an L2 prefetcher after an L1 one ("berti+spp_ppf"), or
        toggle "clip", "hermes", "dspatch", "perceptron" (the learned
        filter), a criticality predictor, or a throttler.  Every
        :attr:`label` parses back to its scheme.  Extra ``fields``
        override the parsed values, e.g.
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
            elif token in L2_PREFETCHERS and "l1" in parsed:
                parsed["l2"] = token
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
        (LLC size, clock, core mix) and drops every scheme knob.
        """
        return Scheme(llc_kib=self.llc_kib,
                      frequency_ghz=self.frequency_ghz,
                      big_cores=self.big_cores)

    def build_config(self, channels: int, num_cores: int,
                     sim_instructions: int) -> SystemConfig:
        """Materialise the :class:`SystemConfig` for this scheme on a
        machine of ``num_cores`` cores and ``channels`` DRAM channels,
        each core running ``sim_instructions``.

        The config comes back unvalidated.  ``MulticoreSystem``
        validates it before it builds anything, so a point the gate
        rejects fails when it is simulated; a key (:meth:`RunSpec.
        cache_key`) hashes it without a check, because a stored result
        exists only for a config that passed the gate.
        """
        config = scaled_config(num_cores=num_cores, channels=channels,
                               sim_instructions=sim_instructions)
        # Every group of a fresh ``scaled_config()`` is its own object,
        # so the scheme's knobs are set in place.
        config.l1_prefetcher.name = self.l1
        config.l2_prefetcher.name = self.l2
        clip = config.clip
        if self.clip:
            clip.enabled = True
        if self.criticality:
            config.criticality.name = self.criticality
        config.criticality.gate = self.crit_gate
        if self.throttle:
            config.throttle.name = self.throttle
        if self.learned:
            config.learned.policy = self.learned
        if self.hermes or self.dspatch:
            config.related.hermes = self.hermes
            config.related.dspatch = self.dspatch
        if self.clip_overrides:
            # ``replace`` rejects a name that is not a ClipConfig field,
            # where an assignment would quietly add an attribute.
            config.clip = dataclasses.replace(
                clip, enabled=True, **dict(self.clip_overrides))
        if self.llc_kib is not None:
            config.llc_slice.size_kib = self.llc_kib
        if self.big_cores is not None:
            config.core_overrides = big_little_overrides(
                config.num_cores, self.big_cores)
        if self.frequency_ghz is not None:
            config = config.at_frequency(self.frequency_ghz)
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
    #: The machine's size: one workload of ``mix`` per core, each
    #: running ``sim_instructions``.  ``None`` takes it from the mix.
    num_cores: Optional[int] = None
    sim_instructions: int = 10_000

    def __post_init__(self) -> None:
        object.__setattr__(self, "mix", tuple(self.mix))
        if self.num_cores is None:
            object.__setattr__(self, "num_cores", len(self.mix))
        elif len(self.mix) != self.num_cores:
            raise ValueError("mix length does not match core count")

    @property
    def cores(self) -> int:
        """``num_cores``, under the name ``bench/run.py`` reads."""
        return self.num_cores

    @property
    def instructions(self) -> int:
        """``sim_instructions``, under the name ``bench/run.py`` reads."""
        return self.sim_instructions

    def config(self) -> SystemConfig:
        return self.scheme.build_config(self.channels, self.num_cores,
                                        self.sim_instructions)

    def cache_key(self) -> str:
        """Canonical content hash of this point: :func:`config_key` of
        the fully-materialised :class:`SystemConfig` (not the scheme's
        surface syntax) and the workload mix, so two specs that simulate
        the same system on the same mix share one key however they were
        written."""
        return config_key(self.config(), self.mix)


def config_key(config: SystemConfig, mix: Tuple[str, ...]) -> str:
    """SHA-256 of :data:`CACHE_SCHEMA_VERSION`, ``repr(config)`` and
    ``repr(mix)``.

    The ``repr`` is canonical for every config ``Scheme.build_config``
    materialises: a dataclass ``repr`` lists every declared field in
    declaration order, nested config groups recurse, and an attribute
    set outside the fields (a benchmark's ``config.backend``) is not in
    it.  Scheme knobs cannot reorder it either: ``clip_overrides``, a
    sorted tuple, lands in ``ClipConfig``'s fields, and the one map,
    ``core_overrides``, comes from ``big_little_overrides`` in core
    order.
    """
    blob = f"{CACHE_SCHEMA_VERSION}|{config!r}|{mix!r}"
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
                num_cores: Optional[int] = None,
                sim_instructions: int = 10_000) -> "Sweep":
        """Full cross product: every scheme on every mix at every channel
        count — the shape of Figs. 6, 9-10 and 19-21.  Each point runs
        one core per workload of its mix; ``num_cores``, when given,
        must agree with every mix."""
        return cls(RunSpec(scheme=scheme, mix=tuple(mix), channels=ch,
                           num_cores=num_cores,
                           sim_instructions=sim_instructions)
                   for scheme in schemes
                   for mix in mixes
                   for ch in channels)

    def with_baselines(self) -> "Sweep":
        """This sweep plus the no-prefetching baseline of every point."""
        extra = [dataclasses.replace(spec, scheme=spec.scheme.baseline())
                 for spec in self.specs]
        return Sweep(self.specs + tuple(extra))

    def __iter__(self) -> Iterator[RunSpec]:
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)


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
    entry behind and any number of concurrent writers (``repro sweep``
    runs and ``repro serve`` coordinators sharing one store, threads
    sharing a pid) may race on one shard without corrupting it -- last
    rename wins, every intermediate state is a complete entry.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str) -> Optional[SimulationResult]:
        """The stored result for ``key``, or ``None`` on a miss.

        Reads only ``schema`` and ``result``: other fields only describe
        the point, and entries written by older releases may carry more
        of them (e.g. the removed simulation-backend name).  An
        unreadable entry, or valid JSON of another shape, is a miss.
        """
        try:
            with open(self.path_for(key), "rb") as stream:
                payload = json.loads(stream.read())
        except (OSError, ValueError):
            return None
        try:
            if payload.get("schema") != CACHE_SCHEMA_VERSION:
                return None
            return SimulationResult.from_dict(payload["result"])
        except (AttributeError, KeyError, TypeError, ValueError):
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
        # not enough once threads share a process -- two writers
        # interleaving on one temp path used to land a truncated/corrupt
        # shard.
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


#: A scheme argument: a typed :class:`Scheme` or a scheme name such as
#: ``"berti+clip"`` (parsed with :meth:`Scheme.parse`).
SchemeLike = Union[str, Scheme]


@dataclass(frozen=True)
class SweepResult:
    """What :func:`run_sweep` ran: every point's result plus cache
    accounting.

    Iterating yields :class:`SimulationResult` objects in sweep order;
    ``items()`` pairs them with their :class:`RunSpec` for filtering.
    """

    specs: Tuple[RunSpec, ...]
    results: Mapping[RunSpec, SimulationResult]
    #: Points actually simulated by this call.
    simulated: int
    #: Points served from the on-disk cache.
    cache_hits: int

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[SimulationResult]:
        return (self.results[spec] for spec in self.specs)

    def __getitem__(self, spec: RunSpec) -> SimulationResult:
        return self.results[spec]

    def items(self) -> Iterator[Tuple[RunSpec, SimulationResult]]:
        return ((spec, self.results[spec]) for spec in self.specs)

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


def run_sweep(sweep: Iterable[RunSpec], *, jobs: int = 1,
              store: Optional[ResultStore] = None,
              known: Optional[Mapping[RunSpec, SimulationResult]] = None
              ) -> SweepResult:
    """Execute every point of ``sweep``, in parallel when ``jobs > 1``.

    ``known`` points (e.g. an in-process memo) are returned as-is; the
    rest are looked up in ``store`` and only the true misses are
    simulated — serially for ``jobs <= 1``, otherwise fanned across a
    ``ProcessPoolExecutor`` with ``jobs`` workers.  Both paths round-trip
    results through ``to_dict``/``from_dict``, so the executed results
    are identical regardless of ``jobs``.  Fresh results are written back
    to ``store`` as they arrive; the store is a cache, so an entry that
    cannot be written costs a ``RuntimeWarning``, never the result.

    This is the one in-process fan-out.  A campaign spread over
    processes that share only a URL runs through ``repro serve`` and
    ``repro worker`` (:mod:`repro.serve`); its results land in the
    same store under the same keys, so a ``run_sweep`` over that store
    reads every finished point as a hit.
    """
    specs = Sweep(sweep).specs
    results: Dict[RunSpec, SimulationResult] = {}
    cache_hits = 0
    pending: List[RunSpec] = []
    # Each store-backed point's key, computed once for load and save.
    keys: Dict[RunSpec, str] = {}
    for spec in specs:
        if known is not None and spec in known:
            results[spec] = known[spec]
            continue
        if store is not None:
            key = keys[spec] = spec.cache_key()
            cached = store.load(key)
            if cached is not None:
                results[spec] = cached
                cache_hits += 1
                continue
        pending.append(spec)

    def record(spec: RunSpec, result: SimulationResult) -> None:
        results[spec] = result
        if store is None:
            return
        try:
            store.save(keys[spec], spec, result)
        except OSError as exc:
            warnings.warn(f"result store entry {store.path_for(keys[spec])} "
                          f"not written: {exc}", RuntimeWarning,
                          stacklevel=3)

    if jobs <= 1 or len(pending) <= 1:
        for spec in pending:
            record(spec, SimulationResult.from_dict(execute_spec(spec)))
    else:
        workers = min(jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for spec, data in zip(pending, pool.map(execute_spec, pending)):
                record(spec, SimulationResult.from_dict(data))
    return SweepResult(specs=specs, results=results,
                       simulated=len(pending), cache_hits=cache_hits)
