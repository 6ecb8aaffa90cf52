"""The online-policy protocol the prefetch filter chain drives.

An :class:`OnlinePolicy` is the one seam through which adaptive control
reaches the prefetch path.  The chain invokes it at exactly three
documented points:

``observe(features) -> action``
    At every policy-epoch boundary -- each
    :attr:`repro.config.LearnedConfig.epoch_accesses` demand L1D
    accesses, counted in ``PrefetchFilterChain.note_demand_access`` --
    with a :class:`PolicyFeatures` snapshot.  The return value is an
    integer action: an arm index ``>= 0`` re-targets the core's
    :class:`~repro.prefetch.learned.bandit.SelectedPrefetcher`;
    :data:`ACTION_KEEP` changes nothing.

``decide(trigger_ip, line, cycle) -> bool``
    Once per prefetch candidate that survived DSPatch/CLIP/the
    criticality gate, inside ``PrefetchFilterChain.handle``.  ``line``
    is the privatised line address (the key space of all cache
    structures).  Returning ``False`` drops the candidate; the drop is
    charged to the core's ``pf_dropped_filter`` counter like any other
    filter drop.

``update(line, trigger_ip, useful)``
    On prefetch-fate feedback: a demand hit on a prefetched line
    (``useful=True``, from the cache's prefetch-use listener) or the
    eviction of a never-used prefetched line (``useful=False``).
    ``trigger_ip`` is 0 when the feedback path does not carry it.

Policies must keep *all* learning state as explicit integers, derive
any randomness from the seeded :class:`XorShift` stream (the SIM010
lint bans ``random`` outside trace generation), and never accumulate
floats -- that contract is what lets a seeded learner stay bit-identical
across repeated runs and ``--jobs N`` process pools.
"""

from __future__ import annotations

from typing import Dict, NamedTuple

#: ``observe`` return value meaning "keep the current configuration".
ACTION_KEEP = -1

_MASK64 = (1 << 64) - 1


def mix64(value: int) -> int:
    """splitmix64 finaliser: one well-mixed 64-bit word from ``value``.

    Used both to whiten seeds (so nearby ``(seed, core_id)`` pairs give
    unrelated streams) and as the per-table hash salt generator for the
    perceptron filter.
    """
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class XorShift:
    """xorshift64* with explicit integer state (no ``random`` module).

    The whole generator is one 64-bit integer; copying that integer
    copies the stream, so policy state snapshots stay trivially
    serialisable and bit-identical across processes.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        # A zero state would be a fixed point; mix64 never returns the
        # value that maps to zero for the seeds we feed it, but guard
        # anyway so *any* integer is a valid seed.
        self.state = mix64(seed) or 0x9E3779B97F4A7C15

    def next64(self) -> int:
        x = self.state
        x ^= (x << 13) & _MASK64
        x ^= x >> 7
        x ^= (x << 17) & _MASK64
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def below(self, bound: int) -> int:
        """Uniform-enough draw in ``[0, bound)`` from the top 32 bits."""
        return (self.next64() >> 32) % bound


def core_seed(seed: int, core_id: int) -> int:
    """The per-core stream seed derived from the configured seed."""
    return mix64(seed ^ (core_id * 0x9E3779B1))


class PolicyFeatures(NamedTuple):
    """Integer feature snapshot handed to ``observe`` each epoch.

    Counter fields are *cumulative* (policies diff consecutive
    snapshots); the ``*_permille`` fields are instantaneous gauges in
    [0, 1000].  Everything comes from the same per-component counters
    :class:`repro.sim.counters.CounterRegistry` snapshots.
    """

    #: Engine cycle of the epoch boundary.
    cycle: int
    #: This core's issued prefetches (post-filter, post-dedup).
    pf_issued: int
    #: Prefetched lines later hit by demand (L1 + L2).
    pf_useful: int
    #: Candidates dropped by CLIP / gate / policy on this core.
    pf_dropped: int
    #: Demand L1D misses on this core.
    demand_misses: int
    #: Never-used prefetched lines evicted from L1 + L2 (pollution).
    useless_evictions: int
    #: DRAM data-bus utilisation since start (bank/bus pressure).
    dram_busy_permille: int
    #: Mesh flit-hops so far (NoC occupancy; shared across cores).
    noc_flit_hops: int
    #: Combined L1+L2 MSHR occupancy right now.
    mshr_occupancy_permille: int


class OnlinePolicy:
    """Base class; concrete policies override the hooks they need.

    The defaults make a policy that never intervenes, which is also the
    contract a recording stub in tests can rely on.
    """

    #: Display name ("bandit", "perceptron").
    name = "none"

    def observe(self, features: PolicyFeatures) -> int:
        """Digest one epoch snapshot; return an action (or ACTION_KEEP)."""
        return ACTION_KEEP

    def decide(self, trigger_ip: int, line: int, cycle: int) -> bool:
        """Admit (True) or drop (False) one surviving candidate."""
        return True

    def update(self, line: int, trigger_ip: int, useful: bool) -> None:
        """Learn from the fate of an issued prefetch."""

    def counters(self) -> Dict[str, int]:
        """Plain-int activity counters merged into ``core{N}.chain``."""
        return {}


__all__ = ["ACTION_KEEP", "OnlinePolicy", "PolicyFeatures", "XorShift",
           "core_seed", "mix64"]
