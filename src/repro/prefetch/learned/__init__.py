"""Learned prefetch control: online policies driven by the filter chain.

The package implements the ROADMAP's "learned prefetch control" scheme
family behind one seam: an :class:`~repro.prefetch.learned.policy.
OnlinePolicy` attached to the per-core :class:`~repro.sim.hierarchy.
filters.PrefetchFilterChain`.  Two concrete learners ship:

* :class:`~repro.prefetch.learned.bandit.BanditSelector` -- contextual
  bandit *selection* of the per-core L1 prefetcher (arxiv 2307.08635
  idiom), acting through a :class:`~repro.prefetch.learned.bandit.
  SelectedPrefetcher` arm multiplexer;
* :class:`~repro.prefetch.learned.perceptron.PerceptronFilter` --
  hashed-perceptron prefetch *filtering* (arxiv 2403.15181 / PPF
  idiom), a learned drop-in alternative to CLIP's utility CAM.

Everything here is reproducibility-first: explicit integer state, a
seeded xorshift stream instead of ``random``, and no float
accumulation, so a seeded run is bit-identical across repeats and
process pools.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.prefetch.learned.bandit import BanditSelector, SelectedPrefetcher
from repro.prefetch.learned.perceptron import PerceptronFilter
from repro.prefetch.learned.policy import (ACTION_KEEP, OnlinePolicy,
                                           PolicyFeatures, XorShift)

if TYPE_CHECKING:
    from repro.config import LearnedConfig


def make_policy(config: "LearnedConfig", core_id: int) -> OnlinePolicy:
    """Instantiate the configured policy for one core.

    Each core gets its own learner (private state, per-core seed
    stream), mirroring the per-core CLIP/criticality structures.
    """
    if config.policy == "bandit":
        return BanditSelector(config, core_id)
    if config.policy == "perceptron":
        return PerceptronFilter(config, core_id)
    raise ValueError(f"unknown learned policy {config.policy!r}; "
                     f"choose 'bandit' or 'perceptron'")


__all__ = ["ACTION_KEEP", "BanditSelector", "OnlinePolicy",
           "PerceptronFilter", "PolicyFeatures", "SelectedPrefetcher",
           "XorShift", "make_policy"]
