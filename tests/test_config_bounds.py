"""Every declared config bound holds at its edge.

Each numeric field of ``SystemConfig`` may declare a
:class:`repro.config.Bound` next to itself.  For every such field, this
test tries the value one step outside the bound and the value at it, on
a 2-core, 500-instruction point with IPCP at L1, whose candidates start
within 500 instructions, and with the field's group enabled: CLIP, the
TLB or the perceptron learner (CLIP alongside would drop every
candidate before the learner sees it).  Outside, ``validate()`` must
raise ``ValueError`` naming the field.  Inside, a cross-field rule may
reject the config; otherwise the point must finish within a cycle
bound.  A float's step is 0.001.
"""

from __future__ import annotations

import dataclasses
import math
import re
import typing
from typing import Iterator, List, Tuple

import pytest

from repro.config import Bound, SystemConfig, scaled_config
from repro.sim.system import MulticoreSystem

WORKLOAD = "605.mcf_s-1536B"
MAX_CYCLES = 1_000_000
FLOAT_STEP = 0.001


def _bounded(cls: type, prefix: str = "",
             ) -> Iterator[Tuple[str, Bound, bool]]:
    """(path, bound, is a float) for every bounded field under ``cls``."""
    hints = typing.get_type_hints(cls, include_extras=True)
    for item in dataclasses.fields(cls):
        hint = hints[item.name]
        bounds = [meta for meta in getattr(hint, "__metadata__", ())
                  if isinstance(meta, Bound)]
        if bounds:
            yield (prefix + item.name, bounds[0],
                   typing.get_args(hint)[0] is float)
        elif dataclasses.is_dataclass(hint):
            yield from _bounded(hint, f"{prefix}{item.name}.")


def _edges(bound: Bound, is_float: bool) -> List[Tuple[float, bool]]:
    """(value, inside the bound) at each end of ``bound``."""
    step = FLOAT_STEP if is_float else 1
    inside = bound.low + step if bound.strict else bound.low
    edges = [(inside, True), (inside - step, False)]
    if bound.high != math.inf:
        edges += [(bound.high - step, True), (bound.high, False)]
    return edges


CASES = {f"{path}={value}": (path, bound, value, inside)
         for path, bound, is_float in _bounded(SystemConfig)
         for value, inside in _edges(bound, is_float)}


#: group -> (field, value) that makes the simulator build and read it.
ENABLE = {"clip": ("enabled", True), "tlb": ("enabled", True),
          "learned": ("policy", "perceptron")}


def _point(path: str, value: float) -> SystemConfig:
    config = scaled_config(num_cores=2, channels=1, sim_instructions=500)
    config.l1_prefetcher.name = "ipcp"
    group, _, name = path.rpartition(".")
    owner = getattr(config, group) if group else config
    if group in ENABLE:
        setattr(owner, *ENABLE[group])
    setattr(owner, name, value)
    return config


def test_cases_cover_every_kind_of_bound():
    rules = {bound.rule for _path, bound, _value, _inside in CASES.values()}
    assert rules == {"must be positive", "must not be negative",
                     "must be a fraction in (0, 1)", "must be at least 2"}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bound_edge(case):
    path, bound, value, inside = CASES[case]
    config = _point(path, value)
    if not inside:
        with pytest.raises(ValueError,
                           match=re.escape(f"{path} {bound.rule}, got")):
            config.validate()
        return
    try:
        config.validate()
    except ValueError as error:
        # Only a rule tying fields together may reject an inside value.
        assert not str(error).startswith(f"{path} {bound.rule}"), error
        return
    result = MulticoreSystem(config, [WORKLOAD] * config.num_cores).run(
        max_cycles=MAX_CYCLES)
    assert result.total_instructions == (config.num_cores
                                         * config.sim_instructions)
