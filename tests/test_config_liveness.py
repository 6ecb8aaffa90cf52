"""Every ``SystemConfig`` field has a reader in the simulator.

A field no simulator module reads still enters every sweep cache key and
reads as a setting of the simulated system, yet setting it changes
nothing.  This test builds the ten golden points and the dynamic-CLIP
point, validates each, then swaps the class of every config dataclass
instance for a subclass that notes each field read, and runs the point.
The reads of all points together must cover every leaf of
``SystemConfig`` -- found by a ``dataclasses.fields`` walk -- apart from
the exemptions listed below.

Reads made by ``dataclasses`` itself (``replace``, ``asdict``) and by
the generated ``__repr__``/``__eq__`` (a memo key, not a use) do not
count.  A field that is read but has no effect -- a line size that only
some modules honour -- is beyond this test.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Dict, List, Set

from equivalence_points import CLIP_KNOB_POINTS, POINTS, clip_knob_point

from repro.config import SystemConfig
from repro.sim.system import run_system

#: Leaves the points below need not read -> the reason each stays.
#: Empty: every field has a reader.
EXEMPT: Dict[str, str] = {}

#: Frames whose reads do not count: ``dataclasses`` helpers and the
#: methods it generates (compiled from a string).
_IGNORED_FILES = frozenset({dataclasses.__file__, "<string>"})


def _leaves(obj, prefix: str = "") -> List[str]:
    out: List[str] = []
    for item in dataclasses.fields(obj):
        value = getattr(obj, item.name)
        if dataclasses.is_dataclass(value):
            out += _leaves(value, f"{prefix}{item.name}.")
        else:
            out.append(f"{prefix}{item.name}")
    return out


def _watch(obj, path: str, reads: Set[str]) -> None:
    """Swap ``obj``'s class (and its nested configs') for one that adds
    the dotted path of every field read to ``reads``."""
    names = frozenset(item.name for item in dataclasses.fields(obj))
    base = type(obj)

    class Watched(base):
        def __getattribute__(self, name):
            if (name in names and sys._getframe(1).f_code.co_filename
                    not in _IGNORED_FILES):
                reads.add(f"{path}{name}")
            return base.__getattribute__(self, name)

    for name in names:
        value = getattr(obj, name)
        if dataclasses.is_dataclass(value):
            _watch(value, f"{path}{name}.", reads)
    obj.__class__ = Watched


def _points():
    yield from (build() for build in POINTS.values())
    yield clip_knob_point(*CLIP_KNOB_POINTS["dynamic-4ch"])


def test_every_config_leaf_is_read(monkeypatch):
    leaves = set(_leaves(SystemConfig()))
    assert set(EXEMPT) <= leaves, "an exemption names no config field"
    points = list(_points())
    for config, _mix in points:
        config.validate()
    # validate() reads every field it checks; only the simulator's own
    # reads count, so its call at system construction is muted.
    monkeypatch.setattr(SystemConfig, "validate", lambda self: None)
    reads: Set[str] = set()
    for config, mix in points:
        _watch(config, "", reads)
        run_system(config, mix)
    unread = sorted(leaves - reads - set(EXEMPT))
    assert not unread, f"config fields no simulator module reads: {unread}"
