"""Pinned output of every figure and table driver.

One shared runner at a micro scale (2 cores, 600 instructions, channels
1 and 2, two homogeneous mixes and one heterogeneous mix) runs each
driver of :data:`equivalence_points.DRIVERS` once, in that order.  For
each driver, the returned dict (leaf by leaf), the printed text and the
number of points it simulated must equal
``tests/data/figure_drivers.json``.  A refactor of the experiment layer
that keeps this file passing simulates the same points and reports the
same numbers.

Re-pin only for an intended, reviewed change of a driver's output:
``python scripts/regenerate_equivalence_goldens.py`` rewrites the file
together with the simulator goldens.
"""

from __future__ import annotations

import json

import pytest

from equivalence_points import DRIVER_PIN, DRIVERS, figure_driver_outputs


def _leaves(tree, path=""):
    """``{path: leaf}`` for every scalar in a JSON tree."""
    if isinstance(tree, dict):
        out = {}
        for key, value in tree.items():
            out.update(_leaves(value, f"{path}/{key}"))
        return out
    if isinstance(tree, list):
        out = {}
        for index, value in enumerate(tree):
            out.update(_leaves(value, f"{path}[{index}]"))
        return out
    return {path: tree}


@pytest.fixture(scope="module")
def outputs():
    return figure_driver_outputs()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DRIVER_PIN.read_text())


def test_pin_covers_every_driver(pinned):
    assert list(pinned) == list(DRIVERS)


@pytest.mark.parametrize("driver", DRIVERS)
def test_driver_matches_pin(driver, outputs, pinned):
    actual, expected = outputs[driver], pinned[driver]
    assert _leaves(actual["returned"]) == _leaves(expected["returned"])
    assert actual["printed"] == expected["printed"]
    assert actual["runs"] == expected["runs"]
