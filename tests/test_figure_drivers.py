"""Pinned output of every figure and table driver.

One shared runner at a micro scale (2 cores, 600 instructions, channels
1 and 2, two homogeneous mixes and one heterogeneous mix) runs each
driver of :data:`equivalence_points.DRIVERS` once, in that order.  For
each driver, the returned dict, the printed text and the number of
points it simulated must equal ``tests/data/figure_drivers.json`` leaf
by leaf.  A refactor of the experiment layer that keeps this file
passing simulates the same points and reports the same numbers.

Re-pin only for an intended, reviewed change of a driver's output:
``python scripts/regenerate_equivalence_goldens.py`` rewrites the file
together with every other pin.
"""

from __future__ import annotations

import json

import pytest

from equivalence_points import (DRIVER_PIN, DRIVER_SCALE, DRIVERS,
                                assert_unchanged, figure_driver_outputs)

from repro import experiments


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
    assert_unchanged(f"driver {driver}", pinned[driver], outputs[driver])


#: Points each driver simulates on a fresh runner at the pinned scale:
#: its schemes on each of the two mixes, and no no-prefetching baseline,
#: which none of these drivers reads.
STANDALONE_RUNS = {"figure4": 12, "figure12": 4, "figure13": 8,
                   "energy_study": 4}


@pytest.mark.parametrize("driver", sorted(STANDALONE_RUNS))
def test_driver_simulates_only_the_points_it_reads(driver):
    runner = experiments.ExperimentRunner(DRIVER_SCALE)
    getattr(experiments, driver)(runner, quiet=True)
    assert runner.runs == STANDALONE_RUNS[driver]
