"""The per-trace branch outcome stream the core model reads.

A trace-driven core trains its branch predictor on the trace's own
outcomes, in program order, so the predictor's right/wrong sequence is
a function of (trace, branch config).  ``repro.cpu.branch.outcome_stream``
computes it once; ``repro.sim.system`` caches it next to the trace and
every core reads it instead of predicting again.  These tests pin the
stream to a live predictor walk and the cache to its reuse contract.
"""

from __future__ import annotations

import dataclasses

import pytest

from equivalence_points import POINTS

from repro.config import BranchPredictorConfig, CoreConfig, scaled_config
from repro.cpu import Core, HashedPerceptronPredictor
from repro.cpu.branch import outcome_stream
from repro.sim.engine import Engine
from repro.sim.system import MulticoreSystem
from repro.trace.record import Op


def live_walk(trace, config):
    """(flags, predictor) from predicting every branch of ``trace``."""
    predictor = HashedPerceptronPredictor(config)
    flags = bytes(
        predictor.predict_and_train(record.ip, record.taken)
        if record.op == Op.BRANCH else 1
        for record in trace)
    return flags, predictor


@pytest.mark.parametrize("point", sorted(POINTS))
def test_cached_stream_equals_live_walk_on_golden_traces(point):
    config, mix = POINTS[point]()
    system = MulticoreSystem(config, mix)
    for core in system.cores:
        flags, live = live_walk(core.trace, config.branch)
        assert core.branch_outcomes == flags
        assert live.predictions > 0
        assert 0 < live.mispredictions < live.predictions


@pytest.mark.parametrize("warmup", [0, 700])
def test_core_predictor_counters_equal_live_ones(warmup):
    config = scaled_config(num_cores=2, channels=1, sim_instructions=1_500,
                           warmup_instructions=warmup)
    mix = ["605.mcf_s-1536B", "602.gcc_s-1850B"]
    system = MulticoreSystem(config, mix)
    result = system.run()
    predictions = mispredictions = 0
    for core in system.cores:
        _, live = live_walk(core.trace, config.branch)
        assert core.branch_predictor.predictions == live.predictions
        assert core.branch_predictor.mispredictions == live.mispredictions
        predictions += live.predictions
        mispredictions += live.mispredictions
    assert result.branch_accuracy == 1.0 - mispredictions / predictions
    assert result.total_instructions == 2 * 1_500


def test_cores_never_build_predictor_tables():
    """A core reads its outcome stream and only counts, so its
    predictor's weight tables stay unbuilt through the run; the first
    prediction of a fresh predictor builds them."""
    config = scaled_config(num_cores=2, channels=1, sim_instructions=1_500)
    system = MulticoreSystem(config, ["605.mcf_s-1536B", "602.gcc_s-1850B"])
    assert [core.branch_predictor._tables for core in system.cores] \
        == [[], []]
    system.run()
    for core in system.cores:
        assert core.branch_predictor.predictions > 0
        assert core.branch_predictor._tables == []
    predictor = HashedPerceptronPredictor(config.branch)
    assert predictor.predict(0x400)
    assert len(predictor._tables) == config.branch.num_tables


def test_second_build_reuses_the_cached_stream():
    config = scaled_config(num_cores=2, channels=1, sim_instructions=1_000)
    mix = ["605.mcf_s-1536B", "605.mcf_s-1536B"]
    first = MulticoreSystem(config, mix)
    second = MulticoreSystem(config, mix)
    for a, b in zip(first.cores, second.cores):
        assert a.trace is b.trace
        assert a.branch_outcomes is b.branch_outcomes
    # Another predictor geometry shares the trace, not the stream.
    other = dataclasses.replace(config, branch=BranchPredictorConfig(
        table_entries=64))
    third = MulticoreSystem(other, mix)
    assert third.cores[0].trace is first.cores[0].trace
    assert third.cores[0].branch_outcomes is not \
        first.cores[0].branch_outcomes
    assert third.cores[0].branch_outcomes == outcome_stream(
        third.cores[0].trace, other.branch)


def test_core_computes_its_own_stream_when_none_is_given():
    trace = MulticoreSystem(scaled_config(num_cores=1, channels=1,
                                          sim_instructions=600),
                            ["bfs-14"]).cores[0].trace
    branch = BranchPredictorConfig(num_tables=4)
    core = Core(0, CoreConfig(), trace, memory=None, engine=Engine(),
                branch_predictor=HashedPerceptronPredictor(branch))
    assert core.branch_outcomes == live_walk(trace, branch)[0]


def test_trained_predictor_is_rejected():
    predictor = HashedPerceptronPredictor()
    predictor.predict_and_train(0x400, True)
    with pytest.raises(ValueError, match="already made 1 prediction"):
        Core(0, CoreConfig(), [], memory=None, engine=Engine(),
             branch_predictor=predictor)
