"""Unit tests for the online-policy seam and the two learned policies.

``PrefetchFilterChain.policy`` (reachable as ``node.chain.policy``) is
the one documented stubbing seam for adaptive control: swapping it
redirects *all three* protocol hooks -- ``observe`` at epoch
boundaries, ``decide`` per surviving candidate, ``update`` on prefetch
fates -- because the feedback listeners read the attribute at call
time.  The recording-stub tests pin that contract against a real run;
the rest are direct unit tests of :class:`BanditSelector` /
:class:`PerceptronFilter` arithmetic, plus the SIM lint gate over the
whole ``repro.prefetch.learned`` package.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro.config import LearnedConfig, scaled_config
from repro.prefetch.learned import (ACTION_KEEP, BanditSelector,
                                    OnlinePolicy, PerceptronFilter,
                                    PolicyFeatures)
from repro.sim.system import MulticoreSystem

REPO = Path(__file__).resolve().parent.parent


def _features(cycle=0, pf_issued=0, pf_useful=0, pf_dropped=0,
              demand_misses=0, useless_evictions=0, dram_busy_permille=0,
              noc_flit_hops=0, mshr_occupancy_permille=0):
    return PolicyFeatures(cycle, pf_issued, pf_useful, pf_dropped,
                          demand_misses, useless_evictions,
                          dram_busy_permille, noc_flit_hops,
                          mshr_occupancy_permille)


class RecordingPolicy(OnlinePolicy):
    """Admit-all (or deny-all) stub that records every hook invocation."""

    name = "recording"

    def __init__(self, admit: bool = True) -> None:
        self.admit = admit
        self.observed = []
        self.decided = []
        self.updated = []

    def observe(self, features: PolicyFeatures) -> int:
        self.observed.append(features)
        return ACTION_KEEP

    def decide(self, trigger_ip: int, line: int, cycle: int) -> bool:
        self.decided.append((trigger_ip, line, cycle))
        return self.admit

    def update(self, line: int, trigger_ip: int, useful: bool) -> None:
        self.updated.append((line, trigger_ip, useful))


def _stubbed_run(admit: bool):
    """One learned run with every core's policy swapped for a stub."""
    config = scaled_config(num_cores=1, channels=1,
                           sim_instructions=2_500)
    config.l1_prefetcher = dataclasses.replace(config.l1_prefetcher,
                                               name="berti")
    config.l2_prefetcher = dataclasses.replace(config.l2_prefetcher,
                                               name="none")
    config.learned = dataclasses.replace(config.learned,
                                         policy="perceptron",
                                         epoch_accesses=32)
    system = MulticoreSystem(config, ["605.mcf_s-1536B"])
    stub = RecordingPolicy(admit=admit)
    for node in system.nodes:
        node.chain.policy = stub
    return system.run(), stub


class TestPolicySeam:
    def test_stub_sees_all_three_hooks_with_sane_arguments(self):
        result, stub = _stubbed_run(admit=True)
        # The chain drove every hook through the swapped-in stub.
        assert stub.observed, "observe never reached the stub"
        assert stub.decided, "decide never reached the stub"
        assert stub.updated, "update never reached the stub"
        # Feature snapshots are ordered and physically plausible.
        cycles = [f.cycle for f in stub.observed]
        assert cycles == sorted(cycles)
        for features in stub.observed:
            assert 0 <= features.dram_busy_permille <= 1000
            assert 0 <= features.mshr_occupancy_permille <= 1000
        for cumulative in ("pf_issued", "pf_useful", "demand_misses",
                           "useless_evictions", "noc_flit_hops"):
            values = [getattr(f, cumulative) for f in stub.observed]
            assert values == sorted(values), f"{cumulative} not cumulative"
        # decide() sees the privatised line keyspace; every fate the
        # listeners report is for a line the stub itself admitted.
        decided_lines = {line for _ip, line, _cycle in stub.decided}
        updated_lines = {line for line, _ip, _useful in stub.updated}
        assert updated_lines <= decided_lines
        assert result.prefetch.issued > 0

    def test_deny_all_stub_suppresses_all_prefetches(self):
        result, stub = _stubbed_run(admit=False)
        assert stub.decided, "deny-all stub never consulted"
        assert result.prefetch.issued == 0
        # Drops are charged to the chain's filter-drop counter.
        chain = result.counters["core0.chain"]
        assert chain["pf_dropped_filter"] >= len(stub.decided)
        assert not stub.updated, "no admissions, so no fates"


class TestBanditSelector:
    def _selector(self, **overrides) -> BanditSelector:
        config = dataclasses.replace(
            LearnedConfig(policy="bandit"), **overrides)
        return BanditSelector(config, core_id=0)

    def test_warm_up_round_robin_measures_every_arm_once(self):
        selector = self._selector(epsilon_permille=0)
        arms = [selector.observe(_features(cycle=i))
                for i in range(len(selector.arms))]
        assert arms == list(range(len(selector.arms)))

    def test_reward_steers_the_greedy_choice(self):
        selector = self._selector(epsilon_permille=0)
        n = len(selector.arms)
        # Warm-up epochs: only arm 1's epoch produces useful prefetches
        # (arm k runs between observe k+1 and k+2).
        selector.observe(_features(cycle=0))
        for epoch in range(1, n + 1):
            useful = 10 if epoch == 2 else 0
            selector.observe(_features(cycle=epoch, pf_useful=useful))
        assert selector.q[1] > 0
        assert all(q <= 0 for i, q in enumerate(selector.q) if i != 1)
        assert selector.observe(_features(cycle=n + 1)) == 1

    def test_issued_prefetches_cost_under_bus_pressure(self):
        selector = self._selector()
        base = _features(cycle=0)
        idle = _features(cycle=1, pf_issued=100)
        busy = _features(cycle=1, pf_issued=100, dram_busy_permille=1000)
        assert selector._reward(base, idle) == 0
        assert selector._reward(base, busy) < 0

    def test_argmax_ties_break_to_the_lowest_index(self):
        assert BanditSelector._argmax([5, 5, 3]) == 0
        assert BanditSelector._argmax([0, 7, 7]) == 1

    def test_exploration_stream_is_seeded_per_core(self):
        def draws(seed, core_id):
            selector = BanditSelector(
                dataclasses.replace(LearnedConfig(policy="bandit"),
                                    seed=seed, epsilon_permille=1000),
                core_id)
            return [selector.observe(_features(cycle=i))
                    for i in range(30)]

        assert draws(11, 0) == draws(11, 0)
        assert draws(11, 0) != draws(12, 0)
        assert draws(11, 0) != draws(11, 1)


class TestPerceptronFilter:
    def _filter(self, **overrides) -> PerceptronFilter:
        config = dataclasses.replace(
            LearnedConfig(policy="perceptron"), **overrides)
        return PerceptronFilter(config, core_id=0)

    def test_cold_filter_admits_at_zero_threshold(self):
        policy = self._filter()
        assert policy.decide(0x400, 0x1000, cycle=0) is True
        assert policy.admits == 1 and policy.drops == 0

    def test_useless_fates_train_the_same_candidate_away(self):
        policy = self._filter(probe_interval=1_000_000)
        ip, line = 0x400, 0x1000
        assert policy.decide(ip, line, 0) is True
        policy.update(line, ip, useful=False)
        assert policy.trainings == 1
        assert policy.decide(ip, line, 0) is False
        assert policy.drops == 1

    def test_probe_admissions_keep_sampling_a_strict_filter(self):
        policy = self._filter(probe_interval=3)
        policy.threshold = 100  # nothing clears the bar on merit
        pattern = [policy.decide(0x400, 0x1000 + i, 0) for i in range(9)]
        assert pattern == [False, False, True] * 3
        assert policy.probes == 3

    def test_threshold_tracks_dram_bus_pressure(self):
        policy = self._filter()
        policy.observe(_features(dram_busy_permille=0))
        idle = policy.threshold
        policy.observe(_features(dram_busy_permille=1000))
        assert policy.threshold > idle

    def test_pending_map_is_bounded_and_evicts_oldest(self):
        policy = self._filter(pending_entries=4, probe_interval=1_000_000)
        lines = [0x1000 + i * 65 for i in range(6)]
        for i, line in enumerate(lines):
            policy.decide(0x400 + i * 8, line, 0)
        assert len(policy._pending) == 4
        # The two oldest records were evicted: their fate is a no-op.
        policy.update(lines[0], 0, useful=False)
        policy.update(lines[1], 0, useful=False)
        assert policy.trainings == 0
        policy.update(lines[5], 0, useful=False)
        assert policy.trainings == 1

    def test_weights_saturate_at_the_configured_width(self):
        policy = self._filter(weight_bits=4, probe_interval=1_000_000)
        ip, line = 0x400, 0x1000
        for _ in range(40):
            policy.threshold = -1_000  # keep admitting to keep training
            policy.decide(ip, line, 0)
            policy.update(line, ip, useful=False)
        lowest = min(min(weights) for weights, _salt in policy._lanes)
        assert lowest == -(1 << 3)


def test_learned_package_is_sim_lint_clean():
    """The whole ``repro.prefetch.learned`` package passes the simulator
    determinism lints with *zero* violations and *zero* inline
    ``# sim-lint: ignore`` comments -- SIM009 (set iteration), SIM010
    (random module), SIM011 (hash()/id()/wall-clock), SIM012 (float
    reductions), SIM013 (setattr/vars) would each break the
    bit-identical-replay contract the policies advertise."""
    from repro.analysis.framework import _IGNORE_RE
    from repro.analysis.lint import run_lint

    package = REPO / "src" / "repro" / "prefetch" / "learned"
    report = run_lint([package], root=REPO)
    assert report.checked_files >= 4
    offenders = [f"{v.rule_id} {v.path}:{v.line} {v.message}"
                 for v in report.violations]
    assert not offenders, "\n".join(offenders)
    ignored = sorted(path.name for path in package.rglob("*.py")
                     if _IGNORE_RE.search(path.read_text()))
    assert not ignored, f"inline sim-lint ignores in {ignored}"
