"""Tests for the run-time system (Sec. 6)."""

import numpy as np
import pytest

from repro.data.stats import WindowStats
from repro.errors import ConfigurationError
from repro.hw import DEFAULT_POWER_MODEL
from repro.runtime import (
    IterationTable,
    RuntimeController,
    TwoBitSaturatingCounter,
    build_iteration_table,
    build_reconfiguration_table,
    replay_windows,
)
from repro.runtime.profiler import MAX_ITERATIONS
from repro.synth import high_perf_design


def make_stats(features, am=20):
    return WindowStats(
        num_features=features,
        avg_observations=10.0,
        num_keyframes=15,
        num_marginalized=am,
        num_observations=int(features * 10),
    )


class TestIterationTable:
    def test_lookup_monotone(self):
        table = IterationTable()
        iters = [table.lookup(n) for n in (0, 30, 60, 100, 160, 220, 400)]
        assert all(b <= a for a, b in zip(iters, iters[1:]))

    def test_sparse_windows_get_max_iterations(self):
        table = IterationTable()
        assert table.lookup(5) == MAX_ITERATIONS

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            IterationTable(thresholds=(10, 5), iterations=(6, 5, 4))
        with pytest.raises(ConfigurationError):
            IterationTable(thresholds=(10,), iterations=(2, 6))  # increasing
        with pytest.raises(ConfigurationError):
            IterationTable(thresholds=(10,), iterations=(9, 1))  # above cap
        with pytest.raises(ConfigurationError):
            IterationTable().lookup(-1)

    def test_build_from_profile(self):
        """A synthetic profile where high feature counts reach the target
        accuracy with few iterations."""
        profile = {}
        for cap in (1, 2, 4, 6):
            samples = []
            for count in range(10, 400, 10):
                # Error falls with both iterations and feature count.
                error = 1.0 / (cap * np.sqrt(count))
                samples.append((count, error))
            profile[cap] = samples
        table = build_iteration_table(profile)
        assert table.lookup(20) >= table.lookup(300)
        assert 1 <= table.lookup(300) <= MAX_ITERATIONS


class TestSaturatingCounter:
    def test_single_disagreement_ignored(self):
        counter = TwoBitSaturatingCounter(initial=6)
        assert counter.update(3) == 6  # first proposal: pending only
        assert counter.update(6) == 6  # back to agreement: reset
        assert counter.update(3) == 6
        assert counter.transitions == 0

    def test_two_consecutive_agreements_apply(self):
        counter = TwoBitSaturatingCounter(initial=6)
        counter.update(3)
        assert counter.update(3) == 3
        assert counter.transitions == 1

    def test_changing_proposals_reset_confidence(self):
        counter = TwoBitSaturatingCounter(initial=6)
        counter.update(3)
        counter.update(4)  # different proposal: restart confidence
        assert counter.current == 6
        assert counter.update(4) == 4

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            TwoBitSaturatingCounter(initial=6, threshold=0)


class TestReconfigurationTable:
    @pytest.fixture(scope="class")
    def setup(self):
        result = high_perf_design()
        table = build_reconfiguration_table(result.config, result.spec)
        return result, table

    def test_entries_for_all_iterations(self, setup):
        _, table = setup
        assert sorted(table.entries) == list(range(1, MAX_ITERATIONS + 1))

    def test_entries_fit_inside_static(self, setup):
        """Equ. 18's key constraint: gated configs never exceed the
        static design (clock gating cannot add hardware)."""
        result, table = setup
        for config in table.entries.values():
            assert config.dominates(result.config)

    def test_fewer_iterations_never_more_power(self, setup):
        _, table = setup
        powers = [table.gated_power(i) for i in range(1, MAX_ITERATIONS + 1)]
        assert all(a <= b + 1e-12 for a, b in zip(powers, powers[1:]))

    def test_gated_power_between_bounds(self, setup):
        result, table = setup
        static_power = DEFAULT_POWER_MODEL.power(result.config)
        for i in range(1, MAX_ITERATIONS + 1):
            assert table.gated_power(i) <= static_power + 1e-12

    def test_reduced_iterations_meet_budget(self, setup):
        """Every gated config must still meet the latency budget at its
        iteration count."""
        from repro.hw.latency import window_latency_seconds

        result, table = setup
        for iterations, config in table.entries.items():
            latency = window_latency_seconds(
                result.spec.workload, config, iterations, result.spec.platform
            )
            assert latency <= result.spec.latency_budget_s + 1e-9

    def test_lookup_clamps(self, setup):
        _, table = setup
        assert table.lookup(0) == table.entries[1]
        assert table.lookup(99) == table.entries[MAX_ITERATIONS]


class TestRuntimeController:
    @pytest.fixture()
    def reconfig(self):
        result = high_perf_design()
        return build_reconfiguration_table(result.config, result.spec)

    @pytest.fixture()
    def controller(self, reconfig):
        return RuntimeController(table=IterationTable(), reconfig=reconfig)

    @staticmethod
    def replay(reconfig, feature_counts):
        stats = [make_stats(features) for features in feature_counts]
        return replay_windows(stats, IterationTable(), reconfig)

    def test_rich_windows_save_energy(self, reconfig):
        # Plenty of features -> few iterations -> gated-down hardware.
        assert self.replay(reconfig, [300] * 10).energy_saving > 0.2

    def test_sparse_windows_save_little(self, reconfig):
        # Max iterations: only latency-slack gating remains.
        assert self.replay(reconfig, [20] * 10).energy_saving < 0.2

    def test_hysteresis_limits_reconfigurations(self, reconfig):
        # Alternating proposals should not cause thrashing.
        features = [300 if i % 2 == 0 else 20 for i in range(20)]
        assert self.replay(reconfig, features).num_reconfigurations <= 2

    def test_decision_bookkeeping(self, reconfig):
        (decision,) = self.replay(reconfig, [300]).decisions
        assert decision.energy_j > 0
        assert decision.static_energy_j >= decision.energy_j
        assert decision.proposed_iterations == IterationTable().lookup(300)

    def test_iteration_policy_adapter(self, controller):
        # First call proposes a change; hysteresis keeps the old value.
        assert controller.iteration_policy(300) == MAX_ITERATIONS
        assert controller.iteration_policy(300) == IterationTable().lookup(300)


class TestControllerSessionIsolation:
    """Regression: concurrent serve sessions must not cross-contaminate
    the controller's 2-bit counter state (the documented contract: tables
    shared read-only, one controller per session via ``for_session``)."""

    @pytest.fixture()
    def prototype(self):
        result = high_perf_design()
        reconfig = build_reconfiguration_table(result.config, result.spec)
        return RuntimeController(table=IterationTable(), reconfig=reconfig)

    @staticmethod
    def replay(controller, stream):
        return [controller.decide(features) for features in stream]

    def test_for_session_shares_tables_not_state(self, prototype):
        session = prototype.for_session()
        assert session.table is prototype.table
        assert session.reconfig is prototype.reconfig
        prototype.decide(300)
        prototype.decide(300)
        # The prototype's hysteresis history must not leak into the fork.
        fresh = prototype.for_session()
        assert fresh.decide(300) == prototype.for_session().decide(300)

    def test_interleaved_sessions_match_isolated_runs(self, prototype):
        # Robot A sees rich windows, robot B sparse — opposite proposals,
        # so any shared counter state would flip decisions.
        stream_a = [300, 300, 20, 20, 300, 300, 300, 20, 300, 300]
        stream_b = [20, 20, 300, 20, 20, 20, 300, 300, 20, 20]
        isolated_a = self.replay(prototype.for_session(), stream_a)
        isolated_b = self.replay(prototype.for_session(), stream_b)

        controller_a = prototype.for_session()
        controller_b = prototype.for_session()
        interleaved_a, interleaved_b = [], []
        for features_a, features_b in zip(stream_a, stream_b):
            interleaved_a.append(controller_a.decide(features_a))
            interleaved_b.append(controller_b.decide(features_b))
        assert interleaved_a == isolated_a
        assert interleaved_b == isolated_b

    def test_shared_controller_would_contaminate(self, prototype):
        # The counter-example the contract exists for: one controller fed
        # both robots' streams diverges from the isolated decisions.
        stream_a = [300, 300, 300, 300]
        isolated_a = self.replay(prototype.for_session(), stream_a)
        shared = prototype.for_session()
        contaminated_a = []
        for features_a in stream_a:
            contaminated_a.append(shared.decide(features_a))
            shared.decide(20)  # robot B interleaves through the same counter
        assert contaminated_a != isolated_a

    def test_degrade_drops_iterations_but_not_counter_state(self, prototype):
        plain = prototype.for_session()
        degraded = prototype.for_session()
        stream = [300, 300, 300, 300]
        for features in stream:
            applied_plain, _, _ = plain.decide(features)
            applied_degraded, config, _ = degraded.decide(features, degrade=2)
            assert applied_degraded == max(1, applied_plain - 2)
            assert config == degraded.reconfig.lookup(applied_degraded)
        # Backpressure fed the counter the *undegraded* proposal, so once
        # load clears both controllers agree again immediately — the
        # recovering one just reports a reconfiguration back up.
        applied_plain, config_plain, _ = plain.decide(300)
        applied_recovered, config_recovered, reconfigured = degraded.decide(300)
        assert (applied_recovered, config_recovered) == (applied_plain, config_plain)
        assert reconfigured
