"""Tests for the SolverPlan layer: arenas, reuse, caching."""

import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SolverError
from repro.linalg import plan as plan_module
from repro.linalg.plan import (
    JITTER_GROWTH,
    JITTER_INITIAL,
    MAX_FACTOR_ATTEMPTS,
    PlanSolveStats,
    SolverPlan,
    SolverPlanCache,
    default_plan_cache,
    reset_default_plan_cache,
)
from repro.slam.problem import LinearSystem
from repro.testing.workloads import make_random_window


def arrow_system(p, q, seed=0, scale=1.0):
    """A well-conditioned random SPD arrow system as a LinearSystem."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.5, 3.0, size=p) * scale
    w = rng.normal(size=(q, p)) * scale
    a = rng.normal(size=(q, q))
    v = (a @ a.T + q * np.eye(q)) * scale
    if p:
        v = v + w @ np.diag(1.0 / u) @ w.T
    b_x, b_y = rng.normal(size=p), rng.normal(size=q)
    return LinearSystem(
        u_diag=u, w_block=w, v_block=v, b_x=b_x, b_y=b_y,
        feature_ids=list(range(p)), frame_ids=list(range(max(q // 15, 1))),
    )


class TestPlanCorrectness:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("damping", [0.0, 1e-4, 0.5])
    def test_plan_matches_dense_solve(self, seed, damping):
        system = arrow_system(20, 24, seed=seed)
        plan = SolverPlan(20, 24)
        d_lambda, d_state = system.solve(damping=damping, plan=plan)
        ref_lambda, ref_state = system.solve_dense(damping=damping)
        assert np.allclose(d_lambda, ref_lambda, rtol=1e-8, atol=1e-10)
        assert np.allclose(d_state, ref_state, rtol=1e-8, atol=1e-10)

    def test_solution_satisfies_block_equations(self):
        system = arrow_system(15, 12, seed=7)
        d_lambda, d_state = system.solve(damping=0.0)
        u = np.maximum(system.u_diag, 1e-8)
        assert np.allclose(
            u * d_lambda + system.w_block.T @ d_state, system.b_x, atol=1e-8
        )
        assert np.allclose(
            system.w_block @ d_lambda + system.v_block @ d_state,
            system.b_y, atol=1e-8,
        )

    def test_real_window_plan_vs_dense(self):
        problem = make_random_window(3, num_keyframes=4, num_features=14)
        system = problem.build_linear_system()
        d_lambda, d_state = system.solve(damping=1e-4)
        ref_lambda, ref_state = system.solve_dense(damping=1e-4)
        assert np.allclose(d_lambda, ref_lambda, rtol=1e-7, atol=1e-9)
        assert np.allclose(d_state, ref_state, rtol=1e-7, atol=1e-9)

    def test_empty_landmark_block(self):
        system = arrow_system(0, 6, seed=2)
        d_lambda, d_state = system.solve(damping=1e-4)
        assert d_lambda.shape == (0,)
        ref_lambda, ref_state = system.solve_dense(damping=1e-4)
        assert np.allclose(d_state, ref_state, rtol=1e-9, atol=1e-11)

    def test_structure_mismatch_raises(self):
        system = arrow_system(8, 6)
        with pytest.raises(SolverError, match="structure"):
            system.solve(plan=SolverPlan(9, 6))

    def test_mistyped_rhs_raises_instead_of_truncating(self):
        plan = SolverPlan(4, 6)
        plan.execute(*_parts(arrow_system(4, 6)))
        with pytest.raises(TypeError, match="same_kind"):
            plan._triangular_solves(plan.factor, plan.reduced_rhs + 1j, plan.d_state)

    def test_bad_construction_rejected(self):
        with pytest.raises(ConfigurationError):
            SolverPlan(-1, 6)
        with pytest.raises(ConfigurationError):
            SolverPlan(4, 6).fit(-1)


class TestPlanReuse:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        p=st.integers(min_value=1, max_value=25),
        q=st.integers(min_value=1, max_value=20),
        damping=st.sampled_from([0.0, 1e-6, 1e-2]),
    )
    @settings(max_examples=30, deadline=None)
    def test_reused_plan_bit_identical_to_fresh(self, seed, p, q, damping):
        """Window mutations (new numbers, same structure) through a warm
        plan must equal a cold plan's answer to the bit."""
        warm = SolverPlan(p, q)
        # Warm the plan on a different system of the same structure.
        warm.execute(*_parts(arrow_system(p, q, seed=seed + 1)), damping=damping)
        system = arrow_system(p, q, seed=seed)
        got = warm.execute(*_parts(system), damping=damping)
        fresh = SolverPlan(p, q).execute(*_parts(system), damping=damping)
        assert np.array_equal(got[0], fresh[0])
        assert np.array_equal(got[1], fresh[1])

    def test_copy_true_detaches_from_arena(self):
        system_a = arrow_system(10, 9, seed=0)
        system_b = arrow_system(10, 9, seed=1)
        plan = SolverPlan(10, 9)
        kept_lambda, kept_state = system_a.solve(damping=0.0, plan=plan)
        snapshot = (kept_lambda.copy(), kept_state.copy())
        system_b.solve(damping=0.0, plan=plan)  # would clobber views
        assert np.array_equal(kept_lambda, snapshot[0])
        assert np.array_equal(kept_state, snapshot[1])

    def test_copy_false_returns_arena_views(self):
        system = arrow_system(10, 9, seed=0)
        plan = SolverPlan(10, 9)
        d_lambda, d_state = system.solve(damping=0.0, plan=plan, copy=False)
        assert np.shares_memory(d_lambda, plan.d_lambda)
        assert np.shares_memory(d_state, plan.d_state)


class TestWidthRefit:
    """One plan per width serves every feature count: a refit must solve
    exactly as a plan freshly built for that count does."""

    @pytest.mark.parametrize("singular", [False, True])
    def test_refit_sequence_bit_identical_to_fresh(self, singular):
        q = 12
        build = singular_system if singular else arrow_system
        damping = 0.0 if singular else 1e-4  # damping would mask the failure
        plan = SolverPlan(9, q)
        # grow -> shrink -> grow, with an empty landmark block on the way.
        for seed, p in enumerate((9, 30, 4, 17, 0, 45, 30, 46)):
            plan.fit(p)
            assert plan.matches(p, q)
            system = build(p, q, seed=seed)
            fresh = SolverPlan(p, q)
            want_lambda, want_state, want_stats = fresh.execute(
                *_parts(system), damping=damping
            )
            got_lambda, got_state, got_stats = plan.execute(
                *_parts(system), damping=damping
            )
            assert got_lambda.tobytes() == want_lambda.tobytes()
            assert got_state.tobytes() == want_state.tobytes()
            assert plan.reduced.tobytes() == fresh.reduced.tobytes()
            assert got_stats.jitter_applied == singular
            assert got_stats.jitter == want_stats.jitter

    def test_refit_within_capacity_keeps_buffers(self):
        plan = SolverPlan(40, 9)
        w_scaled = plan.w_scaled
        plan.fit(25)
        assert np.shares_memory(plan.w_scaled, w_scaled)
        assert plan.w_scaled.shape == (9, 25) and plan.w_scaled.flags.c_contiguous
        assert plan.d_lambda.shape == plan.u_damped.shape == (25,)
        plan.fit(41)  # past the capacity: new buffers
        assert not np.shares_memory(plan.w_scaled, w_scaled)

    def test_warm_refit_allocates_no_arrays(self):
        """Looking up a width's plan for a smaller feature count and
        solving through it stays under the zero-allocation bound once the
        plan's capacity covers that count."""
        cache = SolverPlanCache()
        q = 150
        big = _parts(arrow_system(200, q, seed=0))
        small = _parts(arrow_system(120, q, seed=1))
        cache.get(200, q).execute(*big, damping=1e-4)
        cache.get(120, q).execute(*small, damping=1e-4)
        tracemalloc.start()
        cache.get(200, q).execute(*big, damping=1e-4)  # warm tracer
        tracemalloc.reset_peak()
        cache.get(120, q).execute(*small, damping=1e-4)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 32_768, f"refit + solve allocated {peak} bytes"
        assert cache.stats()["plans"] == 1


class TestJitterPolicy:
    def test_no_jitter_on_well_conditioned_system(self):
        system = arrow_system(12, 9, seed=0)
        plan = SolverPlan(12, 9)
        system.solve(damping=0.0, plan=plan)
        assert plan.last_stats.jitter == 0.0
        assert not plan.last_stats.jitter_applied
        assert plan.last_stats.factor_attempts == 1

    def test_jitter_escalates_on_singular_system(self):
        p, q = 3, 6
        system = LinearSystem(
            u_diag=np.ones(p), w_block=np.zeros((q, p)),
            v_block=np.zeros((q, q)), b_x=np.zeros(p), b_y=np.ones(q),
            feature_ids=list(range(p)), frame_ids=[0],
        )
        plan = SolverPlan(p, q)
        d_lambda, d_state = system.solve(damping=0.0, plan=plan)
        assert plan.last_stats.jitter_applied
        assert plan.last_stats.jitter > 0.0
        assert plan.last_stats.factor_attempts > 1
        assert np.all(np.isfinite(d_lambda)) and np.all(np.isfinite(d_state))

    def test_unfactorable_system_raises_after_retries(self):
        q = 4
        system = LinearSystem(
            u_diag=np.ones(1), w_block=np.zeros((q, 1)),
            v_block=-1e6 * np.eye(q), b_x=np.zeros(1), b_y=np.ones(q),
            feature_ids=[0], frame_ids=[0],
        )
        with pytest.raises(SolverError, match="attempts"):
            system.solve(damping=0.0, plan=SolverPlan(1, q))

    def test_reduced_matrix_left_intact_after_jitter_retry(self):
        p, q = 2, 5
        system = LinearSystem(
            u_diag=np.ones(p), w_block=np.zeros((q, p)),
            v_block=np.zeros((q, q)), b_x=np.zeros(p), b_y=np.ones(q),
            feature_ids=list(range(p)), frame_ids=[0],
        )
        plan = SolverPlan(p, q)
        system.solve(damping=0.0, plan=plan)
        # reduced must hold the *unjittered* Schur complement (zeros).
        assert np.array_equal(plan.reduced, np.zeros((q, q)))


def scipy_reference_solve(reduced, rhs):
    """The plan's factor-and-substitute step through scipy.linalg's public
    functions, with the same jitter-on-failure schedule.

    Returns ``(factor, d_state, factor_attempts, jitter)``.
    """
    import scipy.linalg

    q = reduced.shape[0]
    jitter = 0.0
    for attempt in range(1, MAX_FACTOR_ATTEMPTS + 1):
        jittered = reduced.copy()
        if jitter:
            jittered[np.diag_indices(q)] += jitter
        try:
            factor = scipy.linalg.cholesky(jittered, lower=True)
        except np.linalg.LinAlgError:
            jitter = JITTER_INITIAL if jitter == 0.0 else jitter * JITTER_GROWTH
            continue
        forward = scipy.linalg.solve_triangular(factor, rhs, lower=True)
        d_state = scipy.linalg.solve_triangular(
            factor, forward, lower=True, trans="T"
        )
        return factor, d_state, attempt, jitter
    raise AssertionError("reference Cholesky never succeeded")


class TestLapackBitIdentity:
    """The plan calls dpotrf/dtrtrs directly; its factor and solution must
    equal scipy.linalg.cholesky + solve_triangular byte for byte."""

    @staticmethod
    def assert_matches_scipy(plan):
        factor, d_state, attempts, jitter = scipy_reference_solve(
            plan.reduced, plan.reduced_rhs
        )
        assert plan.factor.tobytes() == factor.tobytes()
        assert plan.d_state.tobytes() == d_state.tobytes()
        assert plan.last_stats.factor_attempts == attempts
        assert plan.last_stats.jitter == jitter

    @pytest.mark.parametrize("case", range(24))
    def test_random_spd_systems(self, case):
        rng = np.random.default_rng(1000 + case)
        q = int(rng.integers(15, 151))
        p = int(rng.integers(0, 201))
        damping = float(rng.choice([0.0, 1e-4, 0.5]))
        plan = SolverPlan(p, q)
        plan.execute(*_parts(arrow_system(p, q, seed=case)), damping=damping)
        assert plan.last_stats.factor_attempts == 1
        self.assert_matches_scipy(plan)

    def test_jitter_retry(self):
        """A rank-deficient reduced system fails the jitter-free attempt."""
        p, q = 4, 15
        rng = np.random.default_rng(7)
        low_rank = rng.normal(size=(q, q - 3))
        system = LinearSystem(
            u_diag=np.ones(p), w_block=np.zeros((q, p)),
            v_block=low_rank @ low_rank.T, b_x=np.zeros(p),
            b_y=rng.normal(size=q),
            feature_ids=list(range(p)), frame_ids=[0],
        )
        plan = SolverPlan(p, q)
        system.solve(damping=0.0, plan=plan)
        assert plan.last_stats.factor_attempts > 1
        self.assert_matches_scipy(plan)

    def test_binding_is_scipys_own_module(self):
        import scipy.linalg

        assert plan_module._flapack is sys.modules["scipy.linalg._flapack"]
        assert scipy.linalg.lapack.dpotrf is plan_module._flapack.dpotrf
        assert scipy.linalg.lapack.dtrtrs is plan_module._flapack.dtrtrs

    def test_missing_binding_names_the_directory(self, monkeypatch, tmp_path):
        import scipy

        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
        with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
            plan_module._load_flapack()


class TestZeroAllocation:
    def test_warm_execute_allocates_no_arrays(self):
        """At fig11 scale a warm plan's execute stays under a few KiB of
        transient allocation — far below any (q, q) or (q, p) buffer
        (180 KiB / 240 KiB at this scale), proving every matrix-sized
        operand lives in the preallocated arenas."""
        system = arrow_system(200, 150, seed=0)
        plan = SolverPlan(200, 150)
        parts = _parts(system)
        plan.execute(*parts, damping=1e-4)
        tracemalloc.start()
        plan.execute(*parts, damping=1e-4)  # first traced call warms tracer caches
        tracemalloc.reset_peak()
        plan.execute(*parts, damping=1e-4)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 32_768, f"solve stage allocated {peak} bytes"


class TestPlanCache:
    def test_hits_and_misses_counted(self):
        cache = SolverPlanCache()
        a = cache.get(10, 9)
        b = cache.get(10, 9)
        c = cache.get(11, 9)
        # Plans are keyed by width: another feature count at the same
        # width is the same plan, refit, and counts as a hit.
        assert a is b and a is c and c.matches(11, 9)
        assert cache.get(10, 12) is not a
        assert cache.stats() == {
            "hits": 2, "misses": 2, "hit_rate": pytest.approx(1 / 2), "plans": 2,
        }
        cache.clear()
        assert cache.stats()["plans"] == 0 and cache.stats()["hits"] == 0

    def test_thread_keyed_plans_are_distinct(self):
        cache = SolverPlanCache()
        main_plan = cache.get(8, 6)
        seen = []
        thread = threading.Thread(target=lambda: seen.append(cache.get(8, 6)))
        thread.start()
        thread.join()
        assert seen[0] is not main_plan

    def test_lru_eviction(self):
        cache = SolverPlanCache(max_plans=2)
        cache.get(1, 1)
        cache.get(2, 2)
        cache.get(3, 3)
        assert len(cache) == 2
        cache.get(1, 1)  # evicted -> rebuilt: a miss
        assert cache.stats()["misses"] == 4

    def test_default_cache_reset(self):
        first = default_plan_cache()
        assert default_plan_cache() is first
        second = reset_default_plan_cache()
        assert second is not first
        assert default_plan_cache() is second


class TestNlsIntegration:
    def test_lm_records_solve_substage_timings(self):
        from repro.slam.nls import LMConfig, levenberg_marquardt

        problem = make_random_window(5, num_keyframes=4, num_features=12)
        result = levenberg_marquardt(problem, LMConfig(max_iterations=3))
        timings = result.timings
        assert timings.solve_s > 0.0
        assert timings.schur_s > 0.0
        assert timings.chol_s > 0.0
        assert timings.backsub_s > 0.0
        # Substages are children of solve: they never inflate the total.
        assert timings.total_s == pytest.approx(
            timings.linearize_s + timings.assemble_s
            + timings.solve_s + timings.update_s
        )
        # The sub-phases are measured inside the solve interval.
        assert timings.solve_s >= timings.schur_s + timings.chol_s + timings.backsub_s
        # The initial cost evaluation counts as update.
        assert timings.update_s > 0.0

    def test_lm_reuses_one_plan_across_iterations(self):
        from repro.slam.nls import LMConfig, levenberg_marquardt

        cache = reset_default_plan_cache()
        problem = make_random_window(6, num_keyframes=4, num_features=12)
        levenberg_marquardt(problem, LMConfig(max_iterations=4))
        stats = cache.stats()
        # One structure -> one miss; the iteration loop holds the plan
        # object, so at most one extra lookup can occur.
        assert stats["misses"] == 1
        reset_default_plan_cache()

    def test_estimator_run_keeps_one_plan_per_width(self):
        """A sliding-window run solves at a few widths (one per keyframe
        count) and many feature counts; the cache holds one plan per
        width and misses once per width."""
        from dataclasses import replace

        from repro.data.sequences import EUROC_SEQUENCES, make_sequence
        from repro.geometry.navstate import STATE_DIM
        from repro.slam.estimator import EstimatorConfig, SlidingWindowEstimator

        sequence = make_sequence(replace(EUROC_SEQUENCES["MH_03"], duration=8.0))
        widths = set()
        config = EstimatorConfig(
            window_size=6,
            window_probe=lambda problem, _: widths.add(
                STATE_DIM * len(problem.states)
            ),
        )
        cache = reset_default_plan_cache()
        try:
            SlidingWindowEstimator(config).run(sequence)
            stats = cache.stats()
        finally:
            reset_default_plan_cache()
        assert 1 < len(widths) <= config.window_size + 1
        assert stats["plans"] == len(widths)
        assert stats["misses"] == len(widths)

    def test_stats_dataclass_defaults(self):
        stats = PlanSolveStats()
        assert stats.jitter == 0.0 and not stats.jitter_applied


def singular_system(p, q, seed=0):
    """An arrow system whose Schur complement is zero, so the first
    factorization fails and the jitter retry runs."""
    rng = np.random.default_rng(seed)
    return LinearSystem(
        u_diag=rng.uniform(0.5, 3.0, size=p), w_block=np.zeros((q, p)),
        v_block=np.zeros((q, q)), b_x=rng.normal(size=p), b_y=rng.normal(size=q),
        feature_ids=list(range(p)), frame_ids=[0],
    )


def _parts(system):
    return (system.u_diag, system.w_block, system.v_block, system.b_x, system.b_y)
