import numpy as np
import pytest
import warnings

from nu_analyzer import (
    ValidationError,
    convergence_study,
    heuristic_balance,
    nubar_exact,
    run_trials,
    trial_matrix,
)


OSC = np.array([[0.0, 1.0], [0.25, 0.0]])  # two-cycle with x = 0.5


class TestHeuristicBalance:
    def test_full_step_oscillates_exactly(self):
        trace = heuristic_balance(OSC, theta=1.0, max_iter=50, tol=1e-9)
        np.testing.assert_array_equal(trace.iterations[1].d, [0.5, 2.0])
        assert trace.oscillating
        assert not trace.converged

    def test_full_step_never_converges(self):
        for max_iter in (3, 10, 100):
            trace = heuristic_balance(OSC, theta=1.0, max_iter=max_iter, tol=1e-6)
            assert not trace.converged
            assert trace.oscillating

    def test_half_step_converges_to_optimum(self):
        trace = heuristic_balance(OSC, theta=0.5, max_iter=200, tol=1e-9)
        assert trace.converged
        assert trace.objective == pytest.approx(0.5, rel=1e-3)

    def test_identity_fixed_point_immediately(self):
        trace = heuristic_balance(np.eye(3), theta=0.7, max_iter=100, tol=1e-9)
        assert trace.converged
        assert trace.updates == 1
        assert trace.objective == 1.0
        np.testing.assert_array_equal(trace.final, np.ones(3))

    def test_theta_validation(self):
        with pytest.raises(ValidationError):
            heuristic_balance(OSC, theta=0.0)
        with pytest.raises(ValidationError):
            heuristic_balance(OSC, theta=1.5)

    def test_zero_row_and_column_nodes_are_noop(self):
        # node 3 has no incoming or outgoing channel: its weight must not move
        m = np.zeros((3, 3))
        m[0, 1] = m[1, 0] = 0.5
        trace = heuristic_balance(m, theta=0.5, max_iter=50, tol=1e-9)
        assert all(step.d[2] == 1.0 for step in trace.iterations)
        assert trace.converged

    def test_scale_equivariance_exact_power_of_four(self):
        rng = np.random.default_rng(30)
        m = rng.random((6, 6))
        t1 = heuristic_balance(m, theta=0.4, max_iter=60, tol=1e-12)
        t4 = heuristic_balance(4.0 * m, theta=0.4, max_iter=60, tol=1e-12)
        for s1, s4 in zip(t1.iterations, t4.iterations):
            np.testing.assert_array_equal(s1.d, s4.d)
            assert s4.objective == 4.0 * s1.objective

    def test_scale_equivariance_general_factor(self):
        rng = np.random.default_rng(31)
        m = rng.random((5, 5))
        t1 = heuristic_balance(m, theta=0.6, max_iter=60, tol=1e-12)
        t2 = heuristic_balance(1.7 * m, theta=0.6, max_iter=60, tol=1e-12)
        for s1, s2 in zip(t1.iterations, t2.iterations):
            np.testing.assert_allclose(s2.d, s1.d, rtol=1e-12)
            assert s2.objective == pytest.approx(1.7 * s1.objective, rel=1e-12)

    def test_final_objective_dominates_optimum(self):
        rng = np.random.default_rng(32)
        for _ in range(15):
            n = int(rng.integers(2, 8))
            m = rng.random((n, n)) + 1e-6
            trace = heuristic_balance(m, theta=0.5, max_iter=500, tol=1e-8)
            opt = nubar_exact(m).value
            assert trace.objective >= opt * (1 - 1e-12)
            if trace.converged and trace.objective > opt * (1 + 10 * 1e-8):
                warnings.warn(
                    f"balancing heuristic converged away from the optimum: "
                    f"{trace.objective} vs {opt}"
                )


class TestStudy:
    def test_single_trial_deterministic(self):
        r1 = run_trials(n=2, trials=1, theta=0.5, stop_tol=1e-3, seed=42)
        r2 = run_trials(n=2, trials=1, theta=0.5, stop_tol=1e-3, seed=42)
        np.testing.assert_array_equal(r1[0].rel_changes, r2[0].rel_changes)
        assert r1[0].final_objective == r2[0].final_objective

    def test_trial_matrix_distributions(self):
        m = trial_matrix(8, seed=1, trial=0)
        assert m.shape == (8, 8) and np.all((0 <= m) & (m < 1))
        s = trial_matrix(8, seed=1, trial=0, dist="sparse", density=0.3)
        assert np.all(s >= 0) and (s == 0).sum() > 0
        with pytest.raises(ValidationError):
            trial_matrix(4, seed=0, trial=0, dist="bogus")

    def test_study_rows_and_monotone_tolerance(self):
        tols = [1e-1, 1e-2, 1e-3]
        rows = convergence_study(
            ns=[6], trials=5, thetas=[0.5], tol_grid=tols, seed=7, max_iter=500
        )
        assert len(rows) == 3
        by_tol = {r.tol: r for r in rows}
        assert all(r.failures == 0 for r in rows)
        counts = [by_tol[t].max_iters for t in tols]
        assert counts == sorted(counts)

    def test_threaded_study_matches_serial(self):
        kwargs = dict(ns=[4], trials=6, thetas=[0.4], tol_grid=[1e-2], seed=3)
        assert convergence_study(**kwargs) == convergence_study(**kwargs, threads=4)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            convergence_study(ns=[], trials=1, thetas=[0.5], tol_grid=[1e-2])
        with pytest.raises(ValidationError):
            convergence_study(ns=[2], trials=1, thetas=[0.5], tol_grid=[-1e-2])
