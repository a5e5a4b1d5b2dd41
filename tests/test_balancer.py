import itertools
import warnings
from dataclasses import astuple

import numpy as np
import pytest

from nu_analyzer import (
    ValidationError,
    convergence_study,
    heuristic_balance,
    nubar_exact,
    run_trials,
    trial_matrix,
)

from nu_analyzer import balancer
from nu_analyzer.balancer import TrialRecord, _balance_runs

import helpers
from helpers import ref_convergence_study, ref_heuristic_balance


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


def _fuzz_matrices(seed: int, count: int):
    """Dense, sparse and exp(U(-20, 20))-wide matrices, n = 1..59, some with
    zero rows and columns, each paired with a step parameter."""
    rng = np.random.default_rng(seed)
    thetas = (0.2, 0.5, 0.9, 1.0)
    for k in range(count):
        n = 1 if k % 50 == 0 else int(rng.integers(1, 60))
        m = rng.random((n, n))
        if k % 4 in (1, 3):
            m *= rng.random((n, n)) < rng.uniform(0.03, 0.5)
        if k % 4 >= 2:
            m *= np.exp(rng.uniform(-20, 20, (n, n)))
        if k % 5 == 0:
            m[rng.random(n) < 0.2, :] = 0.0
            m[:, rng.random(n) < 0.2] = 0.0
        yield m, thetas[(k // 4) % 4]


def _study_matrices(monkeypatch):
    """Make the study and its oracle draw, besides trial_matrix's own
    distributions, sparse matrices with zero rows and columns ("holes"),
    all-zero ones and exp(U(-20, 20))-wide ones; returns the drawing function."""
    draw = balancer.trial_matrix

    def study_matrix(n, seed, trial, dist="uniform", density=0.25):
        rng = np.random.default_rng([seed, trial, n])
        if dist == "zero":
            return np.zeros((n, n))
        if dist == "wide":
            return rng.random((n, n)) * np.exp(rng.uniform(-20, 20, (n, n)))
        if dist == "holes":
            m = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
            m[rng.random(n) < 0.3, :] = 0.0
            m[:, rng.random(n) < 0.3] = 0.0
            return m
        return draw(n, seed, trial, dist, density)

    monkeypatch.setattr(balancer, "trial_matrix", study_matrix)
    monkeypatch.setattr(helpers, "trial_matrix", study_matrix)
    return study_matrix


class TestFusedObjective:
    """The objective read off the update's column maxima must equal, bit for
    bit, the objective of a full pass over the scaled matrix."""

    @staticmethod
    def assert_same_trace(m, theta, max_iter=80, tol=1e-8):
        got = heuristic_balance(m, theta=theta, max_iter=max_iter, tol=tol)
        ref = ref_heuristic_balance(m, theta, max_iter, tol)
        assert got.converged == ref.converged
        assert got.oscillating == ref.oscillating
        np.testing.assert_array_equal(got.final, ref.final)
        assert len(got.iterations) == len(ref.iterations)
        for g, r in zip(got.iterations, ref.iterations):
            assert g.t == r.t
            np.testing.assert_array_equal(g.d, r.d)
            assert g.objective == r.objective
            assert g.rel_change == r.rel_change

    def test_fuzz_against_full_pass(self):
        for m, theta in _fuzz_matrices(seed=41, count=600):
            self.assert_same_trace(m, theta)

    def test_edge_cases(self):
        zero_line = np.arange(1.0, 17.0).reshape(4, 4)
        zero_line[1, :] = 0.0
        zero_line[:, 2] = 0.0
        cases = [
            np.array([[0.7]]),
            np.zeros((1, 1)),
            np.zeros((3, 3)),
            zero_line,
            np.diag([3.0, 0.5, 2.0]),
            OSC,
        ]
        for m in cases:
            for theta in (0.2, 0.5, 0.9, 1.0):
                self.assert_same_trace(m, theta)


def _assert_solo_bits(runs, mats, thetas, max_iter, until_crossing):
    """Each trajectory of the stacked ``runs`` on ``mats``, whose matrices it
    may have zero-padded, has the bits of its run alone on the unpadded one."""
    for i, m in enumerate(mats):
        alone = _balance_runs(m, thetas, max_iter, 1e-9, until_crossing=until_crossing)
        got = slice(i * len(thetas), (i + 1) * len(thetas))
        np.testing.assert_array_equal(runs.updates[got], alone.updates)
        for j, u in enumerate(alone.updates):
            rel = runs.rel[:u, got][:, j]
            np.testing.assert_array_equal(rel.view(np.int64), alone.rel[:u, j].view(np.int64))
        np.testing.assert_array_equal(runs.objective[got].view(np.int64), alone.objective.view(np.int64))
        np.testing.assert_array_equal(runs.final[got, : len(m)].view(np.int64), alone.final.view(np.int64))
        for f in ("converged", "oscillating"):
            np.testing.assert_array_equal(getattr(runs, f)[got], getattr(alone, f))


class TestStackedThetas:
    """All thetas of one matrix run as one stack; each trajectory must equal,
    bit for bit, the per-theta oracle run alone."""

    THETA_SETS = (
        (0.2, 0.5, 0.9, 1.0),
        (1.0, 0.3),
        (0.7, 1.0, 0.4, 0.8, 0.6),
        (0.9,),
        (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    )

    def test_fuzz_against_per_theta_oracle(self):
        seen = {"converged": 0, "oscillating": 0, "max_iter": 0, "staggered": 0}
        for k, (m, _) in enumerate(_fuzz_matrices(seed=43, count=250)):
            thetas = self.THETA_SETS[k % len(self.THETA_SETS)]
            tol, max_iter = (1e-3, 40) if k % 2 else (1e-8, 80)
            runs = _balance_runs(m, thetas, max_iter, tol)
            for j, theta in enumerate(thetas):
                ref = ref_heuristic_balance(m, theta, max_iter, tol)
                rel = runs.rel[: runs.updates[j], j]
                np.testing.assert_array_equal(rel, [s.rel_change for s in ref.iterations[1:]])
                assert runs.objective[j] == ref.objective
                assert runs.converged[j] == ref.converged
                assert runs.oscillating[j] == ref.oscillating
                np.testing.assert_array_equal(runs.final[j], ref.final)
                seen["converged"] += ref.converged
                seen["oscillating"] += ref.oscillating
                seen["max_iter"] += not ref.converged and not ref.oscillating
            seen["staggered"] += len(set(runs.updates.tolist())) > 1
        assert all(v > 0 for v in seen.values()), seen

    def test_study_rows_match_per_theta_oracle(self):
        configs = [
            dict(ns=[1, 2, 3], trials=3, thetas=[0.2, 1.0, 0.9], tol_grid=[1e-2, 1e-6]),
            dict(ns=[4, 17], trials=2, thetas=[1.0, 0.5], tol_grid=[1e-1, 1e-3, 1e-8], seed=5),
            dict(ns=[2, 9, 33], trials=2, thetas=[0.3, 0.6, 1.0], tol_grid=[1e-4], seed=9, max_iter=25),
            dict(ns=[5, 24], trials=3, thetas=[0.4, 1.0, 0.8], tol_grid=[1e-2, 1e-7], dist="sparse", density=0.2),
            dict(ns=[3, 12], trials=2, thetas=[1.0, 0.2], tol_grid=[1e-5], seed=3, dist="sparse", density=0.6),
            # the study stops each trajectory at its first crossing of the
            # tightest tolerance: above n = 16 long before it settles, ...
            dict(ns=[20, 40], trials=3, thetas=[0.2, 0.5, 0.9], tol_grid=[1e-2, 1e-5, 1e-8], seed=11),
            # ... on a full step that oscillates, ...
            dict(ns=[2, 4], trials=3, thetas=[1.0, 0.6], tol_grid=[1e-3, 1e-9], seed=1),
            # ... and at max_iter when it never crosses
            dict(ns=[3, 18], trials=2, thetas=[0.2, 0.7], tol_grid=[1e-1, 1e-12], max_iter=6),
        ]
        for cfg in configs:
            assert convergence_study(**cfg) == ref_convergence_study(**cfg), cfg

    def test_stacked_trials_against_oracle(self, monkeypatch):
        # at n <= 16 the study stacks the trials of a size: on both sides of
        # that threshold its rows must be the per-trajectory oracle's, and
        # each stacked trajectory must have the bits it has alone
        seen = {"stacked": 0, "staggered": 0, "cut": 0}
        study_matrix = _study_matrices(monkeypatch)
        configs = itertools.product((1, 2, 3, 15, 16, 17), ("uniform", "holes", "zero", "wide"))
        for c, (n, dist) in enumerate(configs):
            trials = 1 + c % 5
            thetas = self.THETA_SETS[c % len(self.THETA_SETS)]
            tol_grid, max_iter = ([1e-1, 1e-4], 5) if c % 3 == 0 else ([1e-2, 1e-9], 150)
            cfg = dict(ns=[n], trials=trials, thetas=list(thetas), tol_grid=tol_grid, seed=c, max_iter=max_iter, dist=dist)
            assert convergence_study(**cfg) == ref_convergence_study(**cfg), cfg
            if n > balancer._CANDIDATES:
                continue
            ms = np.stack([study_matrix(n, c, t, dist) for t in range(trials)])
            for until_crossing in (False, True):
                runs = _balance_runs(ms, thetas, max_iter, 1e-9, until_crossing=until_crossing)
                _assert_solo_bits(runs, ms, thetas, max_iter, until_crossing)
                seen["stacked"] += trials > 1
                seen["staggered"] += len(set(runs.updates.tolist())) > 1
                seen["cut"] += (runs.updates == max_iter).any()
        assert all(seen.values()), seen

    def test_sizes_share_padded_stacks_against_oracle(self, monkeypatch):
        # all sizes n <= 16 of one study share stacks of up to 64 trajectories,
        # zero-padded to each stack's largest n: unsorted and repeated sizes,
        # n = 1, sizes on both sides of 16 and sizes split across stacks must
        # all give the per-trajectory oracle's rows, and a repeated size is
        # balanced once
        _study_matrices(monkeypatch)
        shapes = []
        run = balancer._balance_runs

        def spy(a, thetas, *args, **kwargs):
            shapes.append(a.shape)
            return run(a, thetas, *args, **kwargs)

        monkeypatch.setattr(balancer, "_balance_runs", spy)
        configs = [
            dict(ns=[16, 3, 1, 3, 9, 17], trials=5, thetas=[0.2, 0.5, 0.9, 1.0], tol_grid=[1e-2, 1e-6], dist="holes"),
            dict(ns=[2, 4, 8, 16, 32], trials=3, thetas=list(self.THETA_SETS[4]), tol_grid=[1e-3], seed=4),
            dict(ns=[1, 16, 2], trials=7, thetas=[0.3, 1.0], tol_grid=[1e-1, 1e-4], seed=2, max_iter=5, dist="wide"),
            dict(ns=[5, 5, 18, 1], trials=4, thetas=[0.4, 0.8, 1.0], tol_grid=[1e-3, 1e-9], seed=7, dist="zero"),
            dict(ns=[12, 6, 20, 3], trials=9, thetas=[0.6, 0.2, 0.9], tol_grid=[1e-2, 1e-8], seed=8, dist="sparse", density=0.3),
            dict(ns=[15, 13, 14], trials=6, thetas=list(self.THETA_SETS[2]), tol_grid=[1e-5], seed=6, max_iter=40, dist="wide"),
        ]
        split = 0
        for cfg in configs:
            shapes.clear()
            assert convergence_study(**cfg) == ref_convergence_study(**cfg), cfg
            sizes = set(cfg["ns"])
            small = sorted(n for n in sizes if n <= balancer._CANDIDATES for _ in range(cfg["trials"]))
            per = balancer._STACK // len(cfg["thetas"])
            big = sorted(n for n in sizes if n > balancer._CANDIDATES)
            expected = [(len(s), max(s), max(s)) for s in (small[j : j + per] for j in range(0, len(small), per))]
            assert shapes == expected + [(1, n, n) for n in big for _ in range(cfg["trials"])], cfg
            split += len(expected) > 1
        assert split == 4

    def test_padded_stack_has_the_solo_bits(self, monkeypatch):
        # in crossing-stop mode a trajectory on a matrix zero-padded to a
        # larger n has the bits of its run alone on the unpadded matrix
        seen = {"padded": 0, "cut": 0, "staggered": 0}
        study_matrix = _study_matrices(monkeypatch)
        dists = ("uniform", "holes", "zero", "wide", "sparse")
        for c in range(12):
            thetas = self.THETA_SETS[c % len(self.THETA_SETS)]
            max_iter = 6 if c % 3 == 0 else 200
            ns = [1 + (c * 7 + 3 * t) % 16 for t in range(1 + c % 6)]
            size = max(ns)
            ms = np.zeros((len(ns), size, size))
            for t, n in enumerate(ns):
                ms[t, :n, :n] = study_matrix(n, c, t, dists[(c + t) % len(dists)])
            runs = _balance_runs(ms, thetas, max_iter, 1e-9, until_crossing=True)
            _assert_solo_bits(runs, [m[:n, :n] for m, n in zip(ms, ns)], thetas, max_iter, True)
            seen["padded"] += min(ns) < size
            seen["cut"] += (runs.updates == max_iter).any()
            seen["staggered"] += len(set(runs.updates.tolist())) > 1
        assert all(seen.values()), seen

    def test_crossing_stop_is_the_full_runs_prefix(self):
        # each trajectory stops at its first relative change <= tol, or at
        # max_iter, having recorded the full run's changes bit for bit
        seen = {"earlier": 0, "never": 0}
        wide = ((m, None) for m in _wide_matrices(seed=53, count=8))
        for k, (m, _) in enumerate(itertools.chain(_fuzz_matrices(seed=51, count=80), wide)):
            thetas = self.THETA_SETS[k % len(self.THETA_SETS)]
            tol, max_iter = (1e-3, 40) if k % 2 else (1e-8, 80)
            full = _balance_runs(m, thetas, max_iter, tol)
            cut = _balance_runs(m, thetas, max_iter, tol, until_crossing=True)
            for j in range(len(thetas)):
                rel = full.rel[: full.updates[j], j]
                hits = np.flatnonzero(rel <= tol)
                first = hits[0] + 1 if hits.size else max_iter
                assert cut.updates[j] == first
                assert cut.converged[j] == bool(hits.size)
                np.testing.assert_array_equal(cut.rel[:first, j].view(np.int64), rel[:first].view(np.int64))
                seen["earlier"] += first < full.updates[j]
                seen["never"] += not hits.size
        assert all(seen.values()), seen
        # a change equal to tol is a crossing: its second change is a new low
        m = trial_matrix(3, 0, 0)
        tol = float(_balance_runs(m, [0.3], 60, 1e-12).rel[1, 0])
        assert _balance_runs(m, [0.3], 60, tol, until_crossing=True).updates[0] == 2

    def test_first_crossings_never_count_nan(self):
        rel = np.array([np.nan, 0.5, np.nan, 1e-3, 0.2, 1e-9])
        tols = np.array([1.0, 1e-2, 1e-3, 1e-6, 1e-12])
        got = balancer._crossings(rel[:, None], np.array([6]), tols, 99)
        assert got[:, 0].tolist() == [2, 4, 4, 6, 99]
        rec = TrialRecord(0, rel, 0.0, False)
        assert [rec.iterations_to(t) for t in tols] == [2, 4, 4, 6, None]
        got = balancer._crossings(np.full((3, 1), np.nan), np.array([3]), tols, 99)
        assert got[:, 0].tolist() == [99] * 5
        # columns of one block that end at different rows: the rows past a
        # column's end (zeros here) are no crossing
        block = np.zeros((6, 4))
        block[:, 0] = rel
        block[:3, 1] = [0.5, np.nan, 1e-4]
        block[:1, 2] = np.nan
        block[:5, 3] = [1.0, 0.3, 0.02, 0.02, 2e-3]
        ends = np.array([6, 3, 1, 5])
        got = balancer._crossings(block, ends, tols, 99)
        for j, end in enumerate(ends):
            rec = TrialRecord(0, block[:end, j], 0.0, False)
            assert got[:, j].tolist() == [rec.iterations_to(t) or 99 for t in tols]

    def test_crossings_of_stacked_runs(self):
        # a run whose columns stop at different updates, and a run cut at
        # max_iter before any column crosses, each read as one block
        ms = np.stack([trial_matrix(6, 5, t) for t in range(3)])
        tols = np.array([1e-1, 1e-3, 1e-6, 1e-9])
        for stack, thetas, max_iter in ((ms, [0.3, 1.0, 0.7], 500), (ms[:2], [0.3, 0.7], 7)):
            runs = _balance_runs(stack, thetas, max_iter, 1e-9, until_crossing=True)
            if max_iter == 500:
                assert runs.converged.all() and len(set(runs.updates.tolist())) > 3
            else:
                assert not runs.converged.any() and (runs.updates == max_iter).all()
            got = balancer._crossings(runs.rel, runs.updates, tols, max_iter + 1)
            for j, u in enumerate(runs.updates):
                rec = TrialRecord(0, runs.rel[:u, j], 0.0, False)
                expected = [rec.iterations_to(t) or max_iter + 1 for t in tols]
                assert got[:, j].tolist() == expected

    def test_run_trials_one_record_list_per_theta(self):
        thetas = [0.3, 1.0, 0.7]
        by_theta = run_trials(n=6, trials=4, thetas=thetas, stop_tol=1e-6, seed=2)
        assert [len(recs) for recs in by_theta] == [4, 4, 4]
        for theta, recs in zip(thetas, by_theta):
            for rec in recs:
                ref = ref_heuristic_balance(trial_matrix(6, 2, rec.trial), theta, 1000, 1e-6)
                np.testing.assert_array_equal(rec.rel_changes, [s.rel_change for s in ref.iterations[1:]])
                assert rec.final_objective == ref.objective
                assert rec.converged == ref.converged

    def test_long_and_generous_runs(self):
        # past the first block of recorded changes, and a max_iter far beyond
        # any memory a preallocation could take
        # a full-step orbit whose objective moves by an ulp at every update
        m = np.array([[0.44, 0.95, 0.0], [0.43, 0.0, 0.0], [0.0, 0.46, 0.0]])
        runs = _balance_runs(m, [1.0, 0.5], 3000, 1e-9)
        assert runs.updates[0] == 3000 and runs.oscillating[0] and runs.converged[1]
        ref = ref_heuristic_balance(m, 1.0, 3000, 1e-9)
        expected = [s.rel_change for s in ref.iterations[1:]]
        assert len(expected) == 3000 and min(expected) > 0
        np.testing.assert_array_equal(runs.rel[:3000, 0], expected)
        short = heuristic_balance(OSC, theta=0.5, max_iter=200, tol=1e-9)
        huge = heuristic_balance(OSC, theta=0.5, max_iter=10**15, tol=1e-9)
        assert huge.converged and huge.updates == short.updates
        (recs,) = run_trials(n=4, trials=2, thetas=[0.5], stop_tol=1e-6, max_iter=10**15)
        assert all(r.converged for r in recs)

    def test_run_trials_validates_every_theta(self):
        for bad in (0.0, 1.5, float("nan")):
            with pytest.raises(ValidationError, match="theta"):
                run_trials(n=3, trials=1, thetas=[0.5, bad], stop_tol=1e-3)
        with pytest.raises(ValidationError, match="theta"):
            run_trials(n=3, trials=1, thetas=[], stop_tol=1e-3)


def _wide_matrices(seed: int, count: int):
    """n = 17..160, where each row and column has more entries than the
    update takes as candidates: dense, sparse, exp(U(-20, 20))-wide, and
    outer(x, 1/x) up to a 10% jitter, whose balanced entries are all alike,
    so that a candidate maximum is rarely certified."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(17, 161))
        if k % 4 == 3:
            x = np.exp(rng.uniform(-5, 5, n))
            yield np.outer(x, 1 / x) * rng.uniform(0.9, 1.1, (n, n))
            continue
        m = rng.random((n, n))
        if k % 4 == 1:
            m *= rng.random((n, n)) < rng.uniform(0.03, 0.5)
        if k % 4 == 2:
            m *= np.exp(rng.uniform(-20, 20, (n, n)))
        yield m


class TestCertifiedMaxima:
    """Above n = 16 the update's maxima come from a fixed candidate set,
    certified against each line's next largest entry; every trajectory must
    still equal the full-pass oracle bit for bit."""

    THETAS = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

    def test_fuzz_against_full_pass(self, monkeypatch):
        # how each side of an update went: every trajectory certified, some
        # or all of them took the full pass, or the candidates were skipped
        # after a side where all of them had
        seen = set()
        calls = []
        line_max, full_max = balancer._line_max, balancer._full_max

        def spy_line(op, dense, cand, w, lim, buf):
            calls.clear()
            out = line_max(op, dense, cand, w, lim, buf)
            if cand is None:
                seen.add("skipped")
            else:
                seen.add("certified" if not calls else "all" if calls[0] == w.shape[0] else "some")
            return out

        def spy_full(op, dense, w):
            calls.append(w.shape[0])
            return full_max(op, dense, w)

        monkeypatch.setattr(balancer, "_line_max", spy_line)
        monkeypatch.setattr(balancer, "_full_max", spy_full)
        for k, m in enumerate(_wide_matrices(seed=47, count=36)):
            thetas = self.THETAS[k % 3 :: 2]
            tol, max_iter = (1e-3, 40) if k % 2 else (1e-8, 120)
            runs = _balance_runs(m, thetas, max_iter, tol)
            for j, theta in enumerate(thetas):
                ref = ref_heuristic_balance(m, theta, max_iter, tol)
                rel = runs.rel[: runs.updates[j], j]
                np.testing.assert_array_equal(rel, [s.rel_change for s in ref.iterations[1:]])
                assert runs.objective[j] == ref.objective
                assert runs.converged[j] == ref.converged
                assert runs.oscillating[j] == ref.oscillating
                np.testing.assert_array_equal(runs.final[j], ref.final)
        assert seen == {"certified", "some", "all", "skipped"}

    # theta: (max_iters, median_iters) per tolerance of logspace(-1, -6, 11),
    # recorded when every update took both maxima from full n x n passes
    PINNED_128 = {
        0.2: ([1, 1, 1, 1, 1, 5, 6, 22, 34, 34, 34], [1, 1, 1, 1, 1, 4, 5, 21, 27, 28, 31]),
        0.3: ([1, 1, 1, 1, 1, 4, 10, 22, 23, 23, 23], [1, 1, 1, 1, 1, 3, 7, 18, 19, 19, 21]),
        0.4: ([1, 1, 1, 1, 2, 3, 8, 17, 18, 18, 18], [1, 1, 1, 1, 1, 3, 8, 14, 15, 15, 16]),
        0.5: ([1, 1, 1, 1, 2, 3, 8, 14, 14, 14, 14], [1, 1, 1, 1, 2, 3, 7, 11, 12, 12, 12]),
        0.6: ([1, 1, 1, 1, 2, 5, 7, 12, 12, 12, 12], [1, 1, 1, 1, 2, 3, 7, 10, 10, 10, 10]),
        0.7: ([1, 1, 1, 1, 2, 4, 7, 10, 11, 11, 11], [1, 1, 1, 1, 2, 3, 5, 8, 9, 9, 10]),
        0.8: ([1, 1, 1, 1, 2, 4, 9, 9, 10, 11, 14], [1, 1, 1, 1, 1, 3, 7, 8, 9, 10, 12]),
        0.9: ([1, 1, 1, 1, 2, 4, 8, 11, 16, 21, 26], [1, 1, 1, 1, 1, 3, 7, 10, 13, 15, 18]),
    }

    def test_study_rows_pinned_at_128(self):
        tols = list(np.logspace(-1, -6, 11))
        rows = convergence_study(ns=[128], trials=2, thetas=list(self.PINNED_128), tol_grid=tols)
        expected = [
            (128, theta, tol, mx, med, 0)
            for theta, (maxes, medians) in self.PINNED_128.items()
            for tol, mx, med in zip(tols, maxes, medians)
        ]
        assert [astuple(r) for r in rows] == expected


class TestStudy:
    def test_single_trial_deterministic(self):
        (r1,) = run_trials(n=2, trials=1, thetas=[0.5], stop_tol=1e-3, seed=42)
        (r2,) = run_trials(n=2, trials=1, thetas=[0.5], stop_tol=1e-3, seed=42)
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

    # (n, theta, tol, max_iters, median_iters, failures), recorded when each
    # update still took the objective from a full n x n pass and each trial
    # also solved nubar_exact
    PINNED_ROWS = {
        "uniform": [
            (4, 0.4, 0.1, 2, 1, 0),
            (4, 0.4, 0.001, 9, 3, 0),
            (4, 0.4, 1e-06, 23, 3, 0),
            (4, 1.0, 0.1, 1, 1, 0),
            (4, 1.0, 0.001, 16, 3, 0),
            (4, 1.0, 1e-06, 49, 3, 0),
            (16, 0.4, 0.1, 1, 1, 0),
            (16, 0.4, 0.001, 8, 5, 0),
            (16, 0.4, 1e-06, 23, 11, 0),
            (16, 1.0, 0.1, 1, 1, 0),
            (16, 1.0, 0.001, 6, 4, 0),
            (16, 1.0, 1e-06, 15, 7, 0),
        ],
        "sparse": [
            (4, 0.4, 0.1, 4, 1, 0),
            (4, 0.4, 0.001, 39, 1, 0),
            (4, 0.4, 1e-06, 95, 1, 0),
            (4, 1.0, 0.1, 5, 1, 0),
            (4, 1.0, 0.001, 17, 1, 0),
            (4, 1.0, 1e-06, 37, 1, 0),
            (16, 0.4, 0.1, 1, 1, 0),
            (16, 0.4, 0.001, 8, 4, 0),
            (16, 0.4, 1e-06, 22, 8, 0),
            (16, 1.0, 0.1, 1, 1, 0),
            (16, 1.0, 0.001, 3, 2, 0),
            (16, 1.0, 1e-06, 3, 2, 0),
        ],
    }

    def test_study_rows_pinned(self):
        for dist, expected in self.PINNED_ROWS.items():
            rows = convergence_study(
                ns=[4, 16], trials=3, thetas=[0.4, 1.0], tol_grid=[1e-1, 1e-3, 1e-6], dist=dist
            )
            assert [astuple(r) for r in rows] == expected, dist

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            convergence_study(ns=[], trials=1, thetas=[0.5], tol_grid=[1e-2])
        with pytest.raises(ValidationError):
            convergence_study(ns=[2], trials=1, thetas=[0.5], tol_grid=[-1e-2])
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="positive and finite"):
                convergence_study(ns=[2], trials=1, thetas=[0.5], tol_grid=[1e-3, bad])
        for bad in (-1.0, 0.0, 1.5, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="density"):
                convergence_study(ns=[2], trials=1, thetas=[0.5], tol_grid=[1e-3], dist="sparse", density=bad)
        for bad in (0.0, 1.5, float("nan")):
            with pytest.raises(ValidationError, match="theta"):
                convergence_study(ns=[2], trials=1, thetas=[0.5, bad], tol_grid=[1e-3])
        with pytest.raises(ValidationError, match="max_iter"):
            convergence_study(ns=[2], trials=1, thetas=[0.5], tol_grid=[1e-3], max_iter=0)
