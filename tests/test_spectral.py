from itertools import combinations

import numpy as np
import pytest

from nu_analyzer import (
    ValidationError,
    mu,
    nu_lower_bound,
    nubar_exact,
    ring_matrix,
    spectral,
    spectral_radius,
)
from nu_analyzer.nubar import _cycle_mean_potentials

import helpers
from helpers import (
    char_poly_rho,
    eig_subset_max,
    eig_subset_value,
    enum_subset_bound,
    nubar_scaled,
    positive_diagonal,
    ref_screen,
)


class TestSpectralRadius:
    def test_identity(self):
        r = spectral_radius(np.eye(4))
        assert r.rho == pytest.approx(1.0, rel=1e-10)

    def test_permutation_2x2(self):
        r = spectral_radius([[0.0, 1.0], [1.0, 0.0]])
        assert r.rho == pytest.approx(1.0, rel=1e-10)

    def test_symmetric_2x2(self):
        # eigenvalues (x+y +/- sqrt((x-y)^2 + 4w^2))/2 with x=y=0.5, w=1
        r = spectral_radius([[0.5, 1.0], [1.0, 0.5]])
        assert r.rho == pytest.approx(1.5, rel=1e-10)

    def test_periodic_weighted(self):
        # period-2 support: eigenvalues +2 and -2 share the top modulus
        r = spectral_radius([[0.0, 4.0], [1.0, 0.0]])
        assert r.rho == pytest.approx(2.0, rel=1e-9)

    def test_nilpotent(self):
        r = spectral_radius(np.triu(np.ones((4, 4)), 1))
        assert r.rho == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            spectral_radius(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_char_poly_cross_check(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            m = rng.random((n, n)) * (rng.random((n, n)) < 0.8)
            assert spectral_radius(m).rho == pytest.approx(char_poly_rho(m), abs=1e-8)

    def test_homogeneity(self):
        # the subset bound's tie margin is relative, so its subset does not
        # change with the scale of M either
        for m in (np.random.default_rng(4).random((5, 5)), np.random.default_rng(5).random((4, 4))):
            r1, b1 = spectral_radius(m), nu_lower_bound(m)
            for a in (3.7, 1e-13, 1e-20):
                assert spectral_radius(a * m).rho == pytest.approx(a * r1.rho, rel=1e-10)
                b = nu_lower_bound(a * m)
                assert b.indices == b1.indices
                assert b.bound == pytest.approx(a * b1.bound, rel=1e-10)

    def test_repeated_root_across_components(self):
        # permuted [[B, C], [0, B]]: rho(B) is a defective eigenvalue of the
        # whole matrix, which a whole-matrix eigvals misses by up to 2e-8
        for seed in range(6):
            rng = np.random.default_rng(seed)
            b, c = rng.random((3, 3)), rng.random((3, 3))
            m = np.block([[b, c], [np.zeros((3, 3)), b]])
            perm = rng.permutation(6)
            rho_b = float(np.abs(np.linalg.eigvals(b)).max())
            assert spectral_radius(m[np.ix_(perm, perm)]).rho == pytest.approx(rho_b, rel=1e-12)

    def test_wide_range_triangular(self):
        r = spectral_radius([[0.0, 2e43], [0.0, 3.9e-64]])
        assert r.rho == pytest.approx(3.9e-64, rel=1e-12)

    @pytest.mark.parametrize("x", [9.45498906196482e180, 3.3e-200])
    def test_one_node_root_is_the_entry(self, x):
        # eigvals rescales entries outside about [6.7e-139, 1.5e138] and misses
        # a 1x1 root there by an ulp; a self-loop's root is its entry
        assert spectral_radius([[x]]).rho == x
        # reducible: the self-loop on node 1 feeds a 2-cycle of root x/4
        m = np.array([[x, x, 0.0], [0.0, 0.0, x / 4], [0.0, x / 4, 0.0]])
        assert spectral_radius(m).rho == x
        b = nu_lower_bound(m)
        assert b.indices == (1,) and b.rho_sub == b.bound == x

    def test_similarity_invariance(self):
        rng = np.random.default_rng(5)
        m = rng.random((6, 6))
        d = positive_diagonal(rng, 6)
        scaled = m * d[:, None] / d[None, :]
        assert spectral_radius(scaled).rho == pytest.approx(spectral_radius(m).rho, rel=1e-9)


def _wide_range_matrices(count: int):
    """Sparse matrices with n in 7..59; every third one has its entries spread
    by exp(U(-20, 20))."""
    rng = np.random.default_rng(7)
    for trial in range(count):
        n = int(rng.integers(7, 60))
        density = rng.uniform(0.03, 0.5)
        m = rng.random((n, n)) * (rng.random((n, n)) < density)
        if trial % 3 == 0:
            m = m * np.exp(rng.uniform(-20, 20, (n, n)))
        yield trial, m


class TestWideRangeFuzz:
    def test_mu_matches_eigvals_of_scaled_matrix(self):
        for _, m in _wide_range_matrices(400):
            rho = mu(m)
            nubar = nubar_exact(m).value
            if nubar == 0.0:
                assert rho == 0.0  # acyclic support: nilpotent
                continue
            assert nubar <= rho * (1 + 1e-12)
            ref = float(np.abs(np.linalg.eigvals(nubar_scaled(m))).max())
            assert rho == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize(
        "trial, expected", [(211, 0.9576113951516658), (228, 0.014098258886079521)]
    )
    def test_pinned_trials(self, trial, expected):
        m = next(m for t, m in _wide_range_matrices(trial + 1) if t == trial)
        assert mu(m) == pytest.approx(expected, rel=1e-12)


class TestUnconvergedEigensolve:
    @pytest.mark.parametrize("seed", [2567, 2781])
    def test_wide_range_bound_matches_enumeration(self, seed):
        # entries from e^-300 to e^300: LAPACK's eigensolver fails to converge
        # on a nearly nilpotent block of a screen stack, which converges alone
        # on its transpose
        rng = np.random.default_rng(seed)
        m = np.exp(rng.uniform(-300, 300, (12, 12))) * (rng.random((12, 12)) < 0.4)
        assert nu_lower_bound(m, 12) == enum_subset_bound(m, 12)

    def test_failed_stack_keeps_the_bits_of_the_other_matrices(self, monkeypatch):
        eigvals = np.linalg.eigvals
        stack = np.random.default_rng(3).random((5, 4, 4))
        bad = stack[2].copy()
        failing = [bad]  # not its transpose, at first

        def flaky(x):
            if any(np.array_equal(m, f) for m in x.reshape(-1, 4, 4) for f in failing):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvals(x)

        monkeypatch.setattr(np.linalg, "eigvals", flaky)
        roots = spectral._perron_roots(stack)
        good = [0, 1, 3, 4]
        assert np.array_equal(roots[good], np.abs(eigvals(stack[good])).max(axis=-1))
        assert roots[2] == np.abs(eigvals(bad.T)).max()
        failing.append(bad.T)
        with pytest.raises(np.linalg.LinAlgError):
            spectral._perron_roots(stack)


class TestMu:
    def test_diagonal_identity_system(self):
        assert mu(np.eye(5)) == pytest.approx(1.0, rel=1e-10)

    def test_ring_permutation(self):
        assert mu(ring_matrix(np.ones(6))) == pytest.approx(1.0, rel=1e-10)

    def test_zero_matrix(self):
        assert mu(np.zeros((3, 3))) == 0.0


class TestScaledInfNorm:
    def test_any_scaling_dominates_rho(self):
        rng = np.random.default_rng(6)
        m = rng.random((5, 5))
        rho = spectral_radius(m).rho
        for _ in range(25):
            d = positive_diagonal(rng, 5, 0.2, 5.0)
            assert (m * d[:, None] / d[None, :]).sum(axis=1).max() >= rho - 1e-9


class TestSubsetLowerBound:
    def test_ring_best_subset_is_full_cycle(self):
        for n in (3, 5, 8):
            b = nu_lower_bound(ring_matrix(np.ones(n)))
            assert b.indices == tuple(range(1, n + 1))
            assert b.bound == pytest.approx(1.0 / n, abs=1e-9)

    def test_diagonal_best_is_argmax_singleton(self):
        b = nu_lower_bound(np.diag([0.2, 0.9, 0.4]))
        assert b.indices == (2,)
        assert b.bound == pytest.approx(0.9, rel=1e-10)

    def test_two_cycle(self):
        b = nu_lower_bound([[0.0, 1.0], [1.0, 0.0]])
        assert b.indices == (1, 2)
        assert b.bound == pytest.approx(0.5, abs=1e-9)

    def test_tie_prefers_smaller_subset(self):
        # singleton {1} and the full set both give bound 1.0
        b = nu_lower_bound(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert b.indices == (1,)

    def test_bound_below_nubar_on_random(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            m = rng.random((n, n)) * (rng.random((n, n)) < 0.7)
            assert nu_lower_bound(m).bound <= nubar_exact(m).value + 1e-9

    def test_budget_path_beyond_n16(self):
        # dense n=17: the size cap admits 9 nodes, and sizes 1..9 take more
        # subsets than the screen's budget
        m = np.random.default_rng(3).random((17, 17))
        b = nu_lower_bound(m, max_subset_size=12)
        assert not b.exhaustive
        nb = nubar_exact(m)
        cycle = sorted(i - 1 for i in nb.witness_cycle)
        assert len(cycle) <= 12
        floor = max(m.diagonal().max(), spectral_radius(m[np.ix_(cycle, cycle)]).rho / len(cycle))
        assert b.bound >= floor * (1 - 1e-12)  # the confirm pass's tie margin
        assert b.bound <= nb.value * (1 + 1e-9)

    def test_witness_cycle_beyond_budget_is_confirmed(self):
        # an 8-node ring inside n=40: the budget ends the screen after size 3
        rng = np.random.default_rng(10)
        m = 0.01 * rng.random((40, 40)) * (rng.random((40, 40)) < 0.05)
        ring = list(range(3, 35, 4))
        m[ring, np.roll(ring, -1)] = rng.uniform(0.5, 2.0, 8)
        b = nu_lower_bound(m, max_subset_size=12)
        assert not b.exhaustive
        assert b.indices == tuple(i + 1 for i in ring)
        assert b.bound == spectral_radius(m[np.ix_(ring, ring)]).rho / 8

    def test_subset_size_validation(self):
        with pytest.raises(ValidationError):
            nu_lower_bound(np.eye(3), max_subset_size=4)


FUZZ_KINDS = ("dense", "sparse", "wide")


def _fuzz_matrix(rng: np.random.Generator, kind: str, n: int) -> np.ndarray:
    m = rng.random((n, n))
    if kind != "dense":
        m = m * (rng.random((n, n)) < rng.uniform(0.2, 0.6))
    if kind == "wide":
        m = m * np.exp(rng.uniform(-20, 20, (n, n)))
    return m


def _assert_reaches_eig_max(m: np.ndarray, b, max_subset_size: int) -> None:
    scaled = nubar_scaled(m)
    got = eig_subset_value(scaled, [i - 1 for i in b.indices])
    assert got == pytest.approx(eig_subset_max(scaled, max_subset_size), rel=1e-9)


class TestSubsetScreen:
    @pytest.mark.parametrize("kind", FUZZ_KINDS)
    def test_fuzz_against_enumeration(self, kind):
        rng = np.random.default_rng(21 + FUZZ_KINDS.index(kind))
        for _ in range(20):
            n = int(rng.integers(2, 10))
            m = _fuzz_matrix(rng, kind, n)
            b = nu_lower_bound(m)
            assert b.exhaustive
            assert b == enum_subset_bound(m)
            if b.bound > 0:
                _assert_reaches_eig_max(m, b, n)
            else:
                assert b.indices == (1,) and b.rho_sub == 0.0

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_scale_against_enumeration(self, scale):
        rng = np.random.default_rng(27 + (scale < 1))
        for i in range(18):
            n = int(rng.integers(1, 10))
            m = scale * _fuzz_matrix(rng, FUZZ_KINDS[i % 3], n)
            assert nu_lower_bound(m) == enum_subset_bound(m)

    def test_fuzz_with_subset_size_limit(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            m = _fuzz_matrix(rng, "sparse", n)
            k = int(rng.integers(1, n))
            assert nu_lower_bound(m, max_subset_size=k) == enum_subset_bound(m, k)

    @pytest.mark.parametrize("density", [1.0, 0.4])
    def test_n16_confirms_few_subsets(self, density, monkeypatch):
        # the screen confirms its subsets through the private _rho, which
        # also gives the first singleton's root and the screen's rho_norm
        calls = []
        radius = spectral._rho

        def counting(*args, **kwargs):
            calls.append(1)
            return radius(*args, **kwargs)

        monkeypatch.setattr(spectral, "_rho", counting)
        rng = np.random.default_rng(16)
        m = rng.random((16, 16)) * (rng.random((16, 16)) < density)
        b = nu_lower_bound(m, max_subset_size=12)
        assert b.exhaustive
        # the per-subset search made about 64k calls here
        assert len(calls) <= 4
        _assert_reaches_eig_max(m, b, 12)

    def test_fuzz_beyond_n16_small_subsets(self):
        # n 17..20: sizes up to four stay far inside the budget
        rng = np.random.default_rng(25)
        for i in range(9):
            n = int(rng.integers(17, 21))
            m = _fuzz_matrix(rng, FUZZ_KINDS[i % 3], n)
            k = int(rng.integers(1, 5))
            assert nu_lower_bound(m, max_subset_size=k) == enum_subset_bound(m, k)

    @pytest.mark.parametrize("wide", [False, True])
    def test_fuzz_beyond_n16_matches_eig_max_below_cap(self, wide):
        # a subset of s nodes has bound at most mu/s, so sizes past
        # floor(mu/bound) cannot beat the bound found
        rng = np.random.default_rng(26 + wide)
        checked = 0
        for _ in range(12):
            n = int(rng.integers(17, 65))
            m = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.03, 0.3))
            if wide:
                m = m * np.exp(rng.uniform(-20, 20, (n, n)))
            b = nu_lower_bound(m, max_subset_size=min(n, 12))
            if not b.exhaustive or b.bound == 0.0:
                continue
            cap = int(mu(m) / b.bound)
            if cap <= 4:
                _assert_reaches_eig_max(m, b, cap)
                checked += 1
        assert checked >= 5


PRUNE_KINDS = ("dense", "sparse", "wide", "nilpotent", "ring")


def _prune_matrix(rng: np.random.Generator, kind: str, n: int) -> np.ndarray:
    if kind in FUZZ_KINDS:
        return _fuzz_matrix(rng, kind, n)
    if kind == "nilpotent":
        # a permuted strictly upper triangular matrix; every other one gets a
        # single back arc, which closes cycles through it
        m = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.6), 1)
        if rng.random() < 0.5:
            m[n - 1, 0] = rng.random()
        perm = rng.permutation(n)
        return m[np.ix_(perm, perm)]
    if n < 4 or rng.random() < 0.5:
        # a zero-diagonal ring with sparse chords
        m = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.0, 0.3))
        m[np.arange(n), np.roll(np.arange(n), -1)] = rng.uniform(0.5, 2.0, n)
        np.fill_diagonal(m, 0.0)
        return m
    # two disjoint rings of n // 2 nodes whose cycle means differ by a relative
    # gap of at most 2e-6, so the lower one falls just inside or just outside
    # the screen's window; its row and column sums all equal its Perron root
    nodes = rng.permutation(n)
    half = n // 2
    w = rng.uniform(0.5, 2.0)
    m = np.zeros((n, n))
    for ring, weight in ((nodes[:half], w), (nodes[half:2 * half], w * (1 - rng.uniform(0, 2e-6)))):
        m[ring, np.roll(ring, -1)] = weight
    return m


def _screen_of(m: np.ndarray, k: int):
    """The screen's subsets and end flag, without its rho(N)."""
    return spectral._screen(m, k, _cycle_mean_potentials(m))[:2]


class TestScreenPrune:
    @pytest.mark.parametrize("kind", PRUNE_KINDS)
    def test_fuzz_matches_unpruned_reference(self, kind):
        rng = np.random.default_rng(31 + PRUNE_KINDS.index(kind))
        for _ in range(60):
            n = int(rng.integers(2, 13))
            m = _prune_matrix(rng, kind, n)
            k = int(rng.integers(1, n + 1))
            assert _screen_of(m, k) == ref_screen(m, k)

    def test_fuzz_matches_unpruned_reference_past_budget(self):
        rng = np.random.default_rng(36)
        stopped = 0
        for i in range(10):
            n = int(rng.integers(17, 25))
            m = _prune_matrix(rng, PRUNE_KINDS[i % len(PRUNE_KINDS)], n)
            got = _screen_of(m, 12)
            assert got == ref_screen(m, 12)
            stopped += not got[1]
        assert stopped >= 3

    def test_near_tie_inside_window_is_kept(self):
        # a 4-ring whose bound sits a relative gap below 1e-6 under a 2-ring's,
        # so its row/column-sum bound is below top but inside the window; a
        # zero-diagonal 5-clique lifts rho(M) so the size cap admits size 4
        rng = np.random.default_rng(38)
        for _ in range(10):
            gap, w = rng.uniform(1e-8, 9e-7), rng.uniform(0.5, 2.0)
            nodes = rng.permutation(11)
            pair, ring, clique = nodes[:2], nodes[2:6], nodes[6:]
            m = np.zeros((11, 11))
            m[pair, pair[::-1]] = w / (2 * (1 - gap))
            m[ring, np.roll(ring, -1)] = w
            m[np.ix_(clique, clique)] = w * rng.uniform(0.26, 0.28)
            m[clique, clique] = 0.0
            got = _screen_of(m, 11)
            assert got == ref_screen(m, 11)
            assert tuple(sorted(int(i) for i in ring)) in got[0]

    @pytest.mark.parametrize("kind", ["sparse", "wide", "nilpotent"])
    def test_perron_root_within_row_and_column_sum_bound(self, kind):
        rng = np.random.default_rng(37 + ["sparse", "wide", "nilpotent"].index(kind))
        for k in range(1, 13):
            stack = rng.random((200, k, k)) * (rng.random((200, k, k)) < rng.uniform(0.2, 0.8))
            if kind == "wide":
                stack = stack * np.exp(rng.uniform(-20, 20, stack.shape))
            if kind == "nilpotent":
                perm = rng.permuted(np.tile(np.arange(k), (200, 1)), axis=1)
                stack = np.triu(stack, 1)[np.arange(200)[:, None, None], perm[:, :, None], perm[:, None, :]]
            ub = np.minimum(stack.sum(axis=2).max(axis=1), stack.sum(axis=1).max(axis=1))
            assert np.all(spectral._perron_roots(stack) <= ub * (1 + 1e-9))

    def test_dense_n13_to_n16_matches_unpruned_reference(self):
        for n in range(13, 17):
            m = np.random.default_rng(40 + n).random((n, n))
            assert _screen_of(m, 12) == ref_screen(m, 12)

    @pytest.mark.parametrize("kind", ["sparse", "wide", "nilpotent"])
    def test_line_sum_caps_bound_every_subset(self, kind):
        # every k-subset's row/column-sum bound is at most the line-sum cap c_k
        rng = np.random.default_rng(44 + ["sparse", "wide", "nilpotent"].index(kind))
        for _ in range(30):
            n = int(rng.integers(1, 10))
            m = _prune_matrix(rng, kind, n)
            k_max = int(rng.integers(1, n + 1))
            caps = spectral._line_sum_caps(m, k_max)
            assert caps.shape == (k_max,)
            for k in range(1, k_max + 1):
                idx = np.array(list(combinations(range(n), k)))
                sub = m[idx[:, :, None], idx[:, None, :]]
                ub = np.minimum(sub.sum(axis=2).max(axis=1), sub.sum(axis=1).max(axis=1)) / k
                assert np.all(ub <= caps[k - 1] * (1 + 1e-12))

    @pytest.mark.parametrize("n, limit", [(12, 100), (16, 20_000)])
    def test_line_sum_caps_skip_most_gathers_at_dense_n(self, n, limit, monkeypatch):
        # without the line-sum caps the screen gathered 2,509 subsets at n=12
        # and 39,202 at n=16 to send a few dozen to eigvals
        gathered, confirms = [], []
        estimates, rho = spectral._reachable_estimates, spectral._rho

        def counting_estimates(scaled, rows, top):
            gathered.append(rows.shape[0])
            return estimates(scaled, rows, top)

        def counting_rho(a, comps=None):
            confirms.append(1)
            return rho(a, comps)

        monkeypatch.setattr(spectral, "_reachable_estimates", counting_estimates)
        monkeypatch.setattr(spectral, "_rho", counting_rho)
        m = np.random.default_rng(n).random((n, n))
        b = nu_lower_bound(m, max_subset_size=12)
        assert b.exhaustive
        assert sum(gathered) < limit
        assert len(confirms) <= 20  # the initial (1,) bound and the confirms
        _assert_reaches_eig_max(m, b, 12)

    def test_few_subsets_reach_eigvals_at_dense_n12(self, monkeypatch):
        def counter(module):
            rows = []
            roots = module._perron_roots

            def counting(stack):
                if stack.ndim == 3:  # subset stacks, not the whole-component solve
                    rows.append(stack.shape[0])
                return roots(stack)

            monkeypatch.setattr(module, "_perron_roots", counting)
            return rows

        screened, enumerated = counter(spectral), counter(helpers)
        m = np.random.default_rng(12).random((12, 12))
        assert _screen_of(m, 12) == ref_screen(m, 12)
        assert sum(screened) < 0.05 * sum(enumerated)
