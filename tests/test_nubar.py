import warnings

import numpy as np
import pytest

from nu_analyzer import (
    ValidationError,
    balance_residuals,
    balanced_solution,
    certify_optimality,
    mu,
    nu_lower_bound,
    nu_oracle,
    nubar_exact,
    phi_view,
    ring_matrix,
)
from nu_analyzer._graph import cyclic_components
from nu_analyzer.nubar import (
    NEG,
    _cycle_mean_potentials,
    _karp,
    _log_weights,
    _max_balance_strong,
    _nubar_result,
)

from helpers import (
    enum_max_cycle_mean,
    mixed_corpus,
    nubar_lp,
    positive_diagonal,
    ref_max_balance_strong,
)


def super_source_supports() -> list[np.ndarray]:
    """Supports where the cycles sit apart from node 0 or from each other,
    which Karp's recursion only covers from a super-source."""
    e = np.exp(20.0)
    source = np.zeros((4, 4))  # node 0 feeds a sink; the cycle is 2 <-> 3
    source[0, 1], source[2, 3], source[3, 2], source[3, 1] = 0.7, 0.5, 0.8, 0.3
    last = np.zeros((5, 5))  # chain 0 -> 1 -> 2 -> 3 into the cycle 3 <-> 4
    last[0, 1], last[1, 2], last[2, 3], last[3, 4], last[4, 3] = 2.0, 3.0, 0.5, 0.4, 0.9
    wide = np.zeros((5, 5))  # chain 0 -> 1 -> 2 into the cycle 2 -> 3 -> 4 -> 2
    wide[0, 1], wide[1, 2] = 1.0 / e, e
    wide[2, 3], wide[3, 4], wide[4, 2] = e, 1.0 / e, e
    ties = np.zeros((5, 5))  # cycles 0 <-> 1 and 2 -> 3 -> 4 -> 2, both of mean 0.5
    ties[0, 1], ties[1, 0], ties[1, 2] = 0.25, 1.0, 0.1
    ties[2, 3], ties[3, 4], ties[4, 2] = 0.5, 0.5, 0.5
    return [source, last, wide, ties]


class TestNubarExact:
    def test_ring_value_and_witness(self):
        for n in (2, 4, 7):
            r = nubar_exact(ring_matrix(np.ones(n)))
            assert r.value == pytest.approx(1.0, abs=1e-12)
            assert r.witness_cycle == tuple(range(1, n + 1))

    def test_two_cycle_geometric_mean(self):
        x = 0.3
        r = nubar_exact([[0.0, 1.0], [x * x, 0.0]])
        assert r.value == pytest.approx(x, rel=1e-12)
        assert r.witness_cycle == (1, 2)

    def test_witness_is_the_heavier_of_close_cycles(self):
        # two disjoint 2-cycles whose means differ by 1e-7: the lighter one,
        # on the lower nodes, must not count as tight
        m = np.zeros((4, 4))
        m[0, 1], m[1, 0] = 0.5, 2.0 * (1.0 - 1e-7) ** 2
        m[2, 3], m[3, 2] = 4.0, 0.25
        r = nubar_exact(m)
        assert r.witness_cycle == (3, 4)
        assert r.value == 1.0

    def test_acyclic_support_value_zero(self):
        # the limit scaling: zero on every node with an outgoing arc, since
        # no strictly positive scaling attains 0
        m = np.triu(np.ones((4, 4)), 1)
        r = nubar_exact(m)
        assert r.value == 0.0
        assert r.certified
        assert not r.scaling.strictly_positive
        assert r.witness_cycle == ()
        np.testing.assert_array_equal(r.scaling.d, [0.0, 0.0, 0.0, 1.0])
        assert phi_view(m, r.scaling.d).matrix.max() == 0.0

    def test_diagonal_matrix_self_loops(self):
        r = nubar_exact(np.diag([0.2, 0.8, 0.5]))
        assert r.value == pytest.approx(0.8, rel=1e-12)
        assert r.witness_cycle == (2,)

    def test_scaling_attains_value(self):
        rng = np.random.default_rng(10)
        draws = []
        for _ in range(30):
            n = int(rng.integers(2, 7))
            draws.append(rng.random((n, n)) * (rng.random((n, n)) < 0.7))
        for m in draws + super_source_supports():
            r = nubar_exact(m)
            attained = float(phi_view(m, r.scaling.d).matrix.max())
            assert attained == pytest.approx(r.value, rel=1e-9, abs=1e-12)

    def test_witness_cycle_mean_matches_value(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            m = rng.random((n, n))
            r = nubar_exact(m)
            cyc = [i - 1 for i in r.witness_cycle]
            prod = 1.0
            for i in range(len(cyc)):
                prod *= m[cyc[i], cyc[(i + 1) % len(cyc)]]
            assert prod ** (1.0 / len(cyc)) == pytest.approx(r.value, rel=1e-9)

    def test_enumeration_oracle_agreement(self):
        for m in mixed_corpus(seed=12, count=60, n_max=6) + super_source_supports():
            assert nubar_exact(m).value == pytest.approx(
                enum_max_cycle_mean(m), rel=1e-10, abs=1e-14
            )

    def test_karp_potentials_bound_every_arc(self):
        for m in super_source_supports():
            w = _log_weights(m)
            lam, p = _karp(w)
            assert lam == pytest.approx(np.log(enum_max_cycle_mean(m)), rel=1e-12)
            assert np.all(np.isfinite(p)) and np.all(p >= 0.0)
            arcs = w > NEG
            slack = (w + p[:, None] - p[None, :] - lam)[arcs]
            assert slack.max() <= 1e-9 * max(1.0, abs(lam))
        assert _karp(_log_weights(np.triu(np.ones((4, 4)), 1))) == (NEG, None)

    def test_homogeneity(self):
        rng = np.random.default_rng(13)
        m = rng.random((5, 5))
        v = nubar_exact(m).value
        for a in (0.25, 4.0, 1.7):
            assert nubar_exact(a * m).value == pytest.approx(a * v, rel=1e-12)

    def test_similarity_invariance(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            m = rng.random((n, n))
            d = positive_diagonal(rng, n)
            scaled = m * d[:, None] / d[None, :]
            r0, r1 = nubar_exact(m), nubar_exact(scaled)
            assert r1.value == pytest.approx(r0.value, rel=1e-9)
            assert r1.witness_cycle == r0.witness_cycle


class TestNubarLp:
    def test_identity(self):
        r = nubar_lp(np.eye(3))
        assert r.value == pytest.approx(1.0, rel=1e-8)

    def test_two_cycle(self):
        r = nubar_lp([[0.0, 1.0], [0.09, 0.0]])
        assert r.value == pytest.approx(0.3, rel=1e-8)

    def test_acyclic_zero(self):
        assert nubar_lp(np.triu(np.ones((3, 3)), 1)).value == 0.0

    def test_matches_exact_on_random_positive(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            m = rng.random((n, n)) + 1e-3
            assert nubar_lp(m).value == pytest.approx(nubar_exact(m).value, rel=1e-7)

    def test_lp_scaling_feasible(self):
        rng = np.random.default_rng(16)
        m = rng.random((5, 5))
        r = nubar_lp(m)
        attained = float(phi_view(m, r.scaling.d).matrix.max())
        assert attained <= r.value * (1 + 1e-7)


class TestCertificate:
    def test_ring_all_ones_certified(self):
        m = ring_matrix(np.ones(5))
        assert certify_optimality(m, np.ones(5))

    def test_unbalanced_two_cycle_not_certified(self):
        # max entry (1,2) has scaled value 1 but the best continuation from
        # node 2 is only 0.09
        assert not certify_optimality([[0.0, 1.0], [0.09, 0.0]], np.ones(2))

    def test_diagonal_any_positive_scaling_certified(self):
        rng = np.random.default_rng(17)
        m = np.diag([0.5, 0.2, 0.9])
        for _ in range(5):
            assert certify_optimality(m, positive_diagonal(rng, 3, 0.1, 10.0))

    def test_infeasible_scaling_rejected(self):
        assert not certify_optimality([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0])

    @staticmethod
    def _result_for(d):
        a = np.array([[0.0, 1.0], [0.09, 0.0]])
        return _nubar_result(a, lambda a, lam, p: d, _cycle_mean_potentials(a))

    def test_balanced_scaling_is_certified_and_balanced(self):
        r = self._result_for(balanced_solution([[0.0, 1.0], [0.09, 0.0]]).scaling.d)
        assert r.certified and r.balanced

    def test_perturbed_scaling_is_neither_certified_nor_balanced(self):
        # one weight off by 1e-6 moves the two scaled entries 2e-6 apart:
        # far above the flags' tolerances of 1e-9 and 1e-8
        d = balanced_solution([[0.0, 1.0], [0.09, 0.0]]).scaling.d * [1.0 + 1e-6, 1.0]
        r = self._result_for(d)
        assert not r.certified
        assert not r.balanced


class TestBalancedSolution:
    def test_wide_range_scaling_without_overflow_warning(self):
        # every live log weight lies below -710 once shifted, and node 3 is
        # masked: exp(0 - top) on it would overflow
        m = np.zeros((6, 6))
        for (i, j), e in {(1, 0): -136, (1, 5): -142, (2, 4): 16, (3, 5): 100,
                          (4, 1): 100, (4, 3): -18, (5, 4): 134}.items():
            m[i, j] = 2.0 ** e
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = balanced_solution(m)
        # bits recorded before the masked entries left the exponential
        assert r.value.hex() == "0x1.fffffffffffb9p+71"
        assert [v.hex() for v in r.scaling.d.tolist()] == [
            "0x1.1c71c71c71db2p-146", "0x1.0000000000000p+0", "0x0.0p+0",
            "0x1.ffffffffffc32p-181", "0x1.ffffffffffe19p-91", "0x1.ffffffffff608p-153",
        ]
        assert not r.scaling.strictly_positive
        assert r.witness_cycle == (4, 6, 5)
        assert r.certified and r.balanced

    def test_two_cycle_balanced_scaling(self):
        r = balanced_solution([[0.0, 1.0], [0.09, 0.0]])
        d = r.scaling.d / r.scaling.d.max()
        np.testing.assert_allclose(d, [0.3, 1.0], rtol=1e-9)
        assert r.balanced and r.certified
        assert r.value == pytest.approx(0.3, rel=1e-12)

    def test_ring_balanced_at_ones(self):
        r = balanced_solution(ring_matrix(np.ones(4)))
        np.testing.assert_allclose(r.scaling.d, np.ones(4), rtol=1e-12)
        assert r.balanced

    def test_diagonal_matrix_all_ones(self):
        r = balanced_solution(np.diag([0.5, 0.1]))
        np.testing.assert_allclose(r.scaling.d, np.ones(2))
        assert r.balanced and r.certified

    def test_second_critical_structure_reuses_nodes(self):
        # loops (1,2) at 1.0 and (3,4) at 0.8 plus arcs 1->3 and 4->1 at 0.9:
        # the second balance level is the three-cycle through node 1, not the
        # second loop alone
        m = np.zeros((4, 4))
        m[0, 1] = m[1, 0] = 1.0
        m[2, 3] = m[3, 2] = 0.8
        m[0, 2] = m[3, 0] = 0.9
        r = balanced_solution(m)
        d = r.scaling.d / r.scaling.d[0]
        assert d[2] == pytest.approx((0.9 / 0.8) ** (1 / 3), rel=1e-10)
        assert d[3] == pytest.approx((0.8 / 0.9) ** (1 / 3), rel=1e-10)
        assert float(balance_residuals(m, r.scaling.d).max()) <= 1e-12

    def test_chain_node_between_loops_equalized(self):
        m = np.zeros((5, 5))
        m[0, 1] = m[1, 0] = 1.0
        m[3, 4] = m[4, 3] = 0.5
        m[0, 2] = m[2, 3] = 0.7
        r = balanced_solution(m)
        assert float(balance_residuals(m, r.scaling.d).max()) <= 1e-12
        assert r.balanced and r.certified

    def test_sink_fed_node_suppressed(self):
        # node 3 has no outgoing channel, so exact equality is impossible;
        # its incoming side is pushed below the reporting tolerance instead
        m = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        r = balanced_solution(m)
        assert r.value == pytest.approx(1.0)
        assert float(balance_residuals(m, r.scaling.d).max()) <= 1e-8
        assert r.balanced

    def test_corpus_balanced_certified_and_value_exact(self):
        for m in mixed_corpus(seed=18, count=80, n_max=7):
            r = balanced_solution(m)
            exact = nubar_exact(m)
            assert r.value == exact.value
            assert r.witness_cycle == exact.witness_cycle
            assert float(balance_residuals(m, r.scaling.d).max()) <= 1e-8
            if r.value > 0:
                assert r.certified

    def test_contraction_fuzz_beyond_small_n(self):
        # dense, sparse and exp(U(-20, 20))-wide at n = 8..64, where the
        # contraction runs many levels; its log scalings and absorption
        # levels must match the tuple-and-dict reference bit for bit
        rng = np.random.default_rng(61)
        for k in range(120):
            n = int(rng.integers(8, 65))
            m = rng.random((n, n))
            if k % 3 == 1:
                m *= rng.random((n, n)) < rng.uniform(0.05, 0.5)
            elif k % 3 == 2:
                m = np.exp(rng.uniform(-20.0, 20.0, (n, n)))
            r = balanced_solution(m)
            exact = nubar_exact(m)
            assert r.value == exact.value
            assert r.witness_cycle == exact.witness_cycle
            assert float(balance_residuals(m, r.scaling.d).max()) <= 1e-8
            assert r.certified
            off = m.copy()
            np.fill_diagonal(off, 0.0)
            w_off = _log_weights(off)
            for comp in cyclic_components(off):
                w = w_off[np.ix_(comp, comp)]
                pi, level = _max_balance_strong(w)
                ref_pi, ref_level = ref_max_balance_strong(w)
                np.testing.assert_array_equal(pi, ref_pi)
                np.testing.assert_array_equal(level, ref_level)


class TestSandwich:
    def test_lower_nubar_mu_chain(self):
        for m in mixed_corpus(seed=19, count=40, n_max=6):
            lower = nu_lower_bound(m).bound
            nb = nubar_exact(m).value
            rho = mu(m)
            assert lower <= nb * (1 + 1e-6) + 1e-12
            assert nb <= rho * (1 + 1e-6) + 1e-12

    def test_oracle_nu_between_lower_and_nubar(self):
        for m in mixed_corpus(seed=20, count=20, n_min=2, n_max=3):
            nu = nu_oracle(m).value
            assert nu_lower_bound(m).bound <= nu * (1 + 1e-4) + 1e-9
            assert nu <= nubar_exact(m).value * (1 + 1e-6) + 1e-9
            assert mu(m) <= m.shape[0] * nu * (1 + 1e-4) + 1e-9

    def test_diagonally_maximal_equals_singleton_bound(self):
        # if the balanced scaled matrix peaks on the diagonal, the bound is
        # exactly the best self-loop, which the singleton subsets also find
        rng = np.random.default_rng(21)
        found = 0
        for _ in range(60):
            n = int(rng.integers(2, 5))
            m = rng.random((n, n))
            r = nubar_exact(m)
            if np.diag(m).max() >= r.value * (1 - 1e-9):
                found += 1
                assert r.value == pytest.approx(np.diag(m).max(), rel=1e-12)
                assert nu_lower_bound(m).bound == pytest.approx(r.value, rel=1e-9)
        assert found > 0


class TestPhiView:
    def test_zero_entry_convention(self):
        v = phi_view([[0.0, 1.0], [1.0, 0.0]], [1.0, 2.0])
        assert v.matrix[0, 0] == 0.0
        assert v.matrix[0, 1] == 0.5
        assert v.feasible

    def test_zero_weight_source_gives_zero(self):
        v = phi_view([[0.0, 1.0], [0.0, 0.0]], [0.0, 1.0])
        assert v.matrix[0, 1] == 0.0
        assert v.feasible

    def test_zero_weight_target_with_positive_source_infeasible(self):
        v = phi_view([[0.0, 1.0], [0.0, 0.0]], [1.0, 0.0])
        assert np.isinf(v.matrix[0, 1])
        assert not v.feasible

    @pytest.mark.parametrize("d", [[1.0, np.nan], [1.0, -0.5]])
    def test_invalid_weights_rejected(self, d):
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            phi_view([[0.0, 1.0], [1.0, 0.0]], d)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValidationError, match="wrong length"):
            phi_view([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0, 1.0])
