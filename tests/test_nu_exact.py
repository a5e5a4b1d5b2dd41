import math

import numpy as np
import pytest

from nu_analyzer import (
    METHOD_CLOSED_FORM_2X2,
    METHOD_ORACLE,
    METHOD_RING,
    ValidationError,
    nu_2x2,
    nu_exact,
    nu_oracle,
    nu_ring,
    nubar_exact,
    ring_matrix,
    spectral_radius,
)
from nu_analyzer.nu_exact import _ORACLE_GRID, _simplex_grid
from nu_analyzer.spectral import _perron_roots

from helpers import positive_diagonal, ref_coarse_search, ref_nu_oracle


def witness_is_destabilizing(m, witness, tol=1e-6):
    a = np.asarray(getattr(m, "m", m), dtype=float)
    rho = spectral_radius(np.asarray(witness)[:, None] * a).rho
    return abs(rho - 1.0) <= tol


class TestNu2x2:
    def test_pure_swap(self):
        r = nu_2x2([[0.0, 1.0], [1.0, 0.0]])
        assert r.value == pytest.approx(0.5, rel=1e-12)
        np.testing.assert_allclose(r.witness_delta, [1.0, 1.0])
        assert r.method == METHOD_CLOSED_FORM_2X2

    def test_dominant_diagonal(self):
        r = nu_2x2([[1.2, 1.0], [1.0, 0.3]])
        assert r.value == pytest.approx(1.2, rel=1e-12)
        assert witness_is_destabilizing([[1.2, 1.0], [1.0, 0.3]], r.witness_delta)

    def test_interior_case(self):
        m = [[0.5, 1.0], [1.0, 0.5]]
        r = nu_2x2(m)
        assert r.value == pytest.approx(0.75, rel=1e-12)
        assert witness_is_destabilizing(m, r.witness_delta)

    def test_triangular_reduces_to_self_loops(self):
        r = nu_2x2([[0.4, 1.0], [0.0, 0.7]])
        assert r.value == pytest.approx(0.7, rel=1e-12)
        r0 = nu_2x2([[0.0, 1.0], [0.0, 0.0]])
        assert r0.value == 0.0

    def test_boundary_normalized_diagonal_one(self):
        # normalized diagonal exactly one: single self-loop witness
        m = [[2.0, 2.0], [2.0, 0.5]]  # s = 2, x = 1, y = 0.25
        r = nu_2x2(m)
        assert r.value == pytest.approx(2.0, rel=1e-12)
        assert witness_is_destabilizing(m, r.witness_delta)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValidationError):
            nu_2x2(np.eye(3))

    def test_matches_oracle_on_random(self):
        rng = np.random.default_rng(40)
        for _ in range(60):
            x, y = rng.uniform(0.0, 1.0, size=2)
            m = np.array([[x, 1.0], [1.0, y]])
            closed = nu_2x2(m)
            assert closed.value == pytest.approx(nu_oracle(m).value, rel=1e-4)
            assert witness_is_destabilizing(m, closed.witness_delta)

    def test_similarity_and_scale_invariance(self):
        rng = np.random.default_rng(41)
        m = np.array([[0.3, 1.0], [1.0, 0.6]])
        base = nu_2x2(m).value
        for _ in range(10):
            d = positive_diagonal(rng, 2, 0.2, 5.0)
            a = float(rng.uniform(0.5, 2.0))
            scaled = a * m * d[:, None] / d[None, :]
            assert nu_2x2(scaled).value == pytest.approx(a * base, rel=1e-10)
        witness = nu_2x2(m).witness_delta
        r = nu_2x2(2.0**-60 * m)
        assert r.value == 2.0**-60 * base
        np.testing.assert_array_equal(r.witness_delta, 2.0**60 * witness)
        for a in (1e-16, 1e-250, 1e200):
            r = nu_2x2(a * m)
            assert r.value == pytest.approx(a * base, rel=1e-9)
            np.testing.assert_allclose(r.witness_delta, witness / a, rtol=1e-9)
        # the off-diagonal product underflows unless the matrix is rescaled
        for tiny in ([[1e-300, 1e-200], [1e-200, 0.0]], [[0.0, 1e-200], [1e-200, 0.0]]):
            r = nu_2x2(tiny)
            assert r.value == pytest.approx(5e-201, rel=1e-9)
            assert witness_is_destabilizing(tiny, r.witness_delta)


class TestNuRing:
    def test_unit_rings(self):
        for n in (2, 4, 9):
            r = nu_ring(np.ones(n))
            assert r.value == pytest.approx(1.0 / n, rel=1e-12)
            np.testing.assert_allclose(r.witness_delta, np.ones(n))
            assert r.method == METHOD_RING

    def test_matches_2x2_closed_form(self):
        assert nu_ring(np.ones(2)).value == pytest.approx(
            nu_2x2([[0.0, 1.0], [1.0, 0.0]]).value, rel=1e-12
        )

    def test_weighted_ring_total_gain_one(self):
        r = nu_ring([2.0, 0.5])
        assert r.value == pytest.approx(0.5, rel=1e-12)
        assert witness_is_destabilizing(ring_matrix([2.0, 0.5]), r.witness_delta)

    def test_witness_destabilizes(self):
        rng = np.random.default_rng(42)
        for n in (2, 3, 5):
            w = rng.uniform(0.2, 3.0, size=n)
            r = nu_ring(w)
            assert witness_is_destabilizing(ring_matrix(w), r.witness_delta)

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValidationError):
            nu_ring([1.0, 0.0])

    def test_empty_weights_rejected(self):
        with pytest.raises(ValidationError, match="nonempty vector"):
            nu_ring([])


class TestNuOracle:
    def test_pure_swap(self):
        r = nu_oracle([[0.0, 1.0], [1.0, 0.0]])
        assert r.value == pytest.approx(0.5, abs=1e-5)
        assert r.method == METHOD_ORACLE

    def test_diagonal_matrix(self):
        r = nu_oracle(np.diag([0.3, 0.9, 0.4]))
        assert r.value == pytest.approx(0.9, rel=1e-6)

    def test_nilpotent_has_no_destabilization(self):
        r = nu_oracle(np.triu(np.ones((3, 3)), 1))
        assert r.value == 0.0

    def test_ring4_equal_split(self):
        r = nu_oracle(ring_matrix(np.ones(4)))
        assert r.value == pytest.approx(0.25, abs=1e-4)

    def test_witness_feasibility(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            m = rng.random((3, 3)) + 0.05
            r = nu_oracle(m)
            assert witness_is_destabilizing(m, r.witness_delta)
            assert r.witness_delta.sum() == pytest.approx(1.0 / r.value, rel=1e-6)

    def test_random_3x3_within_sandwich(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            m = rng.random((3, 3)) + 0.02
            nu = nu_oracle(m).value
            assert nu <= nubar_exact(m).value * (1 + 1e-6)

    def test_similarity_and_homogeneity(self):
        rng = np.random.default_rng(45)
        m = rng.random((3, 3)) + 0.1
        base = nu_oracle(m).value
        d = positive_diagonal(rng, 3)
        assert nu_oracle(m * d[:, None] / d[None, :]).value == pytest.approx(base, rel=1e-4)
        assert nu_oracle(2.0 * m).value == pytest.approx(2.0 * base, rel=1e-4)
        # the search runs at the scale of the largest entry: a power of two
        # keeps every bit, and no scale stalls it at the first grid row
        witness = nu_oracle(m).witness_delta
        r = nu_oracle(2.0**-60 * m)
        assert r.value == 2.0**-60 * base
        np.testing.assert_array_equal(r.witness_delta, 2.0**60 * witness)
        for a in (1e-16, 1e-250, 1e200):
            r = nu_oracle(a * m)
            assert r.value == pytest.approx(a * base, rel=1e-9)
            assert witness_is_destabilizing(a * m, r.witness_delta)

    @pytest.mark.xfail(
        strict=True,
        reason="acceptance margin is relative to the largest entry, not to the root",
    )
    def test_root_far_below_largest_entry(self):
        # nu is the lone self-loop's 1e-7, about 1e-15 of the largest entry
        # 2e7, so a 1e-15 margin on that scale stalls the search at 7.5e-8,
        # below the subset bound of the same self-loop
        m = np.array([[1e-7, 0.0, 0.0], [0.0, 0.0, 0.0], [2e7, 0.0, 0.0]])
        assert nu_oracle(m).value == pytest.approx(1e-7, rel=1e-9)

    @pytest.mark.xfail(
        strict=True,
        reason="acceptance margin is relative to the largest entry, not to the root",
    )
    def test_ring_root_far_below_largest_entry(self):
        # one cyclic component whose nu, 1e-100 / 3, is far below a 1e-15
        # margin on the scale of the largest entry 1: the search never leaves
        # its 0.0 start, which lies below the ring's own subset bound
        w = np.array([1.0, 1.0, 1e-300])
        assert nu_oracle(ring_matrix(w)).value == pytest.approx(nu_ring(w).value, rel=1e-9, abs=0.0)

    def test_large_n_rejected(self):
        with pytest.raises(ValidationError):
            nu_oracle(np.eye(5))


def oracle_corpus(seed: int) -> list[np.ndarray]:
    """Dense, sparse, wide-range, strictly triangular, zero, diagonal and
    ring matrices at every size the oracle takes."""
    rng = np.random.default_rng(seed)
    out = []
    for n in range(1, 5):
        for _ in range(4):
            out.append(rng.random((n, n)))
            out.append(rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.2, 0.7)))
            out.append(np.exp(rng.uniform(-20.0, 20.0, (n, n))))
        for _ in range(2):
            out.append(np.triu(rng.random((n, n)), 1))
            out.append(np.diag(rng.random(n)))
            out.append(ring_matrix(rng.uniform(0.2, 3.0, n)).m)
        out.append(np.zeros((n, n)))
    return out


def workload_corpus() -> list[np.ndarray]:
    """The oracle inputs of the dense analyze benchmark, which mix searches
    without any refinement improvement and with 30 or more
    (``default_rng([3, 0, 3, 0])`` takes 32), then tie-heavy matrices."""
    out = [np.random.default_rng([seed, r, n, 0]).random((n, n))
           for seed in range(1, 11) for r in range(2) for n in (3, 4)]
    out += [np.ones((4, 4)), np.diag([0.5, 0.9, 0.9, 0.2]), ring_matrix(np.ones(4)).m]
    rng = np.random.default_rng(47)
    out += [np.round(3.0 * rng.random((n, n))) / 3.0 for n in (2, 3, 4, 4)]
    return out


def vertex_corpus(seed: int) -> list[np.ndarray]:
    """Inputs whose grid optimum is mostly a vertex: diagonally dominant,
    wide-range, 1e-200 off the diagonal, small diagonal against large
    off-diagonal entries, tied diagonals, zero diagonals, and a two-cycle
    through the largest diagonal entry that pulls the optimum off the
    vertex by less than a grid step."""
    rng = np.random.default_rng(seed)
    out = []
    for n in (3, 4):
        for _ in range(6):
            out.append(rng.random((n, n)) + np.diag(rng.uniform(0.5, 2.0, n)))
            out.append(np.exp(rng.uniform(-20.0, 20.0, (n, n))))
            for off, diag in ((np.full((n, n), 1e-200), rng.random(n)),
                              (rng.random((n, n)), 1e-3 * rng.random(n)),
                              (0.1 * rng.random((n, n)), np.full(n, 0.9)),
                              (rng.random((n, n)), np.zeros(n))):
                np.fill_diagonal(off, diag)
                out.append(off)
            m = 0.05 * rng.random((n, n))
            m[0, 0], m[1, 1], m[0, 1], m[1, 0] = 1.0, rng.uniform(0.5, 0.95), 1.0, rng.uniform(1.0, 1.03)
            out.append(m)
    return out


def counting_roots(monkeypatch) -> list[int]:
    """Replace the oracle's eigvals stacks with a wrapper that records each
    stack's row count."""
    rows: list[int] = []

    def counting(stack):
        rows.append(stack.shape[0])
        return _perron_roots(stack)

    monkeypatch.setattr(nu_exact, "_perron_roots", counting)
    return rows


class TestNuOracleBitwise:
    def test_fuzz_matches_sequential_reference(self):
        for m in oracle_corpus(seed=46) + workload_corpus():
            got, ref = nu_oracle(m), ref_nu_oracle(m)
            assert got.value == ref.value, m
            np.testing.assert_array_equal(got.witness_delta, ref.witness_delta)
            assert got.method == ref.method

    def test_pruned_grid_matches_full_grid(self, monkeypatch):
        rows = counting_roots(monkeypatch)
        scored = total = 0
        for m in oracle_corpus(seed=46) + workload_corpus():
            n = m.shape[0]
            dirs = _simplex_grid(n, _ORACLE_GRID[n])
            rows.clear()
            best, best_dir = nu_exact._coarse_search(m, dirs)
            scored += sum(rows)
            total += dirs.shape[0]
            ref_best, ref_dir = ref_coarse_search(m, _ORACLE_GRID[n])
            assert best == ref_best, m
            np.testing.assert_array_equal(best_dir, ref_dir)
        assert scored < 0.7 * total  # 26,738 of 44,239 grid rows reach eigvals

    def test_vertex_optimum_takes_few_stacks(self, monkeypatch):
        rows = counting_roots(monkeypatch)
        m = np.random.default_rng([1, 0, 4, 0]).random((4, 4))
        assert nu_oracle(m).value == ref_nu_oracle(m).value
        assert len(rows) <= 12  # one stack per coordinate per sweep would be 93

    def test_improving_search_takes_few_stacks(self, monkeypatch):
        rows = counting_roots(monkeypatch)
        m = np.random.default_rng([3, 0, 3, 0]).random((3, 3))
        assert nu_oracle(m).value == ref_nu_oracle(m).value
        assert len(rows) <= 73  # 32 refinement improvements; 54 stacks

    @pytest.mark.parametrize("n", [4, 3])
    def test_vertex_optimum_settles_two_node_rows_in_closed_form(self, monkeypatch, n):
        rows = counting_roots(monkeypatch)
        m = np.random.default_rng([1, 0, n, 0]).random((n, n))
        got, ref = nu_oracle(m), ref_nu_oracle(m)
        assert got.value == ref.value
        np.testing.assert_array_equal(got.witness_delta, ref.witness_delta)
        # with every refinement row sent to eigvals: 1,650 rows at n = 4, 1,214 at n = 3
        assert sum(rows) <= 150

    @pytest.mark.parametrize("n", [4, 3])
    def test_vertex_incumbent_stacks_every_remaining_sweep(self, monkeypatch, n):
        calls = []
        screen = nu_exact._vertex_contenders

        def counting(*args):
            calls.append(1)
            return screen(*args)

        monkeypatch.setattr(nu_exact, "_vertex_contenders", counting)
        m = np.random.default_rng([1, 0, n, 0]).random((n, n))
        got, ref = nu_oracle(m), ref_nu_oracle(m)
        assert got.value == ref.value
        np.testing.assert_array_equal(got.witness_delta, ref.witness_delta)
        # one stack holds every sweep; runs doubling from one sweep take 5
        assert len(calls) == 1

    def test_vertex_corpus_matches_sequential_reference(self):
        beaten = 0
        for m in vertex_corpus(seed=48):
            got, ref = nu_oracle(m), ref_nu_oracle(m)
            assert got.value == ref.value, m
            np.testing.assert_array_equal(got.witness_delta, ref.witness_delta)
            assert got.method == ref.method
            n, e = m.shape[0], math.frexp(m.max())[1]
            best, best_dir = nu_exact._coarse_search(np.ldexp(m, -e), _simplex_grid(n, _ORACLE_GRID[n]))
            beaten += np.count_nonzero(best_dir) == 1 and math.ldexp(best, e) < got.value
        # some refinement row beats a vertex incumbent, so the rule must
        # let that row through to eigvals
        assert beaten >= 1
