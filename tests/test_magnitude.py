import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nu_analyzer import (
    FirSystem,
    MagnitudeMatrix,
    MagnitudeVector,
    ValidationError,
    diag_inf_to_one_norm,
    linf_induced_norm,
    magnitude_matrix,
    one_to_inf_norm,
)


class TestMagnitudeMatrixOp:
    def test_absolute_coefficient_sum(self):
        sys = FirSystem(n=1, entries={(1, 1): (1.0, -0.5)})
        m = magnitude_matrix(sys)
        assert m.m[0, 0] == 1.5

    def test_ring_unit_delay_gives_permutation(self):
        n = 3
        entries = {(k + 1, (k + 1) % n + 1): (0.0, 1.0) for k in range(n)}
        m = magnitude_matrix(FirSystem(n=n, entries=entries)).m
        expected = np.zeros((n, n))
        for k in range(n):
            expected[k, (k + 1) % n] = 1.0
        np.testing.assert_array_equal(m, expected)

    def test_empty_entries_zero_matrix(self):
        m = magnitude_matrix(FirSystem(n=2, entries={}))
        np.testing.assert_array_equal(m.m, np.zeros((2, 2)))

    def test_index_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            FirSystem(n=2, entries={(3, 1): (1.0,)})

    def test_non_finite_coefficient_rejected(self):
        with pytest.raises(ValidationError):
            FirSystem(n=1, entries={(1, 1): (float("nan"),)})

    @pytest.mark.parametrize(
        "n, coeffs",
        [(True, (1.0,)), (1, (True, 2)), (1, ("0.5",)), (1, (np.bool_(True),))],
        ids=["bool-dimension", "bool-coefficient", "string-coefficient", "numpy-bool-coefficient"],
    )
    def test_non_numeric_field_rejected(self, n, coeffs):
        with pytest.raises(ValidationError):
            FirSystem(n=n, entries={(1, 1): coeffs})

    @pytest.mark.parametrize("key", [(1.5, 1), (True, 2), (1, "2")])
    def test_non_integer_index_rejected(self, key):
        with pytest.raises(ValidationError):
            FirSystem(n=2, entries={key: (1.0,)})

    @pytest.mark.parametrize(
        "entries",
        [{1: (1.0,)}, {(1, 1): 1.0}, {(1, 1, 1): (1.0,)}],
        ids=["scalar-key", "scalar-impulse", "triple-key"],
    )
    def test_malformed_entry_rejected(self, entries):
        with pytest.raises(ValidationError):
            FirSystem(n=2, entries=entries)

    def test_numpy_coefficients_accepted(self):
        sys = FirSystem(n=1, entries={(np.int64(1), 1): (np.float64(0.5), np.int64(-2))})
        assert magnitude_matrix(sys).m[0, 0] == 2.5
        sys = FirSystem(n=1, entries={(1, 1): np.array([0.5, -2.0])})
        assert magnitude_matrix(sys).m[0, 0] == 2.5

    def test_additive_over_disjoint_entry_maps(self):
        e1 = {(1, 2): (0.5, -0.25), (2, 2): (1.0,)}
        e2 = {(1, 1): (2.0,), (2, 1): (0.0, 3.0)}
        m1 = magnitude_matrix(FirSystem(n=2, entries=e1)).m
        m2 = magnitude_matrix(FirSystem(n=2, entries=e2)).m
        m12 = magnitude_matrix(FirSystem(n=2, entries={**e1, **e2})).m
        np.testing.assert_allclose(m12, m1 + m2)


class TestNorms:
    def test_linf_identity(self):
        assert linf_induced_norm(np.eye(3)) == 1.0

    def test_linf_row_sums(self):
        assert linf_induced_norm([[1.0, 2.0], [0.0, 0.5]]) == 3.0

    def test_linf_ring_permutation(self):
        n = 5
        m = np.zeros((n, n))
        for k in range(n):
            m[k, (k + 1) % n] = 1.0
        assert linf_induced_norm(m) == 1.0

    def test_max_element_cases(self):
        assert one_to_inf_norm(np.eye(4)) == 1.0
        assert one_to_inf_norm([[0.2, 0.9], [0.1, 0.3]]) == 0.9
        assert one_to_inf_norm(np.zeros((3, 3))) == 0.0

    def test_diagonal_uncertainty_norm_is_sum(self):
        assert diag_inf_to_one_norm(MagnitudeVector(np.array([1.0, 1.0, 1.0]))) == 3.0
        assert diag_inf_to_one_norm([0.5, 0.25]) == 0.75
        assert diag_inf_to_one_norm(np.zeros(4)) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(0, 100, allow_nan=False), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    def test_row_sum_dominates_max_element(self, rows):
        m = np.array(rows)
        assert linf_induced_norm(m) >= one_to_inf_norm(m) - 1e-12


class TestValidation:
    def test_negative_entry_rejected_with_position(self):
        with pytest.raises(ValidationError, match="row 2, column 1"):
            MagnitudeMatrix(np.array([[0.0, 1.0], [-0.5, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            MagnitudeMatrix(np.ones((2, 3)))

    def test_magnitude_matrix_is_immutable(self):
        m = MagnitudeMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            m.m[0, 0] = 5.0
