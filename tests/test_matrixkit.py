import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rnet import matrixkit
from rnet.errors import SingularMatrixError


class TestSolve:
    def test_identity_returns_rhs(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        x = matrixkit.solve_linear_system(np.eye(3), b)
        assert np.array_equal(x, b)

    def test_rank_deficient_raises(self):
        with pytest.raises(SingularMatrixError):
            matrixkit.solve_linear_system([[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0])

    def test_two_by_two_hand_value(self):
        # Cramer: det = 5, x = ((3*3 - 1*5)/5, (2*5 - 1*3)/5) = (0.8, 1.4)
        x = matrixkit.solve_linear_system([[2.0, 1.0], [1.0, 3.0]], [3.0, 5.0])
        assert np.allclose(x, [0.8, 1.4], rtol=0, atol=1e-14)

    def test_vector_and_matrix_rhs_agree(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, (5, 5)) + 5 * np.eye(5)
        b = rng.uniform(-1, 1, 5)
        xv = matrixkit.solve_linear_system(a, b)
        xm = matrixkit.solve_linear_system(a, b[:, None])
        assert xv.shape == (5,)
        assert np.array_equal(xm[:, 0], xv)

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            matrixkit.solve_linear_system(np.zeros((2, 2)), np.ones(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            matrixkit.solve_linear_system(np.eye(3), np.ones(4))

    def test_nonfinite_rejected(self):
        a = np.eye(2)
        a[0, 0] = np.nan
        with pytest.raises(ValueError):
            matrixkit.solve_linear_system(a, np.ones(2))

    @settings(deadline=None, max_examples=60)
    @given(st.integers(2, 8), st.integers(0, 2**32 - 1))
    def test_residual_bound_well_conditioned(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, (n, n)) + n * np.eye(n)  # diagonally dominant
        b = rng.uniform(-1, 1, (n, 2))
        x = matrixkit.solve_linear_system(a, b)
        resid = np.abs(a @ x - b).max()
        assert resid <= 1e-12 * max(1.0, np.abs(b).max())


class TestSymmetrize:
    def test_symmetric_unchanged(self):
        m = np.array([[1.0, 2.0], [2.0, 5.0]])
        assert np.array_equal(matrixkit.symmetrize_average(m), m)

    def test_antisymmetric_to_zero(self):
        m = np.array([[0.0, 3.0], [-3.0, 0.0]])
        assert np.array_equal(matrixkit.symmetrize_average(m), np.zeros((2, 2)))

    def test_mean_of_transposed_pair(self):
        out = matrixkit.symmetrize_average([[1.0, 2.0], [0.0, 1.0]])
        assert np.array_equal(out, np.ones((2, 2)))

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_exactly_symmetric_and_idempotent(self, n, seed):
        m = np.random.default_rng(seed).uniform(-5, 5, (n, n))
        s = matrixkit.symmetrize_average(m)
        assert np.array_equal(s, s.T)
        assert np.array_equal(matrixkit.symmetrize_average(s), s)


class TestCsv:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(13)
        a = rng.uniform(-1, 1, (4, 4)) * 10.0 ** rng.integers(-12, 12, (4, 4))
        text = matrixkit.matrix_to_csv(a)
        back = matrixkit.matrix_from_csv(text)
        assert np.array_equal(back, a)

    def test_format_no_header_one_row_per_line(self):
        text = matrixkit.matrix_to_csv(np.array([[1.5, -2.0], [0.25, 1e-3]]))
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert lines[0] == "1.5,-2"

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            matrixkit.matrix_from_csv("1,2\n3\n")

    def test_junk_rejected(self):
        with pytest.raises(ValueError):
            matrixkit.matrix_from_csv("1,zebra\n")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            matrixkit.matrix_from_csv("\n\n")
