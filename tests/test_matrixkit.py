import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rnet import matrixkit


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

    def test_text_matches_per_value_format(self):
        a = np.array([
            [-0.0, 5e-324, 1e308, -1e308],
            [3.0, -2.0, 0.1, -1.0 / 3.0],
            [2.2250738585072014e-308, 123456789012345678.0, -7.5e-300, 1.0],
        ])
        reference = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in a)
        assert matrixkit.matrix_to_csv(a) == reference
        assert reference.startswith("-0,4.9406564584124654e-324,1e+308,-1e+308\n3,-2,")

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            matrixkit.matrix_from_csv("1,2\n3\n")

    def test_junk_rejected(self):
        with pytest.raises(ValueError):
            matrixkit.matrix_from_csv("1,zebra\n")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            matrixkit.matrix_from_csv("\n\n")
