"""Dense matrix kernel: validation, a reference pivoted LU and CSV exchange.

Everything here treats arrays as immutable values: inputs are never
modified and every operation returns a freshly allocated array.  The
solver is a row-pivoted LU with a hard relative pivot floor, so a
conditioning collapse surfaces as :class:`SingularMatrixError` instead of
silently propagating NaNs.  Like everything here it casts its input to
float64, so it is no reference for other dtypes; the forward model and
the peel do not call it, and solve with numpy's LAPACK instead.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError

# A pivot below PIVOT_FLOOR * max|entry of the input| is treated as an
# exact singularity.
PIVOT_FLOOR = 1e-14


def as_matrix(data) -> np.ndarray:
    """Copy ``data`` into a fresh 2-D float64 array, rejecting NaN/Inf."""
    a = np.array(data, dtype=np.float64, order="C")
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _square(data) -> np.ndarray:
    a = as_matrix(data)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def lu_factor(a) -> tuple[np.ndarray, np.ndarray]:
    """Row-pivoted LU factorization of a square matrix.

    Returns ``(lu, perm)`` where ``lu`` packs the unit-lower and upper
    factors and ``perm`` records the row permutation (``a[perm]`` is the
    matrix actually factored).

    Raises:
        SingularMatrixError: when the best available pivot falls below
            ``PIVOT_FLOOR * max|a|``.
    """
    a = _square(a)
    n = a.shape[0]
    lu = a.copy()
    perm = np.arange(n)
    if n == 0:
        return lu, perm
    scale = float(np.abs(a).max())
    if scale == 0.0:
        raise SingularMatrixError("zero matrix")
    floor = PIVOT_FLOOR * scale
    for col in range(n):
        rel = col + int(np.argmax(np.abs(lu[col:, col])))
        pivot = lu[rel, col]
        if abs(pivot) < floor:
            raise SingularMatrixError(
                f"pivot {abs(pivot):.3e} below floor {floor:.3e} at column {col}"
            )
        if rel != col:
            lu[[col, rel]] = lu[[rel, col]]
            perm[[col, rel]] = perm[[rel, col]]
        lu[col + 1 :, col] /= pivot
        lu[col + 1 :, col + 1 :] -= np.outer(lu[col + 1 :, col], lu[col, col + 1 :])
    return lu, perm


def solve_linear_system(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` by pivoted LU with forward/back substitution.

    ``b`` may be a vector or a matrix of stacked right-hand sides; the
    result has the same number of dimensions.
    """
    a = _square(a)
    rhs = np.array(b, dtype=np.float64)
    if rhs.size and not np.all(np.isfinite(rhs)):
        raise ValueError("right-hand side entries must be finite")
    vector = rhs.ndim == 1
    if vector:
        rhs = rhs[:, None]
    if rhs.ndim != 2 or rhs.shape[0] != a.shape[0]:
        raise ValueError(
            f"right-hand side shape {rhs.shape} does not match matrix {a.shape}"
        )
    lu, perm = lu_factor(a)
    x = rhs[perm]
    n = a.shape[0]
    for i in range(1, n):
        x[i] -= lu[i, :i] @ x[:i]
    for i in range(n - 1, -1, -1):
        if i < n - 1:
            x[i] -= lu[i, i + 1 :] @ x[i + 1 :]
        x[i] /= lu[i, i]
    return x[:, 0] if vector else x


def symmetrize_average(m) -> np.ndarray:
    """Average a matrix with its transpose; the result is exactly symmetric."""
    m = _square(m)
    return (m + m.T) / 2.0


def matrix_to_csv(a) -> str:
    """Serialize a matrix as CSV: one row per line, 17 significant digits."""
    a = as_matrix(a)
    lines = [",".join(f"{v:.17g}" for v in row) for row in a]
    return "\n".join(lines) + "\n"


def matrix_from_csv(text: str) -> np.ndarray:
    """Parse a matrix serialized by :func:`matrix_to_csv`."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append([float(cell) for cell in line.split(",")])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if not rows:
        raise ValueError("empty matrix document")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged rows in matrix document")
    return as_matrix(rows)
