"""Dense matrix helpers: validation, symmetrization and CSV exchange.

Everything here treats arrays as immutable values: inputs are never
modified and every operation returns a freshly allocated array.  The
forward model and the peel solve with numpy's LAPACK.
"""

from __future__ import annotations

import numpy as np


def as_matrix(data) -> np.ndarray:
    """Copy ``data`` into a fresh 2-D float64 array, rejecting NaN/Inf."""
    a = np.array(data, dtype=np.float64, order="C")
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """Average each matrix of a stack (or one matrix) with its transpose: exactly symmetric."""
    return (a + a.swapaxes(-1, -2)) / 2.0


def matrix_to_csv(a) -> str:
    """Serialize a matrix as CSV: one row per line, 17 significant digits."""
    a = as_matrix(a)
    row = ",".join(["%.17g"] * a.shape[1])
    return "\n".join([row % tuple(values) for values in a.tolist()]) + "\n"


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
