"""Inverse solver: recover every conductance from the boundary response alone.

One pass over the current boundary works in three moves:

1. Split the response matrix into 16 face blocks and, for each face,
   eliminate the opposite face to get that face's reduction matrix.  Its
   diagonal is the spike conductances; consecutive spike pairs combined
   with its subdiagonal give the tangential boundary-edge conductances.
2. Remove the now-known boundary resistors from the response matrix.
   Spike removal re-roots a boundary index at the spike's interior
   endpoint.  The non-corner spikes of a layer commute, so they go
   together as one block Schur update: one solve against
   ``lam_SS - diag(gamma)`` over those ``4m - 4`` indices.  Each corner's
   second spike and the tangential ring edges then come off by the
   additive edge rule, all in one scatter-add.  The corner pairs, the
   boundary indices that share one anchor, are read from
   ``lattice._frame``.  The one-at-a-time rules
   (``apply_spike_removal``, ``apply_edge_removal``) remain as the
   reference that ``peel_layer(schedule=...)`` applies.
3. Eight indices become structurally isolated; deleting their rows and
   columns leaves the response matrix of the length ``k-2`` sub-network.
   Repeat until nothing is left.

Every stage works on a ``(B, 4m, 4m)`` stack, whose items may come from
networks of different lengths, and an item leaves it at its first refusal;
``reconstruct_full`` and the ring-by-ring pair ``extract_boundary_conductances``
and ``peel_layer`` are the B=1 case.
Boundary indices here are 1-based, as in the lattice; arrays are 0-based.
"""

from __future__ import annotations

import itertools
import math
import time
import warnings as _warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import matrixkit
from .errors import (
    DegenerateDeltaError,
    DimensionMismatchError,
    InvalidConductanceError,
    NetworkFormatError,
    RnetError,
    SingularBlockError,
    ZeroDivisorError,
    annotate_layer,
)
from .lattice import (
    FACES,
    EdgeValues,
    LatticeSpec,
    ResponseMatrix,
    _as_int,
    _as_number,
    _edge_names,
    _edge_values,
    _frame,
    _positive_finite,
    _read_document,
    _reciprocal,
    _response_entries,
    _write_document,
    layer_spike_edge,
    layer_tangential_edge,
)

# The peel refuses an opposite-face block whose condition number reaches 1 / PIVOT_FLOOR.
PIVOT_FLOOR = 1e-14
# Relative floor below which the spike-removal denominator counts as zero.
DELTA_FLOOR = 1e-13
# Relative floor for the off-diagonal divisor in the boundary-edge formula.
DIVISOR_FLOOR = 1e-13
# Isolated rows after a peel should be zero; warn above this (noise-free).
RESIDUAL_WARN = 1e-8
# Warn when the input matrix is less symmetric than this, relative.
ASYMMETRY_WARN = 1e-6


# For each face: its own block, the coupling to the adjacent face, the
# opposite-face block to invert and the continuation back to this face.
_TILDE_RECIPE = {
    "N": ("NN", "NE", "WE", "WN"),
    "E": ("EE", "EN", "SN", "SE"),
    "S": ("SS", "SW", "EW", "ES"),
    "W": ("WW", "WS", "NS", "NW"),
}
# Face indices (rows, then columns) of those blocks, part by part and face by face.
_PART_ROWS, _PART_COLS = (
    np.array([[FACES.index(_TILDE_RECIPE[f][p][end]) for f in FACES] for p in range(4)])
    for end in (0, 1)
)


def _first_flags(bad: np.ndarray) -> dict[int, int]:
    """Each item of ``bad`` ``(A, ...)`` with a flag, and the flat index of its first."""
    if not bad.any():
        return {}
    rows = bad.reshape(len(bad), -1)
    return {i: int(np.argmax(rows[i])) for i in np.flatnonzero(rows.any(axis=1)).tolist()}


def _solve_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` over a stack, with NaN for an exactly singular item."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        if a.ndim == 2:
            return np.full(b.shape, np.nan)
        # An exactly zero pivot somewhere: solve item by item to find it.
        return np.stack([_solve_stack(a_i, b_i) for a_i, b_i in zip(a, b)])


def _tilde_stack(lam: np.ndarray):
    """Face reductions ``(A, 4, m, m)`` of a ``(A, 4m, 4m)`` stack.

    All four opposite blocks of every item are solved in one stacked LAPACK
    call whose right-hand side also carries the identity, so the same solve
    yields each block's inverse and hence its infinity-norm condition
    number.  Also returns those condition numbers ``(A, 4)`` and the refusal
    of each item whose opposite block reaches ``1 / PIVOT_FLOOR``.
    """
    n_items, m = len(lam), lam.shape[1] // 4
    blocks = lam.reshape(n_items, 4, m, 4, m).swapaxes(2, 3)  # [item, f, g] is block (f, g)
    own, coupling, opposite, continuation = blocks[:, _PART_ROWS, _PART_COLS].swapaxes(0, 1)
    rhs = np.empty(continuation.shape[:-1] + (2 * m,))
    rhs[..., :m], rhs[..., m:] = continuation, np.eye(m)
    x = _solve_stack(opposite, rhs)
    norm = np.abs(opposite).sum(axis=3).max(axis=2)
    cond = norm * np.abs(x[..., m:]).sum(axis=3).max(axis=2)
    errors = {
        i: SingularBlockError(
            f"opposite-face block {_TILDE_RECIPE[FACES[f]][2]} is singular: "
            f"condition {cond[i, f]:.3e} at or above {1.0 / PIVOT_FLOOR:.0e}",
            face=FACES[f],
        )
        for i, f in _first_flags(~(cond < 1.0 / PIVOT_FLOOR)).items()
    }
    return own - coupling @ x[..., :m], cond, errors


@dataclass(frozen=True, eq=False)
class PeelExtraction:
    """Spike and tangential-edge conductances read off one boundary layer.

    ``spikes`` holds the ``4m`` spike conductances in boundary-index order
    (``spikes[b - 1]`` for index ``b``).  ``edges`` holds the ``4(m-1)``
    tangential conductances face by face in ``FACES`` order:
    ``edges[f * (m - 1) + j - 1]`` joins face ``f``'s local anchors ``j``
    and ``j + 1``.  Nonpositive or non-finite estimates (possible under
    noise) are listed in ``flags``, not clamped.
    """

    length: int
    spikes: np.ndarray
    edges: np.ndarray
    flags: tuple[str, ...] = ()


# Which triangle of a face's reduction carries the boundary-edge values.
# The reductions for N and S continue through the clockwise-next face and
# put the information on the subdiagonal; E and W continue the other way
# and use the superdiagonal.  (The opposite triangle is identically zero
# for exact data: verified per face against the forward model on unit and
# random networks.)
_EDGE_DIVISOR_IS_SUBDIAGONAL = np.array([True, False, True, False])  # N, E, S, W


def _extract_stack(tilde: np.ndarray):
    """Spike and edge estimates ``(A, 8m - 4)`` of a ``(A, 4, m, m)`` stack of reductions.

    The values are in ``PeelExtraction`` order, spikes then edges.  Also
    returns the refusal of each item with a vanishing edge divisor.
    """
    n_items, m = len(tilde), tilde.shape[-1]
    spikes = np.diagonal(tilde, axis1=2, axis2=3)
    divisor = np.where(
        _EDGE_DIVISOR_IS_SUBDIAGONAL[:, None],
        np.diagonal(tilde, offset=-1, axis1=2, axis2=3),
        np.diagonal(tilde, offset=1, axis1=2, axis2=3),
    )
    product = spikes[..., :-1] * spikes[..., 1:]
    too_small = (divisor == 0.0) | (np.abs(divisor) < DIVISOR_FLOOR * np.abs(product))
    errors = {}
    for i, flat in _first_flags(too_small).items():
        f, j = divmod(flat, m - 1)
        errors[i] = ZeroDivisorError(
            f"face {FACES[f]} edge {(f * m + j + 1, f * m + j + 2)}: divisor "
            f"{float(divisor[i, f, j])!r} too small for spike product {float(product[i, f, j])!r}"
        )
    edges = (product / divisor).reshape(n_items, 4 * m - 4)
    return np.concatenate([spikes.reshape(n_items, 4 * m), edges], axis=1), errors


def _flag_texts(m: int, values: np.ndarray) -> tuple[str, ...]:
    """One layer's nonpositive or non-finite estimates, face by face, spikes first."""
    found = []
    for p in np.flatnonzero(~_positive_finite(values)).tolist():
        if p < 4 * m:
            key, what = (p // m, 0, p), f"spike {p + 1}"
        else:
            f, j = divmod(p - 4 * m, m - 1)
            key, what = (f, 1, p), f"edge {(f * m + j + 1, f * m + j + 2)}"
        found.append((key, f"{what}: nonpositive estimate {float(values[p])!r}"))
    return tuple(text for _, text in sorted(found))


def extract_boundary_conductances(lam) -> PeelExtraction:
    """Read all spike and boundary-edge conductances of a response matrix's outer ring.

    ``lam`` is ``4m``-by-``4m``.  The spike at face-local position ``j`` is
    the ``j``-th diagonal entry of that face's reduction; the edge between
    positions ``j`` and ``j+1`` divides the spike product by the informative
    off-diagonal entry (``[j+1, j]`` for faces N and S, ``[j, j+1]`` for E
    and W).

    Raises:
        DimensionMismatchError: ``lam`` does not have a response matrix's shape.
        SingularBlockError: an opposite-face block's condition number
            reaches ``1 / PIVOT_FLOOR``, which signals a
            degenerate or overly noisy response matrix.
        ZeroDivisorError: an edge divisor is too small.
    """
    a = _response_entries(lam)
    m = a.shape[0] // 4
    with np.errstate(all="ignore"):  # a refusal below is the report, as in _peel_stack
        tilde, _, errors = _tilde_stack(a[None])
        if not errors:
            values, errors = _extract_stack(tilde)
    if errors:
        raise errors[0]
    return PeelExtraction(m, values[0, : 4 * m], values[0, 4 * m :], _flag_texts(m, values[0]))


def _square(lam) -> np.ndarray:
    """A fresh copy of a square matrix, or of a ``ResponseMatrix``'s entries."""
    a = matrixkit.as_matrix(lam.entries if isinstance(lam, ResponseMatrix) else lam)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def apply_spike_removal(lam, node: int, gamma: float) -> np.ndarray:
    """Response matrix after deleting the spike at boundary index ``node``.

    The returned matrix describes the network with that resistor removed;
    index ``node`` afterwards refers to the interior node the spike was
    attached to, which has become a boundary node.

    Raises:
        InvalidConductanceError: ``gamma`` must be a positive, finite real
            number (a ``bool`` is not one).
        DegenerateDeltaError: the diagonal minus ``gamma`` is numerically
            zero, i.e. ``gamma`` is inconsistent with the matrix.
    """
    a = _square(lam)
    n = a.shape[0]
    i = _as_int(node, "boundary index", 1, n) - 1
    error = InvalidConductanceError
    g = _as_number(gamma, "spike conductance", "positive", _positive_finite, error)
    diag = a[i, i]
    delta = diag - g
    if abs(delta) <= DELTA_FLOOR * abs(diag):
        raise DegenerateDeltaError(
            f"node {node}: removing {gamma!r} from diagonal {diag!r} leaves delta {delta!r}"
        )
    others = np.arange(n) != i
    row = a[i, others]
    col = a[others, i]
    out = np.empty_like(a)
    out[np.ix_(others, others)] = a[np.ix_(others, others)] - np.outer(col, row) / delta
    out[i, others] = -(g / delta) * row
    out[others, i] = -(g / delta) * col
    out[i, i] = -g - g * g / delta
    return out


def apply_edge_removal(lam, i: int, j: int, gamma_prime: float) -> np.ndarray:
    """Response matrix after deleting a resistor joining boundary nodes i, j.

    Purely additive: subtracts the conductance from both diagonals and adds
    it to the two off-diagonal entries.  Any real ``gamma_prime`` is taken,
    a nonpositive one included; a ``bool`` or a non-number raises ``ValueError``.
    """
    a = _square(lam)
    n = a.shape[0]
    i, j = _as_int(i, "boundary index", 1, n), _as_int(j, "boundary index", 1, n)
    if i == j:
        raise ValueError("edge endpoints must differ")
    g = _as_number(gamma_prime, "edge conductance", "a number")
    out = a.copy()
    out[i - 1, i - 1] -= g
    out[j - 1, j - 1] -= g
    out[i - 1, j - 1] += g
    out[j - 1, i - 1] += g
    return out


# ---------------------------------------------------------------------------
# Peeling

@dataclass
class LayerDiagnostics:
    """What one boundary layer looked like while it was being extracted."""

    layer: int
    length: int
    condition: dict[str, float]
    residual_max: float | None = None
    flags: tuple[str, ...] = ()


def _shared_anchors(m: int) -> list[list[int]]:
    """Boundary indices of a length-``m`` layer grouped by their anchor in ``_frame(m)``.

    Each group is in index order and the groups go by their lowest index,
    so for ``m >= 3`` the four corner pairs come lower index first.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for b, anchor in enumerate(_frame(m)[:, 1].tolist(), start=1):
        groups.setdefault(tuple(anchor), []).append(b)
    return list(groups.values())


def removal_schedule(
    m: int, extraction: PeelExtraction, corner_low_first: bool = True
) -> list[tuple]:
    """Canonical removal order for one boundary layer of current length ``m``.

    Corner anchors carry two spikes; only the first removal at an anchor
    may use the spike rule (its far end must still be interior), so one
    spike per corner goes first and the partner is removed as an edge
    between boundary indices afterwards.  ``corner_low_first`` picks the
    pair's lower index for the spike rule (the canonical choice).  Each
    anchor is then labeled by the index whose spike went by the spike
    rule, and the tangential ring edges follow, addressed via the labels
    of their two anchors.
    """
    m = _as_int(m, "current length")
    if m < 3:
        raise ValueError(f"peeling needs current length >= 3, got {m}")
    groups = _shared_anchors(m)
    label = {b: group[0 if corner_low_first else -1] for group in groups for b in group}
    spikes, edges = extraction.spikes, extraction.edges
    steps: list[tuple] = [
        ("spike", b, float(spikes[b - 1])) for b in range(1, 4 * m + 1) if label[b] == b
    ]
    steps += [
        ("edge", b, label[b], float(spikes[b - 1]))
        for group in groups for b in group if label[b] != b
    ]
    steps += [
        ("edge", label[f * m + j], label[f * m + j + 1], float(edges[f * (m - 1) + j - 1]))
        for f in range(4) for j in range(1, m)
    ]
    return steps


def isolated_indices(m: int) -> tuple[int, ...]:
    """Boundary indices whose rows become zero after the layer's removals.

    These are the indices whose anchor is shared: the four old boundary
    nodes whose spikes were removed as edges, plus the four corner anchors,
    which lose all incident edges.
    """
    groups = _shared_anchors(_as_int(m, "current length"))
    return tuple(sorted(b for group in groups if len(group) > 1 for b in group))


def apply_schedule(lam: np.ndarray, steps: Sequence[tuple]) -> np.ndarray:
    cur = lam
    for step in steps:
        if step[0] == "spike":
            _, node, gamma = step
            cur = apply_spike_removal(cur, node, gamma)
        elif step[0] == "edge":
            _, i, j, gamma_p = step
            cur = apply_edge_removal(cur, i, j, gamma_p)
        else:
            raise ValueError(f"unknown removal step {step!r}")
    return cur


@dataclass(frozen=True)
class _RingPlan:
    """Index arrays of the canonical removals for one current length ``m``.

    Compiled from ``removal_schedule``, so the block form follows the same
    order as the step-by-step reference.  ``values`` below is a layer's
    spikes followed by its tangential edges, both in ``PeelExtraction``
    order.  ``order`` lists the 0-based indices whose spikes go by the
    spike rule (the first ``n_spikes``) and then the four deferred corner
    partners; ``inverse`` undoes that permutation.  The edge removals are
    one scatter-add of ``signs * values[gather]`` at ``(rows, cols)``.
    """

    n_spikes: int
    order: np.ndarray
    inverse: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    signs: np.ndarray
    gather: np.ndarray
    gone: np.ndarray
    survivors: np.ndarray


@lru_cache(maxsize=None)
def _ring_plan(m: int) -> _RingPlan:
    n = 4 * m
    # An extraction whose every value is its own slot in ``values``.
    slots = PeelExtraction(length=m, spikes=np.arange(n), edges=np.arange(n, 2 * n - 4))
    steps = removal_schedule(m, slots)
    spiked = [step[1] - 1 for step in steps if step[0] == "spike"]
    edges = [step[1:] for step in steps if step[0] == "edge"]
    i = np.array([e[0] for e in edges], dtype=np.intp) - 1
    j = np.array([e[1] for e in edges], dtype=np.intp) - 1
    order = np.concatenate([spiked, np.setdiff1d(np.arange(n), spiked)])
    gone = np.array(isolated_indices(m), dtype=np.intp) - 1
    plan = _RingPlan(
        n_spikes=len(spiked),
        order=order,
        inverse=np.argsort(order),
        rows=np.stack([i, j, i, j], axis=1).ravel(),
        cols=np.stack([i, j, j, i], axis=1).ravel(),
        signs=np.tile([-1.0, -1.0, 1.0, 1.0], len(edges)),
        gather=np.repeat([int(e[2]) for e in edges], 4),
        gone=gone,
        survivors=np.setdiff1d(np.arange(n), gone),
    )
    for value in vars(plan).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)  # shared by every caller through the cache
    return plan


def _spike_refusals(spikes: np.ndarray) -> dict[int, RnetError]:
    """Refusal of each item of a ``(A, 4m)`` stack with a nonpositive or non-finite spike.

    Checked over all 4m spikes: a corner partner is removed by the additive
    edge rule, which would accept a nonpositive value without complaint.
    """
    return {
        i: InvalidConductanceError(
            f"spike {j + 1}: conductance must be positive, got {float(spikes[i, j])!r}"
        )
        for i, j in _first_flags(~_positive_finite(spikes)).items()
    }


def _remove_ring(lam: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, dict[int, RnetError]]:
    """All canonical removals of one layer as one block update, item by item of a stack.

    ``values`` holds each item's spikes followed by its tangential edges.
    The non-corner spike removals (index set S, the rest R) commute, so
    together they are one Schur update with ``D = lam_SS - diag(gamma)``:
    a single solve ``X = D^-1 [lam_SR | diag(gamma)]`` gives every block of
    the result.  The edge removals that follow are purely additive.  Also
    returns the refusal of each item whose ``D`` is singular.
    """
    n_items = len(lam)
    plan = _ring_plan(lam.shape[1] // 4)
    ns = plan.n_spikes
    gamma = values[:, plan.order[:ns]]
    a = lam.take(plan.order, axis=1).take(plan.order, axis=2)  # S first, then R
    diag_gamma = np.zeros((n_items, ns, ns))
    diag_gamma[:, np.arange(ns), np.arange(ns)] = gamma
    d = a[:, :ns, :ns] - diag_gamma
    x = _solve_stack(d, np.concatenate([a[:, :ns, ns:], diag_gamma], axis=2))
    nr = a.shape[1] - ns
    x_r, x_g = x[..., :nr], x[..., nr:]
    # D^-1 = X_gamma / gamma, so the condition number costs no extra solve.
    d_norm = np.abs(d).sum(axis=2).max(axis=1)
    cond = d_norm * np.abs(x_g / gamma[:, None, :]).sum(axis=2).max(axis=1)
    errors = {  # with finite input only an exactly singular D gives a NaN condition
        i: DegenerateDeltaError(
            "spike block is exactly singular" if np.isnan(cond[i]) else
            f"spike block is singular: condition {cond[i]:.3e} at or above {1.0 / DELTA_FLOOR:.0e}"
        )
        for i in _first_flags(~(cond < 1.0 / DELTA_FLOOR))
    }
    a_rs = a[:, ns:, :ns]
    out = np.empty_like(a)
    out[:, :ns, :ns] = -gamma[:, :, None] * x_g - diag_gamma
    out[:, :ns, ns:] = -gamma[:, :, None] * x_r
    out[:, ns:, :ns] = -a_rs @ x_g
    out[:, ns:, ns:] = a[:, ns:, ns:] - a_rs @ x_r
    out = out.take(plan.inverse, axis=1).take(plan.inverse, axis=2)
    batch = np.arange(n_items)[:, None]
    np.add.at(out, (batch, plan.rows, plan.cols), plan.signs * values[:, plan.gather])
    return out, errors


def _compact(lam: np.ndarray, stripped: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Delete the isolated rows and columns of each stripped item.

    Returns the compacted stack, each item's isolated-row residual
    max-norm and the diagonal scale of ``lam`` that it is judged against.
    """
    plan = _ring_plan(lam.shape[1] // 4)
    scale = np.abs(np.diagonal(lam, axis1=1, axis2=2)).max(axis=1)
    scale[scale == 0.0] = 1.0
    residual = np.abs(stripped[:, plan.gone, :]).max(axis=(1, 2))
    compact = stripped.take(plan.survivors, axis=1).take(plan.survivors, axis=2)
    return compact, residual, scale


def _residual_note(residual: float, scale: float) -> str | None:
    """The warning a layer's residual earns beyond ``RESIDUAL_WARN``, if any."""
    if not residual > RESIDUAL_WARN * scale:
        return None
    return (
        f"isolated-row residual {residual:.3e} "
        f"exceeds {RESIDUAL_WARN:.0e} * diagonal scale {scale:.3e}"
    )


def peel_layer(
    lam,
    extraction: PeelExtraction,
    schedule: Sequence[tuple] | None = None,
) -> tuple[np.ndarray, float]:
    """Remove the outer ring of ``lam`` and compact it to the ``4(m-2)``-order response matrix.

    Returns that matrix and the residual max-norm of the deleted rows.  By
    default the whole layer goes in one block update; an explicit
    ``schedule`` is applied one removal at a time instead, which is the
    reference the block form is checked against.

    Which rows get deleted is decided by lattice combinatorics, never by
    thresholding; their residual is warned about beyond ``RESIDUAL_WARN``
    relative to the largest diagonal, because under noise the "zero" rows
    are merely small.  A large residual warns and proceeds.

    Raises:
        DimensionMismatchError: ``lam`` is not a response matrix of order ``4 * extraction.length``.
        InvalidConductanceError: any of the layer's spikes is nonpositive
            or not finite, whichever rule would remove it.
        DegenerateDeltaError: the spikes are inconsistent with the matrix.
    """
    a, m = _response_entries(lam), extraction.length
    if a.shape != (4 * m, 4 * m):
        raise DimensionMismatchError(f"extraction is for length {m}, matrix has shape {a.shape}")
    if m < 3:
        raise ValueError(f"peeling needs current length >= 3, got {m}")
    errors = _spike_refusals(extraction.spikes[None])
    if not errors:
        if schedule is None:
            values = np.concatenate([extraction.spikes, extraction.edges])
            stripped, errors = _remove_ring(a[None], values[None])
        else:
            stripped = apply_schedule(a, schedule)[None]
    if errors:
        raise errors[0]

    compact, residual, scale = _compact(a[None], stripped)
    note = _residual_note(residual[0], scale[0])
    if note is not None:
        _warnings.warn(note, RuntimeWarning, stacklevel=2)
    return compact[0], float(residual[0])


# ---------------------------------------------------------------------------
# Full reconstruction

@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Every edge conductance recovered from a response matrix.

    Under noisy input an estimate may come out nonpositive; it is reported
    rather than clamped.  ``resistances`` is derived from ``conductances``
    (a zero conductance gives an infinite resistance).
    """

    conductances: EdgeValues
    resistances: EdgeValues = field(init=False)
    report: tuple[LayerDiagnostics, ...]
    elapsed_ms: float
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        resistances = EdgeValues(self.spec, _reciprocal(self.conductances.array))
        object.__setattr__(self, "resistances", resistances)

    @property
    def spec(self) -> LatticeSpec:
        return self.conductances.spec


@lru_cache(maxsize=None)
def _catalog_slots(k: int) -> np.ndarray:
    """Slot of each catalog edge in the ring-major layout that ``_peel_stack`` fills.

    Innermost ring first: ring ``m`` holds its estimates in ``PeelExtraction``
    order at slots ``2(m-1)(m-2)`` up to ``2m(m+1)``, the same for every length.
    """
    spec, ids = LatticeSpec(k), []
    for m in range(2 - k % 2, k + 1, 2):
        layer = (k - m) // 2
        ids += [layer_spike_edge(spec, layer, j) for j in range(1, 4 * m + 1)]
        ids += [layer_tangential_edge(spec, layer, face, i) for face in FACES for i in range(1, m)]
    slot = {e: s for s, e in enumerate(ids)}
    slots = np.array([slot[e] for e in spec.edges], dtype=np.intp)
    slots.setflags(write=False)  # shared by every caller through the cache
    return slots


def _leave(errors: dict[int, RnetError], m: int, k_of: list, items, refusals, *arrays):
    """Record each refusal against its item and its layer at ring ``m``; drop those items."""
    if not errors:
        return (items, *arrays)
    keep = np.ones(len(items), dtype=bool)
    for i, exc in errors.items():
        refusals[items[i]] = annotate_layer(exc, (k_of[items[i]] - m) // 2)
        keep[i] = False
    return tuple(a[keep] for a in (items, *arrays))


def _peel_stack(lams: Sequence[np.ndarray]):
    """Peel stacks of response matrices of any lengths in one pass, ring length ``m`` downward.

    A ``(B, 4k, 4k)`` stack's items join at ``m == k``, and each ring runs
    every stage on all items then at length ``m``, each at its own layer
    ``(k - m) / 2``.  An item leaves at the first check that refuses it, in
    the order one reconstruction meets them: opposite-block condition, edge
    divisors, spike positivity, spike block.  Returns, per stack: the
    catalog-ordered conductances ``(B, E)``, NaN from where a refusal
    stopped the peel; each item's refusal (annotated with its layer) or
    ``None``; the diagnostics ``(condition, residual, scale)``
    indexed ``[layer, item]``, NaN where an item did not get that far; and
    each item's ms: each ring's wall time, set-up it triggers included, is
    split evenly among the items it peeled.  Warns about nothing.
    """
    ks, counts = [lam.shape[1] // 4 for lam in lams], [len(lam) for lam in lams]
    first = list(itertools.accumulate(counts, initial=0))  # each stack's first item
    k_of = [k for k, count in zip(ks, counts) for _ in range(count)]
    n_items, longest = first[-1], max(ks)
    g = np.full((n_items, 2 * longest * (longest + 1)), np.nan)  # ring-major, see _catalog_slots
    refusals: list[RnetError | None] = [None] * n_items
    # Diagnostics are kept by ring length: a length-k item's layer L is row k - 2L.
    condition = np.full((longest + 1, n_items, 4), np.nan)
    residual, scale = np.full((2, longest + 1, n_items), np.nan)
    ms = np.zeros(n_items)
    pending = {}  # ring length -> the (items, stack) parts that enter that ring
    for k, lo, hi, lam in zip(ks, first, first[1:], lams):
        pending.setdefault(k, []).append((np.arange(lo, hi), lam))
    with np.errstate(all="ignore"):
        while pending:
            m, t0 = max(pending), time.perf_counter()
            parts = pending.pop(m)
            entered, cur = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
            items = entered
            tilde, condition[m, items], errors = _tilde_stack(cur)
            items, cur, tilde = _leave(errors, m, k_of, items, refusals, cur, tilde)
            values, errors = _extract_stack(tilde)
            items, cur, values = _leave(errors, m, k_of, items, refusals, cur, values)
            g[items, 2 * (m - 1) * (m - 2) : 2 * m * (m + 1)] = values
            if m > 2 and len(items):
                errors = _spike_refusals(values[:, : 4 * m])
                items, cur, values = _leave(errors, m, k_of, items, refusals, cur, values)
            if m > 2 and len(items):
                stripped, errors = _remove_ring(cur, values)
                items, cur, stripped = _leave(errors, m, k_of, items, refusals, cur, stripped)
                cur, residual[m, items], scale[m, items] = _compact(cur, stripped)
                if len(items):
                    pending.setdefault(m - 2, []).append((items, cur))
            ms[entered] += (time.perf_counter() - t0) * 1000.0 / len(entered)
    return [
        (
            g[lo:hi, _catalog_slots(k)],
            refusals[lo:hi],
            tuple(d[k:0:-2, lo:hi] for d in (condition, residual, scale)),
            ms[lo:hi],
        )
        for k, lo, hi in zip(ks, first, first[1:])
    ]


def reconstruct_full(lam: ResponseMatrix | np.ndarray, k: int) -> ReconstructionResult:
    """Recover all ``2k^2 + 2k`` conductances of a length-``k`` network.

    The input must already be symmetrized if it came from a noisy
    measurement; a relative asymmetry above ``ASYMMETRY_WARN`` only warns.
    Solver failures on degenerate input propagate with the peel layer
    number prepended to the message, after the residual warnings of the
    layers peeled before it.
    """
    t0 = time.perf_counter()
    entries = _response_entries(lam)
    spec = LatticeSpec(k)
    k = spec.length
    if entries.shape != (4 * k, 4 * k):
        raise DimensionMismatchError(
            f"expected a {4 * k}x{4 * k} response matrix for length {k}, got {entries.shape}"
        )
    notes: list[str] = []
    with np.errstate(over="ignore"):  # an overflow reads as infinite asymmetry
        asymmetry = np.abs(entries - entries.T).max() / (np.abs(entries).max() or 1.0)
    if asymmetry > ASYMMETRY_WARN:
        note = f"input asymmetry {asymmetry:.3e} above {ASYMMETRY_WARN:.0e}; symmetrize first"
        notes.append(note)
        _warnings.warn(note, RuntimeWarning, stacklevel=2)
    g, refusals, (condition, residual, diag_scale), _ = _peel_stack([entries[None]])[0]
    report, refusal = [], refusals[0]
    ring_major = np.empty_like(g[0])
    ring_major[_catalog_slots(k)] = g[0]
    for layer in range(len(residual) if refusal is None else refusal.layer):
        note = _residual_note(residual[layer, 0], diag_scale[layer, 0])
        if note is not None:
            _warnings.warn(f"layer {layer}: {note}", RuntimeWarning, stacklevel=1)
        m = spec.length - 2 * layer
        diag = LayerDiagnostics(
            layer=layer,
            length=m,
            condition=dict(zip(FACES, condition[layer, 0].tolist())),
            residual_max=float(residual[layer, 0]) if m > 2 else None,
            flags=_flag_texts(m, ring_major[2 * (m - 1) * (m - 2) : 2 * m * (m + 1)]),
        )
        notes.extend(f"layer {layer}: {f}" for f in diag.flags)
        report.append(diag)
    if refusal is not None:
        raise refusal

    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return ReconstructionResult(
        conductances=EdgeValues(spec, g[0]),
        report=tuple(report),
        elapsed_ms=elapsed_ms,
        warnings=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Reconstruction document serialization

RECONSTRUCTION_SCHEMA = "rnet-recon/1"


def _json_number(x: float):
    # JSON has no Inf/NaN; emit null for the rare non-finite estimate.
    return x if math.isfinite(x) else None


def reconstruction_to_json(result: ReconstructionResult) -> str:
    spec = result.spec
    return _write_document(
        RECONSTRUCTION_SCHEMA, spec,
        edges=[
            {"id": name, "conductance": _json_number(g), "resistance": _json_number(r)}
            for name, g, r in zip(
                _edge_names(spec.length),
                result.conductances.array.tolist(),
                result.resistances.array.tolist(),
            )
        ],
        diagnostics={
            "layers": [
                {
                    "layer": d.layer,
                    "condition": [_json_number(d.condition[f]) for f in FACES],
                    "residualMax": _json_number(d.residual_max)
                    if d.residual_max is not None
                    else None,
                }
                for d in result.report
            ],
            "elapsedMs": result.elapsed_ms,
        },
    )


def reconstruction_edges_from_json(text: str) -> tuple[LatticeSpec, EdgeValues]:
    """Load ``(spec, per-edge resistance)`` from a reconstruction document.

    A ``null`` or absent resistance loads as NaN.
    """
    spec, records = _read_document(text, RECONSTRUCTION_SCHEMA, "edges", list)
    if not all(isinstance(item, dict) and "id" in item for item in records):
        raise NetworkFormatError("malformed edge record")
    pairs = ((item["id"], item.get("resistance")) for item in records)
    pairs = ((key, math.nan if value is None else value) for key, value in pairs)
    return spec, _edge_values(
        spec, pairs, "resistance", "a number or null", lambda r: np.ones(r.shape, dtype=bool)
    )
