"""Square resistor-network topology, Kirchhoff matrix and forward model.

Conventions frozen here and relied on everywhere else:

* A network of length ``k`` has a ``k``-by-``k`` grid of interior nodes,
  addressed ``(row, col)`` with ``(1, 1)`` at the top left, plus ``4k``
  boundary nodes numbered clockwise starting from the top-left corner:
  north face ``1..k`` (left to right), east ``k+1..2k`` (top to bottom),
  south ``2k+1..3k`` (right to left), west ``3k+1..4k`` (bottom to top).
* Every boundary node hangs off one interior anchor by a "spike" resistor;
  corner interior nodes carry two spikes, one from each adjacent face.
* Interior resistors join horizontally or vertically adjacent grid nodes.
  Total resistor count is ``4k + 2k(k-1) = 2k^2 + 2k``.
* The boundary response matrix maps boundary voltages to boundary
  currents (positive = flowing into the network).  It is the Schur
  complement of the Kirchhoff matrix onto the boundary nodes: positive
  diagonal, nonpositive off-diagonals, zero row sums.
"""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import matrixkit
from .errors import DimensionMismatchError, NetworkFormatError, SingularMatrixError

FACES = ("N", "E", "S", "W")


@dataclass(frozen=True)
class EdgeId:
    """Stable name of one resistor.

    ``S:<b>`` is the spike of boundary node ``b``; ``H:<r>:<c>`` joins
    interior ``(r, c)``-``(r, c+1)``; ``V:<r>:<c>`` joins ``(r, c)``-``(r+1, c)``.
    """

    kind: str
    i: int
    j: int = 0

    @staticmethod
    def spike(b: int) -> "EdgeId":
        return EdgeId("S", b)

    @staticmethod
    def horizontal(r: int, c: int) -> "EdgeId":
        return EdgeId("H", r, c)

    @staticmethod
    def vertical(r: int, c: int) -> "EdgeId":
        return EdgeId("V", r, c)

    def __str__(self) -> str:
        if self.kind == "S":
            return f"S:{self.i}"
        return f"{self.kind}:{self.i}:{self.j}"

    @staticmethod
    def parse(text: str) -> "EdgeId":
        try:
            kind, *numbers = text.split(":")
            if all(n.isascii() and n.isdigit() for n in numbers):  # int() also takes "1_0", " 2"
                if kind == "S" and len(numbers) == 1:
                    return EdgeId.spike(int(numbers[0]))
                if kind in ("H", "V") and len(numbers) == 2:
                    return EdgeId(kind, int(numbers[0]), int(numbers[1]))
        except (AttributeError, ValueError):  # not a string; more digits than int() takes
            pass
        raise NetworkFormatError(f"malformed edge id {text!r}")


@dataclass(frozen=True)
class LatticeSpec:
    """Topology of a length-``k`` square resistor network."""

    length: int

    def __post_init__(self):
        object.__setattr__(self, "length", _as_int(self.length, "network length"))

    @property
    def n_boundary(self) -> int:
        return 4 * self.length

    @property
    def n_edges(self) -> int:
        return 2 * self.length * self.length + 2 * self.length

    @property
    def edges(self) -> tuple[EdgeId, ...]:
        """Canonical edge catalog: spikes, then horizontals, then verticals."""
        return _edge_catalog(self.length)


@lru_cache(maxsize=None)
def _edge_catalog(k: int) -> tuple[EdgeId, ...]:
    edges = [EdgeId.spike(b) for b in range(1, 4 * k + 1)]
    edges += [EdgeId.horizontal(r, c) for r in range(1, k + 1) for c in range(1, k)]
    edges += [EdgeId.vertical(r, c) for r in range(1, k) for c in range(1, k + 1)]
    return tuple(edges)


# A Python or numpy bool passes for a number in arithmetic, but is never a
# length, an index, a seed, a noise level, a bound or a style knob.
_BOOLS = (bool, np.bool_)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)  # shared by every caller through a cache
    return a


@lru_cache(maxsize=None)
def _frame(m: int) -> np.ndarray:
    """Grid ``(row, col)`` of every boundary node of a length-``m`` network and of its anchor.

    Row ``b - 1`` holds ``(node, anchor)`` for boundary node ``b``.  The
    boundary nodes sit on the frame around the ``m``-by-``m`` grid (row 0
    north, column ``m+1`` east, row ``m+1`` south, column 0 west), and each
    anchor is the grid node next to its boundary node.  This is the one
    place that knows the clockwise numbering; layer ``L`` of a length-``k``
    peel is ``_frame(k - 2L)`` shifted by ``L``.  Besides the geometry
    below, the peel's removal schedule reads it: two boundary nodes with
    one anchor are a corner pair.
    """
    i = np.arange(1, m + 1)
    rev, zero, far = m + 1 - i, np.zeros_like(i), np.full_like(i, m + 1)
    nodes = np.concatenate([
        np.stack([zero, i], axis=1),   # north, left to right
        np.stack([i, far], axis=1),    # east, top to bottom
        np.stack([far, rev], axis=1),  # south, right to left
        np.stack([rev, zero], axis=1),  # west, bottom to top
    ])
    return _read_only(np.stack([nodes, np.clip(nodes, 1, m)], axis=1))


@lru_cache(maxsize=None)
def _edge_cells(k: int) -> np.ndarray:
    """Grid ``(row, col)`` of both ends of every edge, shape ``(E, 2, 2)``, in catalog order."""
    grid = np.stack(np.mgrid[1 : k + 1, 1 : k + 1], axis=-1)
    horizontal = np.stack([grid[:, :-1], grid[:, 1:]], axis=2).reshape(-1, 2, 2)
    vertical = np.stack([grid[:-1], grid[1:]], axis=2).reshape(-1, 2, 2)
    return _read_only(np.concatenate([_frame(k), horizontal, vertical]))


@lru_cache(maxsize=None)
def _edge_endpoints(k: int) -> np.ndarray:
    """Kirchhoff-ordering node indices of both ends of every edge, shape ``(E, 2)``."""
    index = np.empty((k + 2, k + 2), dtype=np.intp)  # the frame's four corners stay unset
    index[1:-1, 1:-1] = 4 * k + np.arange(k * k).reshape(k, k)
    nodes = _frame(k)[:, 0]
    index[nodes[:, 0], nodes[:, 1]] = np.arange(4 * k)
    cells = _edge_cells(k)
    return _read_only(index[cells[..., 0], cells[..., 1]])


@lru_cache(maxsize=None)
def _edge_names(k: int) -> tuple[str, ...]:
    """Canonical id of every catalog edge, in catalog order."""
    return tuple(str(e) for e in _edge_catalog(k))


@lru_cache(maxsize=None)
def _name_slots(k: int) -> dict[str, int]:
    return {name: slot for slot, name in enumerate(_edge_names(k))}


@lru_cache(maxsize=None)
def _edge_slots(k: int) -> dict[EdgeId, int]:
    return {edge: slot for slot, edge in enumerate(_edge_catalog(k))}


def build_lattice(k: int) -> LatticeSpec:
    """Topology of the length-``k`` network, with its ordered edge catalog."""
    return LatticeSpec(k)


def _as_number(value, what: str, rule: str = "a real number", accept=None, error=ValueError):
    """``value`` as a float: a real number (a ``bool`` is not one) in float range.

    With ``_as_int``, the one rule for what counts as a number, an integer and a
    bool.  ``accept`` must take the float too; a refusal is an ``error`` worded
    ``<what> must be <rule>, got <value!r>``.
    """
    number = None
    if not isinstance(value, _BOOLS) and isinstance(value, numbers.Real):
        try:
            number = float(value)
        except OverflowError:  # an int beyond float range
            pass
    if number is None or (accept is not None and not accept(number)):
        raise error(f"{what} must be {rule}, got {value!r}")
    return number


def _as_int(value, what: str, lo: int = 1, hi: float = math.inf) -> int:
    """``value`` as an ``int`` in ``lo..hi`` read by ``_as_number``; unbounded, ``lo`` is 0 or 1."""
    unbounded = ("a nonnegative integer", "a positive integer")
    rule = unbounded[lo] if hi == math.inf else f"an integer in {lo}..{hi}"
    integral = isinstance(value, numbers.Integral)
    _as_number(value, what, rule, lambda _: integral and lo <= value <= hi)
    return int(value)


def _check_catalog_array(spec: LatticeSpec, array: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` unless ``array`` holds ``spec.n_edges`` real numbers."""
    if array.shape != (spec.n_edges,) or array.dtype.kind not in "iuf":
        raise ValueError(
            f"expected {spec.n_edges} {what} numbers in catalog order, "
            f"got an array of shape {array.shape} and dtype {array.dtype}"
        )


class EdgeValues(Mapping):
    """Read-only ``{EdgeId: float}`` view of one value per edge.

    The values live in ``array``, a read-only float64 copy, in catalog
    order (``spec.edges``), of the ``spec.n_edges`` real numbers given;
    every computation reads the array.  A lookup by ``EdgeId`` finds the
    edge's slot, so no per-edge dict is built.
    """

    __slots__ = ("spec", "array")

    def __init__(self, spec: LatticeSpec, array):
        array = np.asarray(array)
        _check_catalog_array(spec, array, "per-edge")
        self.spec, self.array = spec, array.astype(np.float64)
        self.array.setflags(write=False)

    def __getitem__(self, edge: EdgeId) -> float:
        return float(self.array[_edge_slots(self.spec.length)[edge]])

    def __iter__(self) -> Iterator[EdgeId]:
        return iter(self.spec.edges)

    def __len__(self) -> int:
        return self.spec.n_edges

    def __repr__(self) -> str:
        return f"EdgeValues(length={self.spec.length}, array={self.array!r})"

    def __reduce__(self):  # a copy or an unpickled view holds its own read-only array
        return EdgeValues, (self.spec, self.array)


def _edge_values(spec: LatticeSpec, values, what: str, rule: str, accept: Callable) -> EdgeValues:
    """Checked catalog-ordered view of per-edge ``values``, for every container and document.

    ``values`` is an ``EdgeValues`` of ``spec`` (kept as it is), a mapping or an
    iterator of ``(key, value)`` pairs that name every edge once, or else
    ``spec.n_edges`` catalog-ordered numbers as an array-like.  A key is an
    ``EdgeId`` or its id text; an alias such as ``S:01`` names ``S:1``, so
    beside ``S:1`` it is a repeat.  Each value must be a number (``bool`` is
    not one) that passes the vectorized ``accept``; ``rule`` says what that
    asks for.

    Raises:
        ValueError: for an array-like of another shape or dtype.
        NetworkFormatError: for a malformed id, a repeated edge or another edge
            set, and only then for a refused value, named as given.
    """
    given = None
    if isinstance(values, EdgeValues) and values.spec == spec:
        checked = values
    elif not isinstance(values, (Mapping, Iterator)):
        values = np.asarray(values)
        _check_catalog_array(spec, values, what)
        checked = EdgeValues(spec, values)
    else:
        pairs = list(values.items() if isinstance(values, Mapping) else values)
        # A canonical id finds its slot by name; any other key is parsed first.  Only one
        # pair per edge builds the name table, so a huge declared length is refused by
        # the count below without building its catalog.
        names = _name_slots(spec.length) if len(pairs) == spec.n_edges else {}
        by_slot = {}
        for key, value in pairs:
            name = str(key) if type(key) is EdgeId else key
            slot = names.get(name) if type(name) is str else None
            if slot is None:  # an alias, an edge outside the catalog, or a malformed id
                name = str(EdgeId.parse(name))
                slot = names.get(name, name)  # an edge outside the catalog stands for itself
            if slot in by_slot:
                raise NetworkFormatError(f"edge {name} named twice, the second time as {key!r}")
            by_slot[slot] = (key, value)
        if len(by_slot) != spec.n_edges:
            raise NetworkFormatError(
                f"{len(by_slot)} edges given for length {spec.length}, which has {spec.n_edges}"
            )
        extra = sorted(slot for slot in by_slot if type(slot) is str)
        if extra:
            missing = sorted(name for name, slot in names.items() if slot not in by_slot)
            raise NetworkFormatError(
                f"edge set mismatch for length {spec.length}: "
                f"missing {missing[:4]}, extra {extra[:4]}"
            )
        given = [by_slot[slot] for slot in range(spec.n_edges)]
        parsed = [_as_number(v, f"{what} of {k}", rule, error=NetworkFormatError) for k, v in given]
        checked = EdgeValues(spec, parsed)
    bad = ~accept(checked.array)
    if np.any(bad):
        slot = int(np.argmax(bad))
        key, value = given[slot] if given else (spec.edges[slot], float(checked.array[slot]))
        raise NetworkFormatError(f"{what} of {key} must be {rule}, got {value!r}")
    return checked


def _reciprocal(g: np.ndarray) -> np.ndarray:
    """``1 / g`` elementwise (resistance from conductance or back); a zero gives +inf."""
    return np.divide(1.0, g, out=np.full_like(g, math.inf), where=g != 0.0)


def _positive_finite(g):
    return np.isfinite(g) & (g > 0)


def _finite_nonnegative(g):
    return np.isfinite(g) & (g >= 0)


@dataclass(frozen=True)
class ConductanceMap:
    """Positive conductance assigned to every edge of a lattice.

    ``values`` may be a mapping keyed by ``EdgeId`` or id text, or a
    catalog-ordered array; either way it is held as an ``EdgeValues`` view
    of a read-only float64 array (``values.array``).
    """

    spec: LatticeSpec
    values: Mapping[EdgeId, float]

    def __post_init__(self):
        values = _edge_values(
            self.spec, self.values, "conductance", "positive and finite", _positive_finite
        )
        object.__setattr__(self, "values", values)

    def resistances(self) -> EdgeValues:
        return EdgeValues(self.spec, _reciprocal(self.values.array))

    def scaled(self, factor: float) -> "ConductanceMap":
        return ConductanceMap(self.spec, _as_number(factor, "scale factor") * self.values.array)


def uniform_conductances(spec: LatticeSpec, value: float = 1.0) -> ConductanceMap:
    return ConductanceMap(spec, dict.fromkeys(spec.edges, value))


def random_conductances(
    spec: LatticeSpec,
    rng: np.random.Generator,
    resistance_low: float = 1.0,
    resistance_high: float = 2.0,
) -> ConductanceMap:
    """Network with i.i.d. uniform resistances, drawn in catalog order."""
    return ConductanceMap(
        spec, _random_conductance_array(spec.n_edges, rng, resistance_low, resistance_high)
    )


def _random_conductance_array(
    n_edges: int, rng: np.random.Generator, resistance_low: float, resistance_high: float
) -> np.ndarray:
    """Catalog-ordered conductances of one network: the draw behind every random network."""
    lo = _as_number(resistance_low, "resistance_low", "positive and finite", _positive_finite)
    hi = _as_number(resistance_high, "resistance_high", "positive and finite", _positive_finite)
    if lo > hi:
        raise ValueError(f"need resistance_low <= resistance_high, got {lo!r} and {hi!r}")
    return 1.0 / rng.uniform(lo, hi, size=n_edges)


@dataclass(frozen=True, eq=False)
class ResponseMatrix:
    """The ``4k``-by-``4k`` boundary voltage-to-current map."""

    entries: np.ndarray

    def __post_init__(self):
        a = matrixkit.as_matrix(self.entries)
        n = a.shape[0]
        if a.shape != (n, n) or n % 4 or n == 0:
            raise DimensionMismatchError(
                f"response matrix must be square, of order 4k with k >= 1, got shape {a.shape}"
            )
        object.__setattr__(self, "entries", a)

    @property
    def length(self) -> int:
        return self.entries.shape[0] // 4


def _response_entries(lam) -> np.ndarray:
    """The entries of a ``ResponseMatrix``, or ``lam`` checked as one."""
    return (lam if isinstance(lam, ResponseMatrix) else ResponseMatrix(lam)).entries


@lru_cache(maxsize=None)
def _kirchhoff_plan(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and sign of each edge's four Laplacian entries, per edge.

    Entries are listed edge by edge in catalog order as ``uu, vv, uv, vu``,
    so one ``np.add.at`` accumulates every entry in the same order as an
    edge-by-edge loop would.
    """
    ends = _edge_endpoints(k)
    u, v = ends[:, 0], ends[:, 1]
    rows = np.stack([u, v, u, v], axis=1).ravel()
    cols = np.stack([u, v, v, u], axis=1).ravel()
    signs = np.tile([1.0, 1.0, -1.0, -1.0], len(ends))
    return _read_only(rows), _read_only(cols), _read_only(signs)


def _kirchhoff_stack(g: np.ndarray, k: int) -> np.ndarray:
    """Kirchhoff matrices of a ``(B, E)`` stack of catalog-ordered conductances."""
    rows, cols, signs = _kirchhoff_plan(k)
    n = 4 * k + k * k
    kirchhoff = np.zeros((len(g), n, n))
    batch = np.arange(len(g))[:, None]
    np.add.at(kirchhoff, (batch, rows, cols), np.repeat(g, 4, axis=1) * signs)
    return kirchhoff


def build_kirchhoff(net: ConductanceMap) -> np.ndarray:
    """Conductance-weighted graph Laplacian over boundary then interior nodes."""
    return _kirchhoff_stack(net.values.array[None], net.spec.length)[0]


def _eliminate_interior(kirchhoff: np.ndarray, k: int):
    """Schur complements of a ``(B, n, n)`` Kirchhoff stack onto the boundary.

    The interior is block tridiagonal in grid rows, so it is eliminated one
    row at a time: each step inverts one well-conditioned ``k``-by-``k`` row
    block per item (README, "Error level at k=14") and applies it to the
    row's coupling to the boundary (with the fill-in of earlier rows) and to
    the next row.  No LAPACK call or product is wider than ``4k``, so the
    bits depend on neither the BLAS thread count nor the stack.

    Returns the (unsymmetrized) response matrices and, per grid row, the
    couplings ``(x_b, x_c)`` times the row inverse, from which interior
    potentials follow by back substitution: ``phi_r = -(x_b @ u + x_c @ phi_{r+1})``.

    Raises:
        SingularMatrixError: if a row block cannot be inverted.
    """
    nb = 4 * k
    rows = [slice(nb + r * k, nb + (r + 1) * k) for r in range(k + 1)]
    lam = kirchhoff[:, :nb, :nb].copy()
    m_br, m_rb = kirchhoff[:, :nb, rows[0]], kirchhoff[:, rows[0], :nb]
    m_rr = kirchhoff[:, rows[0], rows[0]]
    steps = []
    for r in range(k):
        cur, nxt = rows[r], rows[r + 1]
        coupling = kirchhoff[:, cur, nxt]  # k-by-0 after the last row
        try:
            inv = np.linalg.inv(m_rr)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"interior row {r + 1}: {exc}") from None
        x_b, x_c = inv @ m_rb, inv @ coupling
        steps.append((x_b, x_c))
        lam -= m_br @ x_b
        back = kirchhoff[:, nxt, cur]
        m_br = kirchhoff[:, :nb, nxt] - m_br @ x_c
        m_rb = kirchhoff[:, nxt, :nb] - back @ x_b
        m_rr = kirchhoff[:, nxt, nxt] - back @ x_c
    return lam, steps


def _response_stack(kirchhoff: np.ndarray, k: int) -> np.ndarray:
    """Exactly symmetric response matrices of a ``(B, n, n)`` Kirchhoff stack."""
    return matrixkit._symmetrize(_eliminate_interior(kirchhoff, k)[0])


def response_matrix(net: ConductanceMap) -> ResponseMatrix:
    """Boundary response matrix: Schur complement eliminating interior nodes.

    The analytic result is symmetric; the returned matrix is symmetrized
    so that it is exactly so.
    """
    return ResponseMatrix(_response_stack(build_kirchhoff(net)[None], net.spec.length)[0])


@dataclass(frozen=True, eq=False)
class BoundaryResponse:
    """Currents induced at the boundary plus the interior potential profile."""

    currents: np.ndarray
    interior_potentials: np.ndarray


def forward_boundary_solve(net: ConductanceMap, voltages) -> BoundaryResponse:
    """Currents drawn at every boundary node under the given voltages.

    Also returns the interior node potentials (the harmonic extension of
    the boundary data), ordered row-major over the interior grid.  One
    elimination serves both: the currents equal ``response_matrix(net)``
    applied to the voltages, and the potentials back-substitute through
    the same per-row inverses.
    """
    spec = net.spec
    u = np.asarray(voltages, dtype=np.float64)
    if u.shape != (spec.n_boundary,):
        raise ValueError(f"expected {spec.n_boundary} boundary voltages, got shape {u.shape}")
    if not np.isfinite(u).all():
        raise ValueError("boundary voltages must be finite")
    lam, steps = _eliminate_interior(build_kirchhoff(net)[None], spec.length)
    currents = matrixkit._symmetrize(lam[0]) @ u
    potentials = []
    below = np.zeros(0)
    for x_b, x_c in reversed(steps):
        below = -(x_b[0] @ u + x_c[0] @ below)
        potentials.append(below)
    interior = np.concatenate(potentials[::-1])
    return BoundaryResponse(currents=currents, interior_potentials=interior)


# ---------------------------------------------------------------------------
# Layer geometry for the peeling reconstruction
#
# Layer 0 is the physical boundary; peeling layer L exposes interior ring
# L as the new boundary of a length k-2L sub-network.  Its boundary nodes
# and anchors are those of ``_frame(k - 2L)`` shifted inward by L, so
# ``_frame`` stays the single source of truth for the clockwise numbering,
# and the functions below only read it.

def layer_length(k: int, layer: int) -> int:
    k = _as_int(k, "network length")
    return k - 2 * _as_int(layer, "layer", 0, (k - 1) // 2)


def _grid_edge(p: np.ndarray, q: np.ndarray) -> EdgeId:
    """Interior edge joining the adjacent grid nodes ``p`` and ``q``."""
    (r, c), (r2, _) = sorted((tuple(p.tolist()), tuple(q.tolist())))
    return EdgeId.horizontal(r, c) if r == r2 else EdgeId.vertical(r, c)


def layer_spike_edge(spec: LatticeSpec, layer: int, j: int) -> EdgeId:
    """Physical edge acting as the spike of boundary index ``j`` at a layer."""
    m = layer_length(spec.length, layer)
    j = _as_int(j, "boundary index", 1, 4 * m)
    return EdgeId.spike(j) if layer == 0 else _grid_edge(*(_frame(m)[j - 1] + layer))


def layer_tangential_edge(spec: LatticeSpec, layer: int, face: str, i: int) -> EdgeId:
    """Physical edge between anchors ``i`` and ``i+1`` of a face at a layer."""
    m = layer_length(spec.length, layer)
    if face not in FACES:
        raise ValueError(f"unknown face {face!r}")
    j = FACES.index(face) * m + _as_int(i, "tangential index", 1, m - 1)
    return _grid_edge(*(_frame(m)[j - 1 : j + 1, 1] + layer))


# ---------------------------------------------------------------------------
# Per-edge documents
#
# Every rnet JSON document names its schema and network length and gives
# one value per edge.  The writer and the reader below hold every rule the
# documents share; its values are read by ``_edge_values``, as a mapping's are.

NETWORK_SCHEMA = "rnet-network/1"


def _write_document(schema: str, spec: LatticeSpec, **body) -> str:
    """An rnet JSON document: ``schema``, the network length, then ``body`` in order."""
    return json.dumps({"schema": schema, "length": spec.length, **body}, indent=2) + "\n"


def network_to_json(net: ConductanceMap) -> str:
    values = dict(zip(_edge_names(net.spec.length), net.values.array.tolist()))
    return _write_document(NETWORK_SCHEMA, net.spec, conductances=values)


def _reject_duplicate_keys(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise NetworkFormatError(f"duplicate key {key!r}")
        seen.add(key)
    return dict(pairs)


def _read_document(text: str, schema: str, field: str, kind: type):
    """Parse an rnet JSON document into its lattice and its per-edge ``field``.

    The document must be valid JSON, carry ``schema`` and a positive
    integer ``length`` (``true`` is not one), and hold ``field`` as a
    ``kind``.  A ``dict`` field is keyed by edge id, so such a document
    refuses a repeated key in any object.

    Returns ``(spec, doc[field])``.  Raises ``NetworkFormatError`` for a
    document that breaks any of these rules.
    """
    hook = _reject_duplicate_keys if kind is dict else None
    try:
        doc = json.loads(text, object_pairs_hook=hook)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("schema") != schema:
        raise NetworkFormatError(f"expected schema {schema!r}")
    length = doc.get("length")
    try:
        spec = LatticeSpec(length)
    except ValueError:
        raise NetworkFormatError(f"invalid length {length!r}") from None
    body = doc.get(field)
    if not isinstance(body, kind):
        raise NetworkFormatError(f"missing {field} {'object' if kind is dict else 'array'}")
    return spec, body


def network_from_json(text: str) -> ConductanceMap:
    """Parse a network document, rejecting missing/extra/repeated edges."""
    return ConductanceMap(*_read_document(text, NETWORK_SCHEMA, "conductances", dict))
