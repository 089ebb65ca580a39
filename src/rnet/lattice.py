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
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import matrixkit
from .errors import NetworkFormatError, SingularMatrixError

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
        if isinstance(self.length, bool) or not isinstance(self.length, int) or self.length < 1:
            raise ValueError(f"network length must be a positive integer, got {self.length!r}")

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

    def spike_anchor(self, b: int) -> tuple[int, int]:
        """Interior grid node the spike of boundary node ``b`` attaches to."""
        k = self.length
        if not 1 <= b <= 4 * k:
            raise ValueError(f"boundary index {b} out of range 1..{4 * k}")
        if b <= k:                      # north, left to right
            return (1, b)
        if b <= 2 * k:                  # east, top to bottom
            return (b - k, k)
        if b <= 3 * k:                  # south, right to left
            return (k, k + 1 - (b - 2 * k))
        return (k + 1 - (b - 3 * k), 1)  # west, bottom to top

    def boundary_node_index(self, b: int) -> int:
        """0-based position of boundary node ``b`` in Kirchhoff ordering."""
        if not 1 <= b <= self.n_boundary:
            raise ValueError(f"boundary index {b} out of range")
        return b - 1

    def interior_node_index(self, r: int, c: int) -> int:
        """0-based position of interior node ``(r, c)`` in Kirchhoff ordering."""
        k = self.length
        if not (1 <= r <= k and 1 <= c <= k):
            raise ValueError(f"interior node ({r}, {c}) out of range")
        return 4 * k + (r - 1) * k + (c - 1)

    def edge_endpoints(self, edge: EdgeId) -> tuple[int, int]:
        """Kirchhoff-ordering node indices of an edge's two endpoints."""
        k = self.length
        if edge.kind == "S":
            r, c = self.spike_anchor(edge.i)
            return (self.boundary_node_index(edge.i), self.interior_node_index(r, c))
        if edge.kind == "H":
            if not (1 <= edge.i <= k and 1 <= edge.j <= k - 1):
                raise ValueError(f"edge {edge} out of range for length {k}")
            return (
                self.interior_node_index(edge.i, edge.j),
                self.interior_node_index(edge.i, edge.j + 1),
            )
        if edge.kind == "V":
            if not (1 <= edge.i <= k - 1 and 1 <= edge.j <= k):
                raise ValueError(f"edge {edge} out of range for length {k}")
            return (
                self.interior_node_index(edge.i, edge.j),
                self.interior_node_index(edge.i + 1, edge.j),
            )
        raise ValueError(f"unknown edge kind {edge.kind!r}")


@lru_cache(maxsize=None)
def _edge_catalog(k: int) -> tuple[EdgeId, ...]:
    edges = [EdgeId.spike(b) for b in range(1, 4 * k + 1)]
    edges += [EdgeId.horizontal(r, c) for r in range(1, k + 1) for c in range(1, k)]
    edges += [EdgeId.vertical(r, c) for r in range(1, k) for c in range(1, k + 1)]
    return tuple(edges)


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


def _mismatch_text(k: int, missing: Iterable[str], extra: Iterable[str]) -> str:
    return (
        f"edge set mismatch for length {k}: "
        f"missing {sorted(missing)[:4]}, extra {sorted(extra)[:4]}"
    )


def _check_edge_set(spec: LatticeSpec, edges) -> None:
    """Raise ``ValueError`` unless ``edges`` is exactly the catalog of ``spec``."""
    catalog = _edge_slots(spec.length).keys()
    if edges != catalog:
        given = set(edges)
        missing, extra = (str(e) for e in catalog - given), (str(e) for e in given - catalog)
        raise ValueError(_mismatch_text(spec.length, missing, extra))


def build_lattice(k: int) -> LatticeSpec:
    """Topology of the length-``k`` network, with its ordered edge catalog."""
    return LatticeSpec(k)


def _as_number(value) -> float | None:
    """``value`` as a float if it is an int or a float (``bool`` is neither) in float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:  # an int beyond float range
        return None


class EdgeValues(Mapping):
    """Read-only ``{EdgeId: float}`` view of one value per edge.

    The values live in ``array``, a float64 array in catalog order
    (``spec.edges``) that this view marks read-only; every computation
    reads the array.  A lookup by ``EdgeId`` finds the edge's slot, so no
    per-edge dict is built.
    """

    __slots__ = ("spec", "array")

    def __init__(self, spec: LatticeSpec, array: np.ndarray):
        array.setflags(write=False)
        self.spec, self.array = spec, array

    def __getitem__(self, edge: EdgeId) -> float:
        return float(self.array[_edge_slots(self.spec.length)[edge]])

    def __iter__(self) -> Iterator[EdgeId]:
        return iter(self.spec.edges)

    def __len__(self) -> int:
        return self.spec.n_edges

    def __repr__(self) -> str:
        return f"EdgeValues(length={self.spec.length}, array={self.array!r})"

    def __reduce__(self):  # a copy or an unpickled view marks its array read-only again
        return EdgeValues, (self.spec, self.array)


def _edge_array(
    spec: LatticeSpec, values, what: str, rule: str, accept: Callable | None = None
) -> EdgeValues:
    """Checked catalog-ordered view of per-edge ``values``.

    ``values`` is an ``{EdgeId: number}`` mapping over exactly the catalog of
    ``spec``, or ``spec.n_edges`` numbers in catalog order as an array (which
    is copied).  An ``EdgeValues`` of ``spec`` keeps its array.  Each value
    must be a number (``bool`` is not one) that passes the vectorized
    ``accept``, if given; ``rule`` says what that asks for.

    Raises:
        ValueError: for another edge set or a refused value, naming the edge.
    """
    if isinstance(values, EdgeValues) and values.spec == spec:
        array = values.array
    elif isinstance(values, np.ndarray):
        if values.shape != (spec.n_edges,) or values.dtype.kind not in "iuf":
            raise ValueError(
                f"expected {spec.n_edges} {what} numbers in catalog order, "
                f"got an array of shape {values.shape} and dtype {values.dtype}"
            )
        array = values.astype(np.float64)
    else:
        _check_edge_set(spec, values.keys())
        numbers = [_as_number(values[e]) for e in spec.edges]
        if None in numbers:
            e = spec.edges[numbers.index(None)]
            raise ValueError(f"{what} of {e} must be {rule}, got {values[e]!r}")
        array = np.array(numbers)
    if accept is not None:
        bad = ~accept(array)
        if bad.any():
            slot = int(np.argmax(bad))
            e = spec.edges[slot]
            shown = values[e] if isinstance(values, Mapping) else float(array[slot])
            raise ValueError(f"{what} of {e} must be {rule}, got {shown!r}")
    return EdgeValues(spec, array)


def _reciprocal(g: np.ndarray) -> np.ndarray:
    """``1 / g`` elementwise (resistance from conductance or back); a zero gives +inf."""
    return np.divide(1.0, g, out=np.full_like(g, math.inf), where=g != 0.0)


def _positive_finite(g):
    return np.isfinite(g) & (g > 0)


@dataclass(frozen=True)
class ConductanceMap:
    """Positive conductance assigned to every edge of a lattice.

    ``values`` may be an ``{EdgeId: number}`` mapping or a catalog-ordered
    array; either way it is held as an ``EdgeValues`` view of a read-only
    float64 array (``values.array``).
    ``check_values=False`` skips the positivity/finiteness check; it is
    meant for reconstruction outputs, which under noisy input may contain
    nonpositive estimates that are reported rather than clamped.
    """

    spec: LatticeSpec
    values: Mapping[EdgeId, float]
    check_values: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        rule = ("positive and finite", _positive_finite) if self.check_values else ("a number",)
        values = _edge_array(self.spec, self.values, "conductance", *rule)
        object.__setattr__(self, "values", values)

    def __getitem__(self, edge: EdgeId) -> float:
        return self.values[edge]

    def __iter__(self) -> Iterator[EdgeId]:
        return iter(self.spec.edges)

    def resistances(self) -> EdgeValues:
        return EdgeValues(self.spec, _reciprocal(self.values.array))

    def scaled(self, factor: float) -> "ConductanceMap":
        return ConductanceMap(self.spec, factor * self.values.array)


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
    if not 0 < resistance_low <= resistance_high:
        raise ValueError("need 0 < resistance_low <= resistance_high")
    return 1.0 / rng.uniform(resistance_low, resistance_high, size=n_edges)


@dataclass(frozen=True, eq=False)
class ResponseMatrix:
    """The ``4k``-by-``4k`` boundary voltage-to-current map."""

    entries: np.ndarray

    def __post_init__(self):
        a = matrixkit.as_matrix(self.entries)
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"response matrix must be square, got {a.shape}")
        if a.shape[0] % 4 != 0 or a.shape[0] == 0:
            raise ValueError(f"response matrix order must be a positive multiple of 4, got {a.shape[0]}")
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def length(self) -> int:
        return self.n // 4

    def asymmetry(self) -> float:
        """max|A - A^T| relative to max|A|."""
        scale = float(np.abs(self.entries).max()) or 1.0
        return float(np.abs(self.entries - self.entries.T).max()) / scale

    def scaled(self, factor: float) -> "ResponseMatrix":
        return ResponseMatrix(factor * self.entries)


@lru_cache(maxsize=None)
def _kirchhoff_plan(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and sign of each edge's four Laplacian entries, per edge.

    Entries are listed edge by edge in catalog order as ``uu, vv, uv, vu``,
    so one ``np.add.at`` accumulates every entry in the same order as an
    edge-by-edge loop would.
    """
    spec = LatticeSpec(k)
    ends = np.array([spec.edge_endpoints(e) for e in spec.edges], dtype=np.intp)
    u, v = ends[:, 0], ends[:, 1]
    rows = np.stack([u, v, u, v], axis=1).ravel()
    cols = np.stack([u, v, v, u], axis=1).ravel()
    signs = np.tile([1.0, 1.0, -1.0, -1.0], len(ends))
    for a in (rows, cols, signs):
        a.setflags(write=False)
    return rows, cols, signs


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
    row at a time: each step solves one ``k``-by-``k`` system per item
    against the row's coupling to the boundary (with the fill-in of earlier
    rows) and to the next row.  Every LAPACK call stays this small, which
    keeps the result independent of the BLAS thread count and of the
    stack it sits in.

    Returns the (unsymmetrized) response matrices and, per grid row, the
    solved couplings ``(x_b, x_c)`` from which interior potentials follow
    by back substitution: ``phi_r = -(x_b @ u + x_c @ phi_{r+1})``.

    Raises:
        SingularMatrixError: if a row block cannot be solved.
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
            x = np.linalg.solve(m_rr, np.concatenate([m_rb, coupling], axis=2))
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"interior row {r + 1}: {exc}") from None
        x_b, x_c = x[:, :, :nb], x[:, :, nb:]
        steps.append((x_b, x_c))
        lam -= m_br @ x_b
        back = kirchhoff[:, nxt, cur]
        m_br = kirchhoff[:, :nb, nxt] - m_br @ x_c
        m_rb = kirchhoff[:, nxt, :nb] - back @ x_b
        m_rr = kirchhoff[:, nxt, nxt] - back @ x_c
    return lam, steps


def _response_stack(kirchhoff: np.ndarray, k: int) -> np.ndarray:
    """Exactly symmetric response matrices of a ``(B, n, n)`` Kirchhoff stack."""
    lam, _ = _eliminate_interior(kirchhoff, k)
    return (lam + lam.swapaxes(1, 2)) / 2.0


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
    the same per-row solves.
    """
    spec = net.spec
    u = np.asarray(voltages, dtype=np.float64)
    if u.shape != (spec.n_boundary,):
        raise ValueError(f"expected {spec.n_boundary} boundary voltages, got shape {u.shape}")
    lam, steps = _eliminate_interior(build_kirchhoff(net)[None], spec.length)
    currents = matrixkit.symmetrize_average(lam[0]) @ u
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
# L as the new boundary of a length k-2L sub-network.  The functions below
# are the single source of truth mapping a layer's boundary indices to
# physical nodes and edges.

def layer_length(k: int, layer: int) -> int:
    m = k - 2 * layer
    if layer < 0 or m < 1:
        raise ValueError(f"layer {layer} out of range for length {k}")
    return m


def _layer_face_local(m: int, j: int) -> tuple[str, int]:
    if not 1 <= j <= 4 * m:
        raise ValueError(f"boundary index {j} out of range 1..{4 * m}")
    face = FACES[(j - 1) // m]
    return face, (j - 1) % m + 1


def layer_spike_edge(spec: LatticeSpec, layer: int, j: int) -> EdgeId:
    """Physical edge acting as the spike of boundary index ``j`` at a layer."""
    k = spec.length
    m = layer_length(k, layer)
    if layer == 0:
        _layer_face_local(m, j)
        return EdgeId.spike(j)
    face, i = _layer_face_local(m, j)
    if face == "N":
        return EdgeId.vertical(layer, layer + i)
    if face == "E":
        return EdgeId.horizontal(layer + i, k - layer)
    if face == "S":
        return EdgeId.vertical(k - layer, k + 1 - layer - i)
    return EdgeId.horizontal(k + 1 - layer - i, layer)


def layer_tangential_edge(spec: LatticeSpec, layer: int, face: str, i: int) -> EdgeId:
    """Physical edge between anchors ``i`` and ``i+1`` of a face at a layer."""
    k = spec.length
    m = layer_length(k, layer)
    if face not in FACES:
        raise ValueError(f"unknown face {face!r}")
    if not 1 <= i <= m - 1:
        raise ValueError(f"tangential index {i} out of range 1..{m - 1}")
    if face == "N":
        return EdgeId.horizontal(layer + 1, layer + i)
    if face == "E":
        return EdgeId.vertical(layer + i, k - layer)
    if face == "S":
        return EdgeId.horizontal(k - layer, k - layer - i)
    return EdgeId.vertical(k - layer - i, layer + 1)


# ---------------------------------------------------------------------------
# Per-edge documents
#
# Every rnet JSON document names its schema and network length and gives
# one value per edge.  The two readers below hold every rule the documents
# share; each document's reader adds only its own value rule.

NETWORK_SCHEMA = "rnet-network/1"


def network_to_json(net: ConductanceMap) -> str:
    doc = {
        "schema": NETWORK_SCHEMA,
        "length": net.spec.length,
        "conductances": dict(zip(_edge_names(net.spec.length), net.values.array.tolist())),
    }
    return json.dumps(doc, indent=2) + "\n"


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
    if isinstance(length, bool) or not isinstance(length, int) or length < 1:
        raise NetworkFormatError(f"invalid length {length!r}")
    body = doc.get(field)
    if not isinstance(body, kind):
        raise NetworkFormatError(f"missing {field} {'object' if kind is dict else 'array'}")
    return LatticeSpec(length), body


def _edge_values(
    spec: LatticeSpec, pairs: Iterable[tuple], rule: str, accept: Callable[[float], bool]
) -> EdgeValues:
    """Catalog-ordered values from ``(id, value)`` pairs that name every edge once.

    Each edge must be named exactly once: an alias such as ``S:01`` beside
    ``S:1`` is a repeat.  Each value must be a number (``bool`` is not one)
    that passes ``accept``; ``rule`` says what ``accept`` asks for.

    Raises:
        NetworkFormatError: for a malformed id, a repeated edge, a refused
            value, or an edge set other than the catalog of ``spec``.
    """
    pairs = list(pairs)
    # A canonical id finds its slot by name; any other id is parsed first.  Only
    # a document with one pair per edge builds the name table, so a huge
    # declared length is refused by the count below without building its catalog.
    names = _name_slots(spec.length) if len(pairs) == spec.n_edges else {}
    slots, numbers, seen = [], [], set()
    for key, val in pairs:
        name = key
        slot = names.get(key) if type(key) is str else None
        if slot is None:  # an alias, an edge outside the catalog, or a malformed id
            name = str(EdgeId.parse(key))
            slot = names.get(name, name)  # an edge outside the catalog stands for itself
        number = _as_number(val)
        if number is None or not accept(number):
            raise NetworkFormatError(f"{key}: {rule}, got {val!r}")
        if slot in seen:
            raise NetworkFormatError(f"edge {name} named twice, the second time as {key!r}")
        seen.add(slot)
        slots.append(slot)
        numbers.append(number)
    if len(seen) != spec.n_edges:
        raise NetworkFormatError(
            f"{len(seen)} edges given for length {spec.length}, which has {spec.n_edges}"
        )
    extra = [s for s in slots if type(s) is str]
    if extra:
        missing = (name for name, slot in names.items() if slot not in seen)
        raise NetworkFormatError(_mismatch_text(spec.length, missing, extra))
    array = np.empty(spec.n_edges)
    array[slots] = numbers
    return EdgeValues(spec, array)


def network_from_json(text: str) -> ConductanceMap:
    """Parse a network document, rejecting missing/extra/repeated edges."""
    spec, raw = _read_document(text, NETWORK_SCHEMA, "conductances", dict)
    values = _edge_values(
        spec, raw.items(), "conductance must be positive and finite",
        lambda g: math.isfinite(g) and g > 0,
    )
    return ConductanceMap(spec, values)
