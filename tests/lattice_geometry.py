"""Lattice geometry that only the tests use.

The quarter-turn symmetry of the square network, and the physical node
and the spike anchor behind each boundary index of a peel layer's
sub-network.
"""

from rnet.lattice import FACES, ConductanceMap, EdgeId, LatticeSpec, layer_length


def layer_face_local(m: int, j: int) -> tuple[str, int]:
    """Face and 1-based position along it of boundary index ``j`` of a length-``m`` network."""
    if not 1 <= j <= 4 * m:
        raise ValueError(f"boundary index {j} out of range 1..{4 * m}")
    return FACES[(j - 1) // m], (j - 1) % m + 1


def rotate_boundary_index(k: int, b: int) -> int:
    """Boundary index after rotating the network a quarter turn clockwise."""
    return (b - 1 + k) % (4 * k) + 1


def rotate_edge(k: int, edge: EdgeId) -> EdgeId:
    """Image of an edge under the quarter-turn rotation ``(r,c) -> (c, k+1-r)``."""
    if edge.kind == "S":
        return EdgeId.spike(rotate_boundary_index(k, edge.i))
    r, c = edge.i, edge.j
    if edge.kind == "H":
        return EdgeId.vertical(c, k + 1 - r)
    return EdgeId.horizontal(c, k - r)


def rotate_network(net: ConductanceMap) -> ConductanceMap:
    """Transport every conductance to its quarter-turn image edge."""
    k = net.spec.length
    return ConductanceMap(net.spec, {rotate_edge(k, e): g for e, g in net.values.items()})


def layer_anchor(spec: LatticeSpec, layer: int, j: int) -> tuple[int, int]:
    """Interior node ``(r, c)`` the layer-``layer`` spike at boundary index ``j`` leads to."""
    k = spec.length
    m = layer_length(k, layer)
    face, i = layer_face_local(m, j)
    if face == "N":
        return (layer + 1, layer + i)
    if face == "E":
        return (layer + i, k - layer)
    if face == "S":
        return (k - layer, k + 1 - layer - i)
    return (k + 1 - layer - i, layer + 1)


def layer_boundary_node(spec: LatticeSpec, layer: int, j: int):
    """Physical node behind boundary index ``j`` of the layer's sub-network.

    Returns ``("B", b)`` at layer 0, ``("I", r, c)`` (a ring-``layer``
    interior node) afterwards.
    """
    k = spec.length
    m = layer_length(k, layer)
    if layer == 0:
        layer_face_local(m, j)
        return ("B", j)
    face, i = layer_face_local(m, j)
    if face == "N":
        return ("I", layer, layer + i)
    if face == "E":
        return ("I", layer + i, k + 1 - layer)
    if face == "S":
        return ("I", k + 1 - layer, k + 1 - layer - i)
    return ("I", k + 1 - layer - i, layer)
