"""Lattice geometry that only the tests use.

The quarter-turn symmetry of the square network, and the physical node
behind each boundary index of a peel layer's sub-network.
"""

from rnet.lattice import ConductanceMap, EdgeId, LatticeSpec, _layer_face_local, layer_length


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


def layer_boundary_node(spec: LatticeSpec, layer: int, j: int):
    """Physical node behind boundary index ``j`` of the layer's sub-network.

    Returns ``("B", b)`` at layer 0, ``("I", r, c)`` (a ring-``layer``
    interior node) afterwards.
    """
    k = spec.length
    m = layer_length(k, layer)
    if layer == 0:
        _layer_face_local(m, j)
        return ("B", j)
    face, i = _layer_face_local(m, j)
    if face == "N":
        return ("I", layer, layer + i)
    if face == "E":
        return ("I", layer + i, k + 1 - layer)
    if face == "S":
        return ("I", k + 1 - layer, k + 1 - layer - i)
    return ("I", k + 1 - layer - i, layer)
