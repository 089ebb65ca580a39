import json
import pickle
import warnings
from copy import deepcopy

import numpy as np
import pytest

from rnet import lattice
from rnet.errors import NetworkFormatError
from rnet.lattice import (
    ConductanceMap,
    EdgeId,
    LatticeSpec,
    build_kirchhoff,
    build_lattice,
    forward_boundary_solve,
    layer_length,
    layer_spike_edge,
    layer_tangential_edge,
    network_from_json,
    network_to_json,
    random_conductances,
    response_matrix,
    uniform_conductances,
)
from rnet.lattice import _kirchhoff_stack, _layer_face_local, _response_stack

from lattice_geometry import layer_boundary_node, rotate_boundary_index, rotate_edge, rotate_network


def layer_anchor(spec, layer: int, j: int) -> tuple[int, int]:
    """Interior node ``(r, c)`` the layer-``layer`` spike at boundary index ``j`` leads to."""
    k = spec.length
    m = layer_length(k, layer)
    face, i = _layer_face_local(m, j)
    if face == "N":
        return (layer + 1, layer + i)
    if face == "E":
        return (layer + i, k - layer)
    if face == "S":
        return (k - layer, k + 1 - layer - i)
    return (k + 1 - layer - i, layer + 1)


class TestEdgeId:
    @pytest.mark.parametrize("edge,text", [
        (EdgeId.spike(3), "S:3"),
        (EdgeId.horizontal(1, 2), "H:1:2"),
        (EdgeId.vertical(4, 1), "V:4:1"),
    ])
    def test_str_parse_round_trip(self, edge, text):
        assert str(edge) == text
        assert EdgeId.parse(text) == edge

    @pytest.mark.parametrize("bad", ["S", "S:x", "H:1", "Q:1:2", "H:1:2:3", ""])
    def test_malformed_rejected(self, bad):
        with pytest.raises(NetworkFormatError):
            EdgeId.parse(bad)

    @pytest.mark.parametrize("bad", ["S:1_0", "S: 2", "S:2 ", "H:+1:1", "V:1:-1", "S:\u0661"])
    def test_non_ascii_digit_parts_rejected(self, bad):
        with pytest.raises(NetworkFormatError, match="malformed edge id"):
            EdgeId.parse(bad)


class TestTopology:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_edge_counts(self, k):
        spec = build_lattice(k)
        edges = spec.edges
        assert len(edges) == 2 * k * k + 2 * k == spec.n_edges
        spikes = [e for e in edges if e.kind == "S"]
        interior = [e for e in edges if e.kind != "S"]
        assert len(spikes) == 4 * k
        assert len(interior) == 2 * k * (k - 1)
        assert len(set(edges)) == len(edges)

    def test_forty_edges_at_length_four(self):
        assert build_lattice(4).n_edges == 40

    def test_degenerate_star(self):
        spec = build_lattice(1)
        assert spec.n_boundary == 4
        assert [e.kind for e in spec.edges] == ["S"] * 4

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            build_lattice(0)

    def test_bool_length_rejected(self):
        with pytest.raises(ValueError, match="network length must be a positive integer"):
            LatticeSpec(True)

    def test_anchor_tables(self):
        spec = build_lattice(3)
        # clockwise from top-left: north L->R, east T->B, south R->L, west B->T
        assert spec.spike_anchor(1) == (1, 1)
        assert spec.spike_anchor(3) == (1, 3)
        assert spec.spike_anchor(4) == (1, 3)
        assert spec.spike_anchor(6) == (3, 3)
        assert spec.spike_anchor(7) == (3, 3)
        assert spec.spike_anchor(9) == (3, 1)
        assert spec.spike_anchor(10) == (3, 1)
        assert spec.spike_anchor(12) == (1, 1)

    def test_corner_anchors_carry_two_spikes(self):
        spec = build_lattice(5)
        anchors = [spec.spike_anchor(b) for b in range(1, 21)]
        corners = [(1, 1), (1, 5), (5, 5), (5, 1)]
        for corner in corners:
            assert anchors.count(corner) == 2

    def test_catalog_order(self):
        spec = build_lattice(2)
        assert [str(e) for e in spec.edges] == [
            "S:1", "S:2", "S:3", "S:4", "S:5", "S:6", "S:7", "S:8",
            "H:1:1", "H:2:1", "V:1:1", "V:1:2",
        ]


class TestKirchhoff:
    def test_unit_star(self):
        k = build_kirchhoff(uniform_conductances(build_lattice(1)))
        expected = np.diag([1.0, 1.0, 1.0, 1.0, 4.0])
        expected[:4, 4] = expected[4, :4] = -1.0
        assert np.array_equal(k, expected)

    @pytest.mark.parametrize("k,seed", [(2, 0), (3, 1), (5, 2)])
    def test_laplacian_structure(self, k, seed):
        net = random_conductances(build_lattice(k), np.random.default_rng(seed))
        mat = build_kirchhoff(net)
        assert np.array_equal(mat, mat.T)
        assert np.abs(mat.sum(axis=1)).max() <= 1e-12

    def test_doubling_conductances_doubles_matrix(self):
        net = random_conductances(build_lattice(3), np.random.default_rng(9))
        assert np.allclose(build_kirchhoff(net.scaled(2.0)), 2.0 * build_kirchhoff(net),
                           rtol=0, atol=1e-15)


class TestResponseMatrix:
    def test_unit_star(self):
        lam = response_matrix(uniform_conductances(build_lattice(1)))
        expected = np.full((4, 4), -0.25)
        np.fill_diagonal(expected, 0.75)
        assert np.allclose(lam.entries, expected, rtol=0, atol=1e-15)

    def test_unit_length2_hand_values(self):
        lam = response_matrix(uniform_conductances(build_lattice(2))).entries
        assert lam[0, 0] == pytest.approx(17 / 24, abs=1e-14)
        assert lam[1, 2] == pytest.approx(-7 / 24, abs=1e-14)   # shared anchor
        assert lam[0, 2] == pytest.approx(-1 / 12, abs=1e-14)   # adjacent anchors
        assert lam[0, 3] == pytest.approx(-1 / 24, abs=1e-14)   # opposite anchors

    def test_unit_length2_interior_inverse_is_circulant(self):
        # Interior of the unit length-2 lattice is a 4-cycle with two spikes
        # per node: its interior block inverts to circ(7/24, 1/12, 1/24, 1/12).
        net = uniform_conductances(build_lattice(2))
        kirchhoff = build_kirchhoff(net)
        k_ii = kirchhoff[8:, 8:]
        inv = np.linalg.inv(k_ii)
        # interior order is row-major: (1,1), (1,2), (2,1), (2,2)
        # cycle distance 0 -> 7/24, 1 -> 1/12, 2 -> 1/24
        expected = np.array(
            [
                [7 / 24, 1 / 12, 1 / 12, 1 / 24],
                [1 / 12, 7 / 24, 1 / 24, 1 / 12],
                [1 / 12, 1 / 24, 7 / 24, 1 / 12],
                [1 / 24, 1 / 12, 1 / 12, 7 / 24],
            ]
        )
        assert np.allclose(inv, expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("k,seed", [(1, 0), (2, 1), (3, 2), (5, 3), (8, 4)])
    def test_invariants(self, k, seed):
        rng = np.random.default_rng(seed)
        spec = build_lattice(k)
        net = ConductanceMap(spec, {e: g for e, g in zip(spec.edges, rng.uniform(0.5, 2.0, spec.n_edges))})
        lam = response_matrix(net).entries
        assert np.array_equal(lam, lam.T)
        max_diag = lam.diagonal().max()
        assert np.abs(lam.sum(axis=1)).max() <= 1e-10 * max_diag
        assert lam.diagonal().min() > 0
        off = lam - np.diag(lam.diagonal())
        assert off.max() <= 0

    @pytest.mark.parametrize("k,seed", [(2, 11), (3, 12), (4, 13)])
    def test_matches_columnwise_dirichlet_oracle(self, k, seed):
        # Independent route: per driven node, solve the full node system with
        # boundary rows replaced by identity (no Schur complement, numpyic
        # solver), then read the boundary currents.
        net = random_conductances(build_lattice(k), np.random.default_rng(seed))
        spec = net.spec
        kirchhoff = build_kirchhoff(net)
        nb, nn = spec.n_boundary, spec.n_boundary + spec.length**2
        oracle = np.zeros((nb, nb))
        for drive in range(nb):
            system = kirchhoff.copy()
            rhs = np.zeros(nn)
            system[:nb, :] = 0.0
            system[:nb, :nb] = np.eye(nb)
            rhs[drive] = 1.0
            potentials = np.linalg.solve(system, rhs)
            oracle[:, drive] = (kirchhoff @ potentials)[:nb]
        lam = response_matrix(net).entries
        assert np.abs(lam - oracle).max() <= 1e-12

    def test_uniform_scale_equivariance(self):
        net = random_conductances(build_lattice(3), np.random.default_rng(4))
        lam = response_matrix(net).entries
        lam3 = response_matrix(net.scaled(3.0)).entries
        assert np.allclose(lam3, 3.0 * lam, rtol=1e-12, atol=0)

    def test_power_of_two_scale_is_exact(self):
        net = random_conductances(build_lattice(3), np.random.default_rng(6))
        lam = response_matrix(net).entries
        lam2 = response_matrix(net.scaled(2.0)).entries
        assert np.array_equal(lam2, 2.0 * lam)

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_quarter_turn_equivariance(self, k):
        net = random_conductances(build_lattice(k), np.random.default_rng(k))
        lam = response_matrix(net).entries
        lam_rot = response_matrix(rotate_network(net)).entries
        n = 4 * k
        perm = np.array([rotate_boundary_index(k, b) - 1 for b in range(1, n + 1)])
        conjugated = np.empty_like(lam)
        conjugated[np.ix_(perm, perm)] = lam
        assert np.abs(lam_rot - conjugated).max() <= 1e-12


class TestRotation:
    def test_boundary_shift(self):
        assert rotate_boundary_index(4, 1) == 5
        assert rotate_boundary_index(4, 13) == 1
        assert rotate_boundary_index(4, 16) == 4

    def test_edge_images(self):
        # quarter turn clockwise maps (r, c) -> (c, k+1-r)
        k = 4
        assert rotate_edge(k, EdgeId.spike(1)) == EdgeId.spike(5)
        assert rotate_edge(k, EdgeId.horizontal(1, 1)) == EdgeId.vertical(1, 4)
        assert rotate_edge(k, EdgeId.vertical(1, 1)) == EdgeId.horizontal(1, 3)

    def test_rotation_is_edge_bijection(self):
        spec = build_lattice(5)
        images = {rotate_edge(5, e) for e in spec.edges}
        assert images == set(spec.edges)


class TestForwardSolve:
    def test_constant_voltage_draws_no_current(self):
        net = random_conductances(build_lattice(3), np.random.default_rng(8))
        out = forward_boundary_solve(net, np.ones(12) * 2.5)
        assert np.abs(out.currents).max() <= 1e-12

    def test_current_conservation(self):
        net = random_conductances(build_lattice(4), np.random.default_rng(9))
        u = np.random.default_rng(10).uniform(-1, 1, 16)
        out = forward_boundary_solve(net, u)
        assert abs(out.currents.sum()) <= 1e-10

    def test_unit_star_column(self):
        net = uniform_conductances(build_lattice(1))
        out = forward_boundary_solve(net, [1.0, 0.0, 0.0, 0.0])
        assert np.allclose(out.currents, [0.75, -0.25, -0.25, -0.25], rtol=0, atol=1e-14)
        # harmonic extension: the center sits at the average boundary voltage
        assert out.interior_potentials == pytest.approx([0.25], abs=1e-14)

    def test_wrong_length_rejected(self):
        net = uniform_conductances(build_lattice(2))
        with pytest.raises(ValueError):
            forward_boundary_solve(net, np.ones(7))

    def test_matches_response_matrix_and_dense_solve(self):
        net = random_conductances(build_lattice(6), np.random.default_rng(12))
        u = np.random.default_rng(13).uniform(-1, 1, 24)
        out = forward_boundary_solve(net, u)
        assert np.array_equal(out.currents, response_matrix(net).entries @ u)
        kirchhoff = build_kirchhoff(net)
        dense = np.linalg.solve(kirchhoff[24:, 24:], -(kirchhoff[24:, :24] @ u))
        assert np.abs(out.interior_potentials - dense).max() <= 1e-12


class TestForwardStack:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_stack_matches_per_network_bitwise(self, k):
        spec = build_lattice(k)
        nets = [random_conductances(spec, np.random.default_rng(50 + t)) for t in range(3)]
        g = np.array([[net.values[e] for e in net.spec.edges] for net in nets])
        kirchhoff = _kirchhoff_stack(g, k)
        lam = _response_stack(kirchhoff, k)
        for t, net in enumerate(nets):
            assert kirchhoff[t].tobytes() == build_kirchhoff(net).tobytes()
            assert lam[t].tobytes() == response_matrix(net).entries.tobytes()


class TestLayerGeometry:
    @pytest.mark.parametrize("k", range(2, 8))
    def test_layers_partition_every_edge(self, k):
        spec = build_lattice(k)
        seen = []
        layer = 0
        while True:
            m = layer_length(k, layer)
            seen.extend(layer_spike_edge(spec, layer, j) for j in range(1, 4 * m + 1))
            for face in "NESW":
                seen.extend(layer_tangential_edge(spec, layer, face, i) for i in range(1, m))
            if m <= 2:
                break
            layer += 1
        assert len(seen) == spec.n_edges
        assert set(seen) == set(spec.edges)

    def test_layer_one_boundary_nodes_of_length4(self):
        spec = build_lattice(4)
        assert layer_boundary_node(spec, 1, 1) == ("I", 1, 2)
        assert layer_boundary_node(spec, 1, 3) == ("I", 2, 4)
        assert layer_boundary_node(spec, 1, 5) == ("I", 4, 3)
        assert layer_boundary_node(spec, 1, 7) == ("I", 3, 1)

    def test_layer_spikes_are_radial(self):
        spec = build_lattice(4)
        assert layer_spike_edge(spec, 0, 5) == EdgeId.spike(5)
        assert layer_spike_edge(spec, 1, 1) == EdgeId.vertical(1, 2)
        assert layer_spike_edge(spec, 1, 3) == EdgeId.horizontal(2, 3)

    def test_anchors_step_inward(self):
        spec = build_lattice(5)
        # layer-0 anchors live on interior ring 1, layer-1 anchors on ring 2
        assert layer_anchor(spec, 0, 1) == (1, 1)
        assert layer_anchor(spec, 0, 6) == (1, 5)
        assert layer_anchor(spec, 0, 11) == (5, 5)
        assert layer_anchor(spec, 0, 16) == (5, 1)
        assert layer_boundary_node(spec, 1, 1) == ("I", 1, 2)
        assert layer_anchor(spec, 1, 1) == (2, 2)
        for layer, m in ((0, 5), (1, 3), (2, 1)):
            for j in range(1, 4 * m + 1):
                anchor = spec.interior_node_index(*layer_anchor(spec, layer, j))
                assert anchor in spec.edge_endpoints(layer_spike_edge(spec, layer, j))

    def test_out_of_range_layers(self):
        with pytest.raises(ValueError):
            layer_length(4, 2)
        with pytest.raises(ValueError):
            layer_length(3, -1)


class TestConductanceMap:
    def test_missing_edge_rejected(self):
        spec = build_lattice(2)
        values = {e: 1.0 for e in spec.edges[:-1]}
        with pytest.raises(ValueError):
            ConductanceMap(spec, values)

    def test_extra_edge_rejected(self):
        spec = build_lattice(2)
        values = {e: 1.0 for e in spec.edges}
        values[EdgeId.spike(99)] = 1.0
        with pytest.raises(ValueError):
            ConductanceMap(spec, values)

    def test_nonpositive_rejected(self):
        spec = build_lattice(1)
        values = {e: 1.0 for e in spec.edges}
        values[EdgeId.spike(1)] = 0.0
        with pytest.raises(ValueError):
            ConductanceMap(spec, values)

    def test_bool_rejected(self):
        spec = build_lattice(1)
        with pytest.raises(ValueError, match="must be positive and finite, got True"):
            ConductanceMap(spec, {e: True for e in spec.edges})

    def test_catalog_ordered_array(self):
        spec = build_lattice(3)
        g = np.random.default_rng(4).uniform(0.5, 2.0, spec.n_edges)
        net = ConductanceMap(spec, g)
        assert net.values.array is not g and np.array_equal(net.values.array, g)
        with pytest.raises(ValueError):
            net.values.array[0] = 1.0
        assert net == ConductanceMap(spec, dict(zip(spec.edges, g)))
        assert list(net.values) == list(spec.edges) and len(net.values) == spec.n_edges
        assert [net[e] for e in spec.edges] == g.tolist()
        assert EdgeId.spike(99) not in net.values
        for copy in (pickle.loads(pickle.dumps(net)), deepcopy(net)):
            assert copy == net and not copy.values.array.flags.writeable

    @pytest.mark.parametrize("g", [np.ones(23), np.ones(24, dtype=bool), np.ones((1, 24))])
    def test_array_of_another_shape_or_dtype_rejected(self, g):
        with pytest.raises(ValueError, match="expected 24 conductance numbers in catalog order"):
            ConductanceMap(build_lattice(3), g)

    def test_nonpositive_array_entry_named(self):
        spec = build_lattice(2)
        g = np.ones(spec.n_edges)
        g[5] = -0.0
        with pytest.raises(ValueError, match=f"conductance of {spec.edges[5]} must be positive and finite, got -0.0"):
            ConductanceMap(spec, g)

    def test_unchecked_mode_for_reconstruction_outputs(self):
        spec = build_lattice(1)
        values = {e: -1.0 for e in spec.edges}
        net = ConductanceMap(spec, values, check_values=False)
        assert net.values[EdgeId.spike(1)] == -1.0

    def test_zero_conductance_has_infinite_resistance(self):
        spec = build_lattice(1)
        values = {e: 2.0 for e in spec.edges}
        values[EdgeId.spike(1)] = -0.0
        net = ConductanceMap(spec, values, check_values=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resist = net.resistances()
        assert resist[EdgeId.spike(1)] == np.inf and resist[EdgeId.spike(2)] == 0.5

    def test_resistances(self):
        spec = build_lattice(1)
        net = uniform_conductances(spec, 4.0)
        assert net.resistances()[EdgeId.spike(2)] == 0.25

    def test_random_resistance_range(self):
        net = random_conductances(build_lattice(4), np.random.default_rng(0), 1.0, 2.0)
        resist = np.array(list(net.resistances().values()))
        assert resist.min() >= 1.0 and resist.max() <= 2.0


class TestNetworkJson:
    def test_round_trip(self):
        net = random_conductances(build_lattice(3), np.random.default_rng(12))
        back = network_from_json(network_to_json(net))
        assert back.spec == net.spec
        assert back.values == net.values

    def test_schema_and_length_checks(self):
        with pytest.raises(NetworkFormatError):
            network_from_json(json.dumps({"schema": "nope", "length": 2, "conductances": {}}))
        with pytest.raises(NetworkFormatError):
            network_from_json(json.dumps({"schema": "rnet-network/1", "length": 0, "conductances": {}}))

    def test_missing_edge_rejected(self):
        net = uniform_conductances(build_lattice(1))
        doc = json.loads(network_to_json(net))
        del doc["conductances"]["S:1"]
        with pytest.raises(NetworkFormatError):
            network_from_json(json.dumps(doc))

    def test_extra_edge_rejected(self):
        net = uniform_conductances(build_lattice(1))
        doc = json.loads(network_to_json(net))
        doc["conductances"]["S:9"] = 1.0
        with pytest.raises(NetworkFormatError):
            network_from_json(json.dumps(doc))

    def test_duplicate_edge_rejected(self):
        net = uniform_conductances(build_lattice(1))
        text = network_to_json(net)
        text = text.replace('"S:1": 1.0', '"S:1": 1.0, "S:1": 2.0', 1)
        with pytest.raises(NetworkFormatError):
            network_from_json(text)

    def test_nonpositive_value_rejected(self):
        net = uniform_conductances(build_lattice(1))
        doc = json.loads(network_to_json(net))
        doc["conductances"]["S:1"] = -3.0
        with pytest.raises(NetworkFormatError):
            network_from_json(json.dumps(doc))

    def test_invalid_json_rejected(self):
        with pytest.raises(NetworkFormatError):
            network_from_json("{not json")

    def test_alias_beside_canonical_id_rejected(self):
        doc = json.loads(network_to_json(uniform_conductances(build_lattice(1))))
        doc["conductances"]["S:01"] = 123.0
        with pytest.raises(NetworkFormatError, match="S:1 named twice"):
            network_from_json(json.dumps(doc))

    def test_bool_length_rejected(self):
        doc = json.loads(network_to_json(uniform_conductances(build_lattice(1))))
        doc["length"] = True
        with pytest.raises(NetworkFormatError, match="invalid length True"):
            network_from_json(json.dumps(doc))

    def test_integer_beyond_float_range_rejected(self):
        doc = json.loads(network_to_json(uniform_conductances(build_lattice(1))))
        doc["conductances"]["S:1"] = 10**400
        with pytest.raises(NetworkFormatError, match="S:1: conductance must be positive"):
            network_from_json(json.dumps(doc))

    def test_huge_length_refused_without_building_its_catalog(self, monkeypatch):
        catalog = lattice._edge_catalog

        def small_catalog(k):
            assert k <= 100, f"catalog of length {k} built"
            return catalog(k)

        monkeypatch.setattr(lattice, "_edge_catalog", small_catalog)
        doc = {"schema": "rnet-network/1", "length": 10**6, "conductances": {"S:1": 1.0}}
        with pytest.raises(NetworkFormatError, match="1 edges given for length 1000000"):
            network_from_json(json.dumps(doc))
