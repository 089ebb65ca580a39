import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rnet.errors import (
    DegenerateDeltaError,
    DimensionMismatchError,
    InvalidConductanceError,
    RnetError,
    SingularBlockError,
    ZeroDivisorError,
)
from rnet.lattice import (
    ConductanceMap,
    EdgeId,
    EdgeValues,
    ResponseMatrix,
    _kirchhoff_stack,
    _response_stack,
    build_lattice,
    layer_spike_edge,
    layer_tangential_edge,
    random_conductances,
    response_matrix,
    uniform_conductances,
)
from rnet.measure_sim import apply_elementwise_noise
from rnet.reconstruct import (
    RESIDUAL_WARN,
    PeelExtraction,
    ReconstructionResult,
    apply_edge_removal,
    apply_schedule,
    apply_spike_removal,
    extract_boundary_conductances,
    isolated_indices,
    peel_layer,
    reconstruct_full,
    reconstruction_edges_from_json,
    reconstruction_to_json,
    removal_schedule,
)
from rnet.reconstruct import _peel_stack, _tilde_stack

from lattice_geometry import layer_anchor, layer_boundary_node, rotate_edge, rotate_network


def unit_lambda(k: int) -> np.ndarray:
    return response_matrix(uniform_conductances(build_lattice(k))).entries


def random_lambda(k: int, seed: int):
    net = random_conductances(build_lattice(k), np.random.default_rng(seed))
    return net, response_matrix(net).entries


def face_reductions(lam: np.ndarray) -> tuple[dict[str, np.ndarray], dict[str, float]]:
    """The four face reductions of one response matrix and their opposite blocks' conditions."""
    tilde, cond, errors = _tilde_stack(lam[None])
    assert errors == {}
    return dict(zip("NESW", tilde[0])), dict(zip("NESW", cond[0].tolist()))


class TestTildeFaces:
    def test_unit_length2_north(self):
        tilde, _ = face_reductions(unit_lambda(2))
        assert np.allclose(tilde["N"], [[1.0, 0.0], [1.0, 1.0]], rtol=0, atol=1e-12)

    def test_uniform_net_face_relations(self):
        # Quarter-turn symmetry of a uniform network relates the four face
        # reductions pairwise; opposite faces agree and adjacent ones are
        # transposes (the construction alternates continuation direction).
        tilde, _ = face_reductions(unit_lambda(3))
        assert np.allclose(tilde["N"], tilde["S"], rtol=0, atol=1e-12)
        assert np.allclose(tilde["E"], tilde["W"], rtol=0, atol=1e-12)
        assert np.allclose(tilde["E"], tilde["N"].T, rtol=0, atol=1e-12)

    def test_random_diagonal_matches_spike_truth(self):
        net, lam = random_lambda(3, 42)
        tilde, _ = face_reductions(lam)
        for offset, face in zip((0, 3, 6, 9), "NESW"):
            for j in range(1, 4):
                truth = net.values[EdgeId.spike(offset + j)]
                assert tilde[face][j - 1, j - 1] == pytest.approx(truth, rel=1e-10)

    def test_condition_estimates_recorded(self):
        _, condition = face_reductions(unit_lambda(2))
        assert set(condition) == set("NESW")
        assert all(c >= 1.0 for c in condition.values())

    def test_singular_opposite_block(self):
        with pytest.raises(SingularBlockError) as err:
            extract_boundary_conductances(np.eye(8))
        assert err.value.face == "N"

    def test_near_singular_opposite_block(self):
        # No pivot is exactly zero, so a plain LAPACK solve succeeds; the
        # condition number (~4.5e15) is what must refuse it.
        lam = unit_lambda(3).copy()
        lam[9:12, 3:6] = [[1.0, 1.0, 0.0], [1.0, 1.0 + 2.0**-50, 0.0], [0.0, 0.0, 1.0]]
        with pytest.raises(SingularBlockError) as err:
            extract_boundary_conductances(lam)
        assert err.value.face == "N"


class TestExtraction:
    def test_zero_divisor_refused_without_numpy_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroDivisorError):
                extract_boundary_conductances(mixed_stack()[-1])

    def test_unit_length2(self):
        ext = extract_boundary_conductances(unit_lambda(2))
        assert ext.spikes.shape == (8,)
        assert ext.spikes == pytest.approx(np.ones(8), abs=1e-12)
        assert ext.edges.shape == (4,)  # one per face: anchors (1,2), (3,4), (5,6), (7,8)
        assert ext.edges == pytest.approx(np.ones(4), abs=1e-12)
        assert ext.flags == ()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            extract_boundary_conductances(np.eye(6))

    @pytest.mark.parametrize("shape", [(4, 8), (6, 6), (0, 0)])
    @pytest.mark.parametrize("read", [
        ResponseMatrix,
        extract_boundary_conductances,
        lambda a: peel_layer(a, extract_boundary_conductances(unit_lambda(3))),
        lambda a: reconstruct_full(a, 2),
    ], ids=["ResponseMatrix", "extract", "peel_layer", "reconstruct_full"])
    def test_one_response_matrix_shape_rule(self, read, shape):
        with pytest.raises(ValueError) as refused:
            read(np.ones(shape))
        assert type(refused.value) is DimensionMismatchError
        assert str(refused.value) == (
            f"response matrix must be square, of order 4k with k >= 1, got shape {shape}"
        )

    def test_uniform_scaling(self):
        net, lam = random_lambda(2, 7)
        ext = extract_boundary_conductances(lam)
        ext_scaled = extract_boundary_conductances(3.0 * lam)
        assert ext_scaled.spikes == pytest.approx(3.0 * ext.spikes, rel=1e-12)
        assert ext_scaled.edges == pytest.approx(3.0 * ext.edges, rel=1e-12)

    def test_random_length2_full_match(self):
        net, lam = random_lambda(2, 123)
        ext = extract_boundary_conductances(lam)
        for b in range(1, 9):
            assert ext.spikes[b - 1] == pytest.approx(net.values[EdgeId.spike(b)], rel=1e-10)
        # At length 2 each face has one tangential edge, between its anchors 1 and 2.
        tangential = [
            EdgeId.horizontal(1, 1),  # N, boundary indices (1, 2)
            EdgeId.vertical(1, 2),    # E, (3, 4)
            EdgeId.horizontal(2, 1),  # S, (5, 6)
            EdgeId.vertical(1, 1),    # W, (7, 8)
        ]
        for f, edge in enumerate(tangential):
            assert ext.edges[f] == pytest.approx(net.values[edge], rel=1e-10)

    def test_nonpositive_estimates_flagged_not_clamped(self):
        lam = unit_lambda(2)
        # corrupt hard enough to drive an estimate negative but keep blocks invertible
        bad = lam.copy()
        bad[0, 0] = -0.3
        ext = extract_boundary_conductances(bad)
        negative = [v for v in ext.spikes if v <= 0]
        assert negative
        assert ext.spikes[0] <= 0
        assert ext.flags[0] == f"spike 1: nonpositive estimate {float(ext.spikes[0])!r}"
        assert ext.flags[1] == f"edge (1, 2): nonpositive estimate {float(ext.edges[0])!r}"


class TestSpikeRemoval:
    def test_unit_star_hand_value(self):
        lam = unit_lambda(1)
        out = apply_spike_removal(lam, 1, 1.0)
        # center becomes boundary node 1, joined to 2..4 by unit resistors:
        # the response matrix is that network's Kirchhoff matrix itself
        expected = np.array(
            [
                [3.0, -1.0, -1.0, -1.0],
                [-1.0, 1.0, 0.0, 0.0],
                [-1.0, 0.0, 1.0, 0.0],
                [-1.0, 0.0, 0.0, 1.0],
            ]
        )
        assert np.allclose(out, expected, rtol=0, atol=1e-12)

    def test_general_star_removal(self):
        # removing spike g1 from a star leaves diagonal g2+g3+g4 at the center
        gammas = np.array([1.3, 0.7, 1.9, 0.4])
        spec = build_lattice(1)
        net = ConductanceMap(spec, {EdgeId.spike(b): g for b, g in zip(range(1, 5), gammas)})
        lam = response_matrix(net).entries
        out = apply_spike_removal(lam, 1, float(gammas[0]))
        assert out[0, 0] == pytest.approx(gammas[1:].sum(), rel=1e-12)

    def test_symmetry_preserved_exactly(self):
        lam = random_lambda(2, 3)[1]
        out = apply_spike_removal(lam, 5, 0.9)
        assert np.array_equal(out, out.T)

    def test_non_square_refused(self):
        with pytest.raises(DimensionMismatchError, match=r"^expected a square matrix, got shape \(4, 8\)$"):
            apply_spike_removal(np.ones((4, 8)), 1, 0.5)

    def test_nonpositive_gamma_rejected(self):
        lam = unit_lambda(1)
        with pytest.raises(InvalidConductanceError):
            apply_spike_removal(lam, 1, 0.0)
        with pytest.raises(InvalidConductanceError):
            apply_spike_removal(lam, 1, -1.0)

    @pytest.mark.parametrize(
        "gamma, same", [(np.float32(0.5), 0.5), (np.int64(1), 1.0)], ids=["float32", "int64"]
    )
    def test_numpy_real_gamma_taken_as_the_float(self, gamma, same):
        lam = random_lambda(2, 3)[1]
        got, want = apply_spike_removal(lam, 5, gamma), apply_spike_removal(lam, 5, same)
        assert got.tobytes() == want.tobytes()

    def test_bool_gamma_rejected(self):
        with pytest.raises(InvalidConductanceError, match="got True"):
            apply_spike_removal(unit_lambda(1), 1, True)

    def test_degenerate_delta(self):
        lam = unit_lambda(1)
        with pytest.raises(DegenerateDeltaError):
            apply_spike_removal(lam, 1, float(lam[0, 0]))

    def test_out_of_range_node(self):
        with pytest.raises(ValueError):
            apply_spike_removal(unit_lambda(1), 5, 1.0)


@pytest.mark.parametrize(
    "remove",
    [lambda lam: apply_spike_removal(lam, 5, 0.9), lambda lam: apply_edge_removal(lam, 2, 7, 0.9)],
    ids=["spike", "edge"],
)
def test_removal_reads_a_response_matrix_as_its_entries(remove):
    lam = response_matrix(random_conductances(build_lattice(2), np.random.default_rng(3)))
    assert remove(lam).tobytes() == remove(lam.entries).tobytes()


class TestEdgeRemoval:
    def test_zero_gamma_is_identity(self):
        lam = random_lambda(2, 8)[1]
        assert np.array_equal(apply_edge_removal(lam, 1, 2, 0.0), lam)

    def test_full_removal_of_single_resistor(self):
        g = 0.8
        lam = np.array([[g, -g], [-g, g]])
        # a two-node response matrix is not 4k-sized, so call on raw arrays
        out = apply_edge_removal(lam, 1, 2, g)
        assert np.array_equal(out, np.zeros((2, 2)))

    def test_antisymmetric_pair_bounded_by_rounding(self):
        # (a - g) + g is not an identity in floating point, so the round
        # trip is only guaranteed to one rounding of the update magnitude;
        # entries away from (i, j) must come back bit-identical.
        lam = random_lambda(3, 9)[1]
        g = 0.9371
        there = apply_edge_removal(lam, 2, 7, g)
        back = apply_edge_removal(there, 2, 7, -g)
        touched = {(1, 1), (6, 6), (1, 6), (6, 1)}
        ulp = np.spacing(np.abs(lam).max() + g)
        for i in range(12):
            for j in range(12):
                if (i, j) in touched:
                    assert abs(back[i, j] - lam[i, j]) <= 2 * ulp
                else:
                    assert back[i, j] == lam[i, j]

    def test_non_square_refused(self):
        with pytest.raises(DimensionMismatchError, match=r"^expected a square matrix, got shape \(4, 8\)$"):
            apply_edge_removal(np.ones((4, 8)), 1, 2, 0.5)

    def test_same_endpoints_rejected(self):
        with pytest.raises(ValueError):
            apply_edge_removal(unit_lambda(1), 2, 2, 0.5)

    @pytest.mark.parametrize(
        "gamma", [True, np.True_, "0.5", None], ids=["True", "np.True_", "str", "None"]
    )
    def test_bool_or_non_number_rejected(self, gamma):
        with pytest.raises(ValueError, match="edge conductance must be a number"):
            apply_edge_removal(unit_lambda(1), 1, 2, gamma)


def unit_schedule(m):
    """``removal_schedule`` of ``m`` and a valid k=4 extraction, so only ``m`` can be refused."""
    return removal_schedule(m, extract_boundary_conductances(unit_lambda(4)))


def random_valid_schedule(m, extraction, rng):
    """Random linear extension of the removal-dependency DAG."""
    low_first = bool(rng.integers(0, 2))
    steps = removal_schedule(m, extraction, corner_low_first=low_first)
    spike_step = {s[1]: i for i, s in enumerate(steps) if s[0] == "spike"}
    needs = {}
    for i, s in enumerate(steps):
        if s[0] == "edge":
            needs[i] = {spike_step[x] for x in (s[1], s[2]) if x in spike_step}
        else:
            needs[i] = set()
    order, placed = [], set()
    remaining = set(range(len(steps)))
    while remaining:
        ready = [i for i in remaining if needs[i] <= placed]
        pick = ready[rng.integers(0, len(ready))]
        order.append(pick)
        placed.add(pick)
        remaining.remove(pick)
    return [steps[i] for i in order]


class TestPeel:
    def test_unit_length4_peels_to_unit_length2(self):
        lam = unit_lambda(4)
        inner, _ = peel_layer(lam, extract_boundary_conductances(lam))
        assert inner.shape == (8, 8)
        assert np.allclose(inner, unit_lambda(2), rtol=0, atol=1e-10)

    def test_index_map_after_peel(self):
        lam = unit_lambda(4)
        spec = build_lattice(4)
        inner, _ = peel_layer(lam, extract_boundary_conductances(lam))
        index_map = [layer_boundary_node(spec, 1, j) for j in range(1, len(inner) + 1)]
        assert index_map[0] == ("I", 1, 2)

    def test_peel_matches_subnetwork_forward_model(self):
        k = 5
        spec = build_lattice(k)
        net = random_conductances(spec, np.random.default_rng(77))
        lam = response_matrix(net).entries
        inner, _ = peel_layer(lam, extract_boundary_conductances(lam))
        sub_spec = build_lattice(k - 2)
        sub_values = {}
        for j in range(1, 4 * (k - 2) + 1):
            sub_values[EdgeId.spike(j)] = net.values[layer_spike_edge(spec, 1, j)]
        for r in range(1, k - 1):
            for c in range(1, k - 2):
                sub_values[EdgeId.horizontal(r, c)] = net.values[EdgeId.horizontal(r + 1, c + 1)]
        for r in range(1, k - 2):
            for c in range(1, k - 1):
                sub_values[EdgeId.vertical(r, c)] = net.values[EdgeId.vertical(r + 1, c + 1)]
        sub_lam = response_matrix(ConductanceMap(sub_spec, sub_values)).entries
        assert np.abs(inner - sub_lam).max() <= 1e-10

    def test_residual_is_tiny_for_exact_data(self):
        net, lam = random_lambda(5, 31)
        _, residual = peel_layer(lam, extract_boundary_conductances(lam))
        assert residual <= 1e-12

    @pytest.mark.parametrize("k", [1, 2, 5, 7, 8])
    def test_ring_by_ring_matches_reconstruct_full(self, k):
        net, lam = random_lambda(k, 60 + k)
        spec, found = net.spec, {}
        for layer in range((k + 1) // 2):
            m = k - 2 * layer
            ext = extract_boundary_conductances(lam)
            for j in range(1, 4 * m + 1):
                found[layer_spike_edge(spec, layer, j)] = ext.spikes[j - 1]
            faces = [(face, i) for face in "NESW" for i in range(1, m)]
            for (face, i), g in zip(faces, ext.edges, strict=True):
                found[layer_tangential_edge(spec, layer, face, i)] = g
            if m > 2:
                lam, _ = peel_layer(lam, ext)
        full = reconstruct_full(response_matrix(net), k).conductances
        assert found.keys() == set(spec.edges)
        rings = np.array([found[e] for e in spec.edges])
        assert rings.tobytes() == np.array([full[e] for e in spec.edges]).tobytes()

    def test_extraction_of_another_length_refused(self):
        lam = unit_lambda(5)
        with pytest.raises(DimensionMismatchError):
            peel_layer(lam, extract_boundary_conductances(unit_lambda(4)))

    @pytest.mark.parametrize("m", range(1, 10))
    def test_isolated_rows_structural_set(self, m):
        got = isolated_indices(m)
        assert got == tuple(sorted({1, m, m + 1, 2 * m, 2 * m + 1, 3 * m, 3 * m + 1, 4 * m}))
        if m == 3:
            assert got == (1, 3, 4, 6, 7, 9, 10, 12)
        if m == 4:
            assert got == (1, 4, 5, 8, 9, 12, 13, 16)

    @pytest.mark.parametrize(
        "read, m, message",
        [
            (isolated_indices, 3.5, "current length must be a positive integer, got 3.5"),
            (isolated_indices, True, "current length must be a positive integer, got True"),
            (unit_schedule, 3.5, "current length must be a positive integer, got 3.5"),
            (unit_schedule, 1, "peeling needs current length >= 3, got 1"),
            (unit_schedule, 2, "peeling needs current length >= 3, got 2"),
        ],
        ids=["isolated-3.5", "isolated-True", "schedule-3.5", "schedule-1", "schedule-2"],
    )
    def test_current_length_refused(self, read, m, message):
        with pytest.raises(ValueError) as refusal:
            read(m)
        assert type(refusal.value) is ValueError and str(refusal.value) == message

    @pytest.mark.parametrize("low_first", [True, False])
    @pytest.mark.parametrize("m", range(3, 10))
    def test_corner_partners_share_an_anchor(self, m, low_first):
        """The corner-partner edges join exactly the index pairs that one anchor carries."""
        spec = build_lattice(m)
        anchor = {b: layer_anchor(spec, 0, b) for b in range(1, 4 * m + 1)}
        shared = {(a, b) for a in anchor for b in anchor if a < b and anchor[a] == anchor[b]}
        slots = PeelExtraction(m, np.arange(4 * m), np.arange(4 * m, 8 * m - 4))
        steps = removal_schedule(m, slots, corner_low_first=low_first)
        partners = [s for s in steps if s[0] == "edge" and s[3] < 4 * m]  # a spike's slot
        assert len(partners) == len(shared) == 4
        assert {tuple(sorted(s[1:3])) for s in partners} == shared
        for _, removed, kept, slot in partners:
            assert slot == removed - 1  # the removed index's own spike
            assert (kept < removed) == low_first

    def test_wrong_extraction_warns(self):
        net, lam = random_lambda(4, 15)
        ext = extract_boundary_conductances(lam)
        bad_spikes = ext.spikes.copy()
        bad_spikes[1] = bad_spikes[1] * 1.5  # boundary index 2
        bad = type(ext)(length=ext.length, spikes=bad_spikes, edges=ext.edges)
        with pytest.warns(RuntimeWarning, match="^isolated-row residual"):
            peel_layer(lam, bad)

    @pytest.mark.parametrize("slack", [0.0, 2.0**-50], ids=["exact", "near"])
    def test_inconsistent_spikes_refused(self, slack):
        # The spike block D = lam_SS - diag(gamma) is all ones plus
        # slack * I: exactly singular, or near enough that no LAPACK pivot
        # is zero and only its condition number refuses it.
        m = 3
        lam = np.ones((4 * m, 4 * m)) + 2.0 * np.eye(4 * m)
        spikes = np.full(4 * m, 2.0 - slack)
        edges = np.ones(4 * (m - 1))
        ext = PeelExtraction(length=m, spikes=spikes, edges=edges)
        with pytest.raises(DegenerateDeltaError):
            peel_layer(lam, ext)

    def test_needs_interior(self):
        net, lam = random_lambda(2, 1)
        with pytest.raises(ValueError):
            peel_layer(lam, extract_boundary_conductances(lam))

    @pytest.mark.parametrize("k,seed", [(3, 0), (4, 1), (5, 2), (6, 3), (8, 4)])
    def test_schedule_independence(self, k, seed):
        net, lam = random_lambda(k, seed)
        ext = extract_boundary_conductances(lam)
        canonical, _ = peel_layer(lam, ext)
        rng = np.random.default_rng(seed + 1000)
        for _ in range(10):
            schedule = random_valid_schedule(k, ext, rng)
            alt, _ = peel_layer(lam, ext, schedule=schedule)
            assert np.abs(alt - canonical).max() <= 1e-10

    def test_apply_schedule_rejects_unknown_step(self):
        with pytest.raises(ValueError):
            apply_schedule(unit_lambda(1), [("melt", 1)])


class TestReconstructFull:
    def test_result_holds_per_edge_arrays(self):
        result = reconstruct_full(random_lambda(3, 4)[1], 3)
        assert isinstance(result.conductances, EdgeValues)
        assert isinstance(result.resistances, EdgeValues)
        assert result.resistances.array.tobytes() == (1.0 / result.conductances.array).tobytes()
        with pytest.raises(TypeError, match="resistances"):
            ReconstructionResult(
                conductances=result.conductances,
                resistances=result.resistances,
                report=result.report,
                elapsed_ms=result.elapsed_ms,
            )

    def test_numpy_integer_length_accepted(self):
        lam = random_lambda(3, 4)[1]
        result = reconstruct_full(lam, np.int64(3))
        assert type(result.spec.length) is int and result.spec == build_lattice(3)
        assert [type(d.length) for d in result.report] == [int, int]
        expected = reconstruct_full(lam, 3).conductances.array
        assert result.conductances.array.tobytes() == expected.tobytes()

    def test_length_text_refused_as_a_length(self):
        # 4 * "3" is "3333": the length is read before any shape is compared
        message = "^network length must be a positive integer, got '3'$"
        with pytest.raises(ValueError, match=message):
            reconstruct_full(random_lambda(3, 4)[1], "3")

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_uniform_network_exact(self, k):
        result = reconstruct_full(response_matrix(uniform_conductances(build_lattice(k))), k)
        for e, g in result.conductances.items():
            assert g == pytest.approx(1.0, abs=1e-10)
        for e, r in result.resistances.items():
            assert r == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("k,seed", [(2, 5), (3, 6), (4, 7), (5, 8), (6, 9)])
    def test_random_round_trip(self, k, seed):
        net = random_conductances(build_lattice(k), np.random.default_rng(seed))
        result = reconstruct_full(response_matrix(net), k)
        for e in net.spec.edges:
            assert result.conductances[e] == pytest.approx(net.values[e], rel=1e-8)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_round_trip_wide_conductance_range(self, k):
        spec = build_lattice(k)
        rng = np.random.default_rng(400 + k)
        net = ConductanceMap(spec, dict(zip(spec.edges, rng.uniform(0.5, 2.0, spec.n_edges))))
        result = reconstruct_full(response_matrix(net), k)
        for e in spec.edges:
            assert result.conductances[e] == pytest.approx(net.values[e], rel=1e-8)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, k, seed):
        spec = build_lattice(k)
        rng = np.random.default_rng(seed)
        net = ConductanceMap(spec, dict(zip(spec.edges, rng.uniform(0.5, 2.0, spec.n_edges))))
        result = reconstruct_full(response_matrix(net), k)
        for e in spec.edges:
            assert result.conductances[e] == pytest.approx(net.values[e], rel=1e-8)

    def test_single_distinctive_edge_lands_on_right_id(self):
        spec = build_lattice(4)
        values = {e: 1.0 for e in spec.edges}
        values[EdgeId.vertical(2, 3)] = 5.0
        net = ConductanceMap(spec, values)
        result = reconstruct_full(response_matrix(net), 4)
        assert result.conductances[EdgeId.vertical(2, 3)] == pytest.approx(5.0, abs=1e-8)
        others = [v for e, v in result.conductances.items() if e != EdgeId.vertical(2, 3)]
        assert max(others) < 1.5

    def test_scale_equivariance(self):
        net, lam = random_lambda(4, 77)
        base = reconstruct_full(lam, 4)
        scaled = reconstruct_full(2.5 * lam, 4)
        for e in net.spec.edges:
            assert scaled.conductances[e] == pytest.approx(
                2.5 * base.conductances[e], rel=1e-9
            )

    def test_quarter_turn_equivariance(self):
        k = 3
        net, lam = random_lambda(k, 21)
        rotated = rotate_network(net)
        rec = reconstruct_full(response_matrix(net), k)
        rec_rot = reconstruct_full(response_matrix(rotated), k)
        for e in net.spec.edges:
            assert rec_rot.conductances[rotate_edge(k, e)] == pytest.approx(
                rec.conductances[e], rel=1e-9
            )

    def test_failure_annotated_with_layer(self):
        with pytest.raises(SingularBlockError) as err:
            reconstruct_full(np.eye(8), 2)
        assert "layer 0" in str(err.value)

    @pytest.mark.parametrize("j", [2, 4])
    def test_nonpositive_ring1_spike_refused(self, j):
        # A negative ring-1 spike is read off exactly once ring 0 is gone.
        # j=4 is a deferred corner partner, removed by the additive edge
        # rule rather than the spike rule; it must be refused all the same.
        spec = build_lattice(5)
        g = np.ones(spec.n_edges)
        g[spec.edges.index(layer_spike_edge(spec, 1, j))] = -0.5
        lam = _response_stack(_kirchhoff_stack(g[None], 5), 5)[0]
        with pytest.raises(InvalidConductanceError) as err:
            reconstruct_full(lam, 5)
        assert "layer 1" in str(err.value)
        assert err.value.layer == 1

    def test_asymmetric_input_warns(self):
        lam = unit_lambda(2).copy()
        lam[0, 1] += 1e-3
        with pytest.warns(RuntimeWarning, match="asymmetry"):
            result = reconstruct_full(lam, 2)
        assert result.warnings

    def test_wrong_size_rejected(self):
        with pytest.raises(DimensionMismatchError):
            reconstruct_full(unit_lambda(2), 3)

    def test_report_structure(self):
        result = reconstruct_full(unit_lambda(5), 5)
        assert [d.layer for d in result.report] == [0, 1, 2]
        assert [d.length for d in result.report] == [5, 3, 1]
        assert result.report[0].residual_max is not None
        assert result.report[-1].residual_max is None
        assert result.elapsed_ms > 0

    def test_terminal_even_case_has_no_peel(self):
        result = reconstruct_full(unit_lambda(2), 2)
        assert [d.length for d in result.report] == [2]
        assert result.report[0].residual_max is None


def mixed_stack(k: int = 5):
    """Exact, noisy and hand-broken length-``k`` response matrices in one stack."""
    spec = build_lattice(k)
    items = [random_lambda(k, seed)[1] for seed in range(3)]
    for seed in range(8):  # at sigma 3e-2 about half of these are refused
        lam = response_matrix(random_conductances(spec, np.random.default_rng(seed)))
        items.append(apply_elementwise_noise(lam, 3e-2, 100 + seed).entries)
    items.append(np.eye(4 * k))  # singular opposite blocks
    for j in (2, 4):  # a nonpositive ring-1 spike, at a spike-rule index and a corner partner
        g = np.ones(spec.n_edges)
        g[spec.edges.index(layer_spike_edge(spec, 1, j))] = -0.5
        items.append(_response_stack(_kirchhoff_stack(g[None], k), k)[0])
    zero = random_lambda(k, 9)[1].copy()
    zero[0:k, k : 2 * k] = zero[k : 2 * k, 0:k] = 0.0  # face N's reduction is its own block,
    zero[0, 1] = zero[1, 0] = 0.0                      # whose first edge divisor is then zero
    items.append(zero)
    return np.stack(items)


class TestPeelStack:
    def test_each_item_matches_its_own_reconstruction(self):
        k = 5
        stack = mixed_stack(k)
        g, refusals, _, _ = _peel_stack([stack])[0]
        edges = build_lattice(k).edges
        kinds = []
        for item, lam in enumerate(stack):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    alone = reconstruct_full(lam, k)
            except RnetError as exc:
                got = refusals[item]
                assert (type(got), got.layer, str(got)) == (type(exc), exc.layer, str(exc))
                assert getattr(got, "face", None) == getattr(exc, "face", None)
                kinds.append(type(exc))
                continue
            assert refusals[item] is None
            expected = np.array([alone.conductances[e] for e in edges])
            assert g[item].tobytes() == expected.tobytes()
            kinds.append(None)
        assert kinds[:3] == [None, None, None]
        noisy = kinds[3:11]
        assert None in noisy and InvalidConductanceError in noisy
        assert kinds[11:] == [
            SingularBlockError, InvalidConductanceError, InvalidConductanceError, ZeroDivisorError
        ]

    def test_ragged_stacks_match_one_item_peels(self):
        # Odd and even lengths, k=1 and k=2, two stacks of one length, a stack
        # refused entirely, and items refused at layers 0, 1 and 2 that share
        # rings with items of other lengths, all in one pass.
        spec7 = build_lattice(7)
        noisy7 = [
            apply_elementwise_noise(
                response_matrix(random_conductances(spec7, np.random.default_rng(seed))),
                1e-6 if seed == 4 else 1e-3,
                seed,
            ).entries
            for seed in range(6)
        ]
        stacks = [
            np.stack([random_lambda(4, seed)[1] for seed in range(2)]),
            np.stack([random_lambda(1, seed)[1] for seed in range(2)]),
            mixed_stack(5),
            np.stack(noisy7),
            np.stack([random_lambda(2, seed)[1] for seed in range(3)]),
            np.stack([np.eye(12), np.eye(12)]),
            np.stack([random_lambda(5, seed)[1] for seed in range(5, 7)]),
        ]
        peels = _peel_stack(stacks)
        outcomes = []
        for stack, (g, refusals, diagnostics, ms) in zip(stacks, peels, strict=True):
            k = stack.shape[1] // 4
            assert g.shape == (len(stack), 2 * k * k + 2 * k)
            assert ms.shape == (len(stack),) and np.all(np.isfinite(ms) & (ms >= 0))
            for item, lam in enumerate(stack):
                g1, (alone,), diagnostics1, _ = _peel_stack([lam[None]])[0]
                assert g[item].tobytes() == g1[0].tobytes()
                for d, d1 in zip(diagnostics, diagnostics1, strict=True):
                    assert d[:, item].tobytes() == d1[:, 0].tobytes()
                got = refusals[item]
                if alone is None:
                    assert got is None
                    outcomes.append((k, None))
                    continue
                assert (type(got), got.layer, str(got)) == (type(alone), alone.layer, str(alone))
                assert getattr(got, "face", None) == getattr(alone, "face", None)
                outcomes.append((k, got.layer))
        assert all(isinstance(r, SingularBlockError) for r in peels[5][1])
        assert {(7, None), (7, 1), (7, 2), (5, 0), (5, 1), (3, 0), (1, None), (2, None)} <= set(
            outcomes
        )

    def test_ring_refused_entirely_at_the_spike_check_is_not_removed(self, monkeypatch):
        # Both items lose a ring-1 spike, so ring 3 has no items left to strip.
        import rnet.reconstruct as reconstruct

        calls = {"_remove_ring": [], "_compact": []}

        def counted(name):
            original = getattr(reconstruct, name)

            def wrapper(lam, *args):
                calls[name].append(len(lam))
                return original(lam, *args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(reconstruct, name, counted(name))
        stack = mixed_stack(5)[-3:-1]
        g, refusals, _, _ = _peel_stack([stack])[0]
        assert [(type(r), r.layer) for r in refusals] == [(InvalidConductanceError, 1)] * 2
        assert all("conductance must be positive" in str(r) for r in refusals)
        assert calls == {"_remove_ring": [2], "_compact": [2]}  # ring 5 only
        for item, lam in enumerate(stack):
            with pytest.raises(InvalidConductanceError) as err:
                reconstruct_full(lam, 5)
            assert str(err.value) == str(refusals[item])
            assert np.isnan(g[item]).any()

    def test_stack_core_warns_about_nothing(self):
        # Deep noise-free items exceed RESIDUAL_WARN, noisy ones are refused,
        # and the zero divisor of the mixed stack divides by zero:
        # reconstruct_full warns about the first, the stacked core about none.
        k = 10
        lams = [random_lambda(k, seed)[1] for seed in range(3)]
        for seed in range(3):
            lam = response_matrix(random_conductances(build_lattice(k), np.random.default_rng(seed)))
            lams.append(apply_elementwise_noise(lam, 1e-3, seed).entries)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (_, refusals, (_, residual, scale), _), (_, mixed_refusals, _, _) = _peel_stack(
                [np.stack(lams), mixed_stack()]
            )
        assert any(r is not None for r in refusals)
        assert isinstance(mixed_refusals[-1], ZeroDivisorError)
        assert np.any(residual > RESIDUAL_WARN * scale)


class TestReconstructionJson:
    def test_round_trip(self):
        net, lam = random_lambda(3, 50)
        result = reconstruct_full(lam, 3)
        text = reconstruction_to_json(result)
        spec, resist = reconstruction_edges_from_json(text)
        assert spec == net.spec
        for e in net.spec.edges:
            assert resist[e] == pytest.approx(result.resistances[e], rel=1e-15)

    def test_document_shape(self):
        import json

        result = reconstruct_full(unit_lambda(2), 2)
        doc = json.loads(reconstruction_to_json(result))
        assert doc["schema"] == "rnet-recon/1"
        assert doc["length"] == 2
        assert len(doc["edges"]) == 12
        assert {"id", "conductance", "resistance"} <= set(doc["edges"][0])
        assert doc["diagnostics"]["layers"][0]["layer"] == 0
        assert len(doc["diagnostics"]["layers"][0]["condition"]) == 4
        assert doc["diagnostics"]["elapsedMs"] > 0

    def test_bad_documents_rejected(self):
        from rnet.errors import NetworkFormatError

        with pytest.raises(NetworkFormatError):
            reconstruction_edges_from_json("{}")
        with pytest.raises(NetworkFormatError):
            reconstruction_edges_from_json('{"schema": "rnet-recon/1", "length": 1, "edges": []}')

    def test_bool_length_rejected(self):
        import json

        from rnet.errors import NetworkFormatError

        doc = json.loads(reconstruction_to_json(reconstruct_full(unit_lambda(1), 1)))
        doc["length"] = True
        with pytest.raises(NetworkFormatError, match="invalid length True"):
            reconstruction_edges_from_json(json.dumps(doc))

    def test_non_string_id_rejected(self):
        import json

        from rnet.errors import NetworkFormatError

        doc = json.loads(reconstruction_to_json(reconstruct_full(unit_lambda(1), 1)))
        doc["edges"][0]["id"] = 1
        with pytest.raises(NetworkFormatError, match="malformed edge id 1"):
            reconstruction_edges_from_json(json.dumps(doc))
