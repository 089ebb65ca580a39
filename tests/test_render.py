import json
import re
import warnings

import numpy as np
import pytest

from rnet.errors import NetworkFormatError, SpecMismatchError
from rnet.lattice import ConductanceMap, EdgeId, build_lattice, response_matrix, uniform_conductances
from rnet.reconstruct import reconstruct_full
from rnet.render import (
    DeltaMap,
    RenderStyle,
    compute_delta_map,
    delta_map_from_json,
    delta_map_to_json,
    render_delta_map,
)

LINE_RE = re.compile(r"<line\b[^>]*>")
EDGE_ATTR_RE = re.compile(r'data-edge="([^"]+)"')


def delta_map_from_networks(baseline: ConductanceMap, deformed: ConductanceMap) -> DeltaMap:
    """Delta map straight from two ground-truth networks."""
    if baseline.spec != deformed.spec:
        raise SpecMismatchError("networks have different lengths")
    delta = {}
    for e in baseline.spec.edges:
        r0 = 1.0 / baseline.values[e]
        r1 = 1.0 / deformed.values[e]
        delta[e] = (r1 - r0) / r0
    return DeltaMap(spec=baseline.spec, delta=delta)


def reconstruct_net(net):
    return reconstruct_full(response_matrix(net), net.spec.length)


def stretched(net, kind, factor):
    values = {
        e: (g / factor if e.kind == kind else g) for e, g in net.values.items()
    }
    return ConductanceMap(net.spec, values)


class TestComputeDeltaMap:
    def test_identical_reconstructions_give_zero(self):
        net = uniform_conductances(build_lattice(3))
        rec = reconstruct_net(net)
        dmap = compute_delta_map(rec, rec)
        assert all(d == 0.0 for d in dmap.delta.values())

    def test_single_doubled_resistance(self):
        spec = build_lattice(2)
        base = uniform_conductances(spec)
        values = dict(base.values)
        values[EdgeId.spike(3)] = 0.5  # resistance doubles
        deformed = ConductanceMap(spec, values)
        dmap = compute_delta_map(reconstruct_net(base), reconstruct_net(deformed))
        assert dmap.delta[EdgeId.spike(3)] == pytest.approx(1.0, abs=1e-8)
        others = [abs(d) for e, d in dmap.delta.items() if e != EdgeId.spike(3)]
        assert max(others) <= 1e-8

    def test_horizontal_stretch_pattern(self):
        spec = build_lattice(3)
        base = uniform_conductances(spec)
        deformed = stretched(base, "H", 1.8)
        dmap = compute_delta_map(reconstruct_net(base), reconstruct_net(deformed))
        for e, d in dmap.delta.items():
            if e.kind == "H":
                assert d == pytest.approx(0.8, abs=1e-8)
            else:
                assert abs(d) <= 1e-8

    def test_spec_mismatch(self):
        rec2 = reconstruct_net(uniform_conductances(build_lattice(2)))
        rec3 = reconstruct_net(uniform_conductances(build_lattice(3)))
        with pytest.raises(SpecMismatchError):
            compute_delta_map(rec2, rec3)

    def test_nonpositive_baseline_rejected(self):
        spec = build_lattice(1)
        rec = reconstruct_net(uniform_conductances(spec))
        broken = type(rec)(
            conductances=rec.conductances,
            resistances={e: -1.0 for e in spec.edges},
            report=(),
            elapsed_ms=0.0,
        )
        with pytest.raises(ValueError):
            compute_delta_map(broken, rec)


    def test_overflowing_delta_refused_without_numpy_warning(self):
        spec = build_lattice(1)
        rec = reconstruct_net(uniform_conductances(spec))
        tiny = rec.resistances.array.copy()
        tiny[0] = 5e-324
        baseline = type(rec)(conductances=rec.conductances, resistances=tiny, report=(), elapsed_ms=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="delta of S:1 must be finite, got inf"):
                compute_delta_map(baseline, rec)


class TestDeltaMap:
    @pytest.mark.parametrize("value", [True, "0.5", None, float("nan")])
    def test_non_finite_or_non_number_rejected(self, value):
        spec = build_lattice(1)
        values = {e: 0.5 for e in spec.edges}
        values[EdgeId.spike(3)] = value
        with pytest.raises(ValueError, match=re.escape(f"delta of S:3 must be finite, got {value!r}")):
            DeltaMap(spec, values)

    def test_catalog_ordered_array(self):
        spec = build_lattice(2)
        delta = np.linspace(-1.0, 1.0, spec.n_edges)
        dmap = DeltaMap(spec, delta)
        assert dmap.delta.array is not delta and not dmap.delta.array.flags.writeable
        assert [dmap.delta[e] for e in spec.edges] == delta.tolist()
        assert dmap == DeltaMap(spec, dict(zip(spec.edges, delta.tolist())))
        with pytest.raises(ValueError, match="expected 12 delta numbers"):
            DeltaMap(spec, delta[:-1])


class TestDeltaJson:
    def test_round_trip(self):
        spec = build_lattice(2)
        rng = np.random.default_rng(3)
        dmap = DeltaMap(spec, {e: float(x) for e, x in zip(spec.edges, rng.uniform(-1, 1, spec.n_edges))})
        back = delta_map_from_json(delta_map_to_json(dmap))
        assert back.spec == dmap.spec
        assert back.delta == dmap.delta

    def test_bad_documents(self):
        with pytest.raises(NetworkFormatError):
            delta_map_from_json("{}")
        spec = build_lattice(1)
        doc = {"schema": "rnet-delta/1", "length": 1, "delta": {"S:1": 0.1}}
        with pytest.raises(NetworkFormatError):
            delta_map_from_json(json.dumps(doc))

    def delta_text(self) -> str:
        spec = build_lattice(1)
        return delta_map_to_json(DeltaMap(spec, {e: 0.25 for e in spec.edges}))

    def test_alias_beside_canonical_id_rejected(self):
        doc = json.loads(self.delta_text())
        doc["delta"]["S:01"] = 0.5
        with pytest.raises(NetworkFormatError, match="S:1 named twice"):
            delta_map_from_json(json.dumps(doc))

    def test_repeated_key_rejected(self):
        text = self.delta_text().replace('"S:1": 0.25', '"S:1": 0.25, "S:1": 0.5', 1)
        with pytest.raises(NetworkFormatError, match="duplicate key 'S:1'"):
            delta_map_from_json(text)

    def test_bool_length_rejected(self):
        doc = json.loads(self.delta_text())
        doc["length"] = True
        with pytest.raises(NetworkFormatError, match="invalid length True"):
            delta_map_from_json(json.dumps(doc))


class TestRenderDeltaMap:
    def zero_map(self, k=3):
        spec = build_lattice(k)
        return DeltaMap(spec, {e: 0.0 for e in spec.edges})

    def test_zero_map_all_neutral_minimum_width(self):
        style = RenderStyle()
        svg = render_delta_map(self.zero_map(), style)
        strokes = LINE_RE.findall(svg)
        assert strokes
        for stroke in strokes:
            assert 'stroke="#8c8c8c"' in stroke
            assert f'stroke-width="{style.min_width:.2f}"' in stroke

    def test_single_positive_edge_is_lone_red_max_width(self):
        spec = build_lattice(2)
        delta = {e: 0.0 for e in spec.edges}
        delta[EdgeId.horizontal(1, 1)] = 0.4
        style = RenderStyle()
        svg = render_delta_map(DeltaMap(spec, delta), style)
        strokes = LINE_RE.findall(svg)
        wide = [s for s in strokes if f'stroke-width="{style.max_width:.2f}"' in s]
        assert len(wide) == 1
        assert 'data-edge="H:1:1"' in wide[0]
        assert 'stroke="#b2182b"' in wide[0]
        neutral = [s for s in strokes if 'stroke="#8c8c8c"' in s]
        assert len(neutral) == len(strokes) - 1

    def test_negative_edge_is_blue(self):
        spec = build_lattice(2)
        delta = {e: 0.0 for e in spec.edges}
        delta[EdgeId.spike(5)] = -0.2
        svg = render_delta_map(DeltaMap(spec, delta))
        wide = [s for s in LINE_RE.findall(svg) if 'data-edge="S:5"' in s]
        assert len(wide) == 1
        assert 'stroke="#2146aa"' in wide[0]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_stroke_count_is_edge_count(self, k):
        svg = render_delta_map(self.zero_map(k))
        assert len(LINE_RE.findall(svg)) == 2 * k * k + 2 * k

    def test_every_edge_id_appears_once(self):
        spec = build_lattice(4)
        svg = render_delta_map(self.zero_map(4))
        ids = EDGE_ATTR_RE.findall(svg)
        assert sorted(ids) == sorted(str(e) for e in spec.edges)

    def test_byte_identical_rendering(self):
        spec = build_lattice(3)
        rng = np.random.default_rng(8)
        dmap = DeltaMap(spec, {e: float(x) for e, x in zip(spec.edges, rng.uniform(-0.5, 0.5, spec.n_edges))})
        assert render_delta_map(dmap) == render_delta_map(dmap)

    def test_deadband_renders_neutral(self):
        spec = build_lattice(2)
        delta = {e: 0.004 for e in spec.edges}  # below the 0.5% default deadband
        delta[EdgeId.spike(1)] = 0.5
        svg = render_delta_map(DeltaMap(spec, delta))
        strokes = LINE_RE.findall(svg)
        neutral = [s for s in strokes if 'stroke="#8c8c8c"' in s]
        assert len(neutral) == len(strokes) - 1

    def test_legend_shows_max(self):
        spec = build_lattice(2)
        delta = {e: 0.0 for e in spec.edges}
        delta[EdgeId.spike(2)] = 0.123
        svg = render_delta_map(DeltaMap(spec, delta))
        assert "max |dR/R0| = 0.123" in svg

    def test_from_networks_helper(self):
        base = uniform_conductances(build_lattice(2))
        deformed = stretched(base, "V", 1.5)
        dmap = delta_map_from_networks(base, deformed)
        assert dmap.delta[EdgeId.vertical(1, 1)] == pytest.approx(0.5, rel=1e-12)
        assert dmap.delta[EdgeId.spike(1)] == 0.0
        # the map from two reconstructions recovers the ground-truth one
        recon = compute_delta_map(reconstruct_net(base), reconstruct_net(deformed))
        for e in base.spec.edges:
            assert recon.delta[e] == pytest.approx(dmap.delta[e], abs=1e-12)

    def test_style_validation(self):
        with pytest.raises(ValueError):
            RenderStyle(min_width=3.0, max_width=1.0)
        with pytest.raises(ValueError):
            RenderStyle(deadband=-0.1)
