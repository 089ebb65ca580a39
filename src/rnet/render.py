"""Relative-resistance-change maps and their SVG rendering.

The rendering is a pure function of the map and the style: identical
inputs produce byte-identical documents.  Stroke width and color ramp
with each edge's relative change, normalized to the map's own maximum;
red means the resistance went up, blue down, and changes inside the
deadband draw as neutral gray.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import SpecMismatchError
from .lattice import EdgeId, LatticeSpec, _edge_array, _edge_names, _edge_values, _read_document
from .reconstruct import ReconstructionResult


@dataclass(frozen=True)
class DeltaMap:
    """Per-edge relative resistance change (R - R0) / R0.

    ``delta`` may be an ``{EdgeId: number}`` mapping or a catalog-ordered
    array; it is held as an ``EdgeValues`` view of a read-only float64 array.
    """

    spec: LatticeSpec
    delta: Mapping[EdgeId, float]

    def __post_init__(self):
        delta = _edge_array(self.spec, self.delta, "delta", "finite", np.isfinite)
        object.__setattr__(self, "delta", delta)

    def max_abs(self) -> float:
        return float(np.abs(self.delta.array).max())


def compute_delta_map(
    baseline: ReconstructionResult, deformed: ReconstructionResult
) -> DeltaMap:
    """Relative change of every edge resistance between two reconstructions."""
    if baseline.spec != deformed.spec:
        raise SpecMismatchError(
            f"baseline has length {baseline.spec.length}, deformed {deformed.spec.length}"
        )
    r0, r1 = baseline.resistances.array, deformed.resistances.array
    bad0 = ~(np.isfinite(r0) & (r0 > 0))
    bad = bad0 | ~np.isfinite(r1)
    if bad.any():
        slot = int(np.argmax(bad))
        e = baseline.spec.edges[slot]
        if bad0[slot]:
            raise ValueError(
                f"baseline resistance of {e} must be positive, got {float(r0[slot])!r}"
            )
        raise ValueError(f"deformed resistance of {e} must be finite, got {float(r1[slot])!r}")
    with np.errstate(over="ignore"):  # DeltaMap refuses an overflow as a nonfinite delta
        delta = (r1 - r0) / r0
    return DeltaMap(spec=baseline.spec, delta=delta)


DELTA_SCHEMA = "rnet-delta/1"


def delta_map_to_json(dmap: DeltaMap) -> str:
    doc = {
        "schema": DELTA_SCHEMA,
        "length": dmap.spec.length,
        "delta": dict(zip(_edge_names(dmap.spec.length), dmap.delta.array.tolist())),
    }
    return json.dumps(doc, indent=2) + "\n"


def delta_map_from_json(text: str) -> DeltaMap:
    spec, raw = _read_document(text, DELTA_SCHEMA, "delta", dict)
    return DeltaMap(spec, _edge_values(spec, raw.items(), "delta must be finite", math.isfinite))


@dataclass(frozen=True)
class RenderStyle:
    """Presentation knobs for the SVG output."""

    cell: float = 44.0
    margin: float = 30.0
    min_width: float = 1.2
    max_width: float = 7.0
    deadband: float = 0.005
    legend_height: float = 40.0

    def __post_init__(self):
        if self.deadband < 0:
            raise ValueError("deadband must be >= 0")
        if not 0 < self.min_width <= self.max_width:
            raise ValueError("need 0 < min_width <= max_width")


NEUTRAL_COLOR = "#8c8c8c"
_POS_RAMP = ((244, 180, 172), (178, 24, 43))   # light red -> strong red
_NEG_RAMP = ((178, 200, 238), (33, 70, 170))   # light blue -> strong blue


def _mix(ramp, t: float) -> str:
    (r0, g0, b0), (r1, g1, b1) = ramp
    r = round(r0 + (r1 - r0) * t)
    g = round(g0 + (g1 - g0) * t)
    b = round(b0 + (b1 - b0) * t)
    return f"#{r:02x}{g:02x}{b:02x}"


def _node_xy(style: RenderStyle, r: float, c: float) -> tuple[float, float]:
    # Grid rows/cols 1..k; row 0 / col 0 / row k+1 / col k+1 hold boundary nodes.
    return (style.margin + c * style.cell, style.margin + r * style.cell)


def _edge_segment(spec: LatticeSpec, edge: EdgeId, style: RenderStyle):
    k = spec.length
    if edge.kind == "S":
        r, c = spec.spike_anchor(edge.i)
        b = edge.i
        if b <= k:
            outer = (0, c)
        elif b <= 2 * k:
            outer = (r, k + 1)
        elif b <= 3 * k:
            outer = (k + 1, c)
        else:
            outer = (r, 0)
        return _node_xy(style, *outer), _node_xy(style, r, c)
    if edge.kind == "H":
        return _node_xy(style, edge.i, edge.j), _node_xy(style, edge.i, edge.j + 1)
    return _node_xy(style, edge.i, edge.j), _node_xy(style, edge.i + 1, edge.j)


def render_delta_map(dmap: DeltaMap, style: RenderStyle = RenderStyle()) -> str:
    """Draw the lattice with stroke width and color following each delta.

    Every edge becomes exactly one ``<line>`` element carrying a
    ``data-edge`` attribute with its edge id.
    """
    spec = dmap.spec
    k = spec.length
    span = style.margin * 2 + (k + 1) * style.cell
    height = span + style.legend_height
    max_abs = dmap.max_abs()

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{span:.2f}" height="{height:.2f}" '
        f'viewBox="0 0 {span:.2f} {height:.2f}">',
        f'<rect x="0" y="0" width="{span:.2f}" height="{height:.2f}" fill="#ffffff"/>',
    ]
    for edge, name, d in zip(spec.edges, _edge_names(k), dmap.delta.array.tolist()):
        if max_abs <= style.deadband or abs(d) <= style.deadband:
            color = NEUTRAL_COLOR
            width = style.min_width
        else:
            t = min(abs(d) / max_abs, 1.0)
            color = _mix(_POS_RAMP if d > 0 else _NEG_RAMP, t)
            width = style.min_width + (style.max_width - style.min_width) * t
        (x1, y1), (x2, y2) = _edge_segment(spec, edge, style)
        lines.append(
            f'<line data-edge="{name}" x1="{x1:.2f}" y1="{y1:.2f}" '
            f'x2="{x2:.2f}" y2="{y2:.2f}" stroke="{color}" '
            f'stroke-width="{width:.2f}" stroke-linecap="round"/>'
        )
    legend_y = span + style.legend_height * 0.6
    lines.append(
        f'<text x="{style.margin:.2f}" y="{legend_y:.2f}" '
        f'font-family="sans-serif" font-size="14">'
        f"max |dR/R0| = {max_abs:.4g} (red: increase, blue: decrease, "
        f"gray: within {style.deadband:.3g})</text>"
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
