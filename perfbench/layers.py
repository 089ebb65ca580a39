"""Per-layer metrics of one traced operation, computed from its spans.

A name is ``<module>.<function>.<stat>``: ``calls`` counts calls, ``ms`` is
total time inside the function, ``self_ms`` that time minus the time of
its direct child spans.  ``flops`` is computed from matrix shapes
(2n^3/3 per LU), not counted by hardware.  Ring times are kept for k=14
reconstructions only, keyed on the peel ring ``(k - m) / 2`` of the
current length ``m``.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import CLI_COMMANDS

RING_K = 14
RINGS = tuple(range(RING_K // 2))
RING_STAGES = (
    "reconstruct.face_blocks",
    "reconstruct.tilde_face_matrices",
    "reconstruct.extract_boundary_conductances",
    "reconstruct.peel_layer",
)

# (span name, stats) for the plain per-function figures.
FUNCTION_STATS = (
    ("matrixkit.lu_factor", ("calls", "self_ms")),
    ("matrixkit.solve_linear_system", ("calls", "self_ms")),
    ("matrixkit.condition_estimate", ("calls", "ms")),
    ("reconstruct.reconstruct_full", ("calls", "self_ms")),
    ("reconstruct.face_blocks", ("calls", "self_ms")),
    ("reconstruct.tilde_face_matrices", ("calls", "self_ms")),
    ("reconstruct.extract_boundary_conductances", ("calls", "self_ms")),
    ("reconstruct.peel_layer", ("calls", "self_ms")),
    ("reconstruct.apply_schedule", ("calls", "self_ms")),
    ("reconstruct.apply_spike_removal", ("calls", "ms")),
    ("reconstruct.apply_edge_removal", ("calls", "ms")),
    ("lattice.build_kirchhoff", ("self_ms",)),
    ("lattice.response_matrix", ("self_ms",)),
    ("matrixkit.schur_complement", ("self_ms",)),
    ("lattice.random_conductances", ("ms",)),
    ("experiments.rmse_metrics", ("ms",)),
    ("measure_sim.simulate_measurement", ("self_ms",)),
    ("measure_sim.apply_elementwise_noise", ("ms",)),
    ("render.compute_delta_map", ("ms",)),
    ("render.render_delta_map", ("ms",)),
) + tuple((f"cli.{c}", ("ms",)) for c in CLI_COMMANDS)

# Figures summed over several spans: name -> span names.
GROUPS_MS = {
    "matrixkit.csv.ms": ("matrixkit.matrix_to_csv", "matrixkit.matrix_from_csv"),
    "lattice.json.ms": ("lattice.network_to_json", "lattice.network_from_json"),
    "reconstruct.json.ms": (
        "reconstruct.reconstruction_to_json",
        "reconstruct.reconstruction_edges_from_json",
    ),
    "render.json.ms": ("render.delta_map_to_json", "render.delta_map_from_json"),
}
GROUPS_SELF_MS = {
    "experiments.self_ms": ("experiments.run_size_sweep", "experiments.run_noise_sweep"),
    "cli.self_ms": ("cli.main",) + tuple(f"cli.{c}" for c in CLI_COMMANDS),
}

_UNITS = {"calls": "count", "ms": "ms", "self_ms": "ms"}

# Every per-layer metric with its unit, in report order.  The run-level
# figures (residual warnings, tracer health, outcome shares) are filled in
# by the runner, not from one op's spans.
METRICS: dict[str, str] = {}
for _span, _stats in FUNCTION_STATS:
    for _stat in _stats:
        METRICS[f"{_span}.{_stat}"] = _UNITS[_stat]
METRICS["matrixkit.lu_factor.flops"] = "flop"
METRICS.update({f"reconstruct.ring{r}.ms": "ms" for r in RINGS})
METRICS["reconstruct.wasted_share"] = "ratio"
METRICS.update({f"reconstruct.rejected.ring{r}": "count" for r in RINGS})
METRICS.update({name: "ms" for name in GROUPS_MS})
METRICS.update({name: "ms" for name in GROUPS_SELF_MS})
METRICS["matrixkit.csv.bytes"] = "bytes"
METRICS["experiments.useful_trial_ratio"] = "ratio"
METRICS["cli.bytes_written"] = "bytes"
METRICS["reconstruct.residual_warnings"] = "count"
METRICS["outcome.rejected_share"] = "ratio"
METRICS["outcome.error_rate"] = "ratio"
METRICS["trace.overhead_pct"] = "%"
METRICS["trace.coverage"] = "ratio"


def op_metrics(spans: list[tuple], latency_ms: float, reported: int) -> dict[str, float]:
    """Per-layer figures of one op from its spans, in the tracer's format.

    ``spans`` are the op's spans with ``parent`` indices relative to the
    list; ``reported`` is how many trials the op reported to its caller.
    """
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    attrs: dict[str, float] = defaultdict(float)
    child_ms = [0.0] * len(spans)
    durations = [(end - start) * 1000.0 for _, start, end, *_ in spans]
    for i, (_, _, _, parent, *_) in enumerate(spans):
        if parent >= 0:
            child_ms[parent] += durations[i]

    ring_ms: dict[int, float] = defaultdict(float)
    rejected: dict[int, int] = defaultdict(int)
    flops = 0.0
    recon_ms = wasted_ms = covered_ms = 0.0
    for i, (name, _, _, parent, _, attr, refused) in enumerate(spans):
        ms = durations[i]
        calls[name] += 1
        total[name] += ms
        own[name] += ms - child_ms[i]
        attrs[name] += attr
        if parent < 0:
            covered_ms += ms
        if name == "matrixkit.lu_factor":
            flops += 2.0 * attr**3 / 3.0
        elif name == "reconstruct.reconstruct_full":
            recon_ms += ms
            if refused is not None:
                wasted_ms += ms
                rejected[refused] += 1
        elif name in RING_STAGES:
            outer = parent
            while outer >= 0 and spans[outer][0] != "reconstruct.reconstruct_full":
                outer = spans[outer][3]
            if outer >= 0 and spans[outer][5] == RING_K:
                ring_ms[(RING_K - attr) // 2] += ms

    values: dict[str, float] = {}
    for span, stats in FUNCTION_STATS:
        table = {"calls": calls, "ms": total, "self_ms": own}
        for stat in stats:
            values[f"{span}.{stat}"] = float(table[stat].get(span, 0))
    values["matrixkit.lu_factor.flops"] = flops
    for r in RINGS:
        values[f"reconstruct.ring{r}.ms"] = ring_ms.get(r, 0.0)
        values[f"reconstruct.rejected.ring{r}"] = float(rejected.get(r, 0))
    values["reconstruct.wasted_share"] = wasted_ms / recon_ms if recon_ms else 0.0
    for name, members in GROUPS_MS.items():
        values[name] = sum(total.get(m, 0.0) for m in members)
    for name, members in GROUPS_SELF_MS.items():
        values[name] = sum(own.get(m, 0.0) for m in members)
    values["matrixkit.csv.bytes"] = attrs.get("matrixkit.matrix_to_csv", 0.0) + attrs.get(
        "matrixkit.matrix_from_csv", 0.0
    )
    recons = calls.get("reconstruct.reconstruct_full", 0)
    sweeps = calls.get("experiments.run_size_sweep", 0) + calls.get("experiments.run_noise_sweep", 0)
    values["experiments.useful_trial_ratio"] = reported / recons if sweeps and recons else 0.0
    values["trace.coverage"] = covered_ms / latency_ms if latency_ms else 0.0
    return values
