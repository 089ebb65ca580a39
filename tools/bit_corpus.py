"""Print one digest per case of a fixed corpus of float64 results.

A change that must keep every float64 output bit-identical is checked by
running this script on the old and on the new source and diffing the two
outputs::

    PYTHONPATH=<old checkout>/src python tools/bit_corpus.py > old.txt
    PYTHONPATH=src python tools/bit_corpus.py > new.txt
    diff old.txt new.txt

Each line is ``<case> <digest>``, where the digest is the first 16 hex
digits of a SHA-256 over the case's raw float64 bytes (or its refusal's
type and message).  Sweep CSVs are digested with their wall-time columns
blanked, and the reconstruction document with its elapsed time dropped.
A failing ``rnet`` command is digested as its exit code and its stderr
text, and each bad scalar argument of ``tests/scalar_cases.py`` as its
refusal's type and a digest of its message.  The script uses the public
``rnet`` API and command line, the geometry tables ``lattice._frame``
and ``lattice._edge_endpoints``, ``lattice._kirchhoff_plan``, the table
the forward model is assembled from, ``lattice._kirchhoff_stack`` and
``_response_stack``, which build a network that no ``ConductanceMap``
accepts, and ``reconstruct._ring_plan``, the index arrays the block peel
is compiled to, so it runs on any version that has them.  It takes a few seconds on a 2-core host.
It is not a test: pytest does not collect it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import re
import signal
import sys
import tempfile
import warnings
from collections.abc import Hashable

import numpy as np
from click.testing import CliRunner

from rnet import (
    NO_NOISE,
    ConductanceMap,
    DeltaMap,
    EdgeId,
    ProtocolNoise,
    RenderStyle,
    RnetError,
    apply_elementwise_noise,
    build_lattice,
    compute_delta_map,
    delta_map_from_json,
    delta_map_to_json,
    forward_boundary_solve,
    network_from_json,
    network_to_json,
    parse_noise_spec,
    random_conductances,
    reconstruct_full,
    reconstruction_to_json,
    render_delta_map,
    response_matrix,
    simulate_measurement,
    uniform_conductances,
)
from rnet.cli import main as rnet_main
from rnet.lattice import (
    _edge_endpoints,
    _frame,
    _kirchhoff_plan,
    _kirchhoff_stack,
    _response_stack,
    layer_length,
    layer_spike_edge,
    layer_tangential_edge,
)
from rnet.matrixkit import matrix_to_csv
from rnet.experiments import run_noise_sweep, run_size_sweep, run_timing_profile, sweep_to_csv
from rnet.reconstruct import (
    PeelExtraction,
    _ring_plan,
    isolated_indices,
    reconstruction_edges_from_json,
    removal_schedule,
)

TIME_COLUMNS = {"time_ms_mean", "time_ms_std"}
SIZE_K = [4, 6, 8, 10, 12, 14]


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()[:16]


def untimed_csv(result) -> bytes:
    """The sweep CSV with its wall-time columns blanked."""
    rows = list(csv.reader(io.StringIO(sweep_to_csv(result))))
    header = next(r for r in rows if not r[0].startswith("#"))
    drop = {header.index(name) for name in TIME_COLUMNS}
    return "\n".join(
        ",".join("" if i in drop and not r[0].startswith("#") else c for i, c in enumerate(r))
        for r in rows
    ).encode()


def reconstruction_cases():
    """``reconstruct_full`` on k=1..15 x seeds 0-3 x sigma 0, 1e-6, 1e-3; refusals included.

    A result is digested as its conductances in catalog order, then its resistances.
    """
    for k in range(1, 16):
        spec = build_lattice(k)
        for seed in range(4):
            net = random_conductances(spec, np.random.default_rng(seed))
            for sigma in (0.0, 1e-6, 1e-3):
                lam = response_matrix(net)
                if sigma:
                    lam = apply_elementwise_noise(lam, sigma, seed)
                try:
                    rec = reconstruct_full(lam, k)
                except RnetError as exc:
                    out = f"{type(exc).__name__}: {exc}".encode()
                else:
                    out = np.array([rec.conductances[e] for e in spec.edges])
                    out = np.concatenate([out, rec.resistances.array])
                yield f"recon k={k} seed={seed} sigma={sigma:g}", digest(lam.entries, out)


def sweep_cases():
    """Sweep CSVs: the benchmark's ops, the acceptance fixtures, and noise sweeps at seeds 0-4."""
    for seed in range(5):
        yield f"size k=4..14/2 trials=3 seed={seed}", run_size_sweep(SIZE_K, 3, seed=seed)
        yield f"noise k=7,10 sigma=1e-6,1e-3 trials=10 seed={seed}", run_noise_sweep(
            [7, 10], [1e-6, 1e-3], 10, seed=seed
        )
        yield f"noise k=1..4,7 sigma=0..3e-2 trials=6 seed={seed}", run_noise_sweep(
            [1, 2, 3, 4, 7], [0.0, 1e-6, 1e-3, 1e-2, 3e-2], 6, seed=seed
        )
        yield f"timing k=1,2,5,8 trials=3 seed={seed}", run_timing_profile(
            [1, 2, 5, 8], 3, seed=seed
        )
    yield "acceptance size k=4..14/2 trials=100 seed=0", run_size_sweep(SIZE_K, 100, seed=0)
    sigmas = [1e-4, 10**-3.5, 1e-3, 10**-2.5, 1e-2]
    yield "acceptance noise k=4 trials=100 seed=0", run_noise_sweep([4], sigmas, 100, seed=0)
    for k, probe in ((4, 1e-3), (7, 1e-6), (10, 1e-10)):
        name = f"acceptance crossing k={k} sigma={probe:g}"
        yield name, run_noise_sweep([k], [probe], 100, seed=0)


def measurement_cases():
    """``simulate_measurement`` raw columns and symmetrized matrix, four noise models."""
    models = {
        "none": NO_NOISE,
        "protocol:50": ProtocolNoise(50.0),
        "protocol:230": ProtocolNoise(230.0),
        "protocol:230:1e-3": ProtocolNoise(230.0, quant_step=1e-3),
    }
    for k in (1, 2, 3, 4, 6, 9):
        spec = build_lattice(k)
        nets = [random_conductances(spec, np.random.default_rng(100 + s)) for s in range(4)]
        nets.append(uniform_conductances(spec, 1.0 / 22080.0))
        for name, model in models.items():
            for i, net in enumerate(nets):
                record = simulate_measurement(net, model, seed=i)
                value = digest(record.raw_columns, record.lam.entries)
                yield f"measure k={k} {name} net={i}", value


NOISE_SPECS = (
    "none", "protocol:230", "protocol:230:1e-3", "elementwise:0.01", "elementwise:0",
    "protocol:-5", "protocol:1e-320", "nonsense",
)


def noise_spec_cases():
    """What ``parse_noise_spec`` makes of a fixed list of specs: the model's repr, or the refusal."""
    for text in NOISE_SPECS:
        try:
            out = repr(parse_noise_spec(text))
        except ValueError as exc:  # the refusal is the result
            out = f"{type(exc).__name__}: {exc}"
        yield f"noise_spec {text}", digest(out.encode())


def forward_cases():
    """``response_matrix`` at k=16 and ``forward_boundary_solve`` at k=1, 4, 9, 16."""
    for seed in range(4):
        net = random_conductances(build_lattice(16), np.random.default_rng(seed))
        yield f"response k=16 seed={seed}", digest(response_matrix(net).entries)
    for k in (1, 4, 9, 16):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            net = random_conductances(build_lattice(k), rng)
            solved = forward_boundary_solve(net, rng.uniform(-1.0, 1.0, 4 * k))
            value = digest(solved.currents, solved.interior_potentials)
            yield f"forward solve k={k} seed={seed}", value


def geometry_cases():
    """Lattice geometry at k=1..16, one digest per length.

    It covers the spike anchor of every boundary node, the endpoints of
    every catalog edge, every layer's spike and tangential edges, and the
    Kirchhoff plan's rows, columns and signs.
    """
    for k in range(1, 17):
        spec = build_lattice(k)
        anchors = [tuple(a) for a in _frame(k)[:, 1].tolist()]
        ends = [tuple(e) for e in _edge_endpoints(k).tolist()]
        layers = []
        for layer in range((k + 1) // 2):
            m = layer_length(k, layer)
            layers += [layer_spike_edge(spec, layer, j) for j in range(1, 4 * m + 1)]
            layers += [layer_tangential_edge(spec, layer, f, i) for f in "NESW" for i in range(1, m)]
        text = repr((anchors, ends, [str(e) for e in layers])).encode()
        yield f"geometry k={k}", digest(text, *_kirchhoff_plan(k))


def schedule_cases():
    """One peel layer's removal schedule at m=3..16, one digest per length.

    It covers ``removal_schedule`` of an extraction whose every value is
    its own slot, in both corner orientations, ``isolated_indices`` and
    every array of the block peel's ``_ring_plan``.
    """
    for m in range(3, 17):
        slots = PeelExtraction(m, np.arange(4 * m), np.arange(4 * m, 8 * m - 4))
        steps = [removal_schedule(m, slots, corner_low_first=low) for low in (True, False)]
        plan = vars(_ring_plan(m))
        arrays = [value for value in plan.values() if isinstance(value, np.ndarray)]
        text = repr((steps, isolated_indices(m), plan["n_spikes"])).encode()
        yield f"schedule m={m}", digest(text, *arrays)


def writer_cases():
    """Network, delta and reconstruction documents at k=1, 4, and the values read back.

    The reconstruction document's elapsed time is dropped.
    """
    for k in (1, 4):
        spec = build_lattice(k)
        for seed in range(4):
            base = random_conductances(spec, np.random.default_rng(seed))
            deformed = random_conductances(spec, np.random.default_rng(seed + 100))
            rec0 = reconstruct_full(response_matrix(base), k)
            rec1 = reconstruct_full(response_matrix(deformed), k)
            net_text = network_to_json(base)
            back = network_from_json(net_text).values
            yield f"network json k={k} seed={seed}", digest(
                net_text.encode(), np.array([back[e] for e in spec.edges])
            )
            delta_text = delta_map_to_json(compute_delta_map(rec0.resistances, rec1.resistances))
            back = delta_map_from_json(delta_text).delta
            yield f"delta json k={k} seed={seed}", digest(
                delta_text.encode(), np.array([back[e] for e in spec.edges])
            )
            recon_text = reconstruction_to_json(rec0)
            back = reconstruction_edges_from_json(recon_text)[1]
            recon_text = re.sub(r'"elapsedMs": [^\n]*', '"elapsedMs": null', recon_text)
            yield f"recon json k={k} seed={seed}", digest(
                recon_text.encode(), np.array([back[e] for e in spec.edges])
            )


def svg_cases():
    """``render_delta_map`` of seeded delta arrays at k=1, 2, 4, 7, in two styles."""
    styles = {"default": RenderStyle(), "wide": RenderStyle(deadband=0, min_width=0.5, max_width=9)}
    for k in (1, 2, 4, 7):
        spec = build_lattice(k)
        for seed in range(3):
            dmap = DeltaMap(spec, np.random.default_rng(seed).normal(0.0, 0.02, spec.n_edges))
            for name, style in styles.items():
                svg = render_delta_map(dmap, style)
                yield f"svg k={k} seed={seed} {name}", digest(svg.encode())


def _document(schema: str, field: str, length, pairs) -> str:
    """A per-edge document with ``pairs`` in order, written by hand so that a key may repeat."""
    if field == "edges":
        body = json.dumps([{"id": key, "resistance": value} for key, value in pairs])
    else:
        body = "{" + ", ".join(f"{json.dumps(key)}: {json.dumps(value)}" for key, value in pairs) + "}"
    return f'{{"schema": {json.dumps(schema)}, "length": {json.dumps(length)}, "{field}": {body}}}'


def _reader_edits(pairs):
    """Named edits of a valid document's ``(id, value)`` pairs."""
    first, rest = pairs[0], pairs[1:]
    yield "valid", pairs
    yield "S:01 beside S:1", pairs + [("S:01", 2.0)]
    yield "S:01 alone", [("S:01", first[1])] + rest
    yield "S:01 before S:1", [("S:01", 2.0)] + pairs
    yield "repeated key", pairs + [first]
    yield "missing edge", rest
    yield "extra id", pairs + [("S:99", 1.0)]
    yield "out-of-range id in place", pairs[:-1] + [("V:9:9", 1.0)]
    yield "malformed id", pairs + [("S:1_0", 1.0)]
    yield "malformed id first", [("Q:1", 1.0)] + pairs
    yield "bool value", [(first[0], True)] + rest
    yield "int beyond float range", [(first[0], 10**400)] + rest
    yield "int value", [(first[0], 2)] + rest
    yield "string value", [(first[0], "1.5")] + rest
    yield "null value", [(first[0], None)] + rest
    yield "infinite value", [(first[0], float("inf"))] + rest
    yield "negative value", [(first[0], -1.0)] + rest
    yield "non-string id", [(1, first[1])] + rest
    yield "list id", [(["S", 1], first[1])] + rest


def _values_digest(spec, read, source) -> str:
    """Digest of the values ``read(source)`` gives in catalog order, or of its refusal's type and message."""
    try:
        values = read(source)
    except Exception as exc:  # the refusal is the result
        return digest(f"{type(exc).__name__}: {exc}".encode())
    return digest(np.array([values[e] for e in spec.edges]))


def reader_cases():
    """What each per-edge reader makes of a fixed list of edited k=2 documents and mappings.

    Each edit is read as a document by the three document readers, then as
    a mapping by ``ConductanceMap`` and ``DeltaMap``.  The digest covers the
    values read in catalog order, or the refusal's type and message.
    """
    readers = {
        "network": ("rnet-network/1", "conductances", lambda t: network_from_json(t).values),
        "recon": ("rnet-recon/1", "edges", lambda t: reconstruction_edges_from_json(t)[1]),
        "delta": ("rnet-delta/1", "delta", lambda t: delta_map_from_json(t).delta),
    }
    spec = build_lattice(2)
    pairs = [(str(e), 1.0 + i / 8) for i, e in enumerate(spec.edges)]
    for name, (schema, field, read) in readers.items():
        edits = [(label, 2, edited) for label, edited in _reader_edits(pairs)]
        edits.append(("huge declared length", 10**6, pairs))
        for label, length, edited in edits:
            if field != "edges" and not all(isinstance(key, str) for key, _ in edited):
                continue  # a JSON object's keys are strings
            text = _document(schema, field, length, edited)
            yield f"reader {name} {label}", _values_digest(spec, read, text)
    containers = {
        "network": lambda m: ConductanceMap(spec, m).values,
        "delta": lambda m: DeltaMap(spec, m).delta,
    }
    for name, read in containers.items():
        for label, edited in _reader_edits(pairs):
            if len({key for key, _ in edited if isinstance(key, Hashable)}) != len(edited):
                continue  # a dict holds neither a repeated nor an unhashable key
            yield f"reader mapping {name} {label}", _values_digest(spec, read, dict(edited))


def _cli_files(tmp: str) -> dict[str, str]:
    """Input files of the failing commands, written into ``tmp``: name -> path."""
    texts = {}
    spec = build_lattice(2)
    texts["net2.json"] = network_to_json(random_conductances(spec, np.random.default_rng(0)))
    g = np.full(spec.n_edges, 1e-20)  # only H:1:1 conducts: the interior is singular
    g[spec.edges.index(EdgeId.horizontal(1, 1))] = 1.0
    texts["singular.json"] = network_to_json(ConductanceMap(spec, g))
    for k in (2, 3):
        net = random_conductances(build_lattice(k), np.random.default_rng(k))
        texts[f"recon{k}.json"] = reconstruction_to_json(reconstruct_full(response_matrix(net), k))
    texts["eye8.csv"] = matrix_to_csv(np.eye(8))
    texts["eye6.csv"] = matrix_to_csv(np.eye(6))
    texts["ones4x8.csv"] = matrix_to_csv(np.ones((4, 8)))
    spec = build_lattice(5)
    for j in (2, 4):  # a nonpositive ring-1 spike, at a spike-rule index and a corner partner
        g = np.ones(spec.n_edges)
        g[spec.edges.index(layer_spike_edge(spec, 1, j))] = -0.5
        texts[f"spike{j}.csv"] = matrix_to_csv(_response_stack(_kirchhoff_stack(g[None], 5), 5)[0])
    paths = {}
    for name, text in texts.items():
        paths[name] = os.path.join(tmp, name)
        with open(paths[name], "w") as handle:
            handle.write(text)
    return paths


def cli_cases():
    """Exit code and stderr text of ``rnet`` commands that fail, one line per command."""
    with tempfile.TemporaryDirectory() as tmp:
        f = _cli_files(tmp)
        cases = {
            "generate range 0:1": ["generate", "--length", "2", "--resistance-range", "0:1"],
            "generate range 5": ["generate", "--length", "2", "--resistance-range", "5"],
            "generate length 0": ["generate", "--length", "0"],
            "generate seed -1": ["generate", "--length", "2", "--seed", "-1"],
            "forward singular k=2": ["forward", f["singular.json"]],
            "reconstruct eye(8)": ["reconstruct", f["eye8.csv"]],
            "reconstruct eye(6)": ["reconstruct", f["eye6.csv"]],
            "reconstruct ones((4, 8))": ["reconstruct", f["ones4x8.csv"]],
            "measure elementwise:0.01": ["measure", f["net2.json"], "--noise", "elementwise:0.01"],
            "measure seed -1": ["measure", f["net2.json"], "--seed", "-1"],
            "sweep noise sigma nan": ["sweep", "noise", "--k-list", "3", "--sigma-list", "nan"],
            "sweep noise sigma x": ["sweep", "noise", "--k-list", "3", "--sigma-list", "x"],
            "sweep noise k-list a": ["sweep", "noise", "--k-list", "a", "--sigma-list", "0"],
            "sweep size k-range 4:x": ["sweep", "size", "--k-range", "4:x"],
            "generate range 1:x": ["generate", "--length", "2", "--resistance-range", "1:x"],
            "delta k=2 k=3": ["delta", f["recon2.json"], f["recon3.json"]],
            "reconstruct k=5 ring-1 spike 2 -0.5": ["reconstruct", f["spike2.csv"]],
            "reconstruct k=5 ring-1 spike 4 -0.5": ["reconstruct", f["spike4.csv"]],
        }
        runner = CliRunner()
        for name, args in cases.items():
            result = runner.invoke(rnet_main, args)
            yield f"cli {name}", digest(f"{result.exit_code}\n{result.stderr}".encode())


def scalar_cases():
    """What each bad value of each public scalar argument raises: its type and message digest.

    A call that returns is recorded as ``returned``.  One still running
    after 2 s, as a sweep that takes a trial count of 10**400 would be, is
    cut there and recorded as a ``TimeoutError``.
    """
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))
    from scalar_cases import CASES

    def cut(signum, frame):
        raise TimeoutError

    signal.signal(signal.SIGALRM, cut)
    for name, (call, _, value) in CASES.items():
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            call(value)
            out = "returned"
        except Exception as exc:  # the refusal is the result
            out = f"{type(exc).__name__} {digest(str(exc).encode())}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        yield f"scalar {name}", out


def main() -> int:
    warnings.simplefilter("ignore", RuntimeWarning)
    for name, value in reconstruction_cases():
        print(name, value)
    for name, result in sweep_cases():
        print(name, digest(untimed_csv(result)))
    for name, value in measurement_cases():
        print(name, value)
    for name, value in noise_spec_cases():
        print(name, value)
    for name, value in forward_cases():
        print(name, value)
    for name, value in writer_cases():
        print(name, value)
    for name, value in svg_cases():
        print(name, value)
    for name, value in reader_cases():
        print(name, value)
    for name, value in geometry_cases():
        print(name, value)
    for name, value in schedule_cases():
        print(name, value)
    for name, value in cli_cases():
        print(name, value)
    for name, value in scalar_cases():
        print(name, value)
    return 0


if __name__ == "__main__":
    sys.exit(main())
