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
The script uses only the public ``rnet`` API, so it runs on any version
that has it.  It takes a few seconds on a 2-core host.
It is not a test: pytest does not collect it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
import sys
import warnings

import numpy as np

from rnet import (
    NO_NOISE,
    ElementwiseNoise,
    ProtocolNoise,
    RnetError,
    apply_elementwise_noise,
    build_lattice,
    compute_delta_map,
    delta_map_from_json,
    delta_map_to_json,
    forward_boundary_solve,
    network_from_json,
    network_to_json,
    random_conductances,
    reconstruct_full,
    reconstruction_to_json,
    response_matrix,
    simulate_measurement,
    uniform_conductances,
)
from rnet.experiments import run_noise_sweep, run_size_sweep, run_timing_profile, sweep_to_csv
from rnet.reconstruct import reconstruction_edges_from_json

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
    """``reconstruct_full`` on k=1..15 x seeds 0-3 x sigma 0, 1e-6, 1e-3; refusals included."""
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
                    out = np.array([rec.conductances.values[e] for e in spec.edges])
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
        "elementwise:0.02": ElementwiseNoise(0.02),
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
            delta_text = delta_map_to_json(compute_delta_map(rec0, rec1))
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


def reader_cases():
    """What each per-edge reader makes of a fixed list of edited k=2 documents.

    The digest covers the values read in catalog order, or the refusal's type and message.
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
            try:
                values = read(_document(schema, field, length, edited))
            except Exception as exc:  # the refusal is the result
                out = f"{type(exc).__name__}: {exc}".encode()
            else:
                out = np.array([values[e] for e in spec.edges])
            yield f"reader {name} {label}", digest(out)


def main() -> int:
    warnings.simplefilter("ignore", RuntimeWarning)
    for name, value in reconstruction_cases():
        print(name, value)
    for name, result in sweep_cases():
        print(name, digest(untimed_csv(result)))
    for name, value in measurement_cases():
        print(name, value)
    for name, value in forward_cases():
        print(name, value)
    for name, value in writer_cases():
        print(name, value)
    for name, value in reader_cases():
        print(name, value)
    return 0


if __name__ == "__main__":
    sys.exit(main())
