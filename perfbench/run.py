"""rnet benchmark: one seeded workload, closed loop, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

One client in one process issues each operation only after the previous
one returned.  With ``--trace 0`` the last stdout line is a JSON object
with the end-to-end metrics; with ``--trace 1`` ops alternate between
traced and untraced (pairs share a seed) and it carries the per-layer
metrics instead.  Lines before it are a human-readable report.  Exits 2
without a result when ``src/rnet`` is not below the working directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from typing import NamedTuple

WORKLOADS = ("sweep", "noisy", "pipeline")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Cold imports measured per run, in fresh interpreters, besides this one.
SETUP_SUBPROCESSES = 6
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import rnet, rnet.cli; "
    "print(time.perf_counter() - t)"
)
# Op i's inputs come from seed * OP_SEED_STRIDE + i, so a run averages over
# many inputs.  The warm-up repeats op 0's seed, which checks that results
# are repeatable; traced runs pair ops instead (traced, untraced, one seed).
OP_SEED_STRIDE = 1_000_000
TAIL_BEYOND = 10
TAIL_PERCENTILE = 90.0
# On a shared host the speed of this process flips between states ~40%
# apart within seconds, so raw times of two runs of one commit differ by up
# to 30% (IQR/median over ten runs).  A fixed numpy kernel that runs no
# rnet code is timed before the first op and then every REFERENCE_EVERY_S
# between ops; end-to-end times are scaled by REFERENCE_MS / (its median
# in the run), i.e. they read as times on a host where it takes 30 ms.
# Scaled, that spread stayed below 8%.  Raw times are printed as well.
REFERENCE_MS = 30.0
REFERENCE_EVERY_S = 0.5
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "recon_per_s": "1/s",
    "accuracy_digits": "digits",
    "peak_rss_mb": "MB",
}


class OpRecord(NamedTuple):
    op_id: int
    seed: int
    latency_ms: float
    outcome: object  # workloads.Outcome
    runtime_warnings: int
    spans: list | None  # this op's spans, parents rebased; None if untraced


def cap_threads() -> dict[str, str]:
    """Cap BLAS/OpenMP threads at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in THREAD_VARS}


def measure_setup(root: str) -> list[float]:
    """Cold ``import rnet, rnet.cli`` times: this process, then fresh ones."""
    start = time.perf_counter()
    import rnet  # noqa: F401
    import rnet.cli  # noqa: F401

    samples = [time.perf_counter() - start]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    for _ in range(SETUP_SUBPROCESSES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET], cwd=root, env=env,
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def machine_facts(caps: dict[str, str]) -> dict[str, object]:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name,
        "thread_caps": caps,
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """The tail latency and its percentile.

    The guide's rule is the highest percentile with TAIL_BEYOND samples
    beyond it; it is capped at TAIL_PERCENTILE because on a shared host the
    p99 of a thousand short ops is set by stalls of other tenants and swings
    by half from run to run.  With too few samples, the maximum.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = min(math.ceil(n * TAIL_PERCENTILE / 100.0), n - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / n


def reference_kernel_ms() -> float:
    """Time 40 row-pivoted LUs of a fixed 48x48 matrix, written here, not in rnet."""
    import numpy as np

    a = 48.0 * np.eye(48) + (np.arange(48 * 48).reshape(48, 48) % 7) / 7.0
    start = time.perf_counter()
    for _ in range(40):
        lu = a.copy()
        for col in range(47):
            rel = col + int(np.argmax(np.abs(lu[col:, col])))
            if rel != col:
                lu[[col, rel]] = lu[[rel, col]]
            lu[col + 1 :, col] /= lu[col, col]
            lu[col + 1 :, col + 1 :] -= np.outer(lu[col + 1 :, col], lu[col, col + 1 :])
    return (time.perf_counter() - start) * 1000.0


def run_op(workload, seed: int, tracer, op_id: int) -> OpRecord:
    """One timed op, then its output check outside the timed region."""
    from workloads import Outcome

    first_span = len(tracer.spans) if tracer else 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.op = op_id
            tracer.install()
        error = None
        start = time.perf_counter()
        try:
            raw = workload.run(seed)
        except Exception as exc:  # an untyped failure is an outcome, not a crash
            error = f"op {op_id}: {type(exc).__name__}: {exc}"
        latency_ms = (time.perf_counter() - start) * 1000.0
        if tracer is not None:
            tracer.uninstall()
    runtime_warnings = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    spans = None
    if tracer is not None:
        spans = [
            (name, t0, t1, parent - first_span if parent >= 0 else -1, *rest)
            for name, t0, t1, parent, *rest in tracer.spans[first_span:]
        ]
    if error is None:
        try:
            outcome = workload.check(raw)
        except Exception as exc:  # unreadable output fails the check
            error = f"op {op_id}: check: {type(exc).__name__}: {exc}"
    if error is not None:
        outcome = Outcome(problems=[error])
    return OpRecord(op_id, seed, latency_ms, outcome, runtime_warnings, spans)


def run_loop(workload, base: int, seconds: float, tracer, reference: list[float]):
    """An untimed warm-up, then ops until ``seconds`` have passed (at least 2).

    Appends reference-kernel times to ``reference`` between ops.
    """
    warm = run_op(workload, base, None, -1)
    records: list[OpRecord] = []
    last_reference = time.perf_counter()
    deadline = last_reference + seconds
    while len(records) < 2 or time.perf_counter() < deadline:
        if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
            reference.append(reference_kernel_ms())
            last_reference = time.perf_counter()
        op_id = len(records)
        seed = base + (op_id // 2 if tracer else op_id)
        traced = tracer is not None and op_id % 2 == (op_id // 2) % 2
        records.append(run_op(workload, seed, tracer if traced else None, op_id))
    by_seed: dict[int, set[str]] = {}
    for r in [warm] + records:
        by_seed.setdefault(r.seed, set()).add(r.outcome.fingerprint)
    for r in [warm] + records:
        if len(by_seed[r.seed]) > 1:
            r.outcome.problems.append(f"op {r.op_id}: output differs from another run of its seed")
    return warm, records


def end_to_end(
    records: list[OpRecord], setup: list[float], reference: list[float]
) -> dict[str, float]:
    """End-to-end metrics, times scaled to the reference host."""
    latencies = [r.latency_ms for r in records]
    lat_tail, percentile = tail(latencies)
    beyond = sum(x > lat_tail for x in latencies)
    reported = sum(r.outcome.reported for r in records)
    raw = {
        "setup_s": statistics.median(setup),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": lat_tail,
        "recon_per_s": reported / (sum(latencies) / 1000.0),
    }
    reference_ms = statistics.median(reference)
    scale = REFERENCE_MS / reference_ms
    print(f"# op_tail_ms is p{percentile:.1f} of {len(latencies)} ops ({beyond} beyond it)")
    print(f"# setup samples (s): {', '.join(f'{s:.4f}' for s in setup)}")
    print(f"# reference kernel: median {reference_ms:.3f} ms of {len(reference)} samples; "
          f"times below are scaled by {scale:.4f}; raw: "
          + ", ".join(f"{name}={value:.6g}" for name, value in raw.items()))
    accuracy = [r.outcome.accuracy for r in records if math.isfinite(r.outcome.accuracy)]
    return {
        "setup_s": raw["setup_s"] * scale,
        "op_p50_ms": raw["op_p50_ms"] * scale,
        "op_tail_ms": raw["op_tail_ms"] * scale,
        "recon_per_s": raw["recon_per_s"] / scale,
        "accuracy_digits": statistics.median(accuracy) if accuracy else math.nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(records: list[OpRecord]) -> dict[str, float]:
    from layers import op_metrics

    traced = [r for r in records if r.spans is not None]
    plain = [r for r in records if r.spans is None]
    per_op = [op_metrics(r.spans, r.latency_ms, r.outcome.reported) for r in traced]
    metrics = {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(r.latency_ms for r in traced)
        / statistics.median(r.latency_ms for r in plain)
        - 1.0
    )
    metrics["reconstruct.residual_warnings"] = statistics.median(
        r.runtime_warnings for r in records
    )
    metrics["cli.bytes_written"] = statistics.median(r.outcome.bytes_written for r in records)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rnet", "__init__.py")):
        print("perfbench: src/rnet not found; run from the repository root", file=sys.stderr)
        return 2
    caps = cap_threads()
    sys.path.insert(0, src)
    setup = measure_setup(root)
    reference = [reference_kernel_ms() for _ in range(3)]

    import rnet
    import workloads
    from layers import METRICS as LAYER_UNITS
    from tracer import Tracer

    here = os.path.dirname(os.path.abspath(__file__))
    tracer = Tracer(rnet.RnetError) if args.trace else None
    with tempfile.TemporaryDirectory(dir=here, prefix=".work-") as workdir:
        workload = workloads.make(args.workload, workdir)
        warm, records = run_loop(
            workload, args.seed * OP_SEED_STRIDE, args.seconds, tracer, reference
        )

    checked = [warm] + records  # the warm-up op is checked too
    failed = sum(bool(r.outcome.problems) for r in checked)
    reported = sum(r.outcome.reported for r in records)
    rejected_share = sum(r.outcome.rejected for r in records) / reported if reported else 0.0
    error_rate = failed / len(checked)
    print(f"# machine: {json.dumps(machine_facts(caps))}")
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} ops={len(records)}")
    for r in checked:
        for problem in r.outcome.problems[:3]:
            print(f"# FAILED: {problem}")

    if tracer is not None:
        spans_dir = os.path.join(here, ".spans")
        os.makedirs(spans_dir, exist_ok=True)
        tracer.write(os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl"))
        metrics = per_layer(records)
        metrics["outcome.rejected_share"] = rejected_share
        metrics["outcome.error_rate"] = error_rate
        metrics = {name: metrics[name] for name in LAYER_UNITS}
        units = LAYER_UNITS
    else:
        metrics = end_to_end(records, setup, reference)
        units = END_TO_END_UNITS
        print(f"rejected_share: {rejected_share:.6g} ratio")
        print(f"error_rate: {error_rate:.6g} ratio")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
