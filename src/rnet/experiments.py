"""Seeded accuracy, noise-sensitivity and timing sweeps with CSV output.

Every sweep derives one independent RNG stream per (parameter point,
trial) from the master seed, so results are reproducible bit-for-bit and
independent of worker scheduling.  Network generation streams are keyed
by (k, trial) only, which makes the sigma=0 column of a noise sweep
reproduce the noise-free sweep exactly.
"""

from __future__ import annotations

import csv
import io
import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import RnetError, SpecMismatchError
from .lattice import ConductanceMap, build_lattice, random_conductances, response_matrix
from .measure_sim import apply_elementwise_noise
from .reconstruct import ReconstructionResult, reconstruct_full

# Seed-derivation domains (first spawn_key component).
_DOMAIN_NETWORK = 0
_DOMAIN_NOISE = 1


@dataclass(frozen=True)
class ErrorMetrics:
    """Absolute and relative RMS error of reconstructed resistances."""

    rmse: float
    rel_rmse: float


def rmse_metrics(truth: ConductanceMap, recon: ReconstructionResult) -> ErrorMetrics:
    """Per-edge resistance RMSE between ground truth and a reconstruction."""
    if truth.spec != recon.spec:
        raise SpecMismatchError(
            f"truth has length {truth.spec.length}, reconstruction {recon.spec.length}"
        )
    true_r = np.array([1.0 / truth.values[e] for e in truth.spec.edges])
    recon_r = np.array([recon.resistances[e] for e in truth.spec.edges])
    diff = recon_r - true_r
    rmse = float(np.sqrt(np.mean(diff**2)))
    rel = float(np.sqrt(np.mean((diff / true_r) ** 2)))
    return ErrorMetrics(rmse=rmse, rel_rmse=rel)


@dataclass(frozen=True)
class SweepRow:
    param: str
    trials: int
    rmse_mean: float
    rmse_std: float
    rel_rmse_mean: float
    time_ms_mean: float
    time_ms_std: float
    failures: int


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    seed: int
    config: dict[str, str]


def _network_seed(seed: int, k: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=(_DOMAIN_NETWORK, k, trial))


def _noise_seed(seed: int, k: int, sigma_index: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        entropy=seed, spawn_key=(_DOMAIN_NOISE, k, sigma_index, trial)
    )


@contextmanager
def _quiet_diagnostics():
    # Residual/asymmetry warnings are routine in noisy or deep sweeps; the
    # per-trial outcome (metrics or failure) is what the sweep records.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


def _trial(args) -> tuple[float, float, float, bool]:
    """One seeded trial, noisy when ``sigma > 0``: ``(rmse, rel_rmse, ms, failed)``."""
    k, seed, lo, hi, sigma, sigma_index, trial = args
    spec = build_lattice(k)
    rng = np.random.default_rng(_network_seed(seed, k, trial))
    net = random_conductances(spec, rng, lo, hi)
    lam = response_matrix(net)
    if sigma > 0:
        lam = apply_elementwise_noise(lam, sigma, _noise_seed(seed, k, sigma_index, trial))
    t0 = time.perf_counter()
    try:
        with _quiet_diagnostics():
            recon = reconstruct_full(lam, k)
    except RnetError:
        return (math.nan, math.nan, (time.perf_counter() - t0) * 1000.0, True)
    elapsed = (time.perf_counter() - t0) * 1000.0
    metrics = rmse_metrics(net, recon)
    failed = not (math.isfinite(metrics.rmse) and math.isfinite(metrics.rel_rmse))
    return (metrics.rmse, metrics.rel_rmse, elapsed, failed)


def _aggregate(param: str, trials: int, outcomes: Sequence[tuple]) -> SweepRow:
    ok = [(r, rel, ms) for r, rel, ms, failed in outcomes if not failed]
    failures = trials - len(ok)
    if ok:
        rmse = np.array([r for r, _, _ in ok])
        rel = np.array([x for _, x, _ in ok])
        ms = np.array([t for _, _, t in ok])
        rmse_std = float(np.std(rmse, ddof=1)) if len(ok) > 1 else 0.0
        ms_std = float(np.std(ms, ddof=1)) if len(ok) > 1 else 0.0
        return SweepRow(
            param=param,
            trials=trials,
            rmse_mean=float(np.mean(rmse)),
            rmse_std=rmse_std,
            rel_rmse_mean=float(np.mean(rel)),
            time_ms_mean=float(np.mean(ms)),
            time_ms_std=ms_std,
            failures=failures,
        )
    return SweepRow(param, trials, math.nan, math.nan, math.nan, math.nan, math.nan, failures)


def _run_row(param: str, args_list: list[tuple], workers: int | None) -> SweepRow:
    """One sweep row: a discarded warm-up on the first trial, then every trial."""
    _trial(args_list[0])
    if workers is not None and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_trial, args_list, chunksize=4))
    else:
        outcomes = [_trial(args) for args in args_list]
    return _aggregate(param, len(args_list), outcomes)


def run_size_sweep(
    k_values: Sequence[int],
    trials: int,
    resistance_low: float = 1.0,
    resistance_high: float = 2.0,
    seed: int = 0,
    workers: int | None = None,
) -> SweepResult:
    """Noise-free reconstruction error and wall time per network length.

    Per trial: draw i.i.d. uniform resistances, compute the exact response
    matrix, reconstruct, and record the resistance RMSE and the
    reconstruction wall time.  Trials that raise a solver error, or whose
    metrics come out non-finite, are counted as failures and excluded from
    the means; the sweep itself never aborts.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows = [
        _run_row(
            str(k),
            [(k, seed, resistance_low, resistance_high, 0.0, 0, t) for t in range(trials)],
            workers,
        )
        for k in k_values
    ]
    config = {
        "sweep": "size",
        "k_values": ",".join(str(k) for k in k_values),
        "trials": str(trials),
        "resistance_range": f"{resistance_low:g}:{resistance_high:g}",
        "seed": str(seed),
    }
    return SweepResult(rows=tuple(rows), seed=seed, config=config)


def run_noise_sweep(
    k_values: Sequence[int],
    sigmas: Sequence[float],
    trials: int,
    seed: int = 0,
    workers: int | None = None,
) -> SweepResult:
    """Reconstruction error under multiplicative response-matrix noise.

    One row per ``(k, sigma)`` pair, with the param column written as
    ``<k>:<sigma>``.  Networks are generated exactly as in the size sweep,
    then corrupted entrywise and symmetrized before reconstruction.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for s in sigmas:
        if not (math.isfinite(s) and s >= 0):
            raise ValueError(f"sigma must be >= 0, got {s!r}")
    rows = [
        _run_row(
            f"{k}:{sigma:g}",
            [(k, seed, 1.0, 2.0, sigma, s_idx, t) for t in range(trials)],
            workers,
        )
        for k in k_values
        for s_idx, sigma in enumerate(sigmas)
    ]
    config = {
        "sweep": "noise",
        "k_values": ",".join(str(k) for k in k_values),
        "sigmas": ",".join(f"{s:g}" for s in sigmas),
        "trials": str(trials),
        "seed": str(seed),
    }
    return SweepResult(rows=tuple(rows), seed=seed, config=config)


def run_timing_profile(
    k_values: Sequence[int],
    trials: int,
    seed: int = 0,
) -> SweepResult:
    """Wall time of reconstruction alone, per network length.

    Always runs sequentially: trial times would be polluted by scheduling
    under a worker pool.  One warm-up trial per length is discarded.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows = [
        _run_row(str(k), [(k, seed, 1.0, 2.0, 0.0, 0, t) for t in range(trials)], None)
        for k in k_values
    ]
    config = {
        "sweep": "timing",
        "k_values": ",".join(str(k) for k in k_values),
        "trials": str(trials),
        "seed": str(seed),
    }
    return SweepResult(rows=tuple(rows), seed=seed, config=config)


CSV_HEADER = [
    "param",
    "trials",
    "rmse_mean",
    "rmse_std",
    "rel_rmse_mean",
    "time_ms_mean",
    "time_ms_std",
    "failures",
]


def sweep_to_csv(result: SweepResult) -> str:
    """Serialize a sweep: config echo as comment lines, then RFC-4180 rows."""
    buf = io.StringIO()
    for key, value in result.config.items():
        buf.write(f"# {key}={value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in result.rows:
        writer.writerow(
            [
                row.param,
                row.trials,
                repr(row.rmse_mean),
                repr(row.rmse_std),
                repr(row.rel_rmse_mean),
                repr(row.time_ms_mean),
                repr(row.time_ms_std),
                row.failures,
            ]
        )
    return buf.getvalue()
