"""Seeded accuracy, noise-sensitivity and timing sweeps with CSV output.

Every sweep derives one independent RNG stream per (parameter point,
trial) from the master seed, so results are reproducible bit-for-bit.
Network generation streams are keyed by (k, trial) only, which makes the
sigma=0 column of a noise sweep reproduce the noise-free sweep exactly.

A row is one stacked computation: its networks are drawn as one
``(trials, E)`` array, forward-solved together and peeled together, and
each trial gives the same bits as the per-network API would.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SpecMismatchError
from .lattice import (
    ConductanceMap,
    ResponseMatrix,
    _kirchhoff_stack,
    _random_conductance_array,
    _response_stack,
)
from .measure_sim import apply_elementwise_noise
from .reconstruct import ReconstructionResult, _peel_stack, _resistance_array

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
    rmse, rel = _resistance_errors(true_r, recon_r)
    return ErrorMetrics(rmse=float(rmse), rel_rmse=float(rel))


def _resistance_errors(true_r: np.ndarray, recon_r: np.ndarray):
    """Resistance RMSE and relative RMSE along the last axis."""
    diff = recon_r - true_r
    return np.sqrt(np.mean(diff**2, axis=-1)), np.sqrt(np.mean((diff / true_r) ** 2, axis=-1))


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


def _spread(x: np.ndarray) -> float:
    return float(np.std(x, ddof=1)) if x.size > 1 else 0.0


def _run_row(
    param: str,
    k: int,
    trials: int,
    seed: int,
    bounds: tuple[float, float] = (1.0, 2.0),
    sigma: float = 0.0,
    sigma_index: int = 0,
    one_per_peel: bool = False,
) -> SweepRow:
    """One sweep row: draw, forward-solve and (when ``sigma > 0``) corrupt every trial.

    A discarded peel of the first trial warms up, then the whole stack is
    peeled in one pass and timed as a whole, or, with ``one_per_peel``, one
    trial per pass and timed per trial.  Trials refused by the solver or
    with non-finite metrics are counted as failures and excluded.
    """
    n_edges = 2 * k * k + 2 * k
    rngs = [np.random.default_rng(_network_seed(seed, k, t)) for t in range(trials)]
    g = np.stack([_random_conductance_array(n_edges, rng, *bounds) for rng in rngs])
    lam = _response_stack(_kirchhoff_stack(g, k), k)
    if sigma > 0:
        seeds = [_noise_seed(seed, k, sigma_index, t) for t in range(trials)]
        lam = np.stack(
            [
                apply_elementwise_noise(ResponseMatrix(item), sigma, item_seed).entries
                for item, item_seed in zip(lam, seeds)
            ]
        )
    _peel_stack(lam[:1], k)
    if one_per_peel:
        ms, peels = np.empty(trials), []
        for t in range(trials):
            t0 = time.perf_counter()
            peels.append(_peel_stack(lam[t : t + 1], k))
            ms[t] = (time.perf_counter() - t0) * 1000.0
        recon = np.concatenate([peel[0] for peel in peels])
        refusals = [peel[1][0] for peel in peels]
    else:
        t0 = time.perf_counter()
        recon, refusals, _ = _peel_stack(lam, k)
        row_ms = (time.perf_counter() - t0) * 1000.0 / trials
    rmse, rel = _resistance_errors(1.0 / g, _resistance_array(recon))
    ok = np.array([r is None for r in refusals]) & np.isfinite(rmse) & np.isfinite(rel)
    if not ok.any():
        return SweepRow(param, trials, *[math.nan] * 5, trials)
    time_ms = (float(np.mean(ms[ok])), _spread(ms[ok])) if one_per_peel else (row_ms, 0.0)
    rmse, rel = rmse[ok], rel[ok]
    return SweepRow(
        param, trials, float(np.mean(rmse)), _spread(rmse), float(np.mean(rel)), *time_ms,
        trials - rmse.size,
    )


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
    matrix, reconstruct, and record the resistance RMSE.  A row's time
    columns are its one stacked peel's wall time divided by ``trials``
    (spread 0).  Trials that raise a solver error, or whose metrics come
    out non-finite, are counted as failures and excluded from the means;
    the sweep itself never aborts.  ``workers`` is accepted for existing
    callers and ignored: every row runs in this process.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    bounds = (resistance_low, resistance_high)
    rows = [_run_row(str(k), k, trials, seed, bounds) for k in k_values]
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
    then corrupted entrywise and symmetrized before reconstruction.  Time
    columns and ``workers`` as in :func:`run_size_sweep`.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for s in sigmas:
        if not (math.isfinite(s) and s >= 0):
            raise ValueError(f"sigma must be >= 0, got {s!r}")
    rows = [
        _run_row(f"{k}:{sigma:g}", k, trials, seed, sigma=sigma, sigma_index=s_idx)
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

    Unlike the other sweeps, each trial is peeled on its own and timed on
    its own, so the time columns are the mean and spread of single
    reconstructions.  One warm-up peel per length is discarded.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows = [_run_row(str(k), k, trials, seed, one_per_peel=True) for k in k_values]
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
