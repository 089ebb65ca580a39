"""Seeded accuracy, noise-sensitivity and timing sweeps with CSV output.

Every sweep derives one independent RNG stream per (parameter point,
trial) from the master seed, so results are reproducible bit-for-bit.
Network generation streams are keyed by (k, trial) only, so a noise sweep
draws and forward-solves each length's networks once, shares them among
that length's sigma rows, and its sigma=0 column reproduces the size sweep.

Each row's networks are drawn as one ``(trials, E)`` array and
forward-solved together, a noise row corrupts its stack at once with only
the draws taken trial by trial, all rows of a sweep are peeled together in
one pass, and each trial gives the same bits as the per-network API would.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import astuple, dataclass, fields
from typing import Sequence

import numpy as np

from .errors import SpecMismatchError
from .lattice import (
    ConductanceMap,
    LatticeSpec,
    _as_int,
    _kirchhoff_stack,
    _random_conductance_array,
    _reciprocal,
    _response_stack,
)
from .measure_sim import _elementwise_noise, _sigma
from .reconstruct import ReconstructionResult, _peel_stack

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
    rmse, rel = _resistance_errors(1.0 / truth.values.array, recon.resistances.array)
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
    config: dict[str, str]


def _network_seed(seed: int, k: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=(_DOMAIN_NETWORK, k, trial))


def _noise_seed(seed: int, k: int, sigma_index: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        entropy=seed, spawn_key=(_DOMAIN_NOISE, k, sigma_index, trial)
    )


def _spread(x: np.ndarray) -> float:
    return float(np.std(x, ddof=1)) if x.size > 1 else 0.0


def _exact_text(x: float) -> str:
    """``x`` as ``:g`` text where that reads back as ``x``, else as ``repr(float(x))``."""
    text = f"{x:g}"
    return text if float(text) == x else repr(float(x))


def _check_grid(
    k_values: Sequence[int], trials: int, seed: int, sigmas: Sequence[float] = (0.0,)
) -> tuple:
    """Refuse a bad grid or seed before any work; returns the lengths, sigmas, trials, seed read."""
    trials, seed = _as_int(trials, "trials"), _as_int(seed, "seed", 0)
    if not (len(k_values) and len(sigmas)):
        raise ValueError("a sweep needs at least one length and one sigma")
    return [LatticeSpec(k).length for k in k_values], [_sigma(s) for s in sigmas], trials, seed


def _draw_row(k: int, trials: int, seed: int, bounds: tuple[float, float] = (1.0, 2.0)):
    """A row's conductances ``(trials, E)`` and exact responses, read-only as rows share them."""
    rngs = [np.random.default_rng(_network_seed(seed, k, t)) for t in range(trials)]
    g = np.stack([_random_conductance_array(2 * k * (k + 1), rng, *bounds) for rng in rngs])
    lam = _response_stack(_kirchhoff_stack(g, k), k)
    g.setflags(write=False)
    lam.setflags(write=False)
    return g, lam


def _noisy(lam: np.ndarray, k: int, seed: int, sigma: float, sigma_index: int) -> np.ndarray:
    """A copy of ``lam`` with each trial corrupted by its own stream; ``lam`` itself at sigma 0."""
    if sigma == 0:
        return lam
    seeds = [_noise_seed(seed, k, sigma_index, t) for t in range(len(lam))]
    return _elementwise_noise(lam, sigma, seeds)


def _row(param: str, g: np.ndarray, peel, one_per_peel: bool = False) -> SweepRow:
    """One row from networks ``g`` and their ``_peel_stack`` result.

    Refused or non-finite trials fail.  Time columns: all trials' ms over
    ``trials`` (spread 0), or with ``one_per_peel`` the survivors' mean and spread.
    """
    recon, refusals, _, ms = peel
    trials = len(g)
    rmse, rel = _resistance_errors(1.0 / g, _reciprocal(recon))
    ok = np.array([r is None for r in refusals]) & np.isfinite(rmse) & np.isfinite(rel)
    if not ok.any():
        return SweepRow(param, trials, *[math.nan] * 5, trials)
    time_ms = (np.mean(ms[ok]), _spread(ms[ok])) if one_per_peel else (np.sum(ms) / trials, 0.0)
    rmse, rel = rmse[ok], rel[ok]
    return SweepRow(
        param, trials, float(np.mean(rmse)), _spread(rmse), float(np.mean(rel)),
        float(time_ms[0]), time_ms[1], trials - rmse.size,
    )


def _peel_rows(rows: list) -> tuple[SweepRow, ...]:
    """Rows of ``(param, networks, responses)``, all peeled in one ``_peel_stack`` pass."""
    peels = _peel_stack([lam for _, _, lam in rows])
    return tuple(_row(param, g, peel) for (param, g, _), peel in zip(rows, peels))


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
    matrix, reconstruct, and record the resistance RMSE.  All rows are
    peeled in one pass (``_peel_stack``): each ring's wall time is split
    evenly among the trials it peeled, and a row's time columns are its
    trials' total over ``trials`` (spread 0).  With no warm-up, one-time
    set-up in a fresh process is shared the same way.  Trials that raise a
    solver error, or whose metrics come out non-finite, are counted as
    failures and excluded from the means; the sweep itself never aborts.
    ``workers`` is accepted for existing callers and ignored.
    """
    k_values, _, trials, seed = _check_grid(k_values, trials, seed)
    bounds = (resistance_low, resistance_high)
    rows = _peel_rows([(str(k), *_draw_row(k, trials, seed, bounds)) for k in k_values])
    config = {
        "sweep": "size",
        "k_values": ",".join(str(k) for k in k_values),
        "trials": str(trials),
        "resistance_range": f"{_exact_text(resistance_low)}:{_exact_text(resistance_high)}",
        "seed": str(seed),
    }
    return SweepResult(rows=rows, config=config)


def run_noise_sweep(
    k_values: Sequence[int],
    sigmas: Sequence[float],
    trials: int,
    seed: int = 0,
    workers: int | None = None,
) -> SweepResult:
    """Reconstruction error under multiplicative response-matrix noise.

    One row per ``(k, sigma)`` pair, with the param column written as
    ``<k>:<sigma>`` in text that reads back as the sigma given.  Each
    length's networks are drawn and forward-solved once, as in the size
    sweep, and shared by all of its sigma rows: each row corrupts a copy
    entrywise and symmetrizes it before reconstruction, and a sigma=0 row
    peels the size sweep's own stack.  All rows are peeled in one pass, so
    the sigma rows of one length share every ring.  Time columns and
    ``workers`` as in :func:`run_size_sweep`.
    """
    k_values, sigmas, trials, seed = _check_grid(k_values, trials, seed, sigmas)
    texts, rows = [_exact_text(s) for s in sigmas], []
    for k in k_values:
        g, lam = _draw_row(k, trials, seed)
        rows += [(f"{k}:{texts[i]}", g, _noisy(lam, k, seed, s, i)) for i, s in enumerate(sigmas)]
    config = {
        "sweep": "noise",
        "k_values": ",".join(str(k) for k in k_values),
        "sigmas": ",".join(texts),
        "trials": str(trials),
        "seed": str(seed),
    }
    return SweepResult(rows=_peel_rows(rows), config=config)


def run_timing_profile(
    k_values: Sequence[int],
    trials: int,
    seed: int = 0,
) -> SweepResult:
    """Wall time of reconstruction alone, per network length.

    Unlike the other sweeps, each trial is peeled on its own and timed on
    its own, so the time columns are the mean and spread of single
    reconstructions.  Every length is drawn and given one discarded
    warm-up peel first; the timed peels then take the lengths in turn,
    trial by trial, so a change of host speed falls on every length alike.
    """
    k_values, _, trials, seed = _check_grid(k_values, trials, seed)
    draws = [_draw_row(k, trials, seed) for k in k_values]
    for _, lam in draws:
        _peel_stack([lam[:1]])
    ms, peels = np.empty((len(draws), trials)), [[] for _ in draws]
    for t in range(trials):
        for i, (_, lam) in enumerate(draws):
            t0 = time.perf_counter()
            peels[i].append(_peel_stack([lam[t : t + 1]])[0])
            ms[i, t] = (time.perf_counter() - t0) * 1000.0
    rows = []
    for k, (g, _), row_peels, row_ms in zip(k_values, draws, peels, ms):
        recon, refusals = np.concatenate([p[0] for p in row_peels]), [p[1][0] for p in row_peels]
        rows.append(_row(str(k), g, (recon, refusals, None, row_ms), one_per_peel=True))
    config = {
        "sweep": "timing",
        "k_values": ",".join(str(k) for k in k_values),
        "trials": str(trials),
        "seed": str(seed),
    }
    return SweepResult(rows=tuple(rows), config=config)


CSV_HEADER = [f.name for f in fields(SweepRow)]


def sweep_to_csv(result: SweepResult) -> str:
    """Serialize a sweep: config echo as comment lines, then RFC-4180 rows."""
    buf = io.StringIO()
    for key, value in result.config.items():
        buf.write(f"# {key}={value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(astuple(row) for row in result.rows)
    return buf.getvalue()
