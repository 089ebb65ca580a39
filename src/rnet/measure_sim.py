"""Virtual measurement rig for the boundary response matrix.

Reproduces the column-by-column acquisition protocol: drive one boundary
node at the source voltage with the rest grounded, read the currents at
all other nodes, and derive the driven node's current from conservation
(it is never measured directly).  ``ProtocolNoise`` corrupts it:
per-measurement relative noise of 1/SNR on the non-driven current
readings, optionally quantized to an ADC step, with the driven entry
derived from conservation and so inheriting their correlated error.  It
models reading noise only, not the electronics' systematic errors (shunt,
relays, ADC offsets).  The accuracy sweeps use the entrywise rule
instead, in which every matrix entry, the diagonal included, gets its own
Normal(1, sigma) factor: ``apply_elementwise_noise``.

Every path ends with transpose-averaging so the returned matrix is
exactly symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import matrixkit
from .lattice import ConductanceMap, ResponseMatrix, _as_int, _as_number, _finite_nonnegative
from .lattice import _positive_finite, _response_entries, response_matrix

SOURCE_VOLTS = 5.0


@dataclass(frozen=True)
class NoNoise:
    """Exact measurement."""


@dataclass(frozen=True)
class ProtocolNoise:
    """Per-reading relative noise of 1/snr, optional quantization step.

    The driven node's current is never read: it is minus the sum of the
    noisy readings, as conservation requires.
    """

    snr: float
    quant_step: float = 0.0

    def __post_init__(self):
        snr_to_sigma(self.snr)
        _as_number(self.quant_step, "quant_step", ">= 0", _finite_nonnegative)


NoiseModel = Union[NoNoise, ProtocolNoise]

NO_NOISE = NoNoise()


def snr_to_sigma(snr: float) -> float:
    """Relative noise level implied by a mean-over-std ratio; its reciprocal must be finite."""
    rule = "finite and > 0 with a finite reciprocal"
    number = _as_number(snr, "snr", rule, lambda x: _positive_finite(x) and _positive_finite(1 / x))
    return 1.0 / number


def parse_noise_spec(text: str) -> NoiseModel:
    """Parse "none" or "protocol:<snr>[:<quantStep>]"."""
    parts = text.strip().split(":")
    if parts[0] == "elementwise":
        raise ValueError(
            f"bad noise spec {text!r}: spell a measurement's relative noise sigma "
            f"as protocol:<snr> with snr = 1/sigma, or none for sigma 0"
        )
    try:
        if parts == ["none"]:
            return NO_NOISE
        if parts[0] == "protocol" and len(parts) in (2, 3):
            quant = float(parts[2]) if len(parts) == 3 else 0.0
            return ProtocolNoise(snr=float(parts[1]), quant_step=quant)
    except ValueError as exc:
        raise ValueError(f"bad noise spec {text!r}: {exc}") from None
    raise ValueError(f"bad noise spec {text!r}")


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """One simulated acquisition of the full response matrix.

    ``raw_columns`` holds the pre-symmetrization current readings in
    amperes: column ``j`` is the boundary current vector while node
    ``j+1`` is driven.  Each column sums to zero exactly because the
    driven entry is set to minus the sum of the others.
    """

    lam: ResponseMatrix
    raw_columns: np.ndarray


def simulate_measurement(net: ConductanceMap, model: NoiseModel, seed) -> MeasurementRecord:
    """Measure a network's response matrix column by column.

    Deterministic in ``(net, model, seed)``: the seed is split into one
    independent stream per driven column, so columns could be acquired in
    parallel without changing the result.
    """
    exact = response_matrix(net).entries
    n = exact.shape[0]
    if isinstance(model, ProtocolNoise):
        sigma, quant = snr_to_sigma(model.snr), model.quant_step
    elif isinstance(model, NoNoise):
        sigma, quant = 0.0, 0.0
    else:
        raise TypeError(f"unknown noise model {model!r}")
    seed = _seed(seed)  # read even when no noise is drawn, so a bad seed is refused

    # Row j of ``readings`` is column j without its driven entry, so each
    # column's sum runs over one contiguous row, in the order of a 1-D sum.
    off_diagonal = ~np.eye(n, dtype=bool)
    readings = (SOURCE_VOLTS * exact.T[off_diagonal]).reshape(n, n - 1)
    if sigma > 0.0:
        readings = readings * np.stack(
            [np.random.default_rng(s).normal(1.0, sigma, size=n - 1) for s in seed.spawn(n)]
        )
    if quant > 0.0:
        readings = np.round(readings / quant) * quant
    raw = np.empty((n, n))
    raw.T[off_diagonal] = readings.ravel()
    raw[np.diag_indices(n)] = -np.sum(readings, axis=1)

    lam = matrixkit._symmetrize(raw / SOURCE_VOLTS)
    return MeasurementRecord(lam=ResponseMatrix(lam), raw_columns=raw)


def _seed(seed) -> np.random.SeedSequence:
    """A ``SeedSequence`` as it is, or the one of ``seed`` read as a nonnegative integer."""
    is_sequence = isinstance(seed, np.random.SeedSequence)
    return seed if is_sequence else np.random.SeedSequence(_as_int(seed, "seed", 0))


def _sigma(sigma) -> float:
    return _as_number(sigma, "sigma", "finite and >= 0", _finite_nonnegative)


def _elementwise_noise(stack: np.ndarray, sigma: float, seeds) -> np.ndarray:
    """The elementwise noise rule on an ``(B, n, n)`` stack, one seed per item.

    Item ``b`` is multiplied entrywise by Normal(1, sigma) factors drawn
    from ``default_rng(seeds[b])``, then averaged with its transpose; only
    the draws loop over items.  Raises ``ValueError`` for a negative or
    non-finite sigma and for a non-finite result.
    """
    sigma = _sigma(sigma)
    factors = np.stack(
        [np.random.default_rng(s).normal(1.0, sigma, size=stack.shape[1:]) for s in seeds]
    )
    noisy = matrixkit._symmetrize(np.multiply(stack, factors, out=factors))
    if not np.isfinite(noisy).all():
        raise ValueError("matrix entries must be finite")
    return noisy


def apply_elementwise_noise(lam: ResponseMatrix | np.ndarray, sigma: float, seed) -> ResponseMatrix:
    """Multiply every entry by an independent Normal(1, sigma), then symmetrize."""
    return ResponseMatrix(_elementwise_noise(_response_entries(lam)[None], sigma, [_seed(seed)])[0])
