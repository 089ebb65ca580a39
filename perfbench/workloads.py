"""The three benchmark workloads: one operation each, plus its output checks.

Every operation runs in the calling process against the public ``rnet``
API and is checked after it returns, outside the timed region.  ``run``
receives only an integer seed; everything else it needs is fixed here.

* ``sweep``: the accuracy-vs-size study, noise free, sequential.  Peel and
  forward model dominate; no file I/O, no CLI.
* ``noisy``: the noise sweep, where most trials are refused partway
  through the peel, so the abort path carries much of the time.
* ``pipeline``: a baseline plus deformed acquisition at the hardware
  rig's size (k=4) through the real CLI on files.  The only workload that
  runs ``cli``, the CSV/JSON codecs, the protocol noise loop and ``render``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
from dataclasses import dataclass, field

import rnet
from rnet import cli, experiments, reconstruct

SWEEP_K = (4, 6, 8, 10, 12, 14)
SWEEP_TRIALS = 3
# Rows this short must be exact to roundoff: criterion 1 of the acceptance
# suite, loosened from 1e-10 only so that the check is about gross breakage.
SWEEP_EXACT_K = 8
SWEEP_EXACT_REL_RMSE = 1e-8

NOISY_K = (7, 10)
NOISY_SIGMAS = (1e-6, 1e-3)
NOISY_TRIALS = 10
# The one noisy row whose trials survive for every seed tried; its error
# is the workload's accuracy figure.
NOISY_ACCURACY_ROW = "7:1e-06"

PIPELINE_K = 4
PIPELINE_RESISTANCE = "22080:23184"
PIPELINE_NOISE = "protocol:230"
PIPELINE_MAX_REL_RMSE = 0.1

# CSV columns that hold wall times and so differ between identical runs.
_TIME_COLUMNS = {"time_ms_mean", "time_ms_std"}


@dataclass
class Outcome:
    """What one checked operation gave the user.

    ``reported`` counts the reconstructions the operation reports (sweep
    trials, or CLI reconstructions), ``rejected`` those refused with a typed
    solver error, ``accuracy`` is -log10 of the relative resistance RMSE,
    and ``fingerprint`` (a digest, so that memory does not grow with the
    number of ops) must be identical for two runs with one seed.
    """

    reported: int = 0
    rejected: int = 0
    accuracy: float = math.nan
    fingerprint: str = ""
    bytes_written: int = 0
    problems: list[str] = field(default_factory=list)


def _digits(rel_rmse: float) -> float:
    if math.isfinite(rel_rmse) and rel_rmse > 0:
        return -math.log10(rel_rmse)
    return math.nan


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _untimed_digest(result: experiments.SweepResult) -> str:
    """Digest of the sweep CSV with the wall-time columns blanked."""
    rows = list(csv.reader(io.StringIO(experiments.sweep_to_csv(result))))
    header = next(r for r in rows if not r[0].startswith("#"))
    drop = {header.index(name) for name in _TIME_COLUMNS}
    return _digest("\n".join(
        ",".join("" if i in drop and not r[0].startswith("#") else c for i, c in enumerate(r))
        for r in rows
    ))


class Sweep:
    def run(self, seed: int):
        return experiments.run_size_sweep(
            k_values=list(SWEEP_K), trials=SWEEP_TRIALS, seed=seed, workers=None
        )

    def check(self, result: experiments.SweepResult) -> Outcome:
        out = Outcome(fingerprint=_untimed_digest(result))
        rows = {row.param: row for row in result.rows}
        if list(rows) != [str(k) for k in SWEEP_K]:
            out.problems.append(f"sweep rows {list(rows)} != {list(SWEEP_K)}")
            return out
        for k in SWEEP_K:
            row = rows[str(k)]
            out.reported += row.trials
            out.rejected += row.failures
            if row.failures:
                out.problems.append(f"k={k}: {row.failures} failed trials")
            if k <= SWEEP_EXACT_K and not row.rel_rmse_mean <= SWEEP_EXACT_REL_RMSE:
                out.problems.append(f"k={k}: rel_rmse_mean {row.rel_rmse_mean!r} above 1e-8")
        out.accuracy = _digits(rows[str(SWEEP_K[-1])].rel_rmse_mean)
        return out


class Noisy:
    def run(self, seed: int):
        return experiments.run_noise_sweep(
            k_values=list(NOISY_K), sigmas=list(NOISY_SIGMAS), trials=NOISY_TRIALS,
            seed=seed, workers=None,
        )

    def check(self, result: experiments.SweepResult) -> Outcome:
        out = Outcome(fingerprint=_untimed_digest(result))
        expected = [f"{k}:{s:g}" for k in NOISY_K for s in NOISY_SIGMAS]
        rows = {row.param: row for row in result.rows}
        if list(rows) != expected:
            out.problems.append(f"noise rows {list(rows)} != {expected}")
            return out
        for row in result.rows:
            if row.trials != NOISY_TRIALS or not 0 <= row.failures <= row.trials:
                out.problems.append(f"{row.param}: {row.failures} failures of {row.trials}")
            out.reported += row.trials
            out.rejected += row.failures
        out.accuracy = _digits(rows[NOISY_ACCURACY_ROW].rel_rmse_mean)
        return out


class Pipeline:
    """generate x2, measure x2, reconstruct x2, delta, render - all via the CLI."""

    def __init__(self, workdir: str):
        self.workdir = workdir

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _commands(self, seed: int) -> list[list[str]]:
        p = self._path
        commands = []
        for index, side in enumerate(("base", "defo")):
            commands.append(["generate", "--length", str(PIPELINE_K), "--seed", str(4 * seed + index),
                             "--resistance-range", PIPELINE_RESISTANCE, "--out", p(f"{side}.json")])
        for index, side in enumerate(("base", "defo")):
            commands.append(["measure", p(f"{side}.json"), "--noise", PIPELINE_NOISE,
                             "--seed", str(4 * seed + 2 + index), "--out", p(f"{side}.csv")])
        for side in ("base", "defo"):
            commands.append(["reconstruct", p(f"{side}.csv"), "--out", p(f"{side}.recon.json")])
        commands.append(["delta", p("base.recon.json"), p("defo.recon.json"),
                         "--out", p("delta.json")])
        commands.append(["render", p("delta.json"), "--out", p("map.svg")])
        return commands

    def run(self, seed: int) -> list[tuple[str, object]]:
        """Exit code of every command; the first nonzero one ends the op."""
        codes = []
        for args in self._commands(seed):
            try:
                code = cli.main(args, standalone_mode=False)
            except SystemExit as exc:
                code = exc.code
            codes.append((args[0], code or 0))
            if code:
                break
        return codes

    def _read(self, name: str) -> str:
        with open(self._path(name)) as handle:
            return handle.read()

    def check(self, codes: list[tuple[str, object]]) -> Outcome:
        out = Outcome()
        failed = [(cmd, code) for cmd, code in codes if code != 0]
        if failed or len(codes) != 8:
            out.problems.append(f"CLI exits {codes}")
            return out
        out.bytes_written = sum(
            os.path.getsize(self._path(name))
            for name in ("base.json", "defo.json", "base.csv", "defo.csv", "base.recon.json",
                         "defo.recon.json", "delta.json", "map.svg")
        )
        digits = []
        for side in ("base", "defo"):
            truth = rnet.network_from_json(self._read(f"{side}.json"))
            _, recon = reconstruct.reconstruction_edges_from_json(
                self._read(f"{side}.recon.json")
            )
            sq = [((recon[e] - 1.0 / g) * g) ** 2 for e, g in truth.values.items()]
            rel = math.sqrt(sum(sq) / len(sq))
            if not rel < PIPELINE_MAX_REL_RMSE:
                out.problems.append(f"{side}: relative RMSE {rel!r} not below 0.1")
            digits.append(_digits(rel))
            out.reported += 1
        out.accuracy = sum(digits) / len(digits)
        svg = self._read("map.svg")
        lines = svg.count("<line data-edge=")
        expected = 2 * PIPELINE_K**2 + 2 * PIPELINE_K
        if lines != expected:
            out.problems.append(f"SVG has {lines} edge lines, expected {expected}")
        out.fingerprint = _digest(svg)
        return out


def make(name: str, workdir: str):
    if name == "pipeline":
        return Pipeline(workdir)
    return {"sweep": Sweep, "noisy": Noisy}[name]()
