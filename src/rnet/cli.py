"""Command-line front end for the resistor-network toolkit.

Exit codes: 0 success, 2 invalid input, 3 solver failure on degenerate
data, 4 I/O error.  All file output is written atomically (temp file in
the target directory, then rename).
"""

from __future__ import annotations

import functools
import os
import sys
import tempfile

import click
import numpy as np

from . import experiments, matrixkit, measure_sim, render
from .errors import DimensionMismatchError, RnetError, SpecMismatchError
from .lattice import (
    ResponseMatrix,
    build_lattice,
    network_from_json,
    network_to_json,
    random_conductances,
    response_matrix,
)
from .reconstruct import (
    reconstruct_full,
    reconstruction_edges_from_json,
    reconstruction_to_json,
)

EXIT_INVALID_INPUT = 2
EXIT_SOLVER_FAILURE = 3
EXIT_IO_ERROR = 4

_INPUT_ERRORS = (
    DimensionMismatchError,
    SpecMismatchError,
    ValueError,
)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def handles_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except _INPUT_ERRORS as exc:
            _fail(EXIT_INVALID_INPUT, str(exc))
        except RnetError as exc:  # any other: the solver met degenerate data
            _fail(EXIT_SOLVER_FAILURE, str(exc))
        except OSError as exc:
            _fail(EXIT_IO_ERROR, str(exc))

    return wrapper


def _write_output(path: str | None, text: str):
    if path is None:
        click.echo(text, nl=False)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rnet-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_text(path: str) -> str:
    with open(path, "r") as handle:
        return handle.read()


def _parse_range_pair(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected lo:hi, got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_k_range(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"expected lo:hi[:step], got {text!r}")
    lo, hi = int(parts[0]), int(parts[1])
    step = int(parts[2]) if len(parts) == 3 else 1
    if lo < 1 or hi < lo or step < 1:
        raise ValueError(f"bad length range {text!r}")
    return list(range(lo, hi + 1, step))


def _parse_list(text: str, kind: type) -> list:
    return [kind(part) for part in text.split(",") if part.strip()]


@click.group()
def main():
    """Square resistor-network tomography toolkit."""


@main.command()
@click.option("--length", type=int, required=True, help="Network length k.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--resistance-range", default="1:2", show_default=True,
              help="Uniform resistance draw lo:hi.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@handles_errors
def generate(length, seed, resistance_range, out):
    """Generate a random network document (JSON)."""
    lo, hi = _parse_range_pair(resistance_range)
    spec = build_lattice(length)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    net = random_conductances(spec, rng, lo, hi)
    _write_output(out, network_to_json(net))


@main.command()
@click.argument("network", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@handles_errors
def forward(network, out):
    """Compute the exact response matrix of a network (CSV)."""
    net = network_from_json(_read_text(network))
    lam = response_matrix(net)
    _write_output(out, matrixkit.matrix_to_csv(lam.entries))


@main.command()
@click.argument("network", type=click.Path(exists=True, dir_okay=False))
@click.option("--noise", default="none", show_default=True,
              help='Noise spec: "none" or "protocol:<snr>[:<quantStep>]".')
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@handles_errors
def measure(network, noise, seed, out):
    """Simulate a measurement of the response matrix (CSV, symmetrized)."""
    net = network_from_json(_read_text(network))
    model = measure_sim.parse_noise_spec(noise)
    record = measure_sim.simulate_measurement(net, model, seed)
    _write_output(out, matrixkit.matrix_to_csv(record.lam.entries))


@main.command()
@click.argument("lambda_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@handles_errors
def reconstruct(lambda_csv, out):
    """Reconstruct every edge conductance from a response matrix (JSON)."""
    lam = ResponseMatrix(matrixkit.matrix_from_csv(_read_text(lambda_csv)))
    result = reconstruct_full(lam, lam.length)
    _write_output(out, reconstruction_to_json(result))


@main.group()
def sweep():
    """Seeded accuracy / noise / timing studies (CSV)."""


@sweep.command("size")
@click.option("--k-range", default="4:14:2", show_default=True, help="Lengths lo:hi[:step].")
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--resistance-range", default="1:2", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@handles_errors
def sweep_size(k_range, trials, resistance_range, seed, out):
    """Reconstruction error and time vs. network length."""
    lo, hi = _parse_range_pair(resistance_range)
    result = experiments.run_size_sweep(_parse_k_range(k_range), trials, lo, hi, seed=seed)
    _write_output(out, experiments.sweep_to_csv(result))


@sweep.command("noise")
@click.option("--k-list", default="4,7,10", show_default=True, help="Lengths, comma-separated.")
@click.option("--sigma-list", required=True, help="Noise levels, comma-separated.")
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@handles_errors
def sweep_noise(k_list, sigma_list, trials, seed, out):
    """Reconstruction error vs. multiplicative noise level."""
    result = experiments.run_noise_sweep(
        _parse_list(k_list, int), _parse_list(sigma_list, float), trials, seed=seed
    )
    _write_output(out, experiments.sweep_to_csv(result))


@sweep.command("timing")
@click.option("--k-range", default="2:14", show_default=True, help="Lengths lo:hi[:step].")
@click.option("--trials", type=int, default=20, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@handles_errors
def sweep_timing(k_range, trials, seed, out):
    """Reconstruction wall time vs. network length (always sequential)."""
    result = experiments.run_timing_profile(_parse_k_range(k_range), trials, seed=seed)
    _write_output(out, experiments.sweep_to_csv(result))


@main.command()
@click.argument("baseline", type=click.Path(exists=True, dir_okay=False))
@click.argument("deformed", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@handles_errors
def delta(baseline, deformed, out):
    """Relative resistance change between two reconstructions (JSON)."""
    _, base = reconstruction_edges_from_json(_read_text(baseline))
    _, defo = reconstruction_edges_from_json(_read_text(deformed))
    dmap = render.compute_delta_map(base, defo)
    _write_output(out, render.delta_map_to_json(dmap))


@main.command("render")
@click.argument("delta_json", type=click.Path(exists=True, dir_okay=False))
@click.option("--deadband", type=float, default=0.005, show_default=True,
              help="Relative changes below this draw as neutral gray.")
@click.option("--min-width", type=float, default=1.2, show_default=True)
@click.option("--max-width", type=float, default=7.0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@handles_errors
def render_cmd(delta_json, deadband, min_width, max_width, out):
    """Render a delta map as an SVG drawing of the lattice."""
    dmap = render.delta_map_from_json(_read_text(delta_json))
    style = render.RenderStyle(deadband=deadband, min_width=min_width, max_width=max_width)
    _write_output(out, render.render_delta_map(dmap, style))


if __name__ == "__main__":
    main()
