"""Command-line front end for the resistor-network toolkit.

Exit codes: 0 success, 2 invalid input (any ``ValueError``), 3 solver
failure on degenerate data (any other ``RnetError``), 4 I/O error
(``OSError``).  All file output is written atomically (temp file in the
target directory, then rename).
"""

from __future__ import annotations

import functools
import os
import sys
import tempfile

import click
import numpy as np

from . import experiments, matrixkit, measure_sim, render
from .errors import RnetError
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


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


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


def _command(group, name=None):
    """Register the decorated function, which returns one document, as a ``group`` command.

    The command writes the document to ``--out`` (its last option) or to
    stdout, and exits with the codes above.
    """

    def register(run):
        @functools.wraps(run)
        def command(out, **options):
            try:
                _write_output(out, run(**options))
            except ValueError as exc:
                _fail(EXIT_INVALID_INPUT, str(exc))
            except RnetError as exc:
                _fail(EXIT_SOLVER_FAILURE, str(exc))
            except OSError as exc:
                _fail(EXIT_IO_ERROR, str(exc))

        registered = group.command(name)(command)
        registered.params.append(click.Option(["--out"], type=click.Path(dir_okay=False)))
        return registered

    return register


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


def _parse_list(kind: type):
    return lambda text: [kind(part) for part in text.split(",") if part.strip()]


@click.group()
def main():
    """Square resistor-network tomography toolkit."""


@_command(main)
@click.option("--length", type=int, required=True, help="Network length k.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--resistance-range", type=_parse_range_pair, metavar="TEXT", default="1:2",
              show_default=True, help="Uniform resistance draw lo:hi.")
def generate(length, seed, resistance_range):
    """Generate a random network document (JSON)."""
    spec = build_lattice(length)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return network_to_json(random_conductances(spec, rng, *resistance_range))


@_command(main)
@click.argument("network", type=click.Path(exists=True, dir_okay=False))
def forward(network):
    """Compute the exact response matrix of a network (CSV)."""
    net = network_from_json(_read_text(network))
    return matrixkit.matrix_to_csv(response_matrix(net).entries)


@_command(main)
@click.argument("network", type=click.Path(exists=True, dir_okay=False))
@click.option("--noise", default="none", show_default=True,
              help='Noise spec: "none" or "protocol:<snr>[:<quantStep>]".')
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
def measure(network, noise, seed):
    """Simulate a measurement of the response matrix (CSV, symmetrized)."""
    net = network_from_json(_read_text(network))
    model = measure_sim.parse_noise_spec(noise)
    record = measure_sim.simulate_measurement(net, model, seed)
    return matrixkit.matrix_to_csv(record.lam.entries)


@_command(main)
@click.argument("lambda_csv", type=click.Path(exists=True, dir_okay=False))
def reconstruct(lambda_csv):
    """Reconstruct every edge conductance from a response matrix (JSON)."""
    lam = ResponseMatrix(matrixkit.matrix_from_csv(_read_text(lambda_csv)))
    return reconstruction_to_json(reconstruct_full(lam, lam.length))


@main.group()
def sweep():
    """Seeded accuracy / noise / timing studies (CSV)."""


@_command(sweep, "size")
@click.option("--k-range", type=_parse_k_range, metavar="TEXT", default="4:14:2", show_default=True,
              help="Lengths lo:hi[:step].")
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--resistance-range", type=_parse_range_pair, metavar="TEXT", default="1:2",
              show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
def sweep_size(k_range, trials, resistance_range, seed):
    """Reconstruction error and time vs. network length."""
    result = experiments.run_size_sweep(k_range, trials, *resistance_range, seed=seed)
    return experiments.sweep_to_csv(result)


@_command(sweep, "noise")
@click.option("--k-list", type=_parse_list(int), metavar="TEXT", default="4,7,10",
              show_default=True, help="Lengths, comma-separated.")
@click.option("--sigma-list", type=_parse_list(float), metavar="TEXT", required=True,
              help="Noise levels, comma-separated.")
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
def sweep_noise(k_list, sigma_list, trials, seed):
    """Reconstruction error vs. multiplicative noise level."""
    result = experiments.run_noise_sweep(k_list, sigma_list, trials, seed=seed)
    return experiments.sweep_to_csv(result)


@_command(sweep, "timing")
@click.option("--k-range", type=_parse_k_range, metavar="TEXT", default="2:14", show_default=True,
              help="Lengths lo:hi[:step].")
@click.option("--trials", type=int, default=20, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
def sweep_timing(k_range, trials, seed):
    """Reconstruction wall time vs. network length (always sequential)."""
    result = experiments.run_timing_profile(k_range, trials, seed=seed)
    return experiments.sweep_to_csv(result)


@_command(main)
@click.argument("baseline", type=click.Path(exists=True, dir_okay=False))
@click.argument("deformed", type=click.Path(exists=True, dir_okay=False))
def delta(baseline, deformed):
    """Relative resistance change between two reconstructions (JSON)."""
    _, base = reconstruction_edges_from_json(_read_text(baseline))
    _, defo = reconstruction_edges_from_json(_read_text(deformed))
    return render.delta_map_to_json(render.compute_delta_map(base, defo))


@_command(main, "render")
@click.argument("delta_json", type=click.Path(exists=True, dir_okay=False))
@click.option("--deadband", type=float, default=0.005, show_default=True,
              help="Relative changes below this draw as neutral gray.")
@click.option("--min-width", type=float, default=1.2, show_default=True)
@click.option("--max-width", type=float, default=7.0, show_default=True)
def render_cmd(delta_json, deadband, min_width, max_width):
    """Render a delta map as an SVG drawing of the lattice."""
    dmap = render.delta_map_from_json(_read_text(delta_json))
    style = render.RenderStyle(deadband=deadband, min_width=min_width, max_width=max_width)
    return render.render_delta_map(dmap, style)


if __name__ == "__main__":
    main()
