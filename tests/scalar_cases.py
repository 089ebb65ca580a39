"""Every public scalar argument, and the values that none of them takes.

Each argument is read by ``lattice._as_number`` or ``lattice._as_int``, so
each bad value must raise a plain ``ValueError`` worded
``<what> must be <rule>, got <value!r>``.  ``CASES`` pairs every argument
with every bad value; ``test_scalars.py`` checks them and
``tools/bit_corpus.py`` digests what each raises.  Arguments with their
own rule stay out: the scale factor and the removal conductances take any
real number, a spike's refusal is an ``InvalidConductanceError``, and a
per-edge value is refused by its container.
"""

import math

import numpy as np

from rnet import (
    NO_NOISE,
    LatticeSpec,
    ProtocolNoise,
    RenderStyle,
    apply_edge_removal,
    apply_elementwise_noise,
    apply_spike_removal,
    build_lattice,
    random_conductances,
    reconstruct_full,
    response_matrix,
    run_noise_sweep,
    run_size_sweep,
    run_timing_profile,
    simulate_measurement,
    snr_to_sigma,
    uniform_conductances,
)
from rnet.lattice import layer_length, layer_spike_edge, layer_tangential_edge

BAD_NUMBERS = {
    "True": True, "np.True_": np.True_, "'1'": "1", "None": None,
    "10**400": 10**400, "nan": math.nan, "inf": math.inf,
}
BAD_INTEGERS = {**BAD_NUMBERS, "1.5": 1.5, "-1": -1}

SPEC = LatticeSpec(3)
NET = uniform_conductances(LatticeSpec(2))
LAM = response_matrix(NET)


def _draw(low, high):
    return random_conductances(SPEC, np.random.default_rng(0), low, high)


# argument -> (call with the value, what the refusal names, whether it is an integer)
ARGUMENTS = {
    "LatticeSpec.length": (LatticeSpec, "network length", True),
    "build_lattice.k": (build_lattice, "network length", True),
    "layer_length.k": (lambda v: layer_length(v, 0), "network length", True),
    "layer_length.layer": (lambda v: layer_length(5, v), "layer", True),
    "layer_spike_edge.layer": (lambda v: layer_spike_edge(SPEC, v, 1), "layer", True),
    "layer_spike_edge.j": (lambda v: layer_spike_edge(SPEC, 0, v), "boundary index", True),
    "layer_tangential_edge.layer": (
        lambda v: layer_tangential_edge(SPEC, v, "N", 1), "layer", True
    ),
    "layer_tangential_edge.i": (
        lambda v: layer_tangential_edge(SPEC, 0, "N", v), "tangential index", True
    ),
    "random_conductances.resistance_low": (lambda v: _draw(v, 2.0), "resistance_low", False),
    "random_conductances.resistance_high": (lambda v: _draw(1.0, v), "resistance_high", False),
    "apply_spike_removal.node": (
        lambda v: apply_spike_removal(LAM.entries, v, 1.0), "boundary index", True
    ),
    "apply_edge_removal.i": (
        lambda v: apply_edge_removal(LAM.entries, v, 2, 0.5), "boundary index", True
    ),
    "apply_edge_removal.j": (
        lambda v: apply_edge_removal(LAM.entries, 1, v, 0.5), "boundary index", True
    ),
    "reconstruct_full.k": (lambda v: reconstruct_full(LAM, v), "network length", True),
    "ProtocolNoise.snr": (ProtocolNoise, "snr", False),
    "ProtocolNoise.quant_step": (lambda v: ProtocolNoise(230.0, v), "quant_step", False),
    "snr_to_sigma.snr": (snr_to_sigma, "snr", False),
    "simulate_measurement.seed": (lambda v: simulate_measurement(NET, NO_NOISE, v), "seed", True),
    "apply_elementwise_noise.sigma": (lambda v: apply_elementwise_noise(LAM, v, 0), "sigma", False),
    "apply_elementwise_noise.seed": (
        lambda v: apply_elementwise_noise(LAM, 1e-3, v), "seed", True
    ),
    "run_size_sweep.k_values": (lambda v: run_size_sweep([v], 1), "network length", True),
    "run_size_sweep.trials": (lambda v: run_size_sweep([2], v), "trials", True),
    "run_size_sweep.resistance_low": (
        lambda v: run_size_sweep([2], 1, v, 2.0), "resistance_low", False
    ),
    "run_size_sweep.resistance_high": (
        lambda v: run_size_sweep([2], 1, 1.0, v), "resistance_high", False
    ),
    "run_size_sweep.seed": (lambda v: run_size_sweep([2], 1, seed=v), "seed", True),
    "run_noise_sweep.k_values": (lambda v: run_noise_sweep([v], [0.0], 1), "network length", True),
    "run_noise_sweep.sigmas": (lambda v: run_noise_sweep([2], [v], 1), "sigma", False),
    "run_noise_sweep.trials": (lambda v: run_noise_sweep([2], [0.0], v), "trials", True),
    "run_noise_sweep.seed": (lambda v: run_noise_sweep([2], [0.0], 1, seed=v), "seed", True),
    "run_timing_profile.k_values": (lambda v: run_timing_profile([v], 1), "network length", True),
    "run_timing_profile.trials": (lambda v: run_timing_profile([2], v), "trials", True),
    "run_timing_profile.seed": (lambda v: run_timing_profile([2], 1, seed=v), "seed", True),
    "RenderStyle.deadband": (lambda v: RenderStyle(deadband=v), "deadband", False),
    "RenderStyle.min_width": (lambda v: RenderStyle(min_width=v), "min_width", False),
    "RenderStyle.max_width": (lambda v: RenderStyle(max_width=v), "max_width", False),
}

# "<argument>-<value>" -> (call, what the refusal names, the bad value)
CASES = {
    f"{argument}-{label}": (call, what, value)
    for argument, (call, what, integer) in ARGUMENTS.items()
    for label, value in (BAD_INTEGERS if integer else BAD_NUMBERS).items()
}
