import re

import numpy as np
import pytest

from rnet.lattice import (
    ResponseMatrix,
    build_lattice,
    random_conductances,
    response_matrix,
    uniform_conductances,
)
from rnet.measure_sim import (
    NO_NOISE,
    SOURCE_VOLTS,
    NoNoise,
    ProtocolNoise,
    apply_elementwise_noise,
    parse_noise_spec,
    simulate_measurement,
    snr_to_sigma,
)


def noise_spec_string(model) -> str:
    """The ``parse_noise_spec`` text of a noise model."""
    if isinstance(model, NoNoise):
        return "none"
    if model.quant_step > 0:
        return f"protocol:{model.snr:g}:{model.quant_step:g}"
    return f"protocol:{model.snr:g}"


class TestSnrToSigma:
    def test_metal_film_snr(self):
        assert snr_to_sigma(230.0) == pytest.approx(0.004348, rel=1e-3)

    def test_silicone_snr(self):
        assert snr_to_sigma(650.0) == pytest.approx(0.001538, rel=1e-3)

    def test_large_snr_limit(self):
        assert snr_to_sigma(1e12) == pytest.approx(0.0, abs=1e-11)

    @pytest.mark.parametrize("bad", [0.0, -3.0, float("nan"), float("inf"), 1e-320])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError):
            snr_to_sigma(bad)

    @pytest.mark.parametrize("bad", [True, np.True_])
    def test_bool_refused(self, bad):
        with pytest.raises(ValueError, match="^snr must be finite and > 0"):
            snr_to_sigma(bad)


class TestNoiseSpecGrammar:
    @pytest.mark.parametrize("text,model", [
        ("none", NoNoise()),
        ("protocol:100", ProtocolNoise(100.0)),  # relative noise 0.01
        ("protocol:230", ProtocolNoise(230.0)),
        ("protocol:230:1e-9", ProtocolNoise(230.0, quant_step=1e-9)),
    ])
    def test_parse(self, text, model):
        assert parse_noise_spec(text) == model

    @pytest.mark.parametrize("text", [
        "elementwise:0.01", "elementwise:0", "elementwise:nan", "elementwise:x",
    ])
    def test_elementwise_spelling_refused(self, text):
        with pytest.raises(ValueError, match="protocol:<snr>"):
            parse_noise_spec(text)

    @pytest.mark.parametrize("text", [
        "", "nonsense", "elementwise", "elementwise:x", "protocol",
        "protocol:-5", "elementwise:-0.1", "protocol:230:1:2", "none:0",
    ])
    def test_bad_specs_rejected(self, text):
        with pytest.raises(ValueError):
            parse_noise_spec(text)

    @pytest.mark.parametrize("snr,quant_step", [
        (True, 0.0), (False, 0.0), (230.0, True), (230.0, False),
        (np.True_, 0.0), (230.0, np.True_), (230.0, np.False_),
    ])
    def test_bool_snr_or_quant_step_refused(self, snr, quant_step):
        bool_snr = isinstance(snr, (bool, np.bool_))
        name, bad = ("snr", snr) if bool_snr else ("quant_step", quant_step)
        with pytest.raises(ValueError, match=f"^{name} must be .*, got {re.escape(repr(bad))}$"):
            ProtocolNoise(snr, quant_step=quant_step)

    def test_subnormal_snr_names_the_spec(self):
        with pytest.raises(ValueError, match=r"^bad noise spec 'protocol:1e-320': .*finite reciprocal"):
            parse_noise_spec("protocol:1e-320")

    @pytest.mark.parametrize("model", [
        NoNoise(), ProtocolNoise(4.0), ProtocolNoise(650.0),
        ProtocolNoise(230.0, quant_step=2e-8),
    ])
    def test_round_trip(self, model):
        assert parse_noise_spec(noise_spec_string(model)) == model


class TestSimulateMeasurement:
    def test_noise_free_matches_forward_model(self):
        net = random_conductances(build_lattice(3), np.random.default_rng(0))
        lam = response_matrix(net).entries
        record = simulate_measurement(net, NO_NOISE, seed=1)
        assert np.abs(record.lam.entries - lam).max() <= 1e-12 * np.abs(lam).max()

    def test_symmetrization_is_noop_on_exact_data(self):
        net = uniform_conductances(build_lattice(2))
        record = simulate_measurement(net, NO_NOISE, seed=0)
        pre = record.raw_columns / 5.0
        assert np.abs(record.lam.entries - pre).max() <= 1e-15

    @pytest.mark.parametrize("model", [
        NO_NOISE,
        ProtocolNoise(20.0),
        ProtocolNoise(100.0),
        ProtocolNoise(100.0, quant_step=1e-7),
    ])
    def test_raw_columns_conserve_current_exactly(self, model):
        net = random_conductances(build_lattice(2), np.random.default_rng(4))
        record = simulate_measurement(net, model, seed=3)
        raw = record.raw_columns
        for col in range(raw.shape[1]):
            others = np.delete(raw[:, col], col)
            assert raw[col, col] == -np.sum(others)

    def test_output_exactly_symmetric(self):
        net = random_conductances(build_lattice(3), np.random.default_rng(5))
        record = simulate_measurement(net, ProtocolNoise(50.0), seed=9)
        assert np.array_equal(record.lam.entries, record.lam.entries.T)

    def test_noise_free_spawns_no_column_streams(self):
        seed = np.random.SeedSequence(0)
        simulate_measurement(uniform_conductances(build_lattice(2)), NO_NOISE, seed)
        assert seed.n_children_spawned == 0

    def test_unknown_model_rejected(self):
        net = uniform_conductances(build_lattice(1))
        with pytest.raises(TypeError, match="unknown noise model"):
            simulate_measurement(net, object(), seed=0)

    def test_deterministic_per_seed(self):
        net = random_conductances(build_lattice(2), np.random.default_rng(6))
        a = simulate_measurement(net, ProtocolNoise(230.0), seed=42)
        b = simulate_measurement(net, ProtocolNoise(230.0), seed=42)
        c = simulate_measurement(net, ProtocolNoise(230.0), seed=43)
        assert np.array_equal(a.lam.entries, b.lam.entries)
        assert np.array_equal(a.raw_columns, b.raw_columns)
        assert not np.array_equal(a.lam.entries, c.lam.entries)

    def test_protocol_empirical_deviation_matches_snr(self):
        # std of relative reading error over many acquisitions ~ 1/snr
        net = uniform_conductances(build_lattice(2))
        exact = response_matrix(net).entries
        volts = 5.0
        snr = 230.0
        ratios = []
        for seed in range(1000):
            record = simulate_measurement(net, ProtocolNoise(snr), seed=seed)
            for col in range(8):
                others = np.arange(8) != col
                exact_currents = volts * exact[others, col]
                measured = record.raw_columns[others, col]
                ratios.extend(measured / exact_currents - 1.0)
        std = np.std(ratios)
        assert std == pytest.approx(1.0 / snr, rel=0.10)

    def test_quantization_rounds_readings(self):
        net = uniform_conductances(build_lattice(1), 1e-4)
        q = 1e-6
        record = simulate_measurement(net, ProtocolNoise(1e9, quant_step=q), seed=2)
        raw = record.raw_columns
        for col in range(4):
            others = np.delete(raw[:, col], col)
            assert np.allclose(others / q, np.round(others / q), atol=1e-9)


def per_column_measurement(net, model, seed):
    """``simulate_measurement`` one driven column at a time, as a rig acquires them."""
    exact = response_matrix(net).entries
    n = exact.shape[0]
    sigma = 1.0 / model.snr if isinstance(model, ProtocolNoise) else 0.0
    column_seeds = np.random.SeedSequence(seed).spawn(n)
    raw = np.empty((n, n))
    for col in range(n):
        others = np.arange(n) != col
        readings = (SOURCE_VOLTS * exact[:, col])[others]
        if sigma > 0.0:
            readings = readings * np.random.default_rng(column_seeds[col]).normal(1.0, sigma, n - 1)
        if isinstance(model, ProtocolNoise) and model.quant_step > 0.0:
            readings = np.round(readings / model.quant_step) * model.quant_step
        raw[others, col] = readings
        raw[col, col] = -np.sum(readings)
    lam = raw / SOURCE_VOLTS
    return raw, (lam + lam.T) / 2.0


class TestMeasurementOracle:
    @pytest.mark.parametrize("model", [
        NO_NOISE,
        ProtocolNoise(50.0),
        ProtocolNoise(230.0),
        ProtocolNoise(230.0, quant_step=1e-3),
    ])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 9])
    def test_matches_per_column_loop_bitwise(self, model, k):
        for seed in range(4):
            net = random_conductances(build_lattice(k), np.random.default_rng(100 + seed))
            record = simulate_measurement(net, model, seed=seed)
            raw, lam = per_column_measurement(net, model, seed)
            assert record.raw_columns.tobytes() == raw.tobytes()
            assert record.lam.entries.tobytes() == lam.tobytes()


class TestApplyElementwiseNoise:
    def test_sigma_zero_is_identity(self):
        net = random_conductances(build_lattice(3), np.random.default_rng(8))
        lam = response_matrix(net)
        out = apply_elementwise_noise(lam, 0.0, seed=5)
        assert np.array_equal(out.entries, lam.entries)

    def test_output_symmetric(self):
        net = random_conductances(build_lattice(2), np.random.default_rng(9))
        out = apply_elementwise_noise(response_matrix(net), 0.3, seed=6)
        assert np.array_equal(out.entries, out.entries.T)

    def test_negative_sigma_rejected(self):
        net = uniform_conductances(build_lattice(1))
        with pytest.raises(ValueError):
            apply_elementwise_noise(response_matrix(net), -0.1, seed=0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma_rejected(self, sigma):
        lam = response_matrix(uniform_conductances(build_lattice(1)))
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            apply_elementwise_noise(lam, sigma, seed=0)

    def test_non_finite_result_rejected(self):
        lam = ResponseMatrix(np.full((4, 4), 1e308))  # overflows when averaged with its transpose
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                apply_elementwise_noise(lam, 1e-3, seed=0)

    def test_array_and_response_matrix_give_the_same_bits(self):
        lam = response_matrix(random_conductances(build_lattice(3), np.random.default_rng(2)))
        from_array = apply_elementwise_noise(lam.entries, 0.05, seed=7).entries
        assert from_array.tobytes() == apply_elementwise_noise(lam, 0.05, seed=7).entries.tobytes()

    def test_matches_the_rule_written_out(self):
        lam = response_matrix(random_conductances(build_lattice(3), np.random.default_rng(2)))
        noisy = lam.entries * np.random.default_rng(7).normal(1.0, 0.05, size=(12, 12))
        out = apply_elementwise_noise(lam, 0.05, seed=7)
        assert out.entries.tobytes() == ((noisy + noisy.T) / 2.0).tobytes()

    def test_pair_averaging_reduces_offdiagonal_noise(self):
        # averaging entry (i,j) with (j,i) leaves relative std sigma/sqrt(2)
        net = uniform_conductances(build_lattice(3))
        lam = response_matrix(net)
        sigma = 0.01
        samples = []
        mask = ~np.eye(12, dtype=bool)
        for seed in range(120):
            noisy = apply_elementwise_noise(lam, sigma, seed=seed)
            ratio = noisy.entries[mask] / lam.entries[mask] - 1.0
            samples.extend(ratio)
        assert len(samples) >= 10_000
        assert np.std(samples) == pytest.approx(sigma / np.sqrt(2.0), rel=0.15)

    def test_determinism(self):
        net = uniform_conductances(build_lattice(2))
        lam = response_matrix(net)
        a = apply_elementwise_noise(lam, 0.05, seed=11)
        b = apply_elementwise_noise(lam, 0.05, seed=11)
        assert np.array_equal(a.entries, b.entries)
