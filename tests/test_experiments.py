import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rnet
import rnet.experiments as experiments
from rnet.errors import RnetError, SpecMismatchError
from rnet.experiments import (
    CSV_HEADER,
    _network_seed,
    _noise_seed,
    rmse_metrics,
    run_noise_sweep,
    run_size_sweep,
    run_timing_profile,
    sweep_to_csv,
)
from rnet.lattice import (
    EdgeValues,
    ResponseMatrix,
    build_lattice,
    random_conductances,
    response_matrix,
)
from rnet.measure_sim import apply_elementwise_noise
from rnet.reconstruct import ReconstructionResult, reconstruct_full


def make_result(net, resistances):
    conduct = np.array([1.0 / resistances[e] for e in net.spec.edges])
    return ReconstructionResult(
        conductances=EdgeValues(net.spec, conduct),
        report=(),
        elapsed_ms=1.0,
    )


def strip_time_columns(csv_text: str) -> str:
    lines = []
    for line in csv_text.splitlines():
        if line.startswith("#"):
            lines.append(line)
            continue
        cells = line.split(",")
        del cells[5:7]  # time_ms_mean, time_ms_std
        lines.append(",".join(cells))
    return "\n".join(lines)


class TestRmseMetrics:
    def test_exact_reconstruction_is_zero(self):
        net = random_conductances(build_lattice(3), np.random.default_rng(0))
        rec = reconstruct_full(response_matrix(net), 3)
        metrics = rmse_metrics(net, rec)
        assert metrics.rmse <= 1e-12
        assert metrics.rel_rmse <= 1e-12

    def test_constant_offset(self):
        net = random_conductances(build_lattice(2), np.random.default_rng(1))
        d = 0.05
        shifted = {e: 1.0 / g + d for e, g in net.values.items()}
        metrics = rmse_metrics(net, make_result(net, shifted))
        assert metrics.rmse == pytest.approx(d, rel=1e-12)

    def test_relative_metric(self):
        net = random_conductances(build_lattice(2), np.random.default_rng(2))
        scaled = {e: 1.02 / g for e, g in net.values.items()}
        metrics = rmse_metrics(net, make_result(net, scaled))
        assert metrics.rel_rmse == pytest.approx(0.02, rel=1e-10)

    def test_spec_mismatch(self):
        net2 = random_conductances(build_lattice(2), np.random.default_rng(3))
        net3 = random_conductances(build_lattice(3), np.random.default_rng(4))
        rec3 = reconstruct_full(response_matrix(net3), 3)
        with pytest.raises(SpecMismatchError):
            rmse_metrics(net2, rec3)


class TestSizeSweep:
    def test_noise_free_small_lengths_are_exact(self):
        res = run_size_sweep([2, 3, 4], trials=5, seed=0)
        for row in res.rows:
            assert row.failures == 0
            assert row.rmse_mean < 1e-10
            assert row.time_ms_mean > 0

    def test_resistance_range_echo_reads_back_exactly(self):
        res = run_size_sweep([3], 2, 1.0000001, 2.0)
        assert res.config["resistance_range"] == "1.0000001:2"

    def test_deterministic_csv_bytes_outside_time_columns(self):
        # Wall-clock columns cannot be bit-reproducible; everything else must be.
        a = sweep_to_csv(run_size_sweep([2, 3], trials=4, seed=11))
        b = sweep_to_csv(run_size_sweep([2, 3], trials=4, seed=11))
        assert strip_time_columns(a) == strip_time_columns(b)

    def test_csv_independent_of_blas_thread_count(self):
        # Every LAPACK call and every matrix product in the forward model
        # and the peel is at most 4k wide, below the sizes at which OpenBLAS
        # splits work across threads, so the bits must not depend on the
        # thread count.  The '#' lines digest forward stacks at k=15 and 16.
        def sweep_csv(threads: int) -> str:
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
            src = str(Path(rnet.__file__).resolve().parents[1])
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            code = "\n".join([
                "import hashlib",
                "import numpy as np",
                "from rnet.experiments import run_size_sweep, sweep_to_csv",
                "from rnet.lattice import _kirchhoff_stack, _response_stack, build_lattice",
                "print(sweep_to_csv(run_size_sweep([10, 12, 14], trials=3, seed=21)), end='')",
                "for k in (15, 16):",
                "    g = np.random.default_rng(k).uniform(0.5, 1.0, (10, build_lattice(k).n_edges))",
                "    lam = _response_stack(_kirchhoff_stack(g, k), k)",
                "    print(f'# response k={k}', hashlib.sha256(lam.tobytes()).hexdigest())",
            ])
            done = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True,
                timeout=300, check=True,
            )
            return done.stdout

        one, two = sweep_csv(1), sweep_csv(2)
        assert "\n14,3," in one and "\n# response k=16 " in one
        assert strip_time_columns(one) == strip_time_columns(two)

    def test_different_seeds_differ(self):
        a = run_size_sweep([3], trials=4, seed=1)
        b = run_size_sweep([3], trials=4, seed=2)
        assert a.rows[0].rmse_mean != b.rows[0].rmse_mean

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            run_size_sweep([2], trials=0)


def oracle_row(k, trials, seed, sigma=0.0, sigma_index=0):
    """A sweep row built one trial at a time through the public per-network API."""
    rmse, rel = [], []
    for t in range(trials):
        net = random_conductances(
            build_lattice(k), np.random.default_rng(_network_seed(seed, k, t))
        )
        lam = response_matrix(net)
        if sigma > 0:
            lam = apply_elementwise_noise(lam, sigma, _noise_seed(seed, k, sigma_index, t))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                recon = reconstruct_full(lam, k)
        except RnetError:
            continue
        metrics = rmse_metrics(net, recon)
        if math.isfinite(metrics.rmse) and math.isfinite(metrics.rel_rmse):
            rmse.append(metrics.rmse)
            rel.append(metrics.rel_rmse)
    if not rmse:
        return (math.nan, math.nan, math.nan, trials)
    spread = float(np.std(rmse, ddof=1)) if len(rmse) > 1 else 0.0
    return (float(np.mean(rmse)), spread, float(np.mean(rel)), trials - len(rmse))


class TestSweepOracle:
    """Each stacked sweep row equals the same trials run one network at a time."""

    @staticmethod
    def fields(row):
        # repr-equal: bit-equal floats, and NaN rows of refused trials compare
        fields = (row.rmse_mean, row.rmse_std, row.rel_rmse_mean, row.failures)
        return tuple(repr(x) for x in fields)

    def test_size_sweep_rows(self):
        k_values = [1, 2, 3, 5, 8]
        sweep = run_size_sweep(k_values, trials=4, seed=5)
        for k, row in zip(k_values, sweep.rows, strict=True):
            assert self.fields(row) == tuple(repr(x) for x in oracle_row(k, 4, 5))

    @pytest.mark.parametrize("seed", [4, 5])
    def test_noise_sweep_rows(self, seed):
        sigmas = [0.0, 1e-6, 1e-3]
        sweep = run_noise_sweep([3, 7], sigmas, trials=6, seed=seed)
        expected = [
            oracle_row(k, 6, seed, sigma, s_idx)
            for k in (3, 7)
            for s_idx, sigma in enumerate(sigmas)
        ]
        for row, oracle in zip(sweep.rows, expected, strict=True):
            assert self.fields(row) == tuple(repr(x) for x in oracle)
        # refusals are covered: the 7:0.001 row loses all 6 trials at seed 4, 5 of 6 at seed 5
        assert sweep.rows[-1].failures == {4: 6, 5: 5}[seed]


class TestNoiseSweep:
    def test_sigma_zero_reproduces_noise_free_sweep(self):
        size = run_size_sweep([3], trials=6, seed=9)
        noise = run_noise_sweep([3], [0.0], trials=6, seed=9)
        assert noise.rows[0].rmse_mean == size.rows[0].rmse_mean
        assert noise.rows[0].rel_rmse_mean == size.rows[0].rel_rmse_mean

    def test_param_format_and_grid(self):
        res = run_noise_sweep([3, 4], [0.001, 0.01], trials=2, seed=0)
        assert [row.param for row in res.rows] == [
            "3:0.001", "3:0.01", "4:0.001", "4:0.01",
        ]

    def test_labels_read_back_exactly(self):
        sigmas = [1e-3, 1.0000001e-3, 10**-3.5]
        res = run_noise_sweep([3], sigmas, trials=2, seed=0)
        params = [row.param for row in res.rows]
        assert params[0] == "3:0.001"  # the short text, where it reads back
        assert [float(p.split(":")[1]) for p in params] == sigmas
        assert [float(s) for s in res.config["sigmas"].split(",")] == sigmas

    def test_error_grows_with_sigma(self):
        res = run_noise_sweep([4], [1e-6, 1e-3], trials=10, seed=3)
        assert res.rows[1].rmse_mean > res.rows[0].rmse_mean * 10

    def test_overwhelming_noise_counts_failures(self):
        res = run_noise_sweep([4], [3.0], trials=10, seed=7)
        row = res.rows[0]
        assert row.failures == 10
        assert math.isnan(row.rmse_mean)

    def test_invalid_sigma_rejected(self):
        with pytest.raises(ValueError):
            run_noise_sweep([3], [-0.1], trials=2)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, True, np.True_])
    def test_non_finite_sigma_rejected(self, monkeypatch, sigma):
        solves = count_calls(monkeypatch, "_response_stack")
        message = f"^sigma must be finite and >= 0, got {re.escape(repr(sigma))}$"
        with pytest.raises(ValueError, match=message):
            run_noise_sweep([3], [1e-3, sigma], trials=2)
        assert solves == []


class TestNoisyRow:
    """A noise-sweep row corrupts its stack at once, trial by trial equal to the public B=1 call."""

    @pytest.mark.parametrize("k", [1, 4, 7])
    @pytest.mark.parametrize("sigma", [1e-6, 1e-3, 3e-2])
    def test_stack_equals_per_trial_noise(self, k, sigma):
        seed, sigma_index = 3, 2
        _, lam = experiments._draw_row(k, 5, seed)
        got = experiments._noisy(lam, k, seed, sigma, sigma_index)
        seeds = [_noise_seed(seed, k, sigma_index, t) for t in range(len(lam))]
        per_trial = [
            apply_elementwise_noise(ResponseMatrix(x), sigma, s).entries for x, s in zip(lam, seeds)
        ]
        assert got.tobytes() == np.stack(per_trial).tobytes()
        for x, s, y in zip(lam, seeds, got, strict=True):  # the rule, written out
            noisy = x * np.random.default_rng(s).normal(1.0, sigma, size=x.shape)
            assert y.tobytes() == ((noisy + noisy.T) / 2.0).tobytes()
        assert not np.shares_memory(got, lam)

    def test_sigma_zero_passes_the_shared_stack_through(self):
        _, lam = experiments._draw_row(4, 3, 0)
        assert experiments._noisy(lam, 4, 0, 0.0, 0) is lam
        assert not lam.flags.writeable

    @pytest.mark.parametrize("bad", [math.nan, 1e308])
    def test_non_finite_entry_raises_as_per_trial_noise_does(self, bad):
        _, lam = experiments._draw_row(3, 2, 0)
        lam = lam.copy()
        lam[1, 0, :] = bad  # 1e308 overflows in the average with the transpose
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                experiments._noisy(lam, 3, 0, 1e-3, 0)
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                for t, x in enumerate(lam):
                    apply_elementwise_noise(ResponseMatrix(x), 1e-3, _noise_seed(0, 3, 0, t))

    @pytest.mark.parametrize("sigma", [-1e-3, math.nan, math.inf, True, np.True_])
    def test_bad_sigma_refused(self, sigma):
        _, lam = experiments._draw_row(3, 2, 0)
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            experiments._noisy(lam, 3, 0, sigma, 0)


def count_calls(monkeypatch, name):
    """Wrap ``rnet.experiments.<name>``; returns the list of each call's positional args."""
    calls, original = [], getattr(experiments, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, name, wrapper)
    return calls


class TestSweepWork:
    """Each sweep draws, forward-solves and peels every network no more often than it must."""

    def test_noise_sweep_forward_solves_each_length_once(self, monkeypatch):
        solves = count_calls(monkeypatch, "_response_stack")
        peels = count_calls(monkeypatch, "_peel_stack")
        run_noise_sweep([3, 5], [0.0, 1e-6, 1e-3], trials=4, seed=0)
        assert len(solves) == 2
        # one peel for the whole sweep, over one stack per row
        assert len(peels) == 1
        stacks = peels[0][0]
        assert [lam.shape for lam in stacks] == [(4, 12, 12)] * 3 + [(4, 20, 20)] * 3
        # the sigma=0 rows peel the clean stack that the length's other rows share
        for clean in (stacks[0], stacks[3]):
            assert not clean.flags.writeable
            with pytest.raises(ValueError):
                clean[0, 0, 0] = 0.0

    def test_size_sweep_peels_each_row_once(self, monkeypatch):
        peels = count_calls(monkeypatch, "_peel_stack")
        run_size_sweep([3, 5], trials=4, seed=0)
        assert len(peels) == 1
        assert [lam.shape for lam in peels[0][0]] == [(4, 12, 12), (4, 20, 20)]

    def test_timing_profile_keeps_its_warm_up(self, monkeypatch):
        peels = count_calls(monkeypatch, "_peel_stack")
        run_timing_profile([3], trials=4, seed=0)
        assert [[lam.shape for lam in args[0]] for args in peels] == [[(1, 12, 12)]] * (1 + 4)


class TestSweepValidation:
    SWEEPS = {
        "size": lambda ks: run_size_sweep(ks, trials=2),
        "noise": lambda ks: run_noise_sweep(ks, [1e-3], trials=2),
        "timing": lambda ks: run_timing_profile(ks, trials=2),
    }
    SWEEP_TRIALS = {
        "size": lambda trials: run_size_sweep([3], trials=trials, seed=1),
        "noise": lambda trials: run_noise_sweep([3], [1e-3], trials=trials, seed=1),
        "timing": lambda trials: run_timing_profile([3], trials=trials, seed=1),
    }
    SWEEP_SEED = {
        "size": lambda seed: run_size_sweep([3], trials=2, seed=seed),
        "noise": lambda seed: run_noise_sweep([3], [1e-3], trials=2, seed=seed),
        "timing": lambda seed: run_timing_profile([3], trials=2, seed=seed),
    }

    @pytest.mark.parametrize("sweep", SWEEPS)
    @pytest.mark.parametrize("bad", [0, -3, 2.5, "4", True, np.int64(0), np.float64(4.0)])
    def test_bad_length_named_before_any_work(self, monkeypatch, sweep, bad):
        solves = count_calls(monkeypatch, "_response_stack")
        with pytest.raises(ValueError, match=f"got {re.escape(repr(bad))}$"):
            self.SWEEPS[sweep]([3, bad])
        assert solves == []

    @pytest.mark.parametrize("sweep", SWEEPS)
    @pytest.mark.parametrize("bad", [0, -1, 2.5, "3", True, np.float64(3.0), np.int64(0)])
    def test_bad_trials_named_before_any_work(self, monkeypatch, sweep, bad):
        solves = count_calls(monkeypatch, "_response_stack")
        message = f"^trials must be a positive integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            self.SWEEP_TRIALS[sweep](bad)
        assert solves == []

    @pytest.mark.parametrize("sweep", SWEEPS)
    @pytest.mark.parametrize("bad", [True, np.True_, np.False_, -1, 1.0, "1", None])
    def test_bad_seed_named_before_any_work(self, monkeypatch, sweep, bad):
        solves = count_calls(monkeypatch, "_response_stack")
        message = f"^seed must be a nonnegative integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            self.SWEEP_SEED[sweep](bad)
        assert solves == []

    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_numpy_integer_trials_stored_as_int(self, sweep):
        numpy_result = self.SWEEP_TRIALS[sweep](np.int64(3))
        int_result = self.SWEEP_TRIALS[sweep](3)
        assert numpy_result.config["trials"] == "3"
        assert all(type(row.trials) is int and row.trials == 3 for row in numpy_result.rows)
        assert strip_time_columns(sweep_to_csv(numpy_result)) == strip_time_columns(
            sweep_to_csv(int_result)
        )

    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_numpy_integer_length_is_an_int_row(self, sweep):
        numpy_rows = self.SWEEPS[sweep]([np.int64(4), np.int32(3)]).rows
        int_rows = self.SWEEPS[sweep]([4, 3]).rows
        assert [row.param for row in numpy_rows] == [row.param for row in int_rows]
        assert [row.param.split(":")[0] for row in numpy_rows] == ["4", "3"]
        for a, b in zip(numpy_rows, int_rows, strict=True):
            fields = ("rmse_mean", "rmse_std", "rel_rmse_mean", "failures")
            assert [repr(getattr(a, f)) for f in fields] == [repr(getattr(b, f)) for f in fields]

    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_empty_length_list_rejected(self, sweep):
        with pytest.raises(ValueError, match="at least one length"):
            self.SWEEPS[sweep]([])

    def test_empty_sigma_list_rejected(self):
        with pytest.raises(ValueError, match="one sigma"):
            run_noise_sweep([3], [], trials=2)


class TestTimingProfile:
    def test_reports_positive_times(self):
        res = run_timing_profile([2, 4], trials=4, seed=0)
        for row in res.rows:
            assert row.time_ms_mean > 0
            assert row.time_ms_std >= 0
            assert row.failures == 0

    def test_rows_match_size_sweep_outside_time_columns(self):
        timing = run_timing_profile([2, 5], trials=4, seed=6)
        size = run_size_sweep([2, 5], trials=4, seed=6)
        for t_row, s_row in zip(timing.rows, size.rows, strict=True):
            assert (t_row.param, t_row.trials, t_row.failures) == (
                s_row.param, s_row.trials, s_row.failures
            )
            assert (t_row.rmse_mean, t_row.rmse_std, t_row.rel_rmse_mean) == (
                s_row.rmse_mean, s_row.rmse_std, s_row.rel_rmse_mean
            )

    def test_time_grows_with_length(self):
        res = run_timing_profile([2, 8], trials=5, seed=1)
        assert res.rows[1].time_ms_mean > res.rows[0].time_ms_mean


class TestSweepCsv:
    def test_header_and_comments(self):
        res = run_size_sweep([2], trials=2, seed=4)
        text = sweep_to_csv(res)
        lines = text.strip().split("\n")
        comments = [line for line in lines if line.startswith("# ")]
        assert comments
        assert any(line == "# seed=4" for line in comments)
        header_idx = len(comments)
        assert lines[header_idx] == ",".join(CSV_HEADER)
        assert len(lines) == header_idx + 1 + 1

    def test_rows_parse_back(self):
        import csv as csvmod
        import io

        res = run_noise_sweep([3], [0.001], trials=3, seed=2)
        text = sweep_to_csv(res)
        data_lines = [line for line in text.splitlines() if not line.startswith("#")]
        rows = list(csvmod.reader(io.StringIO("\n".join(data_lines))))
        assert rows[0] == CSV_HEADER
        param, trials, rmse_mean = rows[1][0], int(rows[1][1]), float(rows[1][2])
        assert param == "3:0.001"
        assert trials == 3
        assert rmse_mean > 0
