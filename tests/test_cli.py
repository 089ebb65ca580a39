import json
import re
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from rnet import matrixkit
from rnet.cli import main
from rnet.lattice import (
    ConductanceMap,
    EdgeId,
    build_lattice,
    network_from_json,
    network_to_json,
    response_matrix,
    uniform_conductances,
)

runner = CliRunner()

# What each refused --resistance-range says: the bound it names, or the two read.
RANGE_REFUSALS = {
    "1:inf": "resistance_high must be positive and finite, got inf",
    "0:1": "resistance_low must be positive and finite, got 0.0",
    "3:1": "need resistance_low <= resistance_high, got 3.0 and 1.0",
    "-1:2": "resistance_low must be positive and finite, got -1.0",
}


def invoke(*args):
    return runner.invoke(main, [str(a) for a in args], catch_exceptions=False)


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "net.json"
    result = invoke("generate", "--length", 3, "--seed", 5, "--out", path)
    assert result.exit_code == 0
    return path


class TestGenerate:
    def test_writes_valid_network(self, net_file):
        net = network_from_json(net_file.read_text())
        assert net.spec.length == 3
        resist = np.array(list(net.resistances().values()))
        assert resist.min() >= 1.0 and resist.max() <= 2.0

    def test_seeded_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        invoke("generate", "--length", 2, "--seed", 9, "--out", a)
        invoke("generate", "--length", 2, "--seed", 9, "--out", b)
        assert a.read_text() == b.read_text()

    def test_resistance_range_flag(self, tmp_path):
        path = tmp_path / "n.json"
        invoke("generate", "--length", 2, "--seed", 0,
               "--resistance-range", "10:20", "--out", path)
        net = network_from_json(path.read_text())
        resist = np.array(list(net.resistances().values()))
        assert resist.min() >= 10.0 and resist.max() <= 20.0

    def test_stdout_when_no_out(self):
        result = invoke("generate", "--length", 1, "--seed", 1)
        assert result.exit_code == 0
        assert json.loads(result.output)["schema"] == "rnet-network/1"

    def test_bad_range_is_invalid_input(self):
        result = runner.invoke(main, ["generate", "--length", "2", "--resistance-range", "5"])
        assert result.exit_code == 2

    def test_bad_length_is_invalid_input(self):
        result = runner.invoke(main, ["generate", "--length", "0"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("bounds", RANGE_REFUSALS)
    def test_infinite_resistance_bound_is_invalid_input(self, bounds):
        result = runner.invoke(main, ["generate", "--length", "2", "--resistance-range", bounds])
        assert result.exit_code == 2
        assert result.stderr == f"error: {RANGE_REFUSALS[bounds]}\n"


class TestForwardAndMeasure:
    def test_singular_network_is_solver_failure(self, tmp_path):
        # only H:1:1 conducts, so the interior cannot be eliminated
        spec = build_lattice(2)
        g = np.full(spec.n_edges, 1e-20)
        g[spec.edges.index(EdgeId.horizontal(1, 1))] = 1.0
        path = tmp_path / "singular.json"
        path.write_text(network_to_json(ConductanceMap(spec, g)))
        result = runner.invoke(main, ["forward", str(path)])
        assert result.exit_code == 3
        assert result.stderr == "error: interior row 1: Singular matrix\n"

    def test_forward_matches_library(self, net_file, tmp_path):
        out = tmp_path / "lam.csv"
        result = invoke("forward", net_file, "--out", out)
        assert result.exit_code == 0
        lam = matrixkit.matrix_from_csv(out.read_text())
        net = network_from_json(net_file.read_text())
        assert np.array_equal(lam, response_matrix(net).entries)

    def test_measure_none_close_to_forward(self, net_file, tmp_path):
        lam_f, lam_m = tmp_path / "f.csv", tmp_path / "m.csv"
        invoke("forward", net_file, "--out", lam_f)
        invoke("measure", net_file, "--noise", "none", "--seed", 0, "--out", lam_m)
        a = matrixkit.matrix_from_csv(lam_f.read_text())
        b = matrixkit.matrix_from_csv(lam_m.read_text())
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()

    def test_measure_deterministic(self, net_file, tmp_path):
        one, two = tmp_path / "1.csv", tmp_path / "2.csv"
        invoke("measure", net_file, "--noise", "protocol:230", "--seed", 7, "--out", one)
        invoke("measure", net_file, "--noise", "protocol:230", "--seed", 7, "--out", two)
        assert one.read_text() == two.read_text()

    def test_bad_noise_spec(self, net_file):
        result = runner.invoke(main, ["measure", str(net_file), "--noise", "gamma:1"])
        assert result.exit_code == 2

    def test_subnormal_snr_refused_naming_the_spec(self, net_file, tmp_path):
        out = tmp_path / "m.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["measure", str(net_file), "--noise", "protocol:1e-320",
                                          "--out", str(out)])
        assert result.exit_code == 2
        assert "error: bad noise spec 'protocol:1e-320'" in result.output
        assert "RuntimeWarning" not in result.output
        assert not out.exists()

    def test_elementwise_noise_spec_refused(self, net_file, tmp_path):
        out = tmp_path / "m.csv"
        result = runner.invoke(main, ["measure", str(net_file), "--noise", "elementwise:0.01",
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert "protocol:<snr>" in result.output
        assert not out.exists()

    def test_missing_file_is_usage_error(self):
        result = runner.invoke(main, ["forward", "/no/such/net.json"])
        assert result.exit_code == 2


class TestReconstruct:
    def test_round_trip(self, net_file, tmp_path):
        lam, rec = tmp_path / "lam.csv", tmp_path / "rec.json"
        invoke("forward", net_file, "--out", lam)
        result = invoke("reconstruct", lam, "--out", rec)
        assert result.exit_code == 0
        doc = json.loads(rec.read_text())
        assert doc["schema"] == "rnet-recon/1"
        net = network_from_json(net_file.read_text())
        by_id = {item["id"]: item["conductance"] for item in doc["edges"]}
        for e in net.spec.edges:
            assert by_id[str(e)] == pytest.approx(net.values[e], rel=1e-8)

    def test_singular_input_is_solver_failure(self, tmp_path):
        lam = tmp_path / "bad.csv"
        lam.write_text(matrixkit.matrix_to_csv(np.eye(8)))
        result = runner.invoke(main, ["reconstruct", str(lam)])
        assert result.exit_code == 3

    def test_non_response_shape_is_invalid_input(self, tmp_path):
        lam = tmp_path / "odd.csv"
        lam.write_text(matrixkit.matrix_to_csv(np.eye(6)))
        result = runner.invoke(main, ["reconstruct", str(lam)])
        assert result.exit_code == 2

    def test_rectangular_matrix_is_invalid_input(self, tmp_path):
        lam = tmp_path / "wide.csv"
        lam.write_text(matrixkit.matrix_to_csv(np.ones((4, 8))))
        result = runner.invoke(main, ["reconstruct", str(lam)])
        assert result.exit_code == 2
        assert "must be square" in result.output


class TestSweeps:
    def test_size_sweep_csv(self, tmp_path):
        out = tmp_path / "size.csv"
        result = invoke("sweep", "size", "--k-range", "2:3", "--trials", 2,
                        "--seed", 1, "--out", out)
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        header = [line for line in lines if not line.startswith("#")][0]
        assert header == "param,trials,rmse_mean,rmse_std,rel_rmse_mean,time_ms_mean,time_ms_std,failures"

    @pytest.mark.parametrize("bounds", RANGE_REFUSALS)
    def test_infinite_resistance_bound_is_invalid_input(self, tmp_path, bounds):
        out = tmp_path / "size.csv"
        result = runner.invoke(main, ["sweep", "size", "--k-range", "2:3", "--trials", "2",
                                      "--resistance-range", bounds, "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr == f"error: {RANGE_REFUSALS[bounds]}\n"
        assert not out.exists()

    @pytest.mark.parametrize("args, option", [
        (["sweep", "size", "--k-range", "4:x"], "--k-range"),
        (["sweep", "timing", "--k-range", "5"], "--k-range"),
        (["sweep", "noise", "--k-list", "a", "--sigma-list", "0"], "--k-list"),
        (["sweep", "noise", "--sigma-list", "x"], "--sigma-list"),
        (["generate", "--length", "2", "--resistance-range", "1:x"], "--resistance-range"),
        (["sweep", "size", "--resistance-range", "1:x"], "--resistance-range"),
    ], ids=["size-k-range", "timing-k-range", "k-list", "sigma-list", "generate-range", "size-range"])
    def test_unreadable_text_option_named(self, args, option):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert f"Invalid value for '{option}'" in result.stderr

    def test_noise_sweep_requires_sigma_list(self):
        result = runner.invoke(main, ["sweep", "noise"])
        assert result.exit_code == 2

    def test_noise_sweep_csv(self, tmp_path):
        out = tmp_path / "noise.csv"
        result = invoke("sweep", "noise", "--k-list", "2", "--sigma-list", "0,1e-4",
                        "--trials", 2, "--seed", 1, "--out", out)
        assert result.exit_code == 0
        body = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert len(body) == 3

    @pytest.mark.parametrize(
        "k_list, sigma_list, message",
        [
            ("-3", "1e-3", "got -3"),
            ("3,0", "1e-3", "got 0"),
            (",", "1e-3", "at least one length"),
            ("3", ",", "one sigma"),
            ("3", "inf", "sigma must be finite and >= 0, got inf"),
            ("3", "nan", "sigma must be finite and >= 0, got nan"),
        ],
    )
    def test_bad_noise_grid_is_invalid_input(self, tmp_path, k_list, sigma_list, message):
        out = tmp_path / "noise.csv"
        result = runner.invoke(main, ["sweep", "noise", "--k-list", k_list,
                                      "--sigma-list", sigma_list, "--out", str(out)])
        assert result.exit_code == 2
        assert message in result.output
        assert not out.exists()

    def test_timing_sweep(self, tmp_path):
        out = tmp_path / "timing.csv"
        result = invoke("sweep", "timing", "--k-range", "2:3", "--trials", 2,
                        "--seed", 0, "--out", out)
        assert result.exit_code == 0
        assert "param" in out.read_text()


class TestDeltaRender:
    def make_recs(self, tmp_path):
        spec = build_lattice(2)
        base = uniform_conductances(spec)
        deformed_values = {e: (g / 1.8 if e.kind == "H" else g) for e, g in base.values.items()}
        from rnet.lattice import ConductanceMap, network_to_json

        nets = {"base": base, "deformed": ConductanceMap(spec, deformed_values)}
        recs = {}
        for name, net in nets.items():
            net_path = tmp_path / f"{name}.json"
            net_path.write_text(network_to_json(net))
            lam_path = tmp_path / f"{name}.csv"
            invoke("forward", net_path, "--out", lam_path)
            rec_path = tmp_path / f"{name}-rec.json"
            invoke("reconstruct", lam_path, "--out", rec_path)
            recs[name] = rec_path
        return recs

    def test_delta_then_render(self, tmp_path):
        recs = self.make_recs(tmp_path)
        delta_path = tmp_path / "delta.json"
        result = invoke("delta", recs["base"], recs["deformed"], "--out", delta_path)
        assert result.exit_code == 0
        doc = json.loads(delta_path.read_text())
        assert doc["schema"] == "rnet-delta/1"
        assert doc["delta"]["H:1:1"] == pytest.approx(0.8, abs=1e-8)
        assert abs(doc["delta"]["S:1"]) <= 1e-8

        svg_path = tmp_path / "map.svg"
        result = invoke("render", delta_path, "--out", svg_path)
        assert result.exit_code == 0
        svg = svg_path.read_text()
        assert svg.startswith("<?xml")
        assert len(re.findall(r"<line\b", svg)) == 12

    def test_render_byte_identical(self, tmp_path):
        recs = self.make_recs(tmp_path)
        delta_path = tmp_path / "delta.json"
        invoke("delta", recs["base"], recs["deformed"], "--out", delta_path)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        invoke("render", delta_path, "--out", a)
        invoke("render", delta_path, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flag, value", [
        ("--deadband", "nan"), ("--deadband", "inf"), ("--max-width", "inf"), ("--min-width", "nan"),
    ])
    def test_non_finite_style_is_invalid_input(self, tmp_path, flag, value):
        recs = self.make_recs(tmp_path)
        delta_path, svg_path = tmp_path / "delta.json", tmp_path / "map.svg"
        invoke("delta", recs["base"], recs["deformed"], "--out", delta_path)
        result = runner.invoke(main, ["render", str(delta_path), flag, value, "--out", str(svg_path)])
        assert result.exit_code == 2
        assert not svg_path.exists()

    def test_mismatched_lengths_rejected(self, tmp_path):
        recs = self.make_recs(tmp_path)
        other = tmp_path / "other-rec.json"
        net_path = tmp_path / "o.json"
        invoke("generate", "--length", 3, "--seed", 0, "--out", net_path)
        lam_path = tmp_path / "o.csv"
        invoke("forward", net_path, "--out", lam_path)
        invoke("reconstruct", lam_path, "--out", other)
        result = runner.invoke(main, ["delta", str(recs["base"]), str(other)])
        assert result.exit_code == 2


class TestPipeline:
    def run(self, tmp_path):
        """The rig's loop: two networks generated, measured and reconstructed, then delta and render."""
        for side, seed in (("base", 1), ("defo", 2)):
            invoke("generate", "--length", 4, "--seed", seed, "--resistance-range", "22080:23184",
                   "--out", tmp_path / f"{side}.json")
            invoke("measure", tmp_path / f"{side}.json", "--noise", "protocol:230",
                   "--out", tmp_path / f"{side}.csv")
            invoke("reconstruct", tmp_path / f"{side}.csv", "--out", tmp_path / f"{side}.recon.json")
        invoke("delta", tmp_path / "base.recon.json", tmp_path / "defo.recon.json",
               "--out", tmp_path / "delta.json")
        return invoke("render", tmp_path / "delta.json", "--out", tmp_path / "map.svg")

    @pytest.mark.filterwarnings("ignore:layer 0. isolated-row residual:RuntimeWarning")
    def test_repeat_run_hashes_no_edge_id(self, tmp_path, monkeypatch):
        # The first run fills the per-length caches; after that every stage
        # works on catalog-ordered arrays and builds no per-edge dict.
        assert self.run(tmp_path).exit_code == 0
        first = (tmp_path / "map.svg").read_bytes()

        def refuse(edge):
            raise AssertionError(f"EdgeId {edge} hashed")

        monkeypatch.setattr(EdgeId, "__hash__", refuse)
        assert self.run(tmp_path).exit_code == 0
        assert (tmp_path / "map.svg").read_bytes() == first


class TestOutputHandling:
    def test_io_error_exit_code(self, net_file):
        result = runner.invoke(
            main, ["forward", str(net_file), "--out", "/no/such/dir/lam.csv"]
        )
        assert result.exit_code == 4

    def test_no_temp_files_left_behind(self, net_file, tmp_path):
        out = tmp_path / "lam.csv"
        invoke("forward", net_file, "--out", out)
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".rnet-")]
        assert leftovers == []

    @pytest.mark.parametrize("command, removed", [
        ("generate --length 2", "--format json"),
        ("forward {net}", "--format csv"),
        ("measure {net}", "--format csv"),
        ("reconstruct {lam}", "--format json"),
        ("sweep size --k-range 2:2 --trials 1", "--format csv"),
        ("sweep noise --k-list 2 --sigma-list 0 --trials 1", "--format csv"),
        ("sweep timing --k-range 2:2 --trials 1", "--format csv"),
        ("delta {rec} {rec}", "--format json"),
        ("render {delta}", "--format svg"),
        ("reconstruct {lam}", "--length 4"),
    ], ids=["generate", "forward", "measure", "reconstruct", "sweep-size", "sweep-noise",
            "sweep-timing", "delta", "render", "reconstruct-length"])
    def test_removed_option_refused(self, net_file, tmp_path, command, removed):
        # Each command writes one fixed format, and reconstruct reads k off the
        # matrix order, so neither option exists.
        paths = {name: tmp_path / name for name in ("lam", "rec", "delta")}
        invoke("forward", net_file, "--out", paths["lam"])
        invoke("reconstruct", paths["lam"], "--out", paths["rec"])
        invoke("delta", paths["rec"], paths["rec"], "--out", paths["delta"])
        args = command.format(net=net_file, **paths).split()
        assert runner.invoke(main, args).exit_code == 0
        result = runner.invoke(main, args + removed.split())
        assert result.exit_code == 2
        assert re.search(rf"no such option\W+{removed.split()[0]}\b", result.output, re.I)

    @pytest.mark.parametrize("command", ["generate --length 2", "measure {net}"])
    def test_negative_seed_names_option(self, net_file, command):
        result = runner.invoke(main, command.format(net=net_file).split() + ["--seed", "-1"])
        assert result.exit_code == 2
        assert "'--seed'" in result.stderr
