import json
import re

import numpy as np
import pytest
from click.testing import CliRunner

from rnet import matrixkit
from rnet.cli import main
from rnet.lattice import (
    EdgeId,
    build_lattice,
    network_from_json,
    response_matrix,
    uniform_conductances,
)

runner = CliRunner()


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


class TestForwardAndMeasure:
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

    def test_explicit_length_checked(self, net_file, tmp_path):
        lam = tmp_path / "lam.csv"
        invoke("forward", net_file, "--out", lam)
        result = runner.invoke(main, ["reconstruct", str(lam), "--length", "4"])
        assert result.exit_code == 2

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


class TestSweeps:
    def test_size_sweep_csv(self, tmp_path):
        out = tmp_path / "size.csv"
        result = invoke("sweep", "size", "--k-range", "2:3", "--trials", 2,
                        "--seed", 1, "--out", out)
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        header = [line for line in lines if not line.startswith("#")][0]
        assert header == "param,trials,rmse_mean,rmse_std,rel_rmse_mean,time_ms_mean,time_ms_std,failures"

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

    def test_format_flag_validated(self, net_file):
        result = runner.invoke(main, ["forward", str(net_file), "--format", "svg"])
        assert result.exit_code == 2
        result = invoke("forward", net_file, "--format", "csv")
        assert result.exit_code == 0
