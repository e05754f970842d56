import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repeaterlab import cli, estimators, markov, protocols, simulator
from repeaterlab.cli import main


# one small spec per sweep protocol, each asking for every metric its protocol
# accepts in mixed order; the shs spec runs at tau != 1
GOLDEN_SWEEP_SPECS = {
    "multiherald": {
        "protocol": "multiherald",
        "varied_params": [{"name": "p1", "start": 0.2, "stop": 0.8, "count": 2},
                          {"name": "p2", "start": 0.3, "stop": 0.9, "count": 2}],
        "fixed_params": {"horizon": 400, "steps": 300, "trajectories": 8, "seed": 5},
        "outputs": ["exact_var", "simulated_mean", "equilibrium",
                    "latency_std_over_mean", "naive_var", "mean_latency"],
    },
    "shs": {
        "protocol": "shs",
        "varied_params": [{"name": "p", "start": 0.3, "stop": 0.9, "count": 3}],
        "fixed_params": {"ps": 0.8, "tau": 2.5, "horizon": 300, "steps": 200,
                         "trajectories": 6, "seed": 11},
        "outputs": ["mean_latency", "naive_var", "simulated_mean", "equilibrium",
                    "exact_var", "latency_std_over_mean"],
    },
    "dhs": {
        "protocol": "dhs",
        "varied_params": [{"name": "p1", "start": 0.4, "stop": 0.7, "count": 2}],
        "fixed_params": {"pl2": 0.6, "pr2": 0.5, "ps": 0.9, "horizon": 500,
                         "steps": 300, "trajectories": 8, "seed": 2},
        "outputs": ["latency_std_over_mean", "equilibrium", "exact_var",
                    "mean_latency", "simulated_mean", "naive_var"],
    },
    "nested": {
        "protocol": "nested",
        "varied_params": [{"name": "k", "start": 1, "stop": 3, "count": 3}],
        "fixed_params": {"p": 0.55, "steps": 300, "trajectories": 8, "seed": 3},
        "outputs": ["simulated_mean", "nested_type2", "nested_type1"],
    },
}
GOLDEN_COMPARE_ARGV = {
    "chain": ("--protocol", "dhs", "--pl", "0.5,0.6", "--pr", "0.7,0.4", "--ps", "0.9",
              "--tau", "2", "--steps", "300", "--trajectories", "8", "--seed", "7"),
    "nested": ("--nested", "--k", "2", "--p", "0.45", "--steps", "300",
               "--trajectories", "8", "--seed", "7"),
}

# sha256 of each output above: a change to any metric's arithmetic, to the
# grid order or to the CSV format fails here
GOLDEN_SWEEP_DIGESTS = {
    "multiherald": "5a3d3edbeffba239270e44679aaf2724b8afd3f5732da0d9a6ccdf3822144da9",
    "shs": "e4bd30db857bff40bdcd39041bc8215c192e3f7b9bd56a1fc82c86bb976e84cb",
    "dhs": "01736fc8c3210a5e25ff67c2af46dacaeb297543acf53434d1fb832b3588466e",
    "nested": "77e01b3ae70401a1f7737f82d35d4a764f62a746854089813eac9cfa41b4a54e",
}
# sha256 of the CSV of each figure spec: whole 19 x 19 surfaces, so a change
# to the stacked evaluation of any point fails here, and the nested spec's
# simulated_mean, so a change to any of its per-trajectory counts does
FIGURE_DIGESTS = {
    "bkp_equilibrium_surface": "5f6140d8fc72afe9fadabfbd8c980fb8b10a6459c60d6773ea3b9bf4e9ec780b",
    "bkp_latency_mean": "473dd5ffcbaf2dcf767beb77e7d44e425a24124ff39ea03f560f2b23fb56ac8e",
    "bkp_latency_spread": "34daeb26fc16591c5a6350b4c0c732b0546846c5325ed0f2c812f72e0ab803d1",
    "bkp_throughput_variance": "c9c1fa25f24cd57816c1212d910c97c69147ef0d869b4aabc121423696e71143",
    "dhs_equilibrium_by_link": "6ebde2b299ddd181d1b597857451b7e37101d874f162d0af06711ca71887a6f4",
    "dhs_equilibrium_by_round": "c7ad3f2c0ec477d4d918a599f2a50b0fc94ceee6c3a81512bba28d5807b25d4e",
    "dhs_latency_spread_by_link": "2d9e971f7adba959dd4fcbc0033af32e938f4ed9d2ee3a15363b12a68061d30a",
    "dhs_latency_spread_by_round": "6313f5dff5ccdf63bbe0c5083f1f4b9a9d8612576e3a07668e07bc1471f04870",
    "nested_throughput_vs_estimates":
        "73f1b6ba3d6ed5b5e42e75326c48fae9ae9c9986d2483a9efd342c8aeb0bd66a",
    "shs_equilibrium_surface": "684fccf32741f278c2b1bf96fdafc8b68c3bd67f66aa7cbbfb76fcafe8413068",
    "shs_latency_spread": "09e25ca53a8c27149317f391d3fe7dcbe27d9c830fb016178329429ff9f135f3",
}
FIGURES = Path(__file__).resolve().parents[1] / "figures"
# analyze reports: one per protocol with the exact variance, one without it,
# and one read through --params-json (PARAMS_JSON_TEXT written to a file)
GOLDEN_ANALYZE_ARGV = {
    "multiherald": ("--protocol", "multiherald", "--probs", "0.3,0.7,0.9", "--tau", "1.5",
                    "--exact", "--horizon", "500"),
    "shs": ("--protocol", "shs", "--pl", "0.4", "--pr", "0.65", "--ps", "0.85", "--tau", "2",
            "--exact", "--horizon", "500"),
    "dhs": ("--protocol", "dhs", "--pl", "0.5,0.6", "--pr", "0.7,0.4", "--ps", "0.9",
            "--exact", "--horizon", "500"),
    "naive": ("--protocol", "shs", "--pl", "0.25", "--pr", "0.9", "--ps", "0.6",
              "--horizon", "2000"),
    "params_json": ("--params-json", "{params_json}", "--exact", "--horizon", "300"),
}
PARAMS_JSON_TEXT = json.dumps({"protocol": "dhs", "left_probs": [0.35, 0.8],
                               "right_probs": [0.6, 0.45], "swap_prob": 0.75, "tau": 0.5})
GOLDEN_ANALYZE_DIGESTS = {
    "multiherald": "57e63d63919cd224cb2f840f4e994e2c0dadbe1c025c693127dbe87b95b26125",
    "shs": "fefbbeb40faa052cbf6e226a2681470d7efddf6ec1f48cee88d5b03519f7599e",
    "dhs": "9fcbcc7bc5d23c0f8c53357cb2064027c4c6301ad9101e1080e5fb08139da1ce",
    "naive": "b6f65181c8f1065195605a616866cc1484c4b79857c3a1b9bb188015e18efb47",
    "params_json": "a41d27f58d9a7b0c6d1fa8a9d048538018016b62974206d3323df220e21d7efc",
}
GOLDEN_COMPARE_DIGESTS = {
    "chain": "0c9c0cb2acea0e691aaddabce1165a2ea9cfaf8ff7c837fbe1e4c5f0eb1a04ed",
    "nested": "3298abd578df337dfdf94fcfd39c8a23414667722a168e73b64c6ede0abe7850",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_bkp_report_golden(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--protocol", "multiherald",
                               "--probs", "0.5,0.5")
        assert code == 0
        report = json.loads(out)
        assert report["protocol"] == "multiherald"
        assert report["equilibrium"]["success_probability"] == pytest.approx(1 / 6, abs=1e-12)
        assert report["equilibrium"]["by_state"]["2"] == pytest.approx(1 / 6, abs=1e-12)
        chain = protocols.build_chain(protocols.MultiHeraldParams((0.5, 0.5)))
        assert report["matrix"] == {"n": 3, "rows": chain.matrix.rows.tolist()}
        assert report["closed_form_deltas"]["equilibrium"] < 1e-12
        assert report["throughput"]["exact_variance"] is None

    def test_deterministic_shs_latency(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--protocol", "shs",
                               "--pl", "1", "--pr", "1", "--ps", "1")
        assert code == 0
        report = json.loads(out)
        assert report["latency"] == {"mean": 2.0, "variance": 0.0}

    def test_dhs_all_ones(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--protocol", "dhs",
                               "--pl", "1,1", "--pr", "1,1", "--ps", "1")
        assert code == 0
        report = json.loads(out)
        assert report["equilibrium"]["success_probability"] == pytest.approx(1 / 3, abs=1e-12)
        assert report["closed_form_deltas"] is None

    def test_exact_flag(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--protocol", "multiherald",
                               "--probs", "0.5,0.5", "--horizon", "500", "--exact")
        report = json.loads(out)
        assert code == 0
        assert report["throughput"]["exact_variance"] > 0.0
        assert report["throughput"]["horizon_N"] == 500

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "analyze", "--protocol", "shs",
                               "--pl", "0.5", "--pr", "0.5", "--ps", "1",
                               "--output", str(dest))
        assert code == 0 and out == ""
        report = json.loads(dest.read_text())
        assert report["latency"]["mean"] == pytest.approx(11 / 3, abs=1e-12)

    def test_params_json_input(self, capsys, tmp_path):
        src = tmp_path / "params.json"
        src.write_text(protocols.params_to_json(
            protocols.TwoLinkParams((0.5,), (0.5,), 1.0), tau=2.0))
        code, out, _ = run_cli(capsys, "analyze", "--params-json", str(src))
        assert code == 0
        report = json.loads(out)
        assert report["latency"]["mean"] == pytest.approx(2.0 * 11 / 3, abs=1e-12)

    def test_emitted_params_reparse_identically(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--protocol", "dhs",
                               "--pl", "0.3,0.8", "--pr", "0.6,0.5", "--ps", "0.9",
                               "--tau", "0.5")
        assert code == 0
        report = json.loads(out)
        params, tau = protocols.params_from_json(json.dumps(report["params"]))
        assert params == protocols.TwoLinkParams((0.3, 0.8), (0.6, 0.5), 0.9)
        assert tau == 0.5

    def test_validation_exit_2(self, capsys):
        cases = [
            ("analyze", "--protocol", "multiherald", "--probs", "0.5,1.5"),
            ("analyze", "--protocol", "shs", "--pl", "1,1", "--pr", "1", "--ps", "1"),
            ("analyze", "--protocol", "shs", "--pl", "0.5", "--pr", "0.5"),
            ("analyze", "--protocol", "shs", "--pl", "0.5", "--pr", "0.5", "--ps", "1",
             "--tau", "inf"),
            ("analyze", "--protocol", "shs", "--pl", "0.5", "--pr", "0.5", "--ps", "1",
             "--tau", "nan"),
            ("analyze", "--protocol", "multiherald", "--probs", "0.5",
             "--params-json", "x.json"),
            ("analyze",),
        ]
        for argv in cases:
            code, _, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert json.loads(err)["error"]["category"] == "validation"

    def test_round_count_is_bounded(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "--protocol", "multiherald",
                             "--probs", ",".join(["1"] * protocols.MAX_ROUNDS))
        assert code == 0
        code, out, err = run_cli(capsys, "analyze", "--protocol", "multiherald",
                                 "--probs", ",".join(["1"] * (protocols.MAX_ROUNDS + 1)))
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert (error["category"], error["type"]) == ("validation", "ProtocolError")
        assert error["message"] == "a multiherald chain has at most 64 rounds, got 65"

    @pytest.mark.parametrize("doc, field", [
        ({"protocol": "multiherald", "round_probs": [True, "0.5"]}, "round_probs[0]"),
        ({"protocol": "multiherald", "round_probs": "0.5"}, "round_probs"),
        ({"protocol": "shs", "left_probs": [0.5], "right_probs": [0.5], "swap_prob": "1"},
         "swap_prob"),
        ({"protocol": "shs", "left_probs": [0.5], "right_probs": [0.5], "swap_prob": 1,
          "tau": "2"}, "tau"),
    ])
    def test_params_json_non_numbers_exit_2(self, capsys, tmp_path, doc, field):
        src = tmp_path / "params.json"
        src.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "analyze", "--params-json", str(src))
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert (error["category"], error["type"]) == ("validation", "ProtocolError")
        assert error["message"].startswith(field)

    def test_numerical_exit_3(self, capsys):
        # a dead first round makes success unreachable: the hitting-time
        # system is singular
        code, _, err = run_cli(capsys, "analyze", "--protocol", "multiherald",
                               "--probs", "0,0.5")
        assert code == 3
        assert json.loads(err)["error"]["category"] == "numerical"

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--nope"])
        assert exc.value.code == 2

    def test_overflowing_variance_gives_one_json_line(self):
        # at p1 = 5e-177 the hitting variance overflows to NaN: stderr carries
        # the error object alone, with no numpy warning ahead of it
        proc = subprocess.run([sys.executable, "-m", "repeaterlab", "analyze",
                               "--protocol", "multiherald", "--probs", "5e-177,0.5"],
                              capture_output=True, text=True)
        assert proc.returncode == 3 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        error = json.loads(lines[0])["error"]
        assert error["type"] == "SingularMatrixError"
        assert "(nan)" in error["message"]


    def test_underflowing_tau_gives_one_json_line(self):
        # tau^2 underflows to 0, so both variances divide by zero: stderr
        # carries the error object alone, with no numpy warning ahead of it
        proc = subprocess.run([sys.executable, "-m", "repeaterlab", "analyze",
                               "--protocol", "shs", "--pl", "0.5", "--pr", "0.5", "--ps", "1",
                               "--tau", "1e-200", "--exact", "--horizon", "100"],
                              capture_output=True, text=True)
        assert proc.returncode == 3 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        error = json.loads(lines[0])["error"]
        assert error["type"] == "NumericalOutputError"
        assert "naive_variance" in error["message"]


class TestSimulate:
    def test_deterministic_walk_csv(self, capsys, tmp_path):
        dest = tmp_path / "counts.csv"
        code, out, _ = run_cli(capsys, "simulate", "--protocol", "multiherald",
                               "--probs", "1,1", "--steps", "9",
                               "--trajectories", "1", "--seed", "0",
                               "--csv-out", str(dest))
        assert code == 0
        assert dest.read_text() == "trajectory_index,success_count\n0,4\n"
        summary = json.loads(out)
        assert summary["mean_throughput"] == pytest.approx(4 / 9, rel=1e-13)
        assert summary["config"]["seed"] == 0
        assert summary["config"]["rng_algorithm"] == "philox"

    def test_nested_summary(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--nested", "--k", "1",
                               "--p", "0.5", "--steps", "20000",
                               "--trajectories", "40", "--seed", "42")
        assert code == 0
        summary = json.loads(out)
        assert summary["target"] == {"kind": "nested", "k": 1, "p": 0.5}
        assert summary["mean_throughput"] == pytest.approx(3 / 11, abs=0.01)
        assert summary["wall_time"] > 0.0

    def test_seed_echoed_when_drawn(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--protocol", "multiherald",
                               "--probs", "0.5", "--steps", "50",
                               "--trajectories", "2")
        assert code == 0
        seed = json.loads(out)["config"]["seed"]
        assert 0 <= seed < 2**64

    def test_json_out_file(self, capsys, tmp_path):
        dest = tmp_path / "summary.json"
        code, out, _ = run_cli(capsys, "simulate", "--nested", "--k", "1",
                               "--p", "0.8", "--steps", "100",
                               "--trajectories", "2", "--seed", "5",
                               "--json-out", str(dest))
        assert code == 0 and out == ""
        assert json.loads(dest.read_text())["config"]["seed"] == 5

    def test_flag_conflicts(self, capsys):
        cases = [
            ("simulate", "--nested", "--protocol", "shs", "--k", "1", "--p", "0.5"),
            ("simulate", "--nested", "--k", "1"),
            ("simulate", "--k", "1", "--p", "0.5"),
            ("simulate", "--nested", "--k", "0", "--p", "0.5"),
            # 2^40 links would need terabytes of draws per step
            ("simulate", "--nested", "--k", "40", "--p", "0.5"),
            # chain flags that the nested engine would silently ignore
            ("simulate", "--nested", "--k", "1", "--p", "0.5", "--pl", "0.3"),
            ("simulate", "--nested", "--k", "1", "--p", "0.5", "--pr", "0.3"),
            ("simulate", "--nested", "--k", "1", "--p", "0.5", "--ps", "0.3"),
            ("simulate", "--nested", "--k", "1", "--p", "0.5", "--tau", "7"),
            ("compare", "--nested", "--k", "1", "--p", "0.5", "--pl", "0.3", "--tau", "7"),
        ]
        for argv in cases:
            code, _, err = run_cli(capsys, *argv)
            assert code == 2, argv

    def test_csv_byte_identical_across_interpreters(self, tmp_path):
        # two fresh interpreters with different string hashing: the counts
        # may depend on the seed alone, not on hash or set ordering
        argv = ["-m", "repeaterlab", "simulate", "--protocol", "shs",
                "--pl", "0.5", "--pr", "0.6", "--ps", "0.9",
                "--steps", "2000", "--trajectories", "30", "--seed", "17"]
        blobs = []
        for hashseed in ("0", "1"):
            dest = tmp_path / f"run_{hashseed}.csv"
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            subprocess.run([sys.executable, *argv, "--csv-out", str(dest),
                            "--json-out", str(tmp_path / f"s{hashseed}.json")],
                           env=env, check=True, capture_output=True)
            blobs.append(dest.read_bytes())
        assert blobs[0] == blobs[1]


class TestSweep:
    def write_spec(self, tmp_path, payload):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(payload))
        return str(spec)

    def test_bkp_grid(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path, {
            "protocol": "multiherald",
            "varied_params": [
                {"name": "p1", "start": 0.25, "stop": 0.75, "count": 3},
                {"name": "p2", "start": 0.25, "stop": 0.75, "count": 2},
            ],
            "outputs": ["equilibrium", "mean_latency"],
        })
        dest = tmp_path / "grid.csv"
        code, _, _ = run_cli(capsys, "sweep", "--spec", spec, "--output", str(dest))
        assert code == 0
        lines = dest.read_text().splitlines()
        assert lines[0] == "p1,p2,equilibrium,mean_latency"
        assert len(lines) == 1 + 3 * 2
        # first varied parameter is the outermost loop
        first = lines[1].split(",")
        assert float(first[0]) == 0.25 and float(first[1]) == 0.25
        second = lines[2].split(",")
        assert float(second[0]) == 0.25 and float(second[1]) == 0.75
        row = lines[4].split(",")  # p1=0.5, p2=0.25... rows 1..6
        assert float(row[2]) == pytest.approx(
            protocols.cf_equilibrium_multiheralded(
                protocols.MultiHeraldParams((float(row[0]), float(row[1])))),
            rel=1e-12)

    def test_tied_round_alias(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path, {
            "protocol": "multiherald",
            "varied_params": [{"name": "p", "start": 0.3, "stop": 0.7, "count": 3}],
            "fixed_params": {"n": 3},
            "outputs": ["equilibrium"],
        })
        dest = tmp_path / "tied.csv"
        code, _, _ = run_cli(capsys, "sweep", "--spec", spec, "--output", str(dest))
        assert code == 0
        row = dest.read_text().splitlines()[1].split(",")
        expect = protocols.cf_equilibrium_multiheralded(
            protocols.MultiHeraldParams((0.3, 0.3, 0.3)))
        assert float(row[1]) == pytest.approx(expect, rel=1e-12)

    def test_dhs_link_aliases(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path, {
            "protocol": "dhs",
            "varied_params": [{"name": "p1", "start": 0.5, "stop": 0.5, "count": 2}],
            "fixed_params": {"p2": 0.5, "ps": 1.0},
            "outputs": ["equilibrium"],
        })
        dest = tmp_path / "dhs.csv"
        code, _, _ = run_cli(capsys, "sweep", "--spec", spec, "--output", str(dest))
        assert code == 0
        row = dest.read_text().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(25 / 233, rel=1e-12)

    def test_nested_sweep_with_simulation(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path, {
            "protocol": "nested",
            "varied_params": [{"name": "k", "start": 1, "stop": 2, "count": 2}],
            "fixed_params": {"p": 0.6, "steps": 2000, "trajectories": 10, "seed": 3},
            "outputs": ["nested_type1", "nested_type2", "simulated_mean"],
        })
        dest_a = tmp_path / "a.csv"
        dest_b = tmp_path / "b.csv"
        assert run_cli(capsys, "sweep", "--spec", spec, "--output", str(dest_a))[0] == 0
        assert run_cli(capsys, "sweep", "--spec", spec, "--output", str(dest_b))[0] == 0
        assert dest_a.read_bytes() == dest_b.read_bytes()
        lines = dest_a.read_text().splitlines()
        assert lines[0] == "k,nested_type1,nested_type2,simulated_mean"
        k1 = lines[1].split(",")
        assert float(k1[1]) == float(k1[2])  # types coincide at level 1

    def test_nested_block_builds_each_batch_once(self, capsys, tmp_path, monkeypatch):
        # the block's points share one pass over each batch's streams
        build, batches = simulator._trajectory_generators, []
        monkeypatch.setattr(simulator, "_trajectory_generators",
                            lambda config, batch: batches.append(batch) or build(config, batch))
        spec = self.write_spec(tmp_path, {
            "protocol": "nested",
            "varied_params": [{"name": "k", "start": 1, "stop": 4, "count": 4},
                              {"name": "p", "start": 0.3, "stop": 0.6, "count": 3}],
            "fixed_params": {"steps": 30, "trajectories": 1030, "seed": 3},
            "outputs": ["simulated_mean"],
        })
        dest = tmp_path / "nested.csv"
        assert run_cli(capsys, "sweep", "--spec", spec, "--output", str(dest))[0] == 0
        assert len(dest.read_text().splitlines()) == 1 + 4 * 3
        assert batches == [range(0, 1024), range(1024, 1030)]

    def test_spec_errors_leave_no_file(self, capsys, tmp_path):
        bad_specs = [
            {"protocol": "shs",
             "varied_params": [{"name": "p", "start": 0.5, "stop": 0.6, "count": 2},
                               {"name": "pl", "start": 0.1, "stop": 0.2, "count": 2}],
             "fixed_params": {"ps": 1.0}, "outputs": ["equilibrium"]},
            {"protocol": "shs",
             "varied_params": [{"name": "p", "start": 0.5, "stop": 0.6, "count": 1}],
             "fixed_params": {"ps": 1.0}, "outputs": ["equilibrium"]},
            {"protocol": "shs", "varied_params": [], "outputs": ["nested_type1"]},
            {"protocol": "nested",
             "varied_params": [{"name": "k", "start": 1, "stop": 2, "count": 2}],
             "fixed_params": {"p": 0.5}, "outputs": ["mean_latency"]},
            {"protocol": "shs",
             "varied_params": [{"name": "pl", "start": 0.2, "stop": 0.4, "count": 2}],
             "fixed_params": {"pr": 0.5}, "outputs": ["equilibrium"]},
            {"protocol": "warp", "varied_params": [], "outputs": ["equilibrium"]},
            {"protocol": "shs", "varied_params": [],
             "fixed_params": {"p": 0.5, "ps": 1.0},
             "outputs": ["equilibrium", "equilibrium"]},
            # run settings the protocol never reads
            {"protocol": "nested",
             "varied_params": [{"name": "k", "start": 1, "stop": 2, "count": 2}],
             "fixed_params": {"p": 0.5, "tau": -5.0}, "outputs": ["nested_type1"]},
            {"protocol": "shs", "varied_params": [],
             "fixed_params": {"p": 0.5, "ps": 1.0, "n": 3}, "outputs": ["equilibrium"]},
            {"protocol": "dhs", "varied_params": [],
             "fixed_params": {"p": 0.5, "ps": 1.0, "n": 2}, "outputs": ["equilibrium"]},
            {"protocol": "nested", "varied_params": [],
             "fixed_params": {"k": 1, "p": 0.5, "n": 2}, "outputs": ["nested_type1"]},
            # run settings no requested output reads
            {"protocol": "shs", "varied_params": [],
             "fixed_params": {"p": 0.5, "ps": 1.0, "horizon": 5},
             "outputs": ["equilibrium", "simulated_mean"]},
            {"protocol": "shs", "varied_params": [],
             "fixed_params": {"p": 0.5, "ps": 1.0, "seed": 3}, "outputs": ["equilibrium"]},
            {"protocol": "shs", "varied_params": [],
             "fixed_params": {"p": 0.5, "ps": 1.0, "steps": 7}, "outputs": ["naive_var"]},
            {"protocol": "multiherald", "varied_params": [],
             "fixed_params": {"p1": 0.5, "trajectories": 2}, "outputs": ["exact_var"]},
            {"protocol": "nested", "varied_params": [],
             "fixed_params": {"k": 1, "p": 0.5, "seed": 3}, "outputs": ["nested_type1"]},
        ]
        # spec shapes: outputs a list of names, varied_params a list of
        # objects, fixed_params an object; the error names the key
        shs_pl = {"name": "pl", "start": 0.5, "stop": 0.6, "count": 2}
        bad_shapes = [
            ("outputs", {"protocol": "shs", "varied_params": [],
                         "fixed_params": {"p": 0.5, "ps": 1.0}, "outputs": {"equilibrium": 1}}),
            ("outputs", {"protocol": "shs", "varied_params": [],
                         "fixed_params": {"p": 0.5, "ps": 1.0}, "outputs": "equilibrium"}),
            ("outputs", {"protocol": "shs", "varied_params": [],
                         "fixed_params": {"p": 0.5, "ps": 1.0}, "outputs": [["equilibrium"]]}),
            ("fixed_params", {"protocol": "shs", "varied_params": [shs_pl],
                              "fixed_params": [["pr", 0.5], ["ps", 0.9]],
                              "outputs": ["equilibrium"]}),
            ("varied_params", {"protocol": "shs", "varied_params": shs_pl,
                               "fixed_params": {"pr": 0.5, "ps": 0.9},
                               "outputs": ["equilibrium"]}),
            ("varied_params", {"protocol": "shs", "varied_params": [["pl", 0.5, 0.6, 2]],
                               "fixed_params": {"pr": 0.5, "ps": 0.9},
                               "outputs": ["equilibrium"]}),
        ]
        for key, payload in [(None, payload) for payload in bad_specs] + bad_shapes:
            spec = self.write_spec(tmp_path, payload)
            dest = tmp_path / "never.csv"
            code, _, err = run_cli(capsys, "sweep", "--spec", spec, "--output", str(dest))
            assert code == 2, payload
            assert not dest.exists()
            error = json.loads(err)["error"]
            assert (error["category"], error["type"]) == ("validation", "CliValidationError")
            if key is not None:
                assert error["message"].startswith(f"{key} must be"), error

    def test_oversized_grid_is_a_validation_error(self, capsys, tmp_path):
        # 10^15 points take 7.1 PiB, beyond any address space, so allocating
        # the grid fails at once
        spec = self.write_spec(tmp_path, {
            "protocol": "shs",
            "varied_params": [{"name": "p", "start": 0.1, "stop": 0.9, "count": 10**15}],
            "fixed_params": {"ps": 0.5},
            "outputs": ["equilibrium"],
        })
        dest = tmp_path / "never.csv"
        code, out, err = run_cli(capsys, "sweep", "--spec", spec, "--output", str(dest))
        assert code == 2 and out == "" and not dest.exists()
        lines = err.splitlines()
        assert len(lines) == 1, err
        error = json.loads(lines[0])["error"]
        assert (error["category"], error["type"]) == ("validation", "CliValidationError")
        assert "1000000000000000 points" in error["message"]

    def test_round_name_gap_is_found_before_making_names(self, capsys, tmp_path):
        # p1 and p3000000 leave a gap; making the 3 M slot names p1..p3000000
        # before the check would take about 190 MiB
        spec = self.write_spec(tmp_path, {
            "protocol": "multiherald", "varied_params": [],
            "fixed_params": {"p1": 0.5, "p3000000": 0.5}, "outputs": ["equilibrium"],
        })
        dest = tmp_path / "never.csv"
        tracemalloc.start()
        try:
            code, _, err = run_cli(capsys, "sweep", "--spec", spec, "--output", str(dest))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and not dest.exists()
        error = json.loads(err)["error"]
        assert (error["category"], error["type"]) == ("validation", "CliValidationError")
        assert error["message"] == (
            "round probabilities must cover p1..p3000000 with no gaps or repeats")
        assert peak <= 16 * 2**20

    def test_tied_round_count_is_bounded_before_making_names(self, capsys, tmp_path):
        # making the 10^9 slot names p1..p1000000000 would take tens of GiB
        spec = self.write_spec(tmp_path, {
            "protocol": "multiherald", "varied_params": [],
            "fixed_params": {"p": 0.5, "n": 10**9}, "outputs": ["equilibrium"],
        })
        dest = tmp_path / "never.csv"
        tracemalloc.start()
        try:
            code, _, err = run_cli(capsys, "sweep", "--spec", spec, "--output", str(dest))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and not dest.exists()
        error = json.loads(err)["error"]
        assert (error["category"], error["type"]) == ("validation", "ProtocolError")
        assert error["message"] == "a multiherald chain has at most 64 rounds, got 1000000000"
        assert peak <= 16 * 2**20

    def test_per_round_count_is_bounded(self, capsys, tmp_path):
        fixed = {f"p{i}": 0.5 for i in range(1, protocols.MAX_ROUNDS + 2)}
        spec = self.write_spec(tmp_path, {"protocol": "multiherald", "varied_params": [],
                                          "fixed_params": fixed, "outputs": ["equilibrium"]})
        code, _, err = run_cli(capsys, "sweep", "--spec", spec,
                               "--output", str(tmp_path / "never.csv"))
        assert code == 2
        assert json.loads(err)["error"]["message"] == (
            "a multiherald chain has at most 64 rounds, got 65")

    @pytest.mark.parametrize("payload", [
        {"protocol": "nested",
         "varied_params": [{"name": "k", "start": 1, "stop": 4, "count": 3}],
         "fixed_params": {"p": 0.5, "steps": 20000, "trajectories": 100},
         "outputs": ["nested_type1", "simulated_mean"]},
        {"protocol": "shs",
         "varied_params": [{"name": "p", "start": 0.5, "stop": 1.5, "count": 3}],
         "fixed_params": {"ps": 1.0, "steps": 20000, "trajectories": 100},
         "outputs": ["equilibrium", "simulated_mean"]},
        {"protocol": "nested",
         "varied_params": [{"name": "k", "start": 1, "stop": 1100, "count": 2}],
         "fixed_params": {"p": 0.5},
         "outputs": ["nested_type1"]},
        {"protocol": "shs",
         "varied_params": [{"name": "p", "start": 0.5, "stop": 0.9, "count": 2}],
         "fixed_params": {"ps": 1.0, "horizon": 2_000_000, "steps": 20000,
                          "trajectories": 100},
         "outputs": ["simulated_mean", "naive_var"]},
    ], ids=["nested-k-2.5", "shs-p-1.5", "nested-k-1100", "shs-horizon-2e6"])
    def test_bad_late_point_rejected_before_simulating(self, capsys, tmp_path,
                                                       monkeypatch, payload):
        def no_simulation(*args, **kwargs):
            raise AssertionError("sweep simulated before checking every point")
        monkeypatch.setattr(simulator, "simulate_chain", no_simulation)
        monkeypatch.setattr(simulator, "simulate_nested", no_simulation)
        spec = self.write_spec(tmp_path, payload)
        dest = tmp_path / "never.csv"
        code, _, err = run_cli(capsys, "sweep", "--spec", spec, "--output", str(dest))
        assert code == 2 and not dest.exists()
        assert json.loads(err)["error"]["category"] == "validation"

    @pytest.mark.parametrize("payload, point", [
        # the first bad point is the third of six: p1 = 0.3, p2 = 1.2
        ({"protocol": "multiherald",
          "varied_params": [{"name": "p1", "start": 0.3, "stop": 0.6, "count": 2},
                            {"name": "p2", "start": 0.2, "stop": 1.2, "count": 3}],
          "outputs": ["equilibrium"]},
         lambda: protocols.MultiHeraldParams((0.3, float(np.linspace(0.2, 1.2, 3)[2])))),
        ({"protocol": "shs",
          "varied_params": [{"name": "p", "start": 0.5, "stop": 1.5, "count": 3}],
          "fixed_params": {"ps": 1.0}, "outputs": ["equilibrium"]},
         lambda: protocols.TwoLinkParams((1.5,), (1.5,), 1.0)),
        ({"protocol": "dhs",
          "varied_params": [{"name": "p2", "start": 0.5, "stop": 1.25, "count": 4}],
          "fixed_params": {"p1": 0.5, "ps": 0.9}, "outputs": ["mean_latency"]},
         lambda: protocols.TwoLinkParams((0.5, 1.25), (0.5, 1.25), 0.9)),
        ({"protocol": "dhs",
          "varied_params": [{"name": "pl", "start": 0.2, "stop": 0.4, "count": 2}],
          "fixed_params": {"pr": 0.5, "ps": float("nan")}, "outputs": ["equilibrium"]},
         lambda: protocols.TwoLinkParams((0.2, 0.2), (0.5, 0.5), float("nan"))),
        ({"protocol": "nested",
          "varied_params": [{"name": "p", "start": 0.2, "stop": 0.4, "count": 2},
                            {"name": "k", "start": 1, "stop": 13, "count": 3}],
          "outputs": ["nested_type1"]},
         lambda: estimators.check_nested(13, 0.2)),
        ({"protocol": "nested",
          "varied_params": [{"name": "p", "start": 0.5, "stop": 1.5, "count": 3}],
          "fixed_params": {"k": 2}, "outputs": ["nested_type2"]},
         lambda: estimators.check_nested(2, 1.5)),
        ({"protocol": "shs",
          "varied_params": [{"name": "p", "start": 0.5, "stop": 0.6, "count": 2}],
          "fixed_params": {"ps": "abc"}, "outputs": ["equilibrium"]},
         lambda: protocols._real("fixed_params.ps", "abc")),
        ({"protocol": "multiherald",
          "varied_params": [{"name": "p1", "start": 0.5, "stop": 0.6, "count": 2}],
          "fixed_params": {"p2": [0.5]}, "outputs": ["equilibrium"]},
         lambda: protocols._real("fixed_params.p2", [0.5])),
        ({"protocol": "shs",
          "varied_params": [{"name": "p", "start": 0.5, "stop": 0.6, "count": 2}],
          "fixed_params": {"ps": True}, "outputs": ["equilibrium"]},
         lambda: protocols._real("fixed_params.ps", True)),
        ({"protocol": "dhs",
          "varied_params": [{"name": "p", "start": 0.5, "stop": 0.6, "count": 2}],
          "fixed_params": {"ps": "0.5"}, "outputs": ["equilibrium"]},
         lambda: protocols._real("fixed_params.ps", "0.5")),
        ({"protocol": "shs",
          "varied_params": [{"name": "p", "start": 0.5, "stop": 0.6, "count": 2}],
          "fixed_params": {"ps": 0.9, "tau": "2"}, "outputs": ["equilibrium"]},
         lambda: protocols._real("fixed_params.tau", "2")),
        # varied bounds follow the same real-number rule as fixed values
        ({"protocol": "shs",
          "varied_params": [{"name": "p", "start": "0.5", "stop": True, "count": 2}],
          "fixed_params": {"ps": 1.0}, "outputs": ["equilibrium"]},
         lambda: protocols._real("start for 'p'", "0.5")),
        ({"protocol": "nested",
          "varied_params": [{"name": "k", "start": 1, "stop": True, "count": 2}],
          "fixed_params": {"p": 0.5}, "outputs": ["nested_type1"]},
         lambda: protocols._real("stop for 'k'", True)),
    ], ids=["multiherald", "shs", "dhs", "dhs-fixed-nan", "nested-k", "nested-p",
            "fixed-string", "fixed-list", "fixed-bool", "fixed-numeric-string",
            "fixed-tau-string", "varied-start-string", "varied-stop-bool"])
    def test_bad_point_raises_its_own_error(self, capsys, tmp_path, payload, point):
        # the sweep reports the first bad grid point's error exactly as that
        # point's own check raises it
        with pytest.raises(Exception) as own:
            point()
        spec = self.write_spec(tmp_path, payload)
        dest = tmp_path / "never.csv"
        code, _, err = run_cli(capsys, "sweep", "--spec", spec, "--output", str(dest))
        assert code == 2 and not dest.exists()
        error = json.loads(err)["error"]
        assert (error["type"], error["message"]) == (type(own.value).__name__, str(own.value))

    def test_non_finite_cell_exits_3(self, capsys, tmp_path):
        # tau^2 underflows to 0, so naive_var divides by zero
        spec = self.write_spec(tmp_path, {
            "protocol": "shs",
            "varied_params": [{"name": "p", "start": 0.5, "stop": 0.7, "count": 2}],
            "fixed_params": {"ps": 1.0, "tau": 1e-200, "horizon": 100},
            "outputs": ["equilibrium", "naive_var", "mean_latency"],
        })
        dest = tmp_path / "never.csv"
        with np.errstate(divide="ignore"):
            code, _, err = run_cli(capsys, "sweep", "--spec", spec, "--output", str(dest))
        assert code == 3 and not dest.exists()
        error = json.loads(err)["error"]
        assert error["type"] == "NumericalOutputError"
        assert error["message"] == "non-finite value inf in output"

    def test_underflowing_nested_rate_exits_3(self, capsys, tmp_path):
        # at the smallest subnormal p the type1 rate rounds to 0 at k = 2
        spec = self.write_spec(tmp_path, {
            "protocol": "nested",
            "varied_params": [{"name": "k", "start": 1, "stop": 2, "count": 2}],
            "fixed_params": {"p": 5e-324},
            "outputs": ["nested_type1"],
        })
        dest = tmp_path / "never.csv"
        code, _, err = run_cli(capsys, "sweep", "--spec", spec, "--output", str(dest))
        assert code == 3 and not dest.exists()
        assert json.loads(err)["error"]["category"] == "numerical"

    def test_units_at_tau_two(self, capsys, tmp_path):
        # equilibrium is per step, mean_latency in time units, naive_var the
        # variance of the per-time-unit rate over the horizon: pi (1 - pi) / (N tau^2)
        spec = self.write_spec(tmp_path, {
            "protocol": "shs", "varied_params": [],
            "fixed_params": {"pl": 0.5, "pr": 0.5, "ps": 1.0, "tau": 2, "horizon": 100},
            "outputs": ["equilibrium", "mean_latency", "naive_var"],
        })
        dest = tmp_path / "units.csv"
        code, _, _ = run_cli(capsys, "sweep", "--spec", spec, "--output", str(dest))
        assert code == 0
        equilibrium, mean_latency, naive_var = map(
            float, dest.read_text().splitlines()[1].split(","))
        assert equilibrium == pytest.approx(3 / 11, rel=1e-12)
        assert mean_latency == pytest.approx(22 / 3, rel=1e-12)
        assert naive_var == pytest.approx((3 / 11) * (8 / 11) / 400, rel=1e-12)

    def test_one_equilibrium_solve_per_point(self, capsys, tmp_path, monkeypatch):
        # one stacked solve covers every point, exact_var's included
        solves = []
        solve = markov.equilibrium
        monkeypatch.setattr(markov, "equilibrium",
                            lambda matrix: solves.append(matrix.rows.shape) or solve(matrix))
        spec = self.write_spec(tmp_path, {
            "protocol": "dhs",
            "varied_params": [{"name": "p", "start": 0.3, "stop": 0.6, "count": 3}],
            "fixed_params": {"ps": 0.9, "horizon": 50},
            "outputs": ["naive_var", "equilibrium", "exact_var", "mean_latency"],
        })
        dest = tmp_path / "solves.csv"
        assert run_cli(capsys, "sweep", "--spec", spec, "--output", str(dest))[0] == 0
        assert solves == [(3, 10, 10)]

    @pytest.mark.parametrize("protocol, fixed, outputs, error", [
        ("multiherald", {"p2": 0.5}, ["equilibrium", "mean_latency"], "SingularMatrixError"),
        ("shs", {"ps": 0.5}, ["equilibrium"], "SingularSystemError"),
    ])
    def test_numerical_failure_at_a_point_exits_3(self, capsys, tmp_path, protocol, fixed,
                                                  outputs, error):
        # a dead link at the first point: the success state is never reached
        # (multiherald p1 = 0), or the chain has no unique equilibrium (shs p = 0)
        name = "p1" if protocol == "multiherald" else "p"
        spec = self.write_spec(tmp_path, {
            "protocol": protocol,
            "varied_params": [{"name": name, "start": 0.0, "stop": 0.5, "count": 2}],
            "fixed_params": fixed, "outputs": outputs,
        })
        dest = tmp_path / "never.csv"
        code, _, err = run_cli(capsys, "sweep", "--spec", spec, "--output", str(dest))
        assert code == 3 and not dest.exists()
        assert json.loads(err)["error"]["type"] == error

    def test_numerical_failure_costs_no_simulation(self, capsys, tmp_path, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("sweep simulated a block that fails")
        monkeypatch.setattr(simulator, "simulate_chain", no_simulation)
        spec = self.write_spec(tmp_path, {
            "protocol": "shs",
            "varied_params": [{"name": "p", "start": 0.5, "stop": 0.0, "count": 2}],
            "fixed_params": {"ps": 0.5, "steps": 10, "trajectories": 2},
            "outputs": ["simulated_mean", "equilibrium"],
        })
        dest = tmp_path / "never.csv"
        code, _, err = run_cli(capsys, "sweep", "--spec", spec, "--output", str(dest))
        assert code == 3 and not dest.exists()
        assert json.loads(err)["error"]["type"] == "SingularSystemError"

    def test_failure_in_a_later_block_exits_3(self, capsys, tmp_path, monkeypatch):
        # p1 = 0, the last of five points, lies in the third block of two
        monkeypatch.setattr(cli, "_BLOCK", 2)
        spec = self.write_spec(tmp_path, {
            "protocol": "multiherald",
            "varied_params": [{"name": "p1", "start": 0.5, "stop": 0.0, "count": 5}],
            "fixed_params": {"p2": 0.5}, "outputs": ["mean_latency"],
        })
        dest = tmp_path / "never.csv"
        code, _, err = run_cli(capsys, "sweep", "--spec", spec, "--output", str(dest))
        assert code == 3 and not dest.exists()
        assert json.loads(err)["error"]["type"] == "SingularMatrixError"

    def test_block_size_leaves_the_csv_unchanged(self, capsys, tmp_path, monkeypatch):
        dhs = self.write_spec(tmp_path, {
            "protocol": "dhs",
            "varied_params": [{"name": "pl", "start": 0.1, "stop": 0.9, "count": 5},
                              {"name": "pr", "start": 0.2, "stop": 1.0, "count": 5}],
            "fixed_params": {"ps": 0.8, "tau": 2.0, "horizon": 40},
            "outputs": ["naive_var", "latency_std_over_mean", "equilibrium", "exact_var",
                        "mean_latency"],
        })
        figure = str(FIGURES / "bkp_latency_spread.json")
        for name, spec in (("dhs", dhs), ("figure", figure)):
            outputs = []
            for block in (cli._BLOCK, 3):
                monkeypatch.setattr(cli, "_BLOCK", block)
                dest = tmp_path / f"{name}-{block}.csv"
                assert run_cli(capsys, "sweep", "--spec", spec, "--output", str(dest))[0] == 0
                outputs.append(dest.read_bytes())
            assert outputs[0] == outputs[1], name

    def test_exact_var_memory_stays_bounded(self, capsys, tmp_path):
        # n = 60 tied rounds make 61 states, so one point's 183 x 183 block
        # matrix takes 268 kB: raised to a power all at once, the 100 points of
        # this block would hold about 13 slice budgets
        spec = self.write_spec(tmp_path, {
            "protocol": "multiherald",
            "varied_params": [{"name": "p", "start": 0.9, "stop": 0.99, "count": 100}],
            "fixed_params": {"n": 60, "horizon": 7},
            "outputs": ["exact_var"],
        })
        dest = tmp_path / "large.csv"
        tracemalloc.start()
        try:
            code = run_cli(capsys, "sweep", "--spec", spec, "--output", str(dest))[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 5 * estimators._POWER_SLICE_BYTES
        # the slices give each point its own value
        lines = dest.read_text().splitlines()[1:]
        for line in (lines[0], lines[50], lines[-1]):
            p, value = map(float, line.split(","))
            chain = protocols.build_chain(protocols.MultiHeraldParams((p,) * 60))
            assert value == estimators.exact_throughput_variance(chain, 7)

    def test_zero_varied_params_gives_single_row(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path, {
            "protocol": "shs", "varied_params": [],
            "fixed_params": {"pl": 0.5, "pr": 0.5, "ps": 1.0},
            "outputs": ["equilibrium", "latency_std_over_mean"],
        })
        dest = tmp_path / "single.csv"
        code, _, _ = run_cli(capsys, "sweep", "--spec", spec, "--output", str(dest))
        assert code == 0
        lines = dest.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == "equilibrium,latency_std_over_mean"


class TestCompare:
    def test_chain_compare(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--protocol", "shs",
                               "--pl", "0.5", "--pr", "0.5", "--ps", "1",
                               "--steps", "20000", "--trajectories", "40",
                               "--seed", "7")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "quantity,analytical,simulated,std_error,sigma_distance"
        cells = lines[1].split(",")
        assert cells[0] == "mean_throughput_per_step"
        assert float(cells[1]) == pytest.approx(3 / 11, rel=1e-12)
        assert float(cells[4]) < 5.0

    def test_nested_compare_rows(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--nested", "--k", "2",
                               "--p", "0.5", "--steps", "5000",
                               "--trajectories", "20", "--seed", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert [row.split(",")[0] for row in lines[1:]] \
            == ["nested_type1_rate", "nested_type2_rate"]

    def test_single_trajectory_rejected_before_simulating(self, capsys, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("compare simulated before validating --trajectories")
        monkeypatch.setattr(simulator, "simulate_chain", no_simulation)
        monkeypatch.setattr(simulator, "simulate_nested", no_simulation)
        for target in (("--nested", "--k", "1", "--p", "0.5"),
                       ("--protocol", "shs", "--pl", "0.5", "--pr", "0.5", "--ps", "1")):
            code, out, err = run_cli(capsys, "compare", *target, "--steps", "10",
                                     "--trajectories", "1", "--seed", "1")
            assert code == 2 and out == ""
            error = json.loads(err)["error"]
            assert error["category"] == "validation"
            assert "--trajectories >= 2" in error["message"]

    # ids name the link probability: at pl = pr = 1e-150 and 1e-200 the shs
    # chain has no unique equilibrium in doubles; at 5e-324 the nested type1
    # rate at k = 2 rounds to 0
    @pytest.mark.parametrize("target", [
        pytest.param(("--protocol", "shs", "--pl", "1e-150", "--pr", "1e-150", "--ps", "1"),
                     id="1e-150"),
        pytest.param(("--protocol", "shs", "--pl", "1e-200", "--pr", "1e-200", "--ps", "1"),
                     id="1e-200"),
        pytest.param(("--nested", "--k", "2", "--p", "5e-324"), id="5e-324"),
    ])
    def test_numerical_failure_before_simulating(self, capsys, monkeypatch, target):
        def no_simulation(*args, **kwargs):
            raise AssertionError("compare simulated before computing the estimate")
        monkeypatch.setattr(simulator, "simulate_chain", no_simulation)
        monkeypatch.setattr(simulator, "simulate_nested", no_simulation)
        code, out, err = run_cli(capsys, "compare", *target,
                                 "--steps", "10", "--trajectories", "4", "--seed", "1")
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["category"] == "numerical"

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "cmp.csv"
        code, out, _ = run_cli(capsys, "compare", "--protocol", "multiherald",
                               "--probs", "0.5,0.5", "--steps", "2000",
                               "--trajectories", "10", "--seed", "2",
                               "--output", str(dest))
        assert code == 0 and out == ""
        assert dest.read_text().startswith("quantity,analytical,")


class TestGoldenOutputs:
    """Sweep and compare CSVs and analyze reports, to the last byte, for every protocol and metric."""

    @pytest.mark.parametrize("protocol", sorted(GOLDEN_SWEEP_SPECS))
    def test_sweep_csv(self, capsys, tmp_path, protocol):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(GOLDEN_SWEEP_SPECS[protocol]))
        dest = tmp_path / "out.csv"
        assert run_cli(capsys, "sweep", "--spec", str(spec), "--output", str(dest))[0] == 0
        assert hashlib.sha256(dest.read_bytes()).hexdigest() == GOLDEN_SWEEP_DIGESTS[protocol]

    @pytest.mark.parametrize("target", sorted(GOLDEN_COMPARE_ARGV))
    def test_compare_csv(self, capsys, tmp_path, target):
        dest = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "compare", *GOLDEN_COMPARE_ARGV[target],
                             "--output", str(dest))
        assert code == 0
        assert hashlib.sha256(dest.read_bytes()).hexdigest() == GOLDEN_COMPARE_DIGESTS[target]

    @pytest.mark.parametrize("case", sorted(GOLDEN_ANALYZE_ARGV))
    def test_analyze_report(self, capsys, tmp_path, case):
        params_json = tmp_path / "params.json"
        params_json.write_text(PARAMS_JSON_TEXT)
        argv = [arg.format(params_json=params_json) for arg in GOLDEN_ANALYZE_ARGV[case]]
        dest = tmp_path / "report.json"
        assert run_cli(capsys, "analyze", *argv, "--output", str(dest))[0] == 0
        assert hashlib.sha256(dest.read_bytes()).hexdigest() == GOLDEN_ANALYZE_DIGESTS[case]


class TestFigureSpecs:
    """Every checked-in figure spec must parse as a valid sweep plan."""

    def test_specs_build_plans(self):
        paths = sorted(FIGURES.glob("*.json"))
        assert len(paths) >= 10
        for path in paths:
            spec = json.loads(path.read_text())
            plan = cli._SweepPlan(spec)
            assert len(plan.grid), path.name
            assert plan.outputs, path.name

    def test_nested_spec_declares_seed(self):
        spec = json.loads((FIGURES / "nested_throughput_vs_estimates.json").read_text())
        assert "seed" in spec["fixed_params"]

    @pytest.mark.parametrize("name", sorted(FIGURE_DIGESTS))
    def test_figure_csv(self, capsys, tmp_path, name):
        dest = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "sweep", "--spec", str(FIGURES / f"{name}.json"),
                             "--output", str(dest))
        assert code == 0
        assert hashlib.sha256(dest.read_bytes()).hexdigest() == FIGURE_DIGESTS[name]


# sweep parameter name -> the params slots it sets, written out per protocol
# apart from cli._PROTOCOLS, as the oracle of the alias property below
ALIAS_SLOTS = {
    "shs": {"pl": ("pl",), "pr": ("pr",), "ps": ("ps",), "p": ("pl", "pr")},
    "dhs": {"pl1": ("pl1",), "pl2": ("pl2",), "pr1": ("pr1",), "pr2": ("pr2",),
            "ps": ("ps",), "p1": ("pl1", "pr1"), "p2": ("pl2", "pr2"),
            "pl": ("pl1", "pl2"), "pr": ("pr1", "pr2"), "p": ("pl1", "pl2", "pr1", "pr2")},
}
# sets of names that cover every slot exactly once
ALIAS_LAYOUTS = {
    "shs": [("pl", "pr", "ps"), ("p", "ps")],
    "dhs": [("pl1", "pl2", "pr1", "pr2", "ps"), ("p1", "p2", "ps"), ("pl", "pr", "ps"),
            ("p", "ps"), ("p1", "pl2", "pr2", "ps"), ("pl1", "pr1", "p2", "ps")],
}
SWEEP_PROBS = st.floats(0.05, 1.0)


@st.composite
def alias_sweeps(draw):
    """A small sweep spec over any chain protocol and alias layout, with its alias map."""
    protocol = draw(st.sampled_from(["multiherald", "shs", "dhs"]))
    if protocol == "multiherald":
        n = draw(st.integers(1, 3))
        if draw(st.booleans()):
            aliases, fixed = {"p": tuple(f"p{i}" for i in range(1, n + 1))}, {"n": n}
        else:
            aliases, fixed = {f"p{i}": (f"p{i}",) for i in range(1, n + 1)}, {}
    else:
        layout = draw(st.sampled_from(ALIAS_LAYOUTS[protocol]))
        aliases, fixed = {name: ALIAS_SLOTS[protocol][name] for name in layout}, {}
    names = draw(st.permutations(sorted(aliases)))
    varied_count = draw(st.integers(0, min(2, len(names))))
    varied = [{"name": name, "start": draw(SWEEP_PROBS), "stop": draw(SWEEP_PROBS),
               "count": draw(st.integers(2, 3))} for name in names[:varied_count]]
    fixed.update({name: draw(SWEEP_PROBS) for name in names[varied_count:]})
    tau = draw(st.sampled_from([None, 2.5, 0.4]))
    if tau is not None:
        fixed["tau"] = tau
    fixed.update(horizon=30, steps=20, trajectories=2, seed=draw(st.integers(0, 99)))
    outputs = draw(st.permutations(["equilibrium", "mean_latency", "latency_std_over_mean",
                                    "naive_var", "exact_var", "simulated_mean"]))
    spec = {"protocol": protocol, "varied_params": varied, "fixed_params": fixed,
            "outputs": list(outputs)}
    return spec, aliases


def alone(protocol: str, slots: dict, tau: float, outputs, config) -> list[float]:
    """The outputs at one point, from its own chain and the one-point estimators."""
    if protocol == "multiherald":
        params = protocols.MultiHeraldParams(tuple(slots[f"p{i}"] for i in range(1, len(slots) + 1)))
    elif protocol == "shs":
        params = protocols.TwoLinkParams((slots["pl"],), (slots["pr"],), slots["ps"])
    else:
        params = protocols.TwoLinkParams((slots["pl1"], slots["pl2"]),
                                         (slots["pr1"], slots["pr2"]), slots["ps"])
    chain = protocols.build_chain(params, tau)
    mean, var = estimators.estimate_latency(chain)
    values = {
        "equilibrium": chain.equilibrium[chain.success_state],
        "mean_latency": mean,
        "latency_std_over_mean": np.sqrt(var) / mean,
        "naive_var": estimators.estimate_throughput(chain, 30)[1],
        "exact_var": estimators.exact_throughput_variance(chain, 30),
        "simulated_mean": (simulator.simulate_chain(chain, config)
                           / config.steps_per_trajectory).mean(),
    }
    return [values[metric] for metric in outputs]


class TestColumnarSweep:
    """A sweep row is its point evaluated alone; the sweep path builds no params per point."""

    @given(alias_sweeps())
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_points_built_alone(self, case):
        spec, aliases = case
        fixed = spec["fixed_params"]
        config = simulator.SimConfig(seed=fixed["seed"], steps_per_trajectory=20, trajectories=2)
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "spec.json"
            path.write_text(json.dumps(spec))
            dest = Path(work) / "out.csv"
            assert main(["sweep", "--spec", str(path), "--output", str(dest)]) == 0
            header, *lines = dest.read_text().splitlines()
        varied = [entry["name"] for entry in spec["varied_params"]]
        assert header.split(",") == varied + spec["outputs"]
        assert len(lines) == np.prod([entry["count"] for entry in spec["varied_params"]])
        for line in lines:
            cells = [float(cell) for cell in line.split(",")]
            values = {**{name: fixed[name] for name in aliases if name not in varied},
                      **dict(zip(varied, cells))}
            slots = {slot: value for name, value in values.items() for slot in aliases[name]}
            want = alone(spec["protocol"], slots, fixed.get("tau", 1.0), spec["outputs"], config)
            assert np.array_equal(cells[len(varied):], want), line

    @pytest.mark.parametrize("protocol, names, fixed", [
        ("multiherald", ("p1", "p2"), {}),
        ("shs", ("pl", "pr"), {"ps": 0.9}),
        ("dhs", ("p1", "p2"), {"ps": 0.9}),
    ])
    def test_no_params_object_per_point(self, capsys, tmp_path, monkeypatch, protocol,
                                        names, fixed):
        built = []
        for kind in (protocols.MultiHeraldParams, protocols.TwoLinkParams):
            check = kind.__post_init__
            monkeypatch.setattr(kind, "__post_init__",
                                lambda self, check=check: built.append(self) or check(self))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "protocol": protocol,
            "varied_params": [{"name": name, "start": 0.2, "stop": 0.9, "count": 10}
                              for name in names],
            "fixed_params": fixed,
            "outputs": ["equilibrium", "mean_latency", "latency_std_over_mean", "naive_var"],
        }))
        dest = tmp_path / "out.csv"
        assert run_cli(capsys, "sweep", "--spec", str(spec), "--output", str(dest))[0] == 0
        assert len(dest.read_text().splitlines()) == 101
        assert built == []

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **kw: built.append(self) or init(self, *a, **kw))
        cli._build_parser.cache_clear()
        argv = ("analyze", "--protocol", "shs", "--pl", "0.5", "--pr", "0.5", "--ps", "1")
        assert run_cli(capsys, *argv)[0] == 0
        first = len(built)
        assert first > 0
        for _ in range(3):
            assert run_cli(capsys, *argv)[0] == 0
        assert len(built) == first

    def test_import_builds_no_parser(self):
        code = ("import argparse\n"
                "built = []\n"
                "init = argparse.ArgumentParser.__init__\n"
                "argparse.ArgumentParser.__init__ = "
                "lambda self, *a, **kw: built.append(self) or init(self, *a, **kw)\n"
                "import repeaterlab.cli\n"
                "print(len(built))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        assert proc.stdout.strip() == "0"


class TestImportCost:
    @pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                        reason="numpy 1 imports numpy.random with numpy itself")
    def test_cli_import_leaves_numpy_random_unloaded(self):
        # numpy 2 loads numpy.random lazily; the simulator imports it on first use
        code = "import sys, repeaterlab.cli; print('numpy.random' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        assert proc.stdout.strip() == "False"
