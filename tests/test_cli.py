import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repeaterlab import cli, markov, protocols, simulator
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
    "multiherald": "09f65ed362ec2dfb0a37c874b9a6cb7d1d8201c26f05f7a0e4e4bb0ff5e47313",
    "shs": "503a8e2b447a010aca1711ffe2234cfa0f6daeec4ac201ddec264170212a7677",
    "dhs": "964a740cade4b75ff06d85a9a9105aeff69b24a61c9f30f19df9c7c068c5cfa9",
    "nested": "0c5f76dd6f2c09fa7de44cd3a36bb95fe001d7549e623df83a362143eeb20e2b",
}
GOLDEN_COMPARE_DIGESTS = {
    "chain": "0c9c0cb2acea0e691aaddabce1165a2ea9cfaf8ff7c837fbe1e4c5f0eb1a04ed",
    "nested": "224593cfdd678e4e796805dbf8e0d3149b11261ec1049cb7086f3d6790d79d99",
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
        for payload in bad_specs:
            spec = self.write_spec(tmp_path, payload)
            dest = tmp_path / "never.csv"
            code, _, err = run_cli(capsys, "sweep", "--spec", spec, "--output", str(dest))
            assert code == 2, payload
            assert not dest.exists()
            assert json.loads(err)["error"]["category"] == "validation"

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

    def test_underflowing_nested_rate_exits_3(self, capsys, tmp_path):
        # at 1e-200, p^2 underflows to 0, so the level-one closed form divides
        # 0 by 0; at 1e-150 the level-one rate itself underflows to 0
        for p in (1e-200, 1e-150):
            spec = self.write_spec(tmp_path, {
                "protocol": "nested",
                "varied_params": [{"name": "k", "start": 1, "stop": 2, "count": 2}],
                "fixed_params": {"p": p},
                "outputs": ["nested_type1"],
            })
            dest = tmp_path / "never.csv"
            code, _, err = run_cli(capsys, "sweep", "--spec", spec, "--output", str(dest))
            assert code == 3 and not dest.exists(), p
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
        solves = []
        solve = markov.equilibrium
        monkeypatch.setattr(markov, "equilibrium", lambda matrix: solves.append(1) or solve(matrix))
        spec = self.write_spec(tmp_path, {
            "protocol": "dhs",
            "varied_params": [{"name": "p", "start": 0.3, "stop": 0.6, "count": 3}],
            "fixed_params": {"ps": 0.9, "horizon": 50},
            "outputs": ["naive_var", "equilibrium", "exact_var", "mean_latency"],
        })
        dest = tmp_path / "solves.csv"
        assert run_cli(capsys, "sweep", "--spec", spec, "--output", str(dest))[0] == 0
        assert len(solves) == 3

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

    @pytest.mark.parametrize("p", ["1e-200", "1e-150"])
    def test_numerical_failure_before_simulating(self, capsys, monkeypatch, p):
        def no_simulation(*args, **kwargs):
            raise AssertionError("compare simulated before computing the estimate")
        monkeypatch.setattr(simulator, "simulate_chain", no_simulation)
        monkeypatch.setattr(simulator, "simulate_nested", no_simulation)
        code, out, err = run_cli(capsys, "compare", "--nested", "--k", "1", "--p", p,
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
    """Sweep and compare CSVs, to the last byte, for every protocol and metric."""

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


class TestFigureSpecs:
    """Every checked-in figure spec must parse as a valid sweep plan."""

    def test_specs_build_plans(self):
        spec_dir = Path(__file__).resolve().parents[1] / "figures"
        paths = sorted(spec_dir.glob("*.json"))
        assert len(paths) >= 10
        for path in paths:
            spec = json.loads(path.read_text())
            plan = cli._SweepPlan(spec)
            assert plan.grid(), path.name
            assert plan.outputs, path.name

    def test_nested_spec_declares_seed(self):
        spec_dir = Path(__file__).resolve().parents[1] / "figures"
        spec = json.loads((spec_dir / "nested_throughput_vs_estimates.json").read_text())
        assert "seed" in spec["fixed_params"]


class TestImportCost:
    @pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                        reason="numpy 1 imports numpy.random with numpy itself")
    def test_cli_import_leaves_numpy_random_unloaded(self):
        # numpy 2 loads numpy.random lazily; the simulator imports it on first use
        code = "import sys, repeaterlab.cli; print('numpy.random' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        assert proc.stdout.strip() == "False"


class TestScripts:
    def test_validate_against_sim_runs(self):
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "validate_against_sim.py"),
             "--steps", "2000", "--trajectories", "20"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "two-link double-heralded" in proc.stdout
