import ast
import csv
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from normwalk import walk
from normwalk.census import SphereCensus, count_bruteforce
from normwalk.cli import build_parser, main
from normwalk.green import green_mc
from normwalk.measures import invariance_surrogate
from normwalk.norms import make_norm
from normwalk.summability import PowerLog, zero_one_experiment
from normwalk.walk import make_simple_walk


SRC = str(Path(__file__).resolve().parents[1] / "src")
README = Path(__file__).resolve().parents[1] / "README.md"


def run(argv):
    return main(argv)


def fresh_python(*args):
    """Run the interpreter on `args` in a new process importing from src/.

    Output is decoded without newline translation, so the csv module's
    CRLF line ends compare equal to what capsys captures in-process.
    """
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


class TestExitCodes:
    def test_census_verify_ok(self, capsys):
        assert run(["census", "--norm", "l1", "--dim", "3", "--kmax", "15",
                    "--verify"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("k,count,method")
        assert "1,6,recursive" in out

    def test_recurrent_dimension_usage_error(self, capsys):
        assert run(["zero-one", "--beta", "3", "--dim", "2",
                    "--replicas", "4"]) == 1
        assert "recurrent" in capsys.readouterr().err

    def test_missing_dim(self, capsys):
        assert run(["census", "--norm", "l1", "--kmax", "5"]) == 1

    def test_unknown_flag(self, capsys):
        assert run(["census", "--norm", "l1", "--dim", "3", "--kmax", "5",
                    "--frobnicate"]) == 1

    def test_unknown_subcommand(self, capsys):
        assert run(["transmogrify"]) == 1

    def test_degenerate_gate(self, capsys):
        assert run(["census", "--norm", "scaled-max", "--factor", "2",
                    "--dim", "3", "--kmax", "6"]) == 1
        assert run(["census", "--norm", "scaled-max", "--factor", "2",
                    "--dim", "3", "--kmax", "6", "--allow-degenerate"]) == 0

    def test_zero_one_repeated_horizons(self, capsys):
        assert run(["zero-one", "--beta", "1.5", "--dim", "3", "--replicas",
                    "2", "--horizons", "1e4,1e4"]) == 1
        assert "distinct" in capsys.readouterr().err

    @pytest.mark.parametrize("ladder", [",", "4", "4,4"])
    def test_invariance_needs_two_distinct_levels(self, capsys, ladder):
        # an empty ladder used to exit 0 with a NaN zero_fraction
        assert run(["invariance", "--dim", "3", "--k-ladder", ladder,
                    "--replicas", "4"]) == 1
        assert "distinct" in capsys.readouterr().err

    def test_replicas_below_one_rejected(self, capsys):
        for argv in (["simulate", "--dim", "3", "--horizon", "50"],
                     ["green", "--dim", "3", "--x", "1,0,0", "--method", "mc"],
                     ["zero-one", "--beta", "3", "--dim", "3",
                      "--horizons", "10,100"],
                     ["invariance", "--dim", "3", "--k-ladder", "2,4"],
                     ["jeulin", "--scenario", "shiga3", "--K", "100"],
                     ["jeulin", "--scenario", "harness", "--K", "100"]):
            for bad in ("0", "-2"):
                assert run([*argv, "--replicas", bad]) == 1
                assert "--replicas" in capsys.readouterr().err

    def test_seed_past_64_bits_usage_error(self, capsys):
        # refused as a usage error, not an OverflowError in a replica
        assert run(["simulate", "--dim", "3", "--horizon", "10", "--replicas",
                    "2", "--seed", str(2 ** 64)]) == 1
        assert "below 2^64" in capsys.readouterr().err

    # every norm is >= 0, so such a run would stop at its first step
    @pytest.mark.parametrize("radius", ["0", "-5"])
    def test_simulate_stop_radius_below_one_usage_error(self, radius, capsys):
        assert run(["simulate", "--dim", "3", "--replicas", "2",
                    "--stop-radius", radius]) == 1
        assert "stop_radius must be >= 1" in capsys.readouterr().err

    def test_shiga3_one_replica_usage_error(self, capsys):
        assert run(["jeulin", "--scenario", "shiga3", "--K", "100",
                    "--replicas", "1"]) == 1
        assert "replicas must be >= 2" in capsys.readouterr().err

    def test_green_mc_one_replica_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(walk, "map_replicas",
                            lambda *a: pytest.fail("replicas ran"))
        assert run(["green", "--dim", "3", "--x", "1,0,0", "--method", "mc",
                    "--replicas", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "replicas must be >= 2" in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["--dim", "2", "--x", "1,0", "--method", "dp"], "walks are recurrent"),
        (["--dim", "2", "--x", "0,0", "--method", "dp"], "walks are recurrent"),
        (["--dim", "3", "--x", "1.5,0,0"], "'1.5' is not an integer"),
        (["--dim", "3", "--x", "1,0"], "lattice point of dimension 3"),
    ], ids=["recurrent", "recurrent-origin", "non-integer", "short-point"])
    def test_green_point_and_dimension_usage_errors(self, capsys, argv, message):
        # a usage error, not a traceback from the tail formulas or int()
        assert run(["green", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:") and message in captured.err

    def test_resource_error_exit_code(self, capsys):
        assert run(["green", "--dim", "3", "--x", "0,0,0", "--method", "dp",
                    "--nmax", "10", "--box-radius", "900"]) == 3

    @pytest.mark.parametrize("transform, message", [
        ("1,x,0;0,1,-1;1,-1,1", "'x' is not an integer"),
        ("1.5,-1,0;0,1,-1;1,-1,1", "'1.5' is not an integer"),
        ("1,-1,0;;1,-1,1", "transform must be 3x3, got ragged rows"),
        ("1,-1;0,1,-1;1,-1,1", "transform must be 3x3, got ragged rows"),
    ], ids=["non-numeric", "fraction", "empty-row", "ragged-row"])
    def test_bad_transform_usage_error(self, capsys, transform, message):
        # a usage error, not a traceback from int() or numpy
        assert run(["census", "--norm", "l1", "--dim", "3", "--kmax", "3",
                    "--transform", transform]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:") and message in captured.err

    def test_transform_reads_integral_floats(self, capsys):
        # the rows are integer lists, read as --x and --horizons are
        outs = []
        for transform in ("1.0,-1,0;0,1,-1;1,-1,1", "1,-1,0;0,1,-1;1,-1,1"):
            assert run(["census", "--norm", "l1", "--dim", "3", "--kmax", "3",
                        "--transform", transform, "--format", "json"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["spec"]["transform"] == [1, -1, 0, 0, 1, -1, 1, -1, 1]

    @pytest.mark.parametrize("argv", [["--beta", "nan"], ["--beta", "inf"],
                                      ["--beta", "3", "--gamma", "nan"]],
                             ids=["beta-nan", "beta-inf", "gamma-nan"])
    def test_non_finite_exponent_usage_error(self, capsys, monkeypatch, argv):
        # it got a symbolic verdict and printed NaN into the JSON
        monkeypatch.setattr(walk, "map_replicas",
                            lambda *a: pytest.fail("replicas ran"))
        assert run(["zero-one", *argv, "--dim", "3", "--replicas", "3",
                    "--horizons", "100,1000", "--format", "json",
                    "--verify"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err

    def test_invariance_seed_out_of_range_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(walk, "map_replicas",
                            lambda *a: pytest.fail("replicas ran"))
        assert run(["invariance", "--dim", "3", "--seed",
                    str(2 ** 64 - 1)]) == 1
        assert "seed 18446744073709551615 is out of range" in capsys.readouterr().err


class TestOutputs:
    def test_manifest_and_files(self, tmp_path, capsys):
        out = tmp_path / "run1"
        assert run(["census", "--norm", "max", "--dim", "3", "--kmax", "8",
                    "--out", str(out), "--format", "both"]) == 0
        assert (out / "census.csv").exists()
        assert (out / "census.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "census"
        assert manifest["config"]["kmax"] == 8
        assert len(manifest["config_hash"]) == 64

    def test_config_hash_equal_across_processes(self, tmp_path):
        hashes = []
        for name in ("a", "b"):
            out = tmp_path / name
            subprocess.run([sys.executable, "-m", "normwalk.cli", "census",
                            "--norm", "l1", "--dim", "3", "--kmax", "5",
                            "--out", str(out)], check=True,
                           env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
            manifest = json.loads((out / "manifest.json").read_text())
            assert "func" not in manifest["config"]
            assert "out" not in manifest["config"]
            hashes.append(manifest["config_hash"])
        assert hashes[0] == hashes[1]

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["simulate", "--norm", "max", "--dim", "3",
                        "--seed", "7", "--replicas", "3", "--horizon", "500",
                        "--out", str(out), "--format", "both"]) == 0
        assert (a / "simulate.csv").read_bytes() == (b / "simulate.csv").read_bytes()
        assert (a / "simulate.json").read_bytes() == (b / "simulate.json").read_bytes()

    def test_replica_rows_independent_of_replica_count(self, tmp_path):
        rows = {}
        for n in (6, 3):
            out = tmp_path / str(n)
            assert run(["simulate", "--norm", "max", "--dim", "3",
                        "--seed", "3", "--replicas", str(n), "--horizon", "400",
                        "--out", str(out)]) == 0
            with (out / "simulate.csv").open() as fh:
                rows[n] = list(csv.reader(fh))
        head = [r for r in rows[6][1:] if int(r[0]) < 3]
        assert rows[3][0] == rows[6][0] == ["replica", "k", "count"]
        assert {r[0] for r in rows[3][1:]} == {"0", "1", "2"}
        assert head == rows[3][1:]

    def test_threads_option_rejected(self, tmp_path):
        argv = ["simulate", "--dim", "3", "--replicas", "2", "--horizon", "50"]
        assert run([*argv, "--threads", "2"]) == 1
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads=2\n")
        assert run(["--config", str(cfg), *argv]) == 1

    def test_unread_flags_rejected(self, tmp_path, capsys):
        # each subcommand declares only the flags its handler reads
        cases = [(["census", "--dim", "3", "--kmax", "2"], "seed", "1"),
                 (["simulate", "--dim", "3", "--horizon", "50"],
                  "allow_degenerate", None),
                 (["green", "--dim", "3", "--x", "1,0,0",
                   "--method", "asymptotic"], "allow_degenerate", None)]
        jeulin = ["jeulin", "--scenario", "bernoulli"]
        cases += [(jeulin, key, value) for key, value in (
            ("dim", "3"), ("norm", "l1"), ("factor", "2"),
            ("transform", "1,0,0;0,1,0;0,0,1"), ("allow_degenerate", None))]
        cfg = tmp_path / "run.cfg"
        for argv, key, value in cases:
            assert run(argv) == 0
            flag = "--" + key.replace("_", "-")
            assert run([*argv, flag, *([value] if value else [])]) == 1
            cfg.write_text(f"{key}={value or 'true'}\n")
            assert run(["--config", str(cfg), *argv]) == 1

    def test_simulate_stop_radius_summary(self, tmp_path):
        out = tmp_path / "r"
        assert run(["simulate", "--norm", "max", "--dim", "3", "--seed", "5",
                    "--replicas", "2", "--stop-radius", "10",
                    "--out", str(out), "--format", "both"]) == 0
        rep = json.loads((out / "simulate.json").read_text())
        assert all(rep["truncated"])
        assert "bias_bound" not in rep

    def test_green_json(self, capsys):
        assert run(["green", "--dim", "3", "--x", "2,0,0", "--method", "dp",
                    "--nmax", "300", "--format", "json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["method"] == "dp"
        assert 0.15 < rep["value"] < 0.30

    def test_green_mc_uses_the_chosen_norm(self, capsys):
        for flags, spec in (
                (["--norm", "l1"], make_norm("l1", 3)),
                (["--norm", "l1", "--transform", "1,-1,0;0,1,-1;1,-1,1"],
                 make_norm("l1", 3, transform=[[1, -1, 0], [0, 1, -1],
                                                [1, -1, 1]]))):
            assert run(["green", "--dim", "3", "--x", "2,1,0", "--method", "mc",
                        "--replicas", "200", "--seed", "3", "--format", "json",
                        *flags]) == 0
            rep = json.loads(capsys.readouterr().out)
            want = green_mc(make_simple_walk(3), spec, (2, 1, 0), replicas=200,
                            master_seed=3)
            assert (rep["value"], rep["error_bound"]) == \
                (want.value, want.error_bound)

    def test_green_mc_reports_undercovered(self, capsys):
        # at the default k_cut the walk misses the visits after its exit
        assert run(["green", "--dim", "3", "--x", "3,0,0", "--method", "mc",
                    "--replicas", "200", "--seed", "3", "--format", "json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        want = green_mc(make_simple_walk(3), make_norm("max", 3), (3, 0, 0),
                        replicas=200, master_seed=3)
        assert rep["undercovered"] is want.undercovered is True
        assert run(["green", "--dim", "3", "--x", "3,0,0", "--method",
                    "asymptotic", "--format", "json"]) == 0
        assert "undercovered" not in json.loads(capsys.readouterr().out)

    def test_zero_one_json_block(self, tmp_path):
        out = tmp_path / "z"
        assert run(["zero-one", "--beta", "3", "--dim", "3",
                    "--replicas", "10", "--horizons", "500,5000",
                    "--seed", "3", "--out", str(out), "--format", "both"]) == 0
        rep = json.loads((out / "zero-one.json").read_text())
        assert rep["criterion_v"] == "converges"
        assert rep["criterion_iv"] == "converges"
        assert 0.0 <= rep["stabilized_fraction"] <= 1.0
        csv_text = (out / "zero-one.csv").read_text()
        assert csv_text.splitlines()[0] == "replica,horizon,partial_sum"

    # --verify: the fraction must clear the closed band DICHOTOMY_BAND on
    # the side of criterion V's verdict
    @pytest.mark.parametrize("argv, fraction, code", [
        (["--beta", "3", "--horizons", "500,5000", "--seed", "3"], 1.0, 0),
        # a divergent series with most replicas stabilised
        (["--beta", "1.5", "--horizons", "100,1000", "--seed", "3"], 0.6, 2),
        # the band's upper end counts as inside it
        (["--beta", "3", "--replicas", "5", "--horizons", "100,1000",
          "--seed", "31"], 0.8, 2),
    ])
    def test_zero_one_verify(self, argv, fraction, code, capsys):
        assert run(["zero-one", "--dim", "3", "--replicas", "10", *argv,
                    "--format", "json", "--verify"]) == code
        captured = capsys.readouterr()
        assert json.loads(captured.out)["stabilized_fraction"] == fraction
        assert ("contradicts the symbolic verdict" in captured.err) == (code == 2)

    def test_zero_one_gamma_runs_power_log(self, capsys):
        # sum k f(k) = sum 1/(k log^2 k) converges; without the log it diverges
        assert run(["zero-one", "--beta", "2", "--gamma", "2", "--dim", "3",
                    "--replicas", "10", "--horizons", "500,5000", "--seed", "3",
                    "--format", "json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        want = zero_one_experiment(make_simple_walk(3), make_norm("max", 3),
                                   PowerLog(beta=2.0, gamma=2.0), replicas=10,
                                   horizons=[500, 5000], master_seed=3)
        assert rep["f"] == want.f_label
        assert rep["criterion_v"] == want.criterion_v.value == "converges"
        assert rep["stabilized_fraction"] == want.stabilized_fraction

    def test_invariance_json_block(self, tmp_path):
        out = tmp_path / "inv"
        assert run(["invariance", "--norm", "max", "--dim", "3",
                    "--k-ladder", "3,6", "--replicas", "120",
                    "--seed", "2", "--out", str(out), "--format", "both"]) == 0
        rep = json.loads((out / "invariance.json").read_text())
        assert rep["zero_fraction"] == 0.0
        assert len(rep["ks_sequence"]) == 1
        assert len(rep["mean_sequence"]) == 2

    def test_jeulin_bernoulli_exact(self, capsys):
        assert run(["jeulin", "--scenario", "bernoulli",
                    "--format", "json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["finiteness_probability"] == "1/2"
        assert rep["series_diverges"] is True

    def test_jeulin_shiga3_schema(self, tmp_path):
        out = tmp_path / "j"
        assert run(["jeulin", "--scenario", "shiga3", "--alpha", "0.4",
                    "--K", "1000", "--replicas", "400", "--seed", "5",
                    "--out", str(out), "--format", "both"]) == 0
        rep = json.loads((out / "jeulin.json").read_text())
        assert len(rep["laplace_targets"]) == 3
        assert len(rep["z_scores"]) == 3

    def test_jeulin_harness_small_K(self, capsys):
        # K // 100 = 0 is not a rung: the ladder starts at 1
        assert run(["jeulin", "--scenario", "harness", "--alpha", "0.4",
                    "--K", "50", "--replicas", "50", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["implication_respected"]

    @pytest.mark.parametrize("alpha", ["0.6", "0.5"])
    def test_jeulin_harness_refuses_alpha_past_half(self, alpha, capsys):
        # the harness runs shiga3_scenario(alpha), whatever alpha is
        assert run(["jeulin", "--scenario", "harness", "--alpha", alpha,
                    "--K", "50", "--replicas", "5"]) == 1
        captured = capsys.readouterr()
        assert "needs 0 < alpha < 1/2" in captured.err and captured.out == ""

    def test_jeulin_harness_one_row_per_f(self, capsys):
        # at alpha 0.4, PowerLaw(1 / alpha) is the fixed PowerLaw(2.5)
        assert run(["jeulin", "--scenario", "harness", "--K", "50",
                    "--replicas", "10"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert [r[0] for r in rows[1:]] == ["powerlaw(beta=4.0, shift=1.0)",
                                            "powerlaw(beta=2.5, shift=1.0)"]

    def test_norm_spellings_share_config_hash(self, tmp_path):
        hashes = []
        for spelling in ("scaled-max", "scaled_max"):
            out = tmp_path / spelling
            assert run(["census", "--norm", spelling, "--factor", "2", "--dim",
                        "3", "--kmax", "6", "--allow-degenerate",
                        "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["norm"] == "scaled_max"
            hashes.append(manifest["config_hash"])
        assert hashes[0] == hashes[1]
        assert (tmp_path / "scaled-max" / "census.csv").read_bytes() == \
            (tmp_path / "scaled_max" / "census.csv").read_bytes()

    def test_census_transform_preserves_counts(self, capsys):
        assert run(["census", "--norm", "l1", "--dim", "3",
                    "--transform", "1,-1,0;0,1,-1;1,-1,1",
                    "--kmax", "4", "--bruteforce"]) == 0
        out = capsys.readouterr().out
        assert "1,6,bruteforce" in out and "4,66,bruteforce" in out

    @staticmethod
    def zero_census(spec, k_max):
        """A census that is wrong at every k >= 1."""
        return SphereCensus(spec=spec, counts=(1,) + (0,) * k_max, method="fake")

    def test_verification_failure_exits_two(self, capsys, monkeypatch):
        import normwalk.cli as cli
        monkeypatch.setattr(cli, "count_bruteforce", self.zero_census)
        assert run(["census", "--norm", "max", "--dim", "3", "--kmax", "4",
                    "--verify"]) == 2
        assert "verification failed" in capsys.readouterr().err

    def test_verification_failure_still_writes_outputs(self, tmp_path,
                                                       monkeypatch):
        import normwalk.cli as cli
        monkeypatch.setattr(cli, "count_bruteforce", self.zero_census)
        out = tmp_path / "c"
        assert run(["census", "--norm", "max", "--dim", "3", "--kmax", "4",
                    "--verify", "--out", str(out)]) == 2
        rep = json.loads((out / "census.json").read_text())
        assert rep["verified"] is False
        # (spec, k, printed count, other method's count)
        assert rep["mismatches"][0] == [{"family": "max", "dim": 3}, 1, 26, 0]
        assert list(rep)[0] == "schema_version"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "census"
        assert (out / "census.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["--norm", "max", "--dim", "3", "--kmax", "20"],
        ["--norm", "scaled_max", "--factor", "1", "--dim", "3", "--kmax", "6"],
        ["--norm", "l1", "--dim", "3", "--transform", "1,-1,0;0,1,-1;1,-1,1",
         "--kmax", "6"],
    ], ids=["max", "scaled_max-factor-1", "l1-transformed"])
    def test_verify_recounts_the_printed_spec_only(self, argv, capsys,
                                                   monkeypatch):
        import normwalk.cli as cli
        seen = []

        def brute(spec, k_max):
            seen.append((spec, k_max))
            return count_bruteforce(spec, k_max)

        monkeypatch.setattr(cli, "count_bruteforce", brute)
        assert run(["census", *argv, "--verify", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True
        spec = cli._norm_from_args(cli.build_parser().parse_args(["census", *argv]))
        assert seen == [(spec, min(int(argv[-1]), 15))]

    def test_verify_stops_at_the_box_budget(self, capsys, monkeypatch):
        # (2k + 1)^3 <= 1000 up to k = 4; the printed census still runs to 10
        import normwalk.norms as norms
        monkeypatch.setattr(norms, "BOX_BUDGET", 1000)
        assert run(["census", "--norm", "l1", "--dim", "3", "--kmax", "10",
                    "--verify", "--format", "json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["k_max"] == 10 and rep["verified"] is True
        assert rep["verified_k_max"] == 4

    def test_verify_reports_its_top_level(self, capsys):
        assert run(["census", "--norm", "w1", "--dim", "3", "--kmax", "30",
                    "--verify", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["verified_k_max"] == 15

    def test_bruteforce_verify_recounts_by_the_recursion(self, capsys,
                                                         monkeypatch):
        import normwalk.cli as cli
        monkeypatch.setattr(cli, "census_for", self.zero_census)
        assert run(["census", "--norm", "w1", "--dim", "3", "--kmax", "3",
                    "--bruteforce", "--verify", "--format", "json"]) == 2
        rep = json.loads(capsys.readouterr().out)
        assert rep["method"] == "bruteforce"
        assert [m[1:] for m in rep["mismatches"]] == [[1, 2, 0], [2, 4, 0], [3, 8, 0]]

    def test_invariance_runs_the_library_surrogate(self, tmp_path):
        out = tmp_path / "inv"
        assert run(["invariance", "--norm", "max", "--dim", "3",
                    "--k-ladder", "3,6,12", "--replicas", "120",
                    "--seed", "2", "--out", str(out), "--format", "both"]) == 0
        lib = invariance_surrogate(make_simple_walk(3), make_norm("max", 3),
                                   [3, 6, 12], 120, master_seed=2)
        rep = json.loads((out / "invariance.json").read_text())
        assert rep["ks_sequence"] == [
            {"statistic": c.statistic, "noise_band": c.noise_band}
            for c in lib.ks_sequence]
        assert rep["mean_sequence"] == list(lib.mean_sequence)
        assert rep["zero_fraction"] == lib.zero_fraction
        with (out / "invariance.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        want = [(k, i, v) for k, s in zip(lib.k_ladder, lib.samples)
                for i, v in enumerate(s)]
        assert [(int(k), int(i), float(v)) for k, i, v in rows] == want


class TestConfigFile:
    def test_config_defaults_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kmax=6\nnorm=l1\n")
        assert run(["--config", str(cfg), "census", "--dim", "3"]) == 0
        out = capsys.readouterr().out
        assert "6,146" in out  # l1 d=3 N(6)
        assert run(["--config", str(cfg), "census", "--dim", "3",
                    "--kmax", "2"]) == 0
        out = capsys.readouterr().out
        assert "2,18" in out and "6,146" not in out

    def test_missing_config(self):
        assert run(["--config", "/nonexistent/x.cfg", "census", "--dim", "3",
                    "--kmax", "2"]) == 1

    def test_integer_lists_reject_fractions(self, capsys):
        assert run(["invariance", "--dim", "3", "--k-ladder", "10.5,20",
                    "--replicas", "10"]) == 1
        assert "'10.5' is not an integer" in capsys.readouterr().err
        assert run(["zero-one", "--beta", "3", "--dim", "3", "--replicas", "2",
                    "--horizons", "1e2,1e3", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["f"]

    def test_integer_lists_read_large_integers_exactly(self, capsys):
        # 2^53 + 1 has no float64; read through float it became 2^53
        assert run(["green", "--dim", "3", "--x", "9007199254740993,0,-1e2",
                    "--method", "asymptotic", "--format", "json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["x"] == [9007199254740993, 0, -100]

    CENSUS =["census", "--norm", "l1", "--dim", "3", "--kmax", "4",
              "--format", "json"]

    @pytest.mark.parametrize("value", ["true", "yes", "1", "True"])
    def test_switch_set_true(self, tmp_path, capsys, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"verify={value}\n")
        assert run(["--config", str(cfg), *self.CENSUS]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True
        cfg.write_text(f"allow_degenerate={value}\n")
        assert run(["--config", str(cfg), "census", "--norm", "scaled-max",
                    "--factor", "2", "--dim", "3", "--kmax", "2"]) == 0

    @pytest.mark.parametrize("value", ["false", "no", "0"])
    def test_switch_set_false(self, tmp_path, capsys, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"verify={value}\nbruteforce={value}\n")
        assert run(["--config", str(cfg), *self.CENSUS]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert "verified" not in rep and rep["method"] == "recursive"
        cfg.write_text(f"allow_degenerate={value}\n")
        assert run(["--config", str(cfg), "census", "--norm", "scaled-max",
                    "--factor", "2", "--dim", "3", "--kmax", "2"]) == 1
        assert "--allow-degenerate" in capsys.readouterr().err

    def test_switch_other_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bruteforce=maybe\n")
        assert run(["--config", str(cfg), *self.CENSUS]) == 1
        assert "config key 'bruteforce'" in capsys.readouterr().err

    def test_bad_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not a kv line\n")
        assert run(["--config", str(cfg), "census", "--dim", "3",
                    "--kmax", "2"]) == 1


class TestColdStart:
    CENSUS = ["census", "--norm", "l1", "--dim", "3", "--kmax", "15",
              "--verify"]

    def test_import_and_census_load_no_scipy(self):
        script = ("import sys, normwalk, normwalk.cli\n"
                  f"assert normwalk.cli.main({self.CENSUS!r}) == 0\n"
                  "print([k for k in sys.modules\n"
                  "       if k == 'scipy' or k.startswith('scipy.')],\n"
                  "      file=sys.stderr)\n")
        code, out, err = fresh_python("-c", script)
        assert code == 0, err
        assert err.strip() == "[]"
        assert "15,902,recursive" in out

    @pytest.mark.parametrize("argv", [
        ["green", "--dim", "3", "--x", "1,0,0", "--method", "dp",
         "--nmax", "50"],
        ["jeulin", "--scenario", "shiga5", "--replicas", "50"],
    ])
    def test_lazy_scipy_commands_match_in_process(self, argv, capsys):
        code, out, err = fresh_python(
            "-c", "import sys; from normwalk.cli import main; sys.exit(main())",
            *argv)
        assert code == 0, err
        assert run(argv) == 0
        assert out == capsys.readouterr().out

    def test_function_local_imports_are_the_lazy_scipy_ones(self):
        # any other import sits at module level, where an import cycle
        # between normwalk modules fails at once
        found = set()
        for path in sorted(Path(SRC, "normwalk").glob("*.py")):
            for fn in ast.walk(ast.parse(path.read_text())):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(fn):
                    if isinstance(node, ast.ImportFrom):
                        found.add((f"{path.stem}.{fn.name}", node.module))
                    elif isinstance(node, ast.Import):
                        found.update((f"{path.stem}.{fn.name}", a.name)
                                     for a in node.names)
        assert found == {("green.clt_tail_estimate", "scipy.special"),
                         ("jeulin.shiga3_run", "scipy.special"),
                         ("jeulin.shiga5_run", "scipy.integrate")}

    def test_python_dash_m_normwalk(self, capsys):
        code, out, err = fresh_python("-m", "normwalk", *self.CENSUS)
        assert code == 0, err
        assert run(self.CENSUS) == 0
        assert out == capsys.readouterr().out


def _defaulted_options() -> set:
    """module.function(param) for each defaulted parameter and
    module.Class.field for each defaulted dataclass field in src/normwalk."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                named = positional[len(positional) - len(a.defaults):]
                named += [k for k, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
                found.update(f"{prefix}{child.name}({arg.arg})" for arg in named)
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                if any("dataclass" in ast.unparse(d) for d in child.decorator_list):
                    found.update(f"{prefix}{child.name}.{n.target.id}"
                                 for n in child.body
                                 if isinstance(n, ast.AnnAssign) and n.value)
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    for path in sorted(Path(SRC, "normwalk").glob("*.py")):
        visit(ast.parse(path.read_text()), f"{path.stem}.")
    return found


class TestOptionInventory:
    # every value a caller may leave out; adding one is an edit here
    ALLOWED = {
        "cli.main(argv)",
        "green.GreenEstimate.lower_bound",
        "green.GreenEstimate.n_max",
        "green.GreenEstimate.replicas",
        "green.GreenEstimate.undercovered",
        "green.green_dp(box_radius)",
        "green.green_dp(n_max)",
        "green.green_mc(k_cut)",
        "jeulin.laplace_check(master_seed)",
        "jeulin.route_a_scenario(phi_exponent)",
        "jeulin.sample_stable(size)",
        "jeulin.shiga3_run(threshold)",
        "jeulin.shiga3_scenario(alpha)",
        "measures.distributional_cauchy(seed)",
        "measures.scaled_samples(k_cut)",
        "norms.NormSpec.factor",
        "norms.NormSpec.transform",
        "norms.make_norm(factor)",
        "norms.make_norm(transform)",
        "summability.PowerLaw.shift",
        "summability.PowerLog.shift",
        "summability.TableFunction.tail",
        "summability._decide_weighted(power)",
        "summability._decide_weighted(stride)",
        "summability._series_verdict(gamma)",
        "summability.zero_one_experiment(census)",
        "walk.LocalTimeRecord.site_counts",
        "walk.WalkRun.horizon",
        "walk.WalkRun.replica_index",
        "walk.WalkRun.stop_radius",
        "walk._blocks(chunk)",
        "walk.check_ladder(rungs)",
        "walk.geometric_tail_report(n_max)",
        "walk.hitting_probability(k_cut)",
        "walk.simulate(chunk)",
        "walk.simulate(track_sites)",
    }

    def test_defaulted_values_are_the_allowed_ones(self):
        assert _defaulted_options() == self.ALLOWED


def readme_cli_lines() -> list:
    """Every `normwalk ...` line of the README's sh blocks."""
    lines, in_sh = [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("normwalk "):
            lines.append(line)
    return lines


def test_readme_cli_lines_parse():
    # the documented invocations use flags the parser has; none is run
    lines = readme_cli_lines()
    assert len(lines) >= 11
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line)[1:]
        assert parser.parse_args(argv).subcommand == argv[0], line


LIBRARY_MODULES = ("norms", "census", "walk", "green", "summability",
                   "measures", "jeulin", "cli")


def test_readme_module_names_resolve():
    # every `module.name` the README cites is an attribute of that module,
    # so a removed or renamed name cannot leave the docs behind
    refs = re.findall(r"`(%s)\.(\w+)" % "|".join(LIBRARY_MODULES),
                      README.read_text())
    assert len(refs) >= 19
    missing = [f"{mod}.{name}" for mod, name in refs
               if not hasattr(importlib.import_module(f"normwalk.{mod}"), name)]
    assert missing == []
