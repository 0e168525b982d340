import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from costly_secretary import (
    GameConfig,
    closed_form_success,
    expected_stopping_time,
    limit_constant,
    solve_values,
)
from costly_secretary import cli
from costly_secretary.cli import main


def capture(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolve:
    def test_values_match_solver(self, capsys):
        code, out, _ = capture(capsys, ["solve", "--n", "1000", "--cost", "0.1"])
        assert code == 0
        header, row = out.strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert int(fields["n_star"]) == 369
        pi = float(fields["pi"])
        assert pi > 0.2
        assert pi == solve_values(GameConfig(1000, 0.1)).success_probability
        assert float(fields["expected_tau"]) == expected_stopping_time(
            GameConfig(1000, 0.1)
        )

    def test_tables_emission(self, capsys):
        code, out, _ = capture(
            capsys, ["solve", "--n", "10", "--cost", "0.1", "--tables"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "stage,v0,v1,accept_record"
        assert len(lines) == 11
        accepts = [float(line.split(",")[3]) for line in lines[1:]]
        assert accepts == [0.1, 0.1, 0.1] + [1.0] * 7

    def test_validation_exit_code(self, capsys):
        code, _, err = capture(capsys, ["solve", "--n", "1", "--cost", "0.0"])
        assert code == 2
        assert "error" in err

    def test_usage_exit_code(self, capsys):
        assert capture(capsys, ["solve", "--nope", "3"])[0] == 2
        assert capture(capsys, ["frobnicate"])[0] == 2


class TestSweep:
    def test_figure_dataset_columns(self, capsys):
        code, out, _ = capture(
            capsys,
            ["sweep", "--n-range", "2:50", "--cost-list", "0,0.1"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,cost,n_star,pi,scaled_pi,asymptote,expected_tau"
        assert len(lines) == 1 + 2 * 49

    def test_rows_reproduce_solver_bit_for_bit(self, capsys):
        code, out, _ = capture(
            capsys, ["sweep", "--n-range", "5:25:5", "--cost-list", "0.3"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        for line in lines[1:]:
            n, cost, n_star, pi, scaled_pi, asymptote, tau = line.split(",")
            cfg = GameConfig(int(n), float(cost))
            tables = solve_values(cfg)
            assert float(pi) == tables.success_probability
            assert int(n_star) == tables.threshold
            assert float(scaled_pi) == int(n) ** float(cost) * tables.success_probability
            assert float(tau) == expected_stopping_time(cfg)
            assert float(asymptote) == limit_constant(float(cost)) * int(n) ** (
                -float(cost)
            )

    def test_log_spacing(self, capsys):
        code, out, _ = capture(
            capsys,
            ["sweep", "--n-range", "10:10000:4", "--cost-list", "0.1", "--log-spaced"],
        )
        assert code == 0
        sizes = [int(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
        assert sizes == [10, 100, 1000, 10000]

    @pytest.mark.parametrize(
        "n_range, cost_list", [("", "0.1"), ("2:5", ""), ("2:5", ",")]
    )
    def test_empty_range_or_cost_list_is_a_usage_error(self, capsys, n_range, cost_list):
        code, out, err = capture(
            capsys, ["sweep", "--n-range", n_range, "--cost-list", cost_list]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_identical_invocations_identical_bytes(self, capsys):
        argv = ["sweep", "--n-range", "2:40", "--cost-list", "0,0.5"]
        _, out1, _ = capture(capsys, argv)
        _, out2, _ = capture(capsys, argv)
        assert out1 == out2


class TestJsonFormat:
    def test_payload_shape(self, capsys):
        code, out, _ = capture(
            capsys,
            ["solve", "--n", "10", "--cost", "0.1", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["tool"] == "costly-secretary"
        assert payload["meta"]["command"] == "solve"
        assert "timestamp" not in json.dumps(payload).lower()
        (row,) = payload["rows"]
        assert row["n_star"] == 4

    def test_simulate_meta_carries_seed(self, capsys):
        code, out, _ = capture(
            capsys,
            [
                "simulate", "--n", "5", "--cost", "0.2", "--trials", "2000",
                "--seed", "7", "--format", "json",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["seed"] == 7
        assert payload["rows"][0]["trials"] == 2000


class TestSimulate:
    def test_deterministic_output(self, capsys):
        argv = [
            "simulate", "--n", "10", "--cost", "0.1",
            "--trials", "30000", "--seed", "11",
        ]
        _, out1, _ = capture(capsys, argv)
        _, out2, _ = capture(capsys, argv + ["--workers", "3"])
        assert out1 == out2

    def test_rate_near_exact(self, capsys):
        code, out, _ = capture(
            capsys,
            ["simulate", "--n", "10", "--cost", "0.1", "--trials", "50000",
             "--seed", "3"],
        )
        assert code == 0
        header, row = out.strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        pi = closed_form_success(GameConfig(10, 0.1))
        assert abs(float(fields["success_rate"]) - pi) <= 4 * float(
            fields["success_se"]
        )


class TestOracleCommand:
    def test_agreement_report(self, capsys):
        code, out, _ = capture(
            capsys, ["oracle", "--n", "6", "--cost", "0.4", "--grid-step", "0.25"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("check,")
        statuses = [line.split(",")[-1] for line in lines[1:]]
        assert statuses and all(s == "ok" for s in statuses)
        checks = [line.split(",")[0] for line in lines[1:]]
        assert "scan_max_vs_dp" in checks

    def test_zero_tolerance_forces_verification_failure(self, capsys):
        # DP and closed form differ by a few ulps; tolerance 0 must trip
        code, out, err = capture(
            capsys, ["oracle", "--n", "6", "--cost", "0.3", "--tolerance", "0"]
        )
        assert code == 3
        assert "verification failed" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
    def test_bad_tolerance_is_a_usage_error(self, capsys, tolerance, fmt):
        code, out, err = capture(
            capsys,
            ["oracle", "--n", "3", "--cost", "0.1", "--tolerance", tolerance,
             "--format", fmt],
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: tolerance must be finite and non-negative")

    def test_scan_over_budget_is_a_usage_error(self, capsys):
        code, out, err = capture(
            capsys, ["oracle", "--n", "6", "--cost", "0.4", "--grid-step", "0.1"]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "11390625 policies" in err and "5000000" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--n", "8", "--grid-step", "0.3"],
             "error: grid_step must lie in (0, 0.25], got 0.3\n"),
            (["--n", "9", "--grid-step", "0.25"],
             "error: optimality_scan supports at most 8 applicants\n"),
        ],
    )
    def test_bad_grid_step_fails_before_enumeration(
        self, capsys, monkeypatch, argv, message
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("enumerated before checking the scan grid")

        monkeypatch.setattr(cli, "exact_success_probability", forbidden)
        code, out, err = capture(capsys, ["oracle", "--cost", "0.1", *argv])
        assert code == 2
        assert out == ""
        assert err == message


class TestAsymptoticsCommand:
    def test_report(self, capsys):
        code, out, err = capture(
            capsys,
            ["asymptotics", "--cost", "0", "--n-range", "10:1000:3",
             "--log-spaced", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["limit_constant"] == pytest.approx(1 / math.e)
        assert "empirical" in payload["meta"]["note"]
        assert len(payload["rows"]) == 3
        assert "empirical" in err

    def test_impossible_tolerance_fails(self, capsys):
        code, _, err = capture(
            capsys,
            ["asymptotics", "--cost", "0.5", "--n-range", "10:20",
             "--tolerance", "1e-9"],
        )
        assert code == 3
        assert "failed" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_infinite_tolerance_is_a_usage_error(self, capsys, fmt):
        code, out, err = capture(
            capsys,
            ["asymptotics", "--cost", "0.5", "--n-range", "10:20",
             "--tolerance", "inf", "--format", fmt],
        )
        assert code == 2
        assert out == ""
        assert err == "error: tolerance must be finite\n"


class TestFileOutput:
    def test_out_writes_identical_bytes(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        argv = [
            "sweep", "--n-range", "2:20", "--cost-list", "0.2",
            "--out", str(target),
        ]
        assert main(argv) == 0
        first = target.read_bytes()
        assert main(argv) == 0
        assert target.read_bytes() == first
        capsys.readouterr()

    def test_out_path_gets_solve_rows(self, tmp_path):
        argv = ["solve", "--n", "5", "--cost", "0.2", "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 0
        text = (tmp_path / "s.csv").read_text()
        assert text.endswith("\n")
        assert text.splitlines()[0].startswith("n,cost,n_star")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "costly_secretary", "solve", "--n", "4",
         "--cost", "0.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("n,cost,n_star")


def test_readme_cli_examples_exit_zero(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [
        shlex.split(line)[1:]
        for line in block.splitlines()
        if line.startswith("costly-secretary ")
    ]
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()
