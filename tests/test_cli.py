import argparse
import dataclasses
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from costly_secretary import (
    GameConfig,
    StrategyProfile,
    ValueTables,
    __version__,
    closed_form_success,
    expected_stopping_time,
    limit_constant,
    solve_values,
)
from costly_secretary import asymptotics, cli, equilibrium, oracle, simulator
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


def same_bytes_at_any_cut(capsys, monkeypatch, argv):
    """The output is the same bytes whether the multi-size solver runs every
    stage below the first lane's threshold in lockstep, every instance
    alone to stage 1, or cuts where it does by default."""
    want = capture(capsys, argv)
    assert want[0] in (0, 3)
    for lanes in (2, 10**9):
        monkeypatch.setattr(equilibrium, "_LOCKSTEP_MIN_LANES", lanes)
        monkeypatch.setattr(asymptotics, "_LOCKSTEP_MIN_LANES", lanes)
        assert capture(capsys, argv) == want, lanes


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
        # the second range has more sizes than the lockstep cut
        for n_range, cost_list, rows in [("5:25:5", "0.3", 5), ("2:300", "0,0.3", 598)]:
            code, out, _ = capture(
                capsys, ["sweep", "--n-range", n_range, "--cost-list", cost_list]
            )
            assert code == 0
            lines = out.strip().splitlines()
            assert len(lines) == 1 + rows
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

    @pytest.mark.parametrize("cost_list, bad", [("0.1,1.5", "1.5"), ("0.1,nan", "nan")])
    def test_a_bad_cost_anywhere_in_the_list_is_a_usage_error(self, capsys, cost_list, bad):
        code, out, err = capture(capsys, ["sweep", "--n-range", "2:300", "--cost-list", cost_list])
        assert (code, out) == (2, "")
        assert err == f"error: cost must lie in [0, 1), got {bad}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--n-range", "2:300", "--cost-list", "0,0.1,0.9"],
            ["sweep", "--n-range", "2:3000:7", "--cost-list", "0.4", "--format", "json"],
            ["sweep", "--n-range", "10:100000:30", "--cost-list", "0.1,0.25", "--log-spaced"],
        ],
        ids=["dense", "stepped", "log"],
    )
    def test_bytes_do_not_depend_on_the_cut(self, capsys, monkeypatch, argv):
        same_bytes_at_any_cut(capsys, monkeypatch, argv)

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

    @pytest.mark.parametrize("cpus", [None, 4])
    @pytest.mark.parametrize("trials", ["20000", "70001"])
    def test_default_workers_give_the_serial_bytes(self, capsys, monkeypatch, trials, cpus):
        # one batch (cut into slices) and three batches, on this host's CPUs
        # and on four
        if cpus is not None:
            monkeypatch.setattr(simulator, "_usable_cpus", lambda: cpus)
        argv = ["simulate", "--n", "300", "--cost", "0.1", "--trials", trials, "--seed", "5"]
        serial = capture(capsys, argv + ["--workers", "1"])
        assert serial[0] == 0
        assert capture(capsys, argv) == serial

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

    @pytest.mark.parametrize("scan", [[], ["--grid-step", "0.25"]])
    def test_one_walk_over_the_orders(self, capsys, monkeypatch, scan):
        # one exact evaluation gives the success, stopping-index and audit
        # rows, so the command walks the N! orders once
        argv = ["oracle", "--n", "5", "--cost", "0.4", *scan]
        plain = capture(capsys, argv)
        walk = oracle._exact_walk
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return walk(*args, **kwargs)

        monkeypatch.setattr(oracle, "_exact_walk", spy)
        assert capture(capsys, argv) == plain
        assert len(calls) == 1

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
        "argv, policies",
        [(["--n", "2", "--cost", "0", "--grid-step", "0.00045"], "19793601"),
         (["--n", "3", "--cost", "0", "--grid-step", "1e-6"], "8000036000054000027"),
         (["--n", "3", "--cost", "0", "--grid-step", "1e-300"], "79999999999759990227")],
    )
    def test_scan_budget_is_counted_before_the_grid_is_built(self, capsys, argv, policies):
        # the grid's points are counted by the test that builds it, so a
        # tiny step fails at once with the count the full grid would give
        code, out, err = capture(capsys, ["oracle", *argv])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: scan would evaluate {policies}")
        assert err.endswith(" policies, over the budget of 5000000\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--n", "8", "--grid-step", "0.3"],
             "error: grid_step must lie in (0, 0.25], got 0.3\n"),
            (["--n", "9", "--grid-step", "0.25"],
             "error: scan would evaluate 2357947691 policies, over the budget of 5000000\n"),
        ],
    )
    def test_bad_grid_step_fails_before_enumeration(
        self, capsys, monkeypatch, argv, message
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("enumerated before checking the scan grid")

        monkeypatch.setattr(cli, "exact_evaluation", forbidden)
        code, out, err = capture(capsys, ["oracle", "--cost", "0.1", *argv])
        assert code == 2
        assert out == ""
        assert err == message

    @pytest.mark.parametrize(
        "argv",
        [["--n", "11"], ["--n", "1000000000"], ["--n", "11", "--grid-step", "0.25"]],
        ids=["11", "1000000000", "11-scan"],
    )
    def test_unenumerable_size_fails_before_any_solve(self, capsys, monkeypatch, argv):
        # the size is refused before the scan, and before the DP, the
        # closed form or the solved plan runs: each is O(N), about 120 MB
        # at N = 1e6
        def forbidden(*args, **kwargs):
            raise AssertionError("solved before checking the enumeration size")

        names = ("solve_values", "expected_stopping_time", "exact_evaluation", "optimality_scan")
        for name in names:
            monkeypatch.setattr(cli, name, forbidden)
        code, out, err = capture(capsys, ["oracle", *argv, "--cost", "0.1"])
        assert code == 2
        assert out == ""
        assert err == "error: enumeration supports at most 10 applicants\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_scan_keeps_the_other_rows(self, capsys, monkeypatch, fmt):
        # the scan's own solved value reads 1e-6 low, so a scanned policy
        # beats it; the rows of the command's own solve still pass
        solve = oracle.solve_values

        def low(config, **kwargs):
            tables = solve(config, **kwargs)
            return dataclasses.replace(
                tables, success_probability=tables.success_probability - 1e-6
            )

        monkeypatch.setattr(oracle, "solve_values", low)
        argv = ["oracle", "--n", "4", "--cost", "0.25", "--grid-step", "0.25", "--format", fmt]
        code, out, err = capture(capsys, argv)
        assert code == 3
        assert err.startswith("optimality scan failed: scan found a policy with success ")
        assert "above the solved value" in err and "verification failed" not in err
        monkeypatch.undo()
        _, want, _ = capture(capsys, argv[:4] + argv[6:])
        assert out == want
        assert "scan_max_vs_dp" not in out and out.count("\"ok\"" if fmt == "json" else ",ok") == 5

    def test_expected_tau_row_is_checked_against_the_dp(self, capsys, monkeypatch):
        # against N times the closed form, the same mass over N, it cannot fail
        masses = equilibrium._acceptance_masses
        monkeypatch.setattr(
            equilibrium, "_acceptance_masses", lambda *a: [1.05 * m for m in masses(*a)]
        )
        code, out, _ = capture(capsys, ["oracle", "--n", "6", "--cost", "0.2"])
        status = {row.split(",")[0]: row.split(",")[-1] for row in out.splitlines()[1:]}
        assert code == 3
        assert status["expected_tau_vs_n_pi"] == "fail"


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["asymptotics", "--cost", "0.1", "--n-range", "2:3000"],
            ["asymptotics", "--cost", "0.1", "--n-range", "100:1000000:5", "--log-spaced"],
        ],
        ids=["dense", "readme-ladder"],
    )
    def test_bytes_do_not_depend_on_the_cut(self, capsys, monkeypatch, argv):
        same_bytes_at_any_cut(capsys, monkeypatch, argv)


def _reference_tables(n_apps: int, cost: float, fmt: str) -> str:
    """solve --tables as the CLI wrote it when it built every row, line and
    the joined text in memory before writing."""
    config = GameConfig(n_apps, cost)
    tables = solve_values(config)
    rows = [
        {
            "stage": n,
            "v0": float(tables.v0[n]),
            "v1": float(tables.v1[n]),
            "accept_record": q,
        }
        for n, q in enumerate(StrategyProfile.equilibrium(config).plan(config)[1], start=1)
    ]
    if fmt == "json":
        meta = {"tool": "costly-secretary", "version": __version__, "command": "solve"}
        return json.dumps({"meta": meta, "rows": rows}, indent=2, allow_nan=False) + "\n"
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format(row[k], ".17g") if isinstance(row[k], float)
                              else str(row[k]) for k in header))
    return "\n".join(lines) + "\n"


# One invocation per command, including a verification failure (exit 3).
_COMMANDS = [
    ["solve", "--n", "7", "--cost", "0.2"],
    ["solve", "--n", "7", "--cost", "0.2", "--tables"],
    ["sweep", "--n-range", "2:30", "--cost-list", "0,0.4"],
    ["asymptotics", "--cost", "0.1", "--n-range", "100:10000:4", "--log-spaced"],
    ["asymptotics", "--cost", "0.5", "--n-range", "10:20", "--tolerance", "1e-9"],
    ["simulate", "--n", "20", "--cost", "0.1", "--trials", "5000", "--seed", "4"],
    ["oracle", "--n", "5", "--cost", "0.3", "--grid-step", "0.25"],
]
_COMMAND_IDS = ["solve", "tables", "sweep", "asymptotics", "asymptotics-fail", "simulate",
                "oracle"]


def _emitted(capsys, rows, meta, fmt):
    """What the dict-row writer prints for ``rows``."""
    cli._emit(rows, meta, argparse.Namespace(format=fmt, out=None))
    return capsys.readouterr().out


class TestOutputFrame:
    @pytest.mark.parametrize("argv", _COMMANDS, ids=_COMMAND_IDS)
    def test_json_is_one_indent_2_document(self, capsys, argv):
        _, out, _ = capture(capsys, argv + ["--format", "json"])
        assert out == json.dumps(json.loads(out), indent=2, allow_nan=False) + "\n"

    @pytest.mark.parametrize("argv", _COMMANDS, ids=_COMMAND_IDS)
    def test_csv_holds_the_json_rows(self, capsys, argv):
        code, out, err = capture(capsys, argv + ["--format", "json"])
        rows = json.loads(out)["rows"]
        csv_code, csv_out, csv_err = capture(capsys, argv)
        assert (csv_code, csv_err) == (code, err)
        header, *lines = csv_out.splitlines()
        assert header.split(",") == list(rows[0])
        assert len(lines) == len(rows)
        for line, row in zip(lines, rows):
            cells = line.split(",")
            assert len(cells) == len(row)
            for cell, value in zip(cells, row.values()):
                assert cell == "" if value is None else type(value)(cell) == value

    def test_csv_row_keeps_a_leading_empty_cell(self, capsys):
        rows = [{"a": None, "b": 1.5}, {"a": None, "b": "x"}]
        assert _emitted(capsys, rows, {}, "csv") == "a,b\n,1.5\n,x\n"


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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", _COMMANDS, ids=_COMMAND_IDS)
    def test_out_file_equals_stdout(self, tmp_path, capsys, argv, fmt):
        argv = argv + ["--format", fmt]
        code, out, err = capture(capsys, argv)
        target = tmp_path / "rows.out"
        assert capture(capsys, argv + ["--out", str(target)]) == (code, "", err)
        assert target.read_bytes() == out.encode()


class TestStreamedTables:
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("cost", [0.0, 0.3])
    @pytest.mark.parametrize("n_apps", [2, 3, 10, 1000])
    def test_bytes_match_the_in_memory_writer(
        self, tmp_path, capsys, n_apps, cost, fmt, to_file
    ):
        argv = ["solve", "--n", str(n_apps), "--cost", str(cost), "--tables",
                "--format", fmt]
        target = tmp_path / "tables.out"
        code, out, err = capture(capsys, argv + ["--out", str(target)] * to_file)
        assert (code, err) == (0, "")
        written = target.read_text(encoding="utf-8") if to_file else out
        assert written == _reference_tables(n_apps, cost, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("block", [1, 3, 10])
    def test_bytes_do_not_depend_on_the_row_block(self, capsys, monkeypatch, block, fmt):
        monkeypatch.setattr(cli, "_BLOCK", block)
        argv = ["solve", "--n", "10", "--cost", "0.3", "--tables", "--format", fmt]
        assert capture(capsys, argv) == (0, _reference_tables(10, 0.3, fmt), "")

    @pytest.mark.parametrize(
        "argv, limit_mb",
        [
            (["--n", "100000", "--cost", "0.1"], 7),
            (["--n", "50000", "--cost", "0.25", "--format", "json"], 25),
            (["--n", "100000", "--cost", "0.1", "--format", "json"], 7),
            (["--n", "100000", "--cost", "0.4"], 4.3),
        ],
        ids=["csv", "json", "json-100000", "csv-no-column"],
    )
    def test_peak_memory_with_out(self, tmp_path, argv, limit_mb):
        # The in-memory writer peaked at 52 MB (CSV) and 60 MB (JSON) here;
        # the JSON writer that listed all rows first peaked at 31 MB at 1e5,
        # and turning both whole tables into lists at 10-11 MB.  Rows made
        # per block peak at 3.8-4.0 MB at 1e5 (CSV); a whole acceptance
        # column of 8 bytes per stage brings that to 4.6-4.8 MB.
        argv = ["solve", *argv, "--tables", "--out", str(tmp_path / "t.out")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mb * 1e6

    @pytest.mark.parametrize(
        "rows",
        [
            [{"a": 1}],
            [
                {"s": 'x, "y",\n      z', "u": "\u00e9\u2264", "none": None, "f": -0.0},
                {"s": "}{][", "u": "", "none": None, "f": 1e-300},
            ],
        ],
        ids=["one", "strings"],
    )
    def test_json_rows_stream_as_one_document(self, capsys, rows):
        meta = {"tool": "costly-secretary", "note": "a, b: c"}
        want = json.dumps({"meta": meta, "rows": rows}, indent=2, allow_nan=False) + "\n"
        assert _emitted(capsys, rows, meta, "json") == want

    @staticmethod
    def _crafted_tables(bad=None):
        # v1 at the floor 1/10 inside blocks of 4 stages, the threshold
        # inside a block, and one value that may be made non-finite
        v0 = np.array([math.nan, 0.5, 0.45, 0.4, 1 / 3, 0.3, 0.25, 0.2, 0.15, 0.1, 0.0])
        v1 = np.array([math.nan, 0.2, 0.1, 0.15, 0.1, 0.1, 0.11, 0.1, 0.1, 0.1, 0.1])
        if bad is not None:
            v1[3] = bad
        return ValueTables(GameConfig(10, 0.3), v0, v1, threshold=6, success_probability=0.2)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table_rows_equal_the_dict_writers(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(cli, "_BLOCK", 4)
        tables = self._crafted_tables()
        rows = [
            {"stage": n, "v0": tables.v0[n].item(), "v1": tables.v1[n].item(),
             "accept_record": 0.3 if n < 6 else 1.0}
            for n in range(1, 11)
        ]
        meta = {"tool": "costly-secretary"}
        want = _emitted(capsys, rows, meta, fmt)
        assert "".join(cli._table_pieces(tables, fmt, meta)) == want

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_json_table_rejects_non_finite_values(self, bad):
        tables = self._crafted_tables(bad)
        with pytest.raises(ValueError):
            "".join(cli._table_pieces(tables, "json", {"tool": "costly-secretary"}))
        assert "".join(cli._table_pieces(tables, "csv", {})).count(format(bad, ".17g")) == 1

    def test_json_rejects_nan_rows(self, capsys):
        with pytest.raises(ValueError):
            _emitted(capsys, [{"x": math.nan}], {"tool": "costly-secretary"}, "json")


class TestTableFreeSolves:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--n", "1000000", "--cost", "0.1"],
            ["sweep", "--n-range", "10:1000000:8", "--cost-list", "0.1", "--log-spaced"],
            ["asymptotics", "--cost", "0.1", "--n-range", "100:1000000:5", "--log-spaced"],
        ],
        ids=["solve", "sweep", "asymptotics"],
    )
    def test_peak_memory_without_tables(self, capsys, argv):
        # Building the two tables (16 MB at N = 1e6) peaked at 17-20 MB.
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak <= 2e6


class TestErrors:
    def test_tables_larger_than_memory_exit_2(self, capsys, monkeypatch):
        real = os.sysconf
        monkeypatch.setattr(
            os, "sysconf", lambda name: 100 if name == "SC_PHYS_PAGES" else real(name)
        )
        argv = ["solve", "--n", "100000", "--cost", "0.1"]
        code, out, err = capture(capsys, argv + ["--tables"])
        assert (code, out) == (2, "")
        assert err.startswith("error: out of memory (the value tables for n_applicants=100000")
        assert capture(capsys, argv)[0] == 0

    def test_simulate_plan_larger_than_memory_exit_2(self, capsys, monkeypatch):
        real = os.sysconf
        monkeypatch.setattr(
            os, "sysconf", lambda name: 100 if name == "SC_PHYS_PAGES" else real(name)
        )
        argv = ["simulate", "--n", "100000", "--cost", "0.1", "--trials", "1"]
        code, out, err = capture(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith(
            "error: out of memory (the stage rules and plan for n_applicants=100000 "
            "need 3200000 bytes, more than the "
        )
        monkeypatch.undo()
        assert capture(capsys, argv)[0] == 0

    @pytest.mark.parametrize(
        "target, argv",
        [
            ("solve_values", ["solve", "--n", "10", "--cost", "0.1"]),
            ("_solve_sizes", ["sweep", "--n-range", "2:5", "--cost-list", "0.1"]),
            ("convergence_report", ["asymptotics", "--cost", "0.1", "--n-range", "10:20"]),
        ],
    )
    @pytest.mark.parametrize("message", ["", "Unable to allocate 7.28 TiB"])
    def test_out_of_memory_is_a_usage_error(
        self, capsys, monkeypatch, target, argv, message
    ):
        # A real allocation that size could succeed under memory overcommit.
        def exhausted(*args, **kwargs):
            raise MemoryError(message) if message else MemoryError()

        monkeypatch.setattr(cli, target, exhausted)
        code, out, err = capture(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: out of memory (") and err.endswith(")\n")
        assert message in err and "()" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--n", "3", "--cost", "{}"],
            ["solve", "--n", "6", "--cost", "{}", "--tables", "--format", "json"],
            ["sweep", "--n-range", "2:6", "--cost-list={},0.1"],
            ["asymptotics", "--cost", "{}", "--n-range", "10:1000:3", "--log-spaced",
             "--format", "json"],
            ["simulate", "--n", "5", "--cost", "{}", "--trials", "500", "--format", "json"],
            ["oracle", "--n", "4", "--cost", "{}", "--format", "json"],
        ],
        ids=["solve", "tables", "sweep", "asymptotics", "simulate", "oracle"],
    )
    def test_negative_zero_cost_prints_as_zero(self, capsys, argv):
        results = {
            text: capture(capsys, [a.format(text) for a in argv])
            for text in ("0", "-0", "-0.0")
        }
        assert results["0"][0] == 0
        assert results["-0"] == results["0"] == results["-0.0"]
        assert "-0" not in results["0"][1].replace("e-0", "")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "costly_secretary", "solve", "--n", "4",
         "--cost", "0.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("n,cost,n_star")


def _glibc_version() -> tuple[int, ...]:
    try:
        name, version = (os.confstr("CS_GNU_LIBC_VERSION") or "").split()
    except (AttributeError, ValueError):
        return ()
    return tuple(map(int, version.split(".")[:2])) if name == "glibc" else ()


_MAPPED_AFTER_A_COMMAND = """
import contextlib, ctypes, io
from costly_secretary import cli

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd",
        "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = MallInfo2
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["solve", "--n", "10", "--cost", "0.1"])
buf = bytearray(8 << 20)
del buf
before = mallinfo2().hblkhd
buf = bytearray(4 << 20)
print(mallinfo2().hblkhd - before)
"""


@pytest.mark.skipif(_glibc_version() < (2, 33), reason="needs glibc's mallinfo2")
def test_large_buffers_stay_mapped_after_a_command():
    # By default glibc raises its mmap threshold to the size of each mapped
    # block freed, so the 4 MB buffer would come from the heap after the
    # 8 MB one is freed; main pins the threshold at 1 MiB.
    proc = subprocess.run(
        [sys.executable, "-c", _MAPPED_AFTER_A_COMMAND],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) >= 4 << 20


def test_unsettled_threshold_is_a_usage_error():
    # simulate needs n* before anything is allocated; at N = 1e12 the
    # threshold cannot be settled in bounded time, so the command refuses
    proc = subprocess.run(
        [sys.executable, "-m", "costly_secretary", "simulate", "--n",
         "1000000000000", "--cost", "0.1", "--trials", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: cannot settle the threshold")


def test_reader_closing_the_pipe_early_exits_quietly():
    # ~6 MB of rows: the writer is still blocked on the full pipe when the
    # reader goes away after the first bytes.
    with subprocess.Popen(
        [sys.executable, "-m", "costly_secretary", "solve", "--n", "100000",
         "--cost", "0.1", "--tables"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.read(10) == b"stage,v0,v"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert err == b""


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
