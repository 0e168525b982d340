"""Tests of the benchmark itself: span arithmetic, order statistics, the
output checks and the workload generator.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import os
import statistics
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from types import SimpleNamespace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import checks, run, spans, speed, stats  # noqa: E402
from perfbench.make_reference import tables_summary  # noqa: E402
from perfbench.workloads import ANALYTIC_COSTS, Request, requests_for  # noqa: E402


def _span(i, parent, start, end, name="x", request="r"):
    return {"id": i, "name": name, "parent": parent, "start": start, "end": end,
            "request": request, "cpu_s": 0.0}


# Span arithmetic ----------------------------------------------------------


def test_self_time_subtracts_union_of_children():
    tree = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 0, 3.0, 6.0),  # overlaps its sibling: the union counts once
        _span(3, 1, 2.0, 3.0),
        _span(4, None, 10.0, 12.0),
        _span(5, 4, 11.0, 13.0),  # runs past its parent: clipped
    ]
    assert spans.self_times(tree) == pytest.approx(
        {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.0, 5: 2.0}
    )


def test_covered_merges_and_clips():
    assert spans.covered([], 0, 1) == 0
    assert spans.covered([(0, 2), (1, 3), (5, 6), (7, 7)], 0.5, 5.5) == pytest.approx(3.0)


def test_tracer_records_nesting_with_fake_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    wrapped_leaf = tracer.wrap("m.leaf", "m", leaf)

    def outer():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_outer = tracer.wrap("m.outer", "m", outer)
    assert wrapped_outer() == 2 and tracer.spans == []  # no request: no spans
    tracer.request = "r1"
    assert wrapped_outer() == 2
    outer_span, a, b = tracer.spans
    assert (a["parent"], b["parent"], outer_span["parent"]) == (0, 0, None)
    assert {s["request"] for s in tracer.spans} == {"r1"}
    # clock: outer 0..5, leaves 1..2 and 3..4
    assert spans.self_times(tracer.spans) == {0: 3.0, 1: 1.0, 2: 1.0}


def test_instrument_wraps_every_lookup_site_and_keeps_bytes():
    from costly_secretary import asymptotics, cli, equilibrium, oracle

    argv = ["solve", "--n", "1000", "--cost", "0.1"]
    plain = io.StringIO()
    with redirect_stdout(plain):
        assert cli.main(argv) == 0
    original = equilibrium.solve_values
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        wrappers = [cli.solve_values, asymptotics.solve_values, oracle.solve_values,
                    equilibrium.solve_values]
        assert all(w is not original and w.__wrapped__ is original for w in wrappers)
        assert len({id(w) for w in wrappers}) == 4
        traced = io.StringIO()
        tracer.request = "solve"
        with redirect_stdout(traced):
            assert cli.main(argv) == 0
        tracer.request = None
    finally:
        restore()
    assert equilibrium.solve_values is original
    assert traced.getvalue() == plain.getvalue()
    names = [s["name"] for s in tracer.spans]
    assert names[:2] == ["cli.main", "cli.run"]
    m = spans.layer_metrics(tracer.spans, [{"id": "solve", "start": tracer.spans[0]["start"],
                                            "end": tracer.spans[0]["end"], "out_bytes": 1}])
    assert m["equilibrium.solve_values.calls"] == 1
    assert m["equilibrium.solve_values.stages"] == 1000
    # solve_values and expected_stopping_time each compute the threshold
    assert m["equilibrium.compute_threshold.repeat_frac"] == 0.5
    assert m["trace.uncovered_s"] == pytest.approx(0.0, abs=1e-12)


# Order statistics ---------------------------------------------------------


def test_quartiles_match_statistics_module():
    values = list(range(1, 11))
    assert stats.quartiles(values) == (2.75, 5.5, 8.25)
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert stats.quartiles([4.0]) == (4.0, 4.0, 4.0)


def test_median():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 2, 3]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])


# Output checks ------------------------------------------------------------


def _fmt(v):
    return format(v, ".17g") if isinstance(v, float) else str(v)


def _csv(header, rows):
    return "\n".join([",".join(header)] + [",".join(_fmt(v) for v in r) for r in rows]) + "\n"


def _ok(stdout):
    return {"code": 0, "stdout": stdout, "stderr": ""}


@pytest.fixture(scope="module")
def reference():
    return checks.load_reference()


def test_reference_covers_every_analytic_cost(reference):
    for kind, by_cost in reference.items():
        assert sorted(by_cost) == sorted(ANALYTIC_COSTS), kind


def test_analytic_check_rejects_pi_off_by_1e9(reference):
    req = Request("solve-big", "solve", "solve_big", ("solve",), {"costs": ["0.1"]})
    want = reference["solve_big"]["0.1"]
    header, row = want["header"], list(want["rows"][0])
    assert checks.check(req, _ok(_csv(header, [row])), {}, reference) == ("ok", "")
    pi = header.index("pi")
    row[pi] += 1e-9
    assert checks.check(req, _ok(_csv(header, [row])), {}, reference)[0] == "wrong"
    row[pi] -= 1e-9
    row[header.index("n_star")] += 1
    assert checks.check(req, _ok(_csv(header, [row])), {}, reference)[0] == "wrong"


def test_two_cost_sweep_is_checked_row_by_row(reference):
    costs = ["0.05", "0.4"]
    req = Request("sweep-log", "sweep", "sweep_log", ("sweep",), {"costs": costs})
    header = reference["sweep_log"][costs[0]]["header"]
    rows = [list(r) for c in costs for r in reference["sweep_log"][c]["rows"]]
    assert checks.check(req, _ok(_csv(header, rows)), {}, reference)[0] == "ok"
    rows[-1][header.index("expected_tau")] *= 1 + 1e-9
    assert checks.check(req, _ok(_csv(header, rows)), {}, reference)[0] == "wrong"


def test_table_sums_catch_a_row_outside_the_sample():
    from costly_secretary import cli

    out = io.StringIO()
    with redirect_stdout(out):
        cli.main(["solve", "--n", "500", "--cost", "0.25", "--tables"])
    header, rows = checks.parse_csv(out.getvalue())
    ref = tables_summary(header, rows)
    assert checks.compare_tables(header, rows, ref) == []
    unsampled = next(i for i in range(len(rows)) if str(i + 1) not in ref["sample"])
    rows[unsampled][header.index("v1")] += 1e-9
    assert checks.compare_tables(header, rows, ref)
    assert checks.compare_tables(header, rows[:-1], ref)


def _simulate_request(**params):
    argv = ("simulate", "--n", "1000", "--cost", "0.1", "--trials", "131072", "--seed", "7")
    return Request("sim", "simulate", "simulate", argv, params)


def _simulate_out(rate, se):
    header = ["n", "cost", "trials", "seed", "success_rate", "success_se"]
    return _ok(_csv(header, [[1000, 0.1, 131072, 7, rate, se]]))


def test_monte_carlo_check_rejects_rate_off_by_5_se():
    from costly_secretary import GameConfig, closed_form_success

    exact = closed_form_success(GameConfig(1000, 0.1))
    se = 1.2e-3
    req = _simulate_request()
    assert checks.check(req, _simulate_out(exact + 1 * se, se), {}, {})[0] == "ok"
    assert checks.check(req, _simulate_out(exact - 5 * se, se), {}, {})[0] == "wrong"


def test_worker_count_outputs_must_match_bytes():
    from costly_secretary import GameConfig, closed_form_success

    exact = closed_form_success(GameConfig(1000, 0.1))
    req = _simulate_request(twin="other")
    same, other = _simulate_out(exact, 1e-3), _simulate_out(exact + 1e-6, 1e-3)
    assert checks.check(req, same, {"other": same}, {})[0] == "ok"
    assert checks.check(req, same, {"other": other}, {})[0] == "wrong"


def test_library_estimates_are_held_to_4_se():
    blind = Request("b", "library", "estimate_blind", params={"n": 1000, "cost": "0.1"})
    se = 1e-4
    assert checks.check(blind, {"value": SimpleNamespace(success_rate=1e-3 + 3 * se,
                                                         success_se=se)}, {}, {})[0] == "ok"
    assert checks.check(blind, {"value": SimpleNamespace(success_rate=1e-3 + 5 * se,
                                                         success_se=se)}, {}, {})[0] == "wrong"
    from costly_secretary import policy_success_probability

    dev = Request("d", "library", "estimate_deviation", params={"n": 1000, "cost": "0.2"})
    config, _, policy = checks.deviation_policy(1000, 0.2)
    exact = policy_success_probability(config, policy)
    se = 1.5e-3
    assert checks.check(dev, {"value": SimpleNamespace(success_rate=exact - 3.9 * se,
                                                       success_se=se)}, {}, {})[0] == "ok"
    assert checks.check(dev, {"value": SimpleNamespace(success_rate=exact + 5 * se,
                                                       success_se=se)}, {}, {})[0] == "wrong"


def test_oracle_rows_must_all_be_ok_and_failures_count():
    req = Request("o", "oracle", "oracle", ("oracle", "--n", "5"))
    header = ["check", "value_a", "value_b", "difference", "tolerance", "status"]
    names = ["closed_form_vs_dp", "enumeration_vs_dp", "expected_tau_vs_n_pi",
             "enumeration_tau_vs_n_pi", "full_learning_audit"]
    rows = [[n, 0.5, 0.5, 0.0, 1e-12, "ok"] for n in names]
    assert checks.check(req, _ok(_csv(header, rows)), {}, {})[0] == "ok"
    rows[1][-1] = "fail"
    assert checks.check(req, _ok(_csv(header, rows)), {}, {})[0] == "wrong"
    assert checks.check(req, _ok(_csv(header, rows[:-1])), {}, {})[0] == "wrong"
    exit2 = {"code": 2, "stdout": "", "stderr": "error: over the budget"}
    assert checks.check(req, exit2, {}, {}) == ("failed", "exit 2: error: over the budget")
    assert checks.check(req, {"error": "Traceback"}, {}, {})[0] == "failed"


def test_exact_library_results():
    blind = Request("e", "library", "exact_blind", params={"n": 8, "cost": "0.1"})
    assert checks.check(blind, {"value": Fraction(1, 8)}, {}, {})[0] == "ok"
    off = Fraction(1, 8) + Fraction(1, 10**12)
    assert checks.check(blind, {"value": off}, {}, {})[0] == "wrong"

    from costly_secretary import GameConfig, exact_state_value

    req = Request("s", "library", "state_values", params={"n": 4, "cost": "0.4"})
    config = GameConfig(4, 0.4)
    values = {(s, st): exact_state_value(config, s, st) for s in range(1, 5) for st in (0, 1)}
    assert checks.check(req, {"value": values}, {}, {})[0] == "ok"
    values[(2, 1)] += Fraction(1, 10**9)
    assert checks.check(req, {"value": values}, {}, {})[0] == "wrong"


def test_times_scale_to_reference_speed():
    assert speed.at_reference(2.0, 2 * speed.REFERENCE_S) == pytest.approx(1.0)
    assert speed.loop_time() > 0


# Workloads and the metric list --------------------------------------------


def test_workloads_are_seeded():
    for workload in ("analytic", "monte-carlo", "exact"):
        a, b = requests_for(workload, 1), requests_for(workload, 1)
        assert a == b
        assert sorted(r.id for r in a) == sorted(r.id for r in requests_for(workload, 2))
    assert requests_for("monte-carlo", 1) != requests_for("monte-carlo", 2)
    for seed in range(20):
        for r in requests_for("analytic", seed):
            assert set(r.params["costs"]) <= set(ANALYTIC_COSTS)


def _pass(*requests):
    return {"requests": [dict(zip(("id", "status", "sha256", "seconds", "command"), r), detail="",
                              loop_s=speed.REFERENCE_S) for r in requests]}


def test_later_passes_share_the_first_verdict_and_must_match_bytes():
    first = _pass(("a", "ok", "x", 2.0, "solve"), ("b", "failed", "", 0.1, "oracle"))
    later = _pass(("a", "unchecked", "x", 1.5, "solve"), ("b", "failed", "", 0.2, "oracle"))
    run.share_verdicts([first, later])
    assert [r["status"] for r in later["requests"]] == ["ok", "failed"]
    assert run._failed([first, later]) == 2
    assert run._byte_mismatches([first, later]) == []
    assert run.pass_wall(later) == pytest.approx(1.7)
    assert run.pass_wall(later, "oracle") == pytest.approx(0.2)
    drifted = _pass(("a", "unchecked", "y", 1.0, "solve"), ("b", "failed", "", 0.1, "oracle"))
    assert run._byte_mismatches([first, drifted]) == ["a"]


def test_runner_produces_exactly_the_listed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    plain = {"peak_rss_mb": 1.0, "simulate_2w_se": 0.0,
             "requests": [{"id": "a", "command": "solve", "seconds": 1.0, "loop_s": 0.003,
                           "status": "ok"}]}
    traced = dict(plain, layers=spans.layer_metrics([], []))
    assert set(run.end_to_end([0.1], [plain])) == {m["name"] for m in spec["end_to_end"]}
    assert set(run.per_layer([plain], [traced], 0.0)) == {m["name"] for m in spec["per_layer"]}
