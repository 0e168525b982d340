"""Output checks, run after a pass and outside its timed region.

``check`` returns ``("ok", "")``, ``("failed", why)`` for a request that did
not finish (non-zero exit or exception), or ``("wrong", why)`` for an output
outside tolerance.  Tolerances:

- analytic values: within 1e-12 (relative above 1, absolute below) of the
  values recorded in ``reference.json.gz``; integers such as n* exactly;
- Monte Carlo rates: within 4 standard errors of an exact value;
- the ``--workers 1`` and ``--workers 2`` outputs: byte-identical;
- ``oracle``: every row ``ok``;
- oracle library calls: exact rationals, or 1e-12 against the DP.
"""

from __future__ import annotations

import gzip
import json
import math
import os
from fractions import Fraction

REL_TOL = 1e-12
MC_SE = 4.0
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json.gz")


def load_reference(path: str = REFERENCE) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def parse_field(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_csv(text: str) -> tuple[list[str], list[list]]:
    lines = text.strip("\n").split("\n")
    return lines[0].split(","), [[parse_field(f) for f in line.split(",")] for line in lines[1:]]


def parse_json_rows(text: str) -> tuple[dict, list[str], list[list]]:
    payload = json.loads(text)
    rows = payload["rows"]
    header = list(rows[0].keys()) if rows else []
    return payload["meta"], header, [[row[k] for k in header] for row in rows]


def _same(got, want) -> bool:
    if isinstance(want, bool) or isinstance(want, str) or want is None:
        return got == want
    if isinstance(want, int) and isinstance(got, int):
        return got == want
    if isinstance(got, (int, float)) and not isinstance(got, bool):
        return close(float(got), float(want))
    return False


def compare_rows(header, rows, ref_header, ref_rows) -> list[str]:
    if header != ref_header:
        return [f"header {header} != {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, expected {len(ref_rows)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col, got, want in zip(header, row, ref):
            if not _same(got, want):
                problems.append(f"row {i} {col}: {got!r} != {want!r}")
    return problems[:5]


def compare_tables(header, rows, ref) -> list[str]:
    """Row count, the recorded sample rows, and per-column compensated sums."""
    if header != ref["header"]:
        return [f"header {header} != {ref['header']}"]
    if len(rows) != ref["n_rows"]:
        return [f"{len(rows)} rows, expected {ref['n_rows']}"]
    sample = ref["sample"]
    problems = compare_rows(
        header, [rows[int(stage) - 1] for stage in sample], header, list(sample.values())
    )
    for j, col in enumerate(header):
        got = math.fsum(float(row[j]) for row in rows)
        if not close(got, ref["sums"][col]):
            problems.append(f"column {col} sums to {got!r}, expected {ref['sums'][col]!r}")
    return problems


def _mc_problems(name: str, rate: float, se: float, exact: float) -> list[str]:
    if abs(rate - exact) <= MC_SE * se:
        return []
    return [f"{name} {rate!r} is {abs(rate - exact) / se:.2f} SE from exact {exact!r}"]


def deviation_policy(n_apps: int, cost: float):
    """The solved plan with the stage-n* applicant forced to decline, as a
    simulator profile and as the oracle's policy."""
    from costly_secretary import (
        GameConfig, PolicySpec, StageRule, StrategyProfile, compute_threshold,
    )

    config = GameConfig(n_apps, cost)
    n_star = compute_threshold(n_apps)
    stages = list(StrategyProfile.equilibrium(config).stages)
    stages[n_star - 1] = StageRule(True, 1.0, force_decline=True)
    profile = StrategyProfile(cost=cost, stages=tuple(stages))
    probs = tuple(0.0 if n == n_star else (cost if n < n_star else 1.0) for n in range(1, n_apps + 1))
    return config, profile, PolicySpec(accept_probs=probs, learning=(True,) * n_apps)


def _check_analytic(req, out, ref) -> list[str]:
    kind = req.kind
    wants = [ref[kind][c] for c in req.params["costs"]]
    if kind == "tables_json":
        meta, header, rows = parse_json_rows(out["stdout"])
        problems = [] if meta == wants[0]["meta"] else [f"meta {meta} != {wants[0]['meta']}"]
        return problems + compare_tables(header, rows, wants[0])
    header, rows = parse_csv(out["stdout"])
    if kind == "tables_csv":
        return compare_tables(header, rows, wants[0])
    # a multi-cost sweep emits each cost's rows in turn
    return compare_rows(header, rows, wants[0]["header"], [r for w in wants for r in w["rows"]])


def _check_simulate(req, out, outcomes) -> list[str]:
    from costly_secretary import GameConfig, closed_form_success

    header, rows = parse_csv(out["stdout"])
    row = dict(zip(header, rows[0]))
    argv = dict(zip(req.argv[1::2], req.argv[2::2]))
    problems = []
    if row["trials"] != int(argv["--trials"]) or row["seed"] != int(argv["--seed"]):
        problems.append(f"trials/seed echo {row['trials']}/{row['seed']} wrong")
    exact = closed_form_success(GameConfig(int(argv["--n"]), float(argv["--cost"])))
    problems += _mc_problems("success_rate", row["success_rate"], row["success_se"], exact)
    twin = outcomes.get(req.params.get("twin"))
    if twin is not None and twin.get("stdout") != out["stdout"]:
        problems.append(f"output differs from {req.params['twin']} (worker count changed bytes)")
    return problems


def _check_library(req, out) -> list[str]:
    from costly_secretary import GameConfig, policy_success_probability, solve_values

    p = req.params
    value = out["value"]
    if req.kind == "estimate_blind":
        return _mc_problems("blind success_rate", value.success_rate, value.success_se, 1.0 / p["n"])
    if req.kind == "estimate_deviation":
        config, _, policy = deviation_policy(p["n"], float(p["cost"]))
        exact = policy_success_probability(config, policy)
        return _mc_problems("deviation success_rate", value.success_rate, value.success_se, exact)
    if req.kind == "exact_blind":
        want = Fraction(1, p["n"])
        return [] if value == want else [f"blind success {value} != {want}"]
    if req.kind == "state_values":
        tables = solve_values(GameConfig(p["n"], float(p["cost"])))
        problems = []
        if len(value) != 2 * p["n"]:
            problems.append(f"{len(value)} state values, expected {2 * p['n']}")
        for (stage, state), v in value.items():
            dp = stage * float((tables.v1 if state else tables.v0)[stage])
            if not abs(float(v) - dp) <= REL_TOL:
                problems.append(f"V({stage},{state}) = {float(v)!r}, DP gives {dp!r}")
        return problems
    raise ValueError(f"no check for library request {req.kind!r}")


def _check_oracle(req, out) -> list[str]:
    header, rows = parse_csv(out["stdout"])
    table = [dict(zip(header, r)) for r in rows]
    names = [r["check"] for r in table]
    want = ["closed_form_vs_dp", "enumeration_vs_dp", "expected_tau_vs_n_pi",
            "enumeration_tau_vs_n_pi", "full_learning_audit"]
    if "--grid-step" in req.argv:
        want.append("scan_max_vs_dp")
    problems = [] if names == want else [f"checks {names} != {want}"]
    return problems + [f"{r['check']}: {r['status']}" for r in table if r["status"] != "ok"]


def check_finished(out: dict) -> tuple[str, str]:
    """``failed`` for an exception or a non-zero exit, else ``unchecked``."""
    if "error" in out:
        return "failed", out["error"]
    if out.get("code", 0) != 0:
        return "failed", f"exit {out['code']}: {out['stderr'].strip()[-300:]}"
    return "unchecked", ""


def check(req, out: dict, outcomes: dict, ref: dict) -> tuple[str, str]:
    """Judge one request's outcome; ``outcomes`` maps request id to outcome."""
    status = check_finished(out)
    if status[0] == "failed":
        return status
    try:
        if req.command == "library":
            problems = _check_library(req, out)
        elif req.command == "oracle":
            problems = _check_oracle(req, out)
        elif req.command == "simulate":
            problems = _check_simulate(req, out, outcomes)
        else:
            problems = _check_analytic(req, out, ref)
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return ("wrong", "; ".join(problems)) if problems else ("ok", "")
