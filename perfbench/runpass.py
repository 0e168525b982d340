"""One pass over a workload's requests, in a fresh interpreter.

    python3 -m perfbench.runpass --workload NAME --seed N [--spans FILE] [--skip-checks]
    python3 -m perfbench.runpass --probe-solve N COST

A pass runs every request once, timing each around the call only (with the
host speed loop of ``speed.py`` timed just before and after), then
checks every output (with ``--skip-checks``, only whether each request
finished; each output's SHA-256 is reported either way).  With ``--spans`` the layer functions are wrapped and
the spans are written to FILE as JSON lines.  The last line on stdout is one
JSON object with the pass's timings, peak RSS, check results and, when
traced, per-layer metrics.

``--probe-solve`` measures how far one ``solve_values`` call raises the
process's peak RSS, in a process that does nothing else.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import checks, spans, speed  # noqa: E402
from perfbench.workloads import WORKLOADS, requests_for  # noqa: E402


OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def _out_path(req_id: str) -> str:
    return os.path.join(OUT_DIR, f"{req_id}.out")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _cli_call(argv):
    from costly_secretary import cli

    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    return call


def _library_call(req):
    """Build the arguments now; the returned call does only the library work."""
    from fractions import Fraction

    from costly_secretary import GameConfig, PolicySpec, StrategyProfile, oracle, simulator

    p = req.params
    if req.kind == "estimate_blind":
        config = GameConfig(p["n"], float(p["cost"]))
        profile = StrategyProfile.no_learning(config, [1.0 / p["n"]] * p["n"])
        return lambda: {"value": simulator.estimate(config, profile, p["trials"], p["seed"])}
    if req.kind == "estimate_deviation":
        config, profile, _ = checks.deviation_policy(p["n"], float(p["cost"]))
        return lambda: {"value": simulator.estimate(config, profile, p["trials"], p["seed"])}
    config = GameConfig(p["n"], float(p["cost"]))
    if req.kind == "exact_blind":
        policy = PolicySpec.from_acceptance_masses([Fraction(1, p["n"])] * p["n"])
        return lambda: {"value": oracle.exact_success_probability(config, policy)}
    if req.kind == "state_values":
        cells = [(stage, state) for stage in range(1, p["n"] + 1) for state in (0, 1)]
        return lambda: {"value": {c: oracle.exact_state_value(config, *c) for c in cells}}
    raise ValueError(f"unknown library request {req.kind!r}")


def run_pass(workload: str, seed: int, spans_path: str | None, check: bool = True) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = None
    if spans_path:
        tracer = spans.Tracer()
        spans.instrument(tracer)
    requests = requests_for(workload, seed)
    calls = [_library_call(r) if r.command == "library" else _cli_call(r.argv) for r in requests]

    outcomes: dict[str, dict] = {}
    timings: list[dict] = []
    for req, call in zip(requests, calls):
        loop_before = speed.loop_time()
        if tracer:
            tracer.request = req.id
        start = time.perf_counter()
        try:
            out = call()
        except Exception:  # a crashing request is a failed request; keep going
            out = {"error": traceback.format_exc(limit=4)}
        end = time.perf_counter()
        if tracer:
            tracer.request = None
        loop_s = (loop_before + speed.loop_time()) / 2
        if "stdout" in out:
            # Park the output on disk so that one request's output does not
            # raise the next request's peak RSS.
            with open(_out_path(req.id), "w", encoding="utf-8") as fh:
                fh.write(out.pop("stdout"))
        outcomes[req.id] = out
        timings.append({"id": req.id, "start": start, "end": end, "loop_s": loop_s})
    peak_rss = _peak_rss_mb()
    for req_id, out in outcomes.items():
        if "code" in out:
            with open(_out_path(req_id), encoding="utf-8") as fh:
                out["stdout"] = fh.read()

    ref = checks.load_reference() if check and workload == "analytic" else {}
    results = []
    for req, t in zip(requests, timings):
        out = outcomes[req.id]
        if check:
            status, detail = checks.check(req, out, outcomes, ref)
        else:
            status, detail = checks.check_finished(out)
        stdout = out.get("stdout", "")
        payload = stdout if "stdout" in out else repr(out.get("value"))
        results.append({
            "id": req.id, "command": req.command, "status": status, "detail": detail,
            "seconds": t["end"] - t["start"], "loop_s": t["loop_s"],
            "out_bytes": len(stdout.encode()),
            "sha256": hashlib.sha256(payload.encode()).hexdigest(),
        })

    result = {
        "workload": workload, "seed": seed, "traced": bool(tracer),
        "peak_rss_mb": peak_rss,
        "simulate_2w_se": _simulate_2w_se(results, outcomes), "requests": results,
    }
    if tracer:
        info = [dict(t, out_bytes=r["out_bytes"]) for t, r in zip(timings, results)]
        result["layers"] = spans.layer_metrics(tracer.spans, info)
        solves = [s for s in tracer.spans if s["name"] == "equilibrium.solve_values"]
        if solves:
            big = max(solves, key=lambda s: s["stages"])
            result["largest_solve"] = [big["stages"], big["cost"]]
        import numpy

        tracer.write_jsonl(spans_path, {
            "workload": workload, "seed": seed, "python": platform.python_version(),
            "numpy": numpy.__version__, "requests": [r.id for r in requests],
        })
    return result


def _simulate_2w_se(results: list[dict], outcomes: dict) -> float:
    """Success standard error of the 2-worker N = 1000 simulate request."""
    for r in results:
        if r["id"] == "simulate-2w" and r["status"] == "ok":
            header, rows = checks.parse_csv(outcomes[r["id"]]["stdout"])
            return dict(zip(header, rows[0]))["success_se"]
    return 0.0


def probe_solve(n_apps: int, cost: float) -> dict:
    import gc

    from costly_secretary import GameConfig, solve_values

    gc.collect()
    before = _peak_rss_mb()
    solve_values(GameConfig(n_apps, cost))
    return {"peak_mb": _peak_rss_mb() - before}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spans", default=None, help="trace the pass; write spans here")
    parser.add_argument("--skip-checks", action="store_true",
                        help="only report failed requests; the caller judges outputs by "
                             "their bytes against a checked pass")
    parser.add_argument("--probe-solve", nargs=2, metavar=("N", "COST"), default=None)
    args = parser.parse_args(argv)
    if args.probe_solve:
        result = probe_solve(int(args.probe_solve[0]), float(args.probe_solve[1]))
    elif args.workload:
        result = run_pass(args.workload, args.seed, args.spans, check=not args.skip_checks)
    else:
        parser.error("give --workload or --probe-solve")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
