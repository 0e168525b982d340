"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Works in rounds until ``--seconds`` are used:
each round measures the set-up time (a fresh interpreter importing
``costly_secretary.cli``) three times and runs one pass over the workload in a
fresh process; with ``--trace 1`` a traced pass on the same inputs follows.
Every time is reported at reference speed (see speed.py).  ``setup_s`` is
the median set-up time, ``wall_s`` and ``peak_rss_mb`` medians over
untraced passes.  Per-layer metrics come from the traced passes.  The first
pass's outputs are checked; every later pass must reproduce them byte for
byte.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Metric names and units are read
from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import speed  # noqa: E402
from perfbench.runpass import OUT_DIR  # noqa: E402
from perfbench.stats import median  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_PER_ROUND = 3
TIME_LIMIT_S = 170.0  # the whole run must end well within 180 s


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # numpy's BLAS pools would start one thread per core; the simulator's
    # own --workers are the only threads the workloads ask for.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run(cmd: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("out of time before starting " + " ".join(cmd))
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)


def measure_setup(env: dict, deadline: float, samples: int) -> list[float]:
    """Times of fresh interpreters importing the CLI module, at reference speed."""
    cmd = [sys.executable, "-c", "import costly_secretary.cli"]
    times = []
    for _ in range(samples):
        loop_before = speed.loop_time()
        start = time.perf_counter()
        proc = _run(cmd, env, deadline)
        elapsed = time.perf_counter() - start
        times.append(speed.at_reference(elapsed, (loop_before + speed.loop_time()) / 2))
        if proc.returncode != 0:
            raise RuntimeError(f"importing costly_secretary.cli failed:\n{proc.stderr}")
    return times


def run_pass(workload: str, seed: int, traced: bool, check: bool, env: dict,
             deadline: float) -> dict:
    cmd = [sys.executable, "-m", "perfbench.runpass", "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd += ["--spans", os.path.join(OUT_DIR, f"spans-{workload}.jsonl")]
    if not check:
        cmd.append("--skip-checks")
    proc = _run(cmd, env, deadline)
    if proc.returncode != 0:
        raise RuntimeError(f"pass failed ({' '.join(cmd)}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe_solve(n_apps: int, cost: float, env: dict, deadline: float) -> float:
    cmd = [sys.executable, "-m", "perfbench.runpass", "--probe-solve", str(n_apps), repr(cost)]
    proc = _run(cmd, env, deadline)
    if proc.returncode != 0:
        raise RuntimeError(f"probe failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["peak_mb"]


def _failed(passes: list[dict]) -> int:
    return sum(r["status"] != "ok" for p in passes for r in p["requests"])


def share_verdicts(passes: list[dict]) -> None:
    """Only the first pass checks outputs.  A later pass's request whose
    bytes match the first pass's shares its verdict; one whose bytes differ
    makes the run incorrect (see _byte_mismatches)."""
    first = {r["id"]: r for r in passes[0]["requests"]}
    for p in passes:
        for r in p["requests"]:
            if r["status"] == "unchecked":
                r["status"], r["detail"] = first[r["id"]]["status"], first[r["id"]]["detail"]


def _byte_mismatches(passes: list[dict]) -> list[str]:
    """Requests whose output bytes differ between passes on the same inputs,
    traced or not."""
    seen: dict[str, str] = {}
    bad = []
    for p in passes:
        for r in p["requests"]:
            if seen.setdefault(r["id"], r["sha256"]) != r["sha256"]:
                bad.append(r["id"])
    return sorted(set(bad))


def pass_wall(p: dict, command: str | None = None) -> float:
    """Sum of a pass's request times (of one command, if given), at reference speed."""
    return sum(speed.at_reference(r["seconds"], r["loop_s"]) for r in p["requests"]
               if command in (None, r["command"]))


def end_to_end(setup: list[float], plain: list[dict]) -> dict[str, float]:
    return {
        "setup_s": median(setup),
        "wall_s": median([pass_wall(p) for p in plain]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
    }


def per_layer(plain: list[dict], traced: list[dict], peak_mb: float) -> dict[str, float]:
    m: dict[str, float] = {}
    for name in traced[0]["layers"]:
        m[name] = median([p["layers"][name] for p in traced])
    m["equilibrium.solve_values.peak_mb"] = peak_mb
    for cmd in ("solve", "sweep", "asymptotics", "simulate", "oracle", "library"):
        m[f"cmd.{cmd}_s"] = median([pass_wall(p, cmd) for p in plain])
    # time to a success SE of 1e-3 for the 2-worker N = 1000 simulate request
    se = next((p["simulate_2w_se"] for p in plain if p["simulate_2w_se"]), 0.0)
    m["mc.time_to_se_s"] = median([
        speed.at_reference(r["seconds"], r["loop_s"]) * (se / 1e-3) ** 2
        for p in plain for r in p["requests"] if r["id"] == "simulate-2w"
    ] or [0.0])
    m["error_rate"] = _failed(plain) / sum(len(p["requests"]) for p in plain)
    m["trace.wall_s"] = median([pass_wall(p) for p in traced])
    m["trace.overhead"] = m["trace.wall_s"] / median([pass_wall(p) for p in plain])
    m["host.speed"] = median([speed.REFERENCE_S / r["loop_s"] for p in plain for r in p["requests"]])
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="costly-secretary benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "costly_secretary", "cli.py")):
        print("perfbench: no program at src/costly_secretary; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    os.makedirs(OUT_DIR, exist_ok=True)
    env = _child_env()

    try:
        measure_setup(env, deadline, 1)  # warm-up: fills the bytecode cache
        setup: list[float] = []
        plain: list[dict] = []
        traced: list[dict] = []
        start = time.monotonic()
        while True:
            round_start = time.monotonic()
            setup += measure_setup(env, deadline, SETUP_PER_ROUND)
            plain.append(run_pass(args.workload, args.seed, False, not plain, env, deadline))
            if args.trace:
                traced.append(run_pass(args.workload, args.seed, True, False, env, deadline))
            now = time.monotonic()
            if now - start + (now - round_start) > args.seconds:
                break
        share_verdicts(plain + traced)
        if args.trace:
            big = traced[-1].get("largest_solve")
            peak_mb = probe_solve(big[0], big[1], env, deadline) if big else 0.0
            values = per_layer(plain, traced, peak_mb)
        else:
            values = end_to_end(setup, plain)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    passes = plain + traced
    for r in plain[0]["requests"]:
        if r["status"] != "ok":
            print(f"perfbench: {r['status']} request {r['id']}: {r['detail']}", file=sys.stderr)
    mismatched = _byte_mismatches(passes)
    if mismatched:
        print(f"perfbench: output bytes differ between passes: {mismatched}", file=sys.stderr)
    wrong = any(r["status"] == "wrong" for p in passes for r in p["requests"])

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": not wrong and not mismatched,
        "attempted": sum(len(p["requests"]) for p in passes),
        "failed": _failed(passes),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
