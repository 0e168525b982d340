"""Spans recorded from outside the program, and the per-layer metrics they give.

``instrument`` replaces every public function of the five program modules
with a wrapper at each name a caller looks it up by: ``cli.solve_values``,
``asymptotics.solve_values`` and ``oracle.solve_values`` each get their own
wrapper around ``equilibrium.solve_values``, and ``equilibrium.solve_values``
gets one for the package's own calls.  Nothing under ``src/`` changes.

A span records its layer name (``equilibrium.solve_values``), the module the
call went through (``via``), start and end on the ``perf_counter`` clock,
process CPU time, the enclosing span and the request id, plus work counters
read from the arguments and the result.  Spans stay in memory and are
written out as JSON lines when the pass ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from collections import defaultdict
from typing import Callable, Iterable, Optional

# Called once per stage from the prefix audit's inner loop (about 1.6e5
# calls for N = 8).  A span each would multiply the audit's time, so their
# time stays in the caller's self time.
_UNWRAPPED = frozenset({"simulator.applicant_action"})


class Tracer:
    """In-memory span recorder.  Records only while a request id is set."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[dict] = []
        self.request: Optional[str] = None
        self._stack: list[int] = []

    def wrap(self, name: str, via: str, fn: Callable, counters=None) -> Callable:
        signature = inspect.signature(fn) if counters else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            span = {
                "id": len(self.spans),
                "name": name,
                "via": via,
                "parent": self._stack[-1] if self._stack else None,
                "request": self.request,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            result = None
            cpu0 = time.process_time()
            span["start"] = self.clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = self.clock()
                span["cpu_s"] = time.process_time() - cpu0
                self._stack.pop()
                if counters is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.update(counters(bound.arguments, result))

        return wrapper

    def write_jsonl(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# Work counters, read from a call's arguments and result ---------------------


def _solve_counts(a, result):
    return {"stages": a["config"].n_applicants, "cost": a["config"].cost}


def _threshold_counts(a, result):
    return {"key": str(a["n_applicants"])}


def _report_counts(a, result):
    return {"stages": sum(int(n) for n in a["n_list"])}


def _estimate_counts(a, result):
    from costly_secretary import simulator

    config, profile, trials = a["config"], a["profile"], a["trials"]
    n_apps = config.n_applicants
    learning = [r.learning for r in profile.stages]
    kind = "learning" if all(learning) else "blind" if not any(learning) else "mixed"
    out = {
        "trials": trials,
        "batches": -(-trials // getattr(simulator, "_BATCH", 32768)),
        "trial_stages": trials * n_apps,
        "workers": a["workers"],
        "profile": kind,
        "key": f"{n_apps},{config.cost!r},{trials},{a['seed']}",
    }
    if result is not None:
        accepted = round(result.acceptance_rate * trials)
        tau_sum = round(result.mean_tau_unconditional * trials)
        out["live_stages"] = tau_sum + (trials - accepted) * n_apps
    return out


def _enumeration_counts(a, result):
    config, policy = a["config"], a["policy"]
    key = repr((config.n_applicants, config.cost, policy.accept_probs, policy.learning))
    return {"orders": math.factorial(config.n_applicants), "key": key}


def _audit_counts(a, result):
    return {"orders": math.factorial(a["config"].n_applicants)}


def _scan_counts(a, result):
    return {"policies": result.n_policies if result is not None else 0}


COUNTERS = {
    "equilibrium.solve_values": _solve_counts,
    "equilibrium.compute_threshold": _threshold_counts,
    "asymptotics.convergence_report": _report_counts,
    "simulator.estimate": _estimate_counts,
    "oracle.exact_success_probability": _enumeration_counts,
    "oracle.exact_expected_tau": _enumeration_counts,
    "oracle.full_learning_audit": _audit_counts,
    "oracle.optimality_scan": _scan_counts,
}

LAYERS = ("cli", "equilibrium", "asymptotics", "simulator", "oracle")


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap every public layer function at every name it is looked up by.

    Returns a function that puts the originals back.
    """
    import importlib

    package = importlib.import_module("costly_secretary")
    modules = {name: importlib.import_module(f"costly_secretary.{name}") for name in LAYERS}
    targets = {}
    for layer, module in modules.items():
        for attr in module.__all__:
            obj = getattr(module, attr)
            name = f"{layer}.{attr}"
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and name not in _UNWRAPPED:
                targets[obj] = name
    undo = []
    for via, module in [("costly_secretary", package), *modules.items()]:
        for attr, obj in list(vars(module).items()):
            name = targets.get(obj) if inspect.isfunction(obj) else None
            if name is None:
                continue
            setattr(module, attr, tracer.wrap(name, via, obj, COUNTERS.get(name)))
            undo.append((module, attr, obj))

    def restore() -> None:
        for module, attr, obj in undo:
            setattr(module, attr, obj)

    return restore


# Span arithmetic ---------------------------------------------------------


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - covered(children[s["id"]], s["start"], s["end"])
        for s in spans
    }


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _repeat_frac(spans: list[dict]) -> float:
    keys = [(s["request"], s["key"]) for s in spans]
    return _rate(len(keys) - len(set(keys)), len(keys))


def layer_metrics(spans: list[dict], requests: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``requests`` holds one dict per request with ``id``, ``start``, ``end``
    and ``out_bytes`` (stdout bytes of a CLI request, 0 for a library call).
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def calls(name):
        return len(by_name[name])

    def self_s(name):
        return sum(selfs[s["id"]] for s in by_name[name])

    def total(name, key):
        return sum(s.get(key, 0) for s in by_name[name])

    m: dict[str, float] = {}
    cli_self = sum(selfs[s["id"]] for s in spans if s["name"].startswith("cli."))
    out_bytes = sum(r["out_bytes"] for r in requests)
    m["cli.self_s"] = cli_self
    m["cli.out_bytes"] = out_bytes
    m["cli.out_bytes_per_s"] = _rate(out_bytes, cli_self)

    sv = "equilibrium.solve_values"
    m[f"{sv}.calls"] = calls(sv)
    m[f"{sv}.self_s"] = self_s(sv)
    m[f"{sv}.stages"] = total(sv, "stages")
    m[f"{sv}.stages_per_s"] = _rate(total(sv, "stages"), self_s(sv))

    ct = "equilibrium.compute_threshold"
    m[f"{ct}.calls"] = calls(ct)
    m[f"{ct}.self_s"] = self_s(ct)
    m[f"{ct}.repeat_frac"] = _repeat_frac(by_name[ct])
    for name in ("equilibrium.expected_stopping_time", "equilibrium.closed_form_success"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)

    cr = "asymptotics.convergence_report"
    m[f"{cr}.calls"] = calls(cr)
    m[f"{cr}.self_s"] = self_s(cr)
    m[f"{cr}.stages"] = total(cr, "stages")

    es = "simulator.estimate"
    est = by_name[es]
    m[f"{es}.calls"] = len(est)
    m[f"{es}.self_s"] = self_s(es)
    m[f"{es}.trials"] = total(es, "trials")
    m[f"{es}.batches"] = total(es, "batches")
    m[f"{es}.trial_stages"] = total(es, "trial_stages")
    m[f"{es}.trial_stages_per_s"] = _rate(total(es, "trial_stages"), self_s(es))
    wall = sum(s["end"] - s["start"] for s in est)
    m[f"{es}.cpu_util"] = _rate(sum(s["cpu_s"] for s in est), wall)
    m[f"{es}.live_stage_frac"] = _rate(total(es, "live_stages"), total(es, "trial_stages"))
    for kind in ("learning", "blind"):
        group = [s for s in est if s.get("profile") == kind]
        m[f"{es}.{kind}.trial_stages_per_s"] = _rate(
            sum(s["trial_stages"] for s in group), sum(selfs[s["id"]] for s in group)
        )
    m[f"{es}.scaling_eff_2w"] = _scaling_efficiency(est, selfs)

    walks = by_name["oracle.exact_success_probability"] + by_name["oracle.exact_expected_tau"]
    for name in ("oracle.exact_success_probability", "oracle.exact_expected_tau"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.orders"] = total(name, "orders")
        m[f"{name}.orders_per_s"] = _rate(total(name, "orders"), self_s(name))
    m["oracle.enumeration.repeat_frac"] = _repeat_frac(walks)
    # The audit only wraps full_learning_counterexample, which walks the orders.
    au = "oracle.full_learning_audit"
    au_self = self_s(au) + self_s("oracle.full_learning_counterexample")
    m[f"{au}.calls"] = calls(au)
    m[f"{au}.self_s"] = au_self
    m[f"{au}.orders_per_s"] = _rate(total(au, "orders"), au_self)
    sv_ = "oracle.exact_state_value"
    m[f"{sv_}.calls"] = calls(sv_)
    m[f"{sv_}.self_s"] = self_s(sv_)
    sc = "oracle.optimality_scan"
    m[f"{sc}.calls"] = calls(sc)
    m[f"{sc}.self_s"] = self_s(sc)
    m[f"{sc}.policies"] = total(sc, "policies")
    m[f"{sc}.policies_per_s"] = _rate(total(sc, "policies"), self_s(sc))

    uncovered = 0.0
    roots = defaultdict(list)
    for s in spans:
        if s["parent"] is None:
            roots[s["request"]].append((s["start"], s["end"]))
    for r in requests:
        uncovered += (r["end"] - r["start"]) - covered(roots[r["id"]], r["start"], r["end"])
    m["trace.spans"] = len(spans)
    m["trace.uncovered_s"] = uncovered
    return m


def _scaling_efficiency(est: list[dict], selfs: dict[int, float]) -> float:
    """1-worker time / (2 x 2-worker time) over pairs of calls that differ
    only in the worker count."""
    one = defaultdict(list)
    two = defaultdict(list)
    for s in est:
        if s["workers"] == 1:
            one[s["key"]].append(selfs[s["id"]])
        elif s["workers"] == 2:
            two[s["key"]].append(selfs[s["id"]])
    pairs = [(sum(one[k]), sum(two[k])) for k in two if one.get(k)]
    t1 = sum(a for a, _ in pairs)
    t2 = sum(b for _, b in pairs)
    return _rate(t1, 2.0 * t2)
