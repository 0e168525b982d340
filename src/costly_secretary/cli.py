"""Command-line front end.

Subcommands: ``solve`` (threshold, success probability, expected search
length, policy summary, optional value tables), ``sweep`` (grids of
instances with scaled values and the analytic asymptote, for plotting),
``asymptotics`` (convergence report), ``simulate`` (Monte Carlo), and
``oracle`` (exact verification of one instance).  All state flows through
flags; identical invocations produce identical bytes.

Exit codes: 0 success, 2 usage, validation or out-of-memory error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import itertools
import json
import math
import os
import sys
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import __version__
from .asymptotics import convergence_report, limit_constant
from .equilibrium import (
    _BLOCK,
    GameConfig,
    ValueTables,
    _solve_sizes,
    expected_stopping_time,
    solve_values,
)
from .oracle import ExactEvaluation, VerificationError, exact_evaluation, optimality_scan
from .simulator import AggregateStats, StrategyProfile, estimate

__all__ = ["run", "main"]

_USAGE_ERROR = 2
_VERIFICATION_ERROR = 3


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


# A JSON row is one flat object of the indent=2 "rows" list: its items sit at depth 2
_ITEM_SEP = ",\n      "


def _row(fmt: str, cells: Iterable[str]) -> str:
    """One row of the output: a CSV line of ``cells``, or one object of the
    JSON rows list made of ``"key": value`` items and led by its separator.
    On ``%``-template cells it makes a row template."""
    if fmt == "json":
        return ",\n    {\n      " + _ITEM_SEP.join(cells) + "\n    }"
    return ",".join(cells) + "\n"


def _document(fmt: str, columns: Iterable[str], meta: dict, rows: Iterable[str]) -> Iterator[str]:
    """The whole output around rows made by _row, of which there is at
    least one: the CSV header, or the bytes of ``{"meta": meta, "rows":
    [...]}`` encoded with indent=2, where the first row drops the separator
    that leads it."""
    if fmt == "json":
        head = json.JSONEncoder(indent=2, allow_nan=False).encode({"meta": meta})
        head, end = head[: -len("\n}")] + ',\n  "rows": [', "\n  ]\n}\n"
    else:
        head, end = _row(fmt, columns), ""
    rows = iter(rows)
    first = next(rows)
    # only a JSON row has a separator to drop: a CSV row may begin with an empty cell
    yield head + (first[1:] if fmt == "json" else first)
    yield from rows
    yield end


_TABLE_COLUMNS = ("stage", "v0", "v1", "accept_record")


def _table_pieces(tables: ValueTables, fmt: str, meta: dict) -> Iterator[str]:
    """The bytes that _emit writes for one dict per stage of
    ``solve --tables``, made one chunk of rows per ``%`` call.

    A float is written as _emit writes it: ``%.17g`` in CSV, and ``%r``, the
    ``float.__repr__`` that the C JSON encoder writes, in JSON, where a
    non-finite value raises ValueError as allow_nan=False does.  The floor
    1/N, the cost and 1.0 are formatted once.  A chunk of up to _BLOCK // 4
    rows is one template, the row template repeated, filled from one flat
    tuple of its stages, v0 and v1 and accept strings: the cost before the
    threshold and 1.0 from it.  The v1 at the end of each block of _BLOCK
    stages that equal the floor (every v1 from the tail on) are written by
    a second template that holds the floor's string.  One chunk becomes
    Python floats at a time.
    """
    n_apps = tables.config.n_applicants
    floor = 1.0 / n_apps
    conv = "%r" if fmt == "json" else "%.17g"

    def template(v1: str) -> str:
        cells = ("%d", conv, v1, "%s")
        if fmt == "json":
            cells = (f'"{c}": {x}' for c, x in zip(_TABLE_COLUMNS, cells))
        return _row(fmt, cells)

    row, floor_row = template(conv), template(conv % floor)
    cost, one = conv % tables.config.cost, conv % 1.0
    chunk = max(_BLOCK // 4, 1)
    row_chunk, floor_chunk = row * chunk, floor_row * chunk

    def chunks(tmpl: str, tmpl_chunk: str, lo: int, hi: int, *columns: np.ndarray):
        # stages lo..hi-1 with the cells of ``columns`` between stage and accept
        width = len(columns) + 2
        for a in range(lo, hi, chunk):
            b = min(a + chunk, hi)
            split = min(max(tables.threshold, a), b)
            values = [None] * (width * (b - a))
            values[::width] = range(a, b)
            for j, column in enumerate(columns, 1):
                values[j::width] = column[a:b].tolist()
            values[width - 1 :: width] = [cost] * (split - a) + [one] * (b - split)
            yield (tmpl_chunk if b - a == chunk else tmpl * (b - a)) % tuple(values)

    def block_rows(lo: int) -> Iterator[str]:
        hi = min(lo + _BLOCK, n_apps + 1)
        v1 = tables.v1[lo:hi]
        if fmt == "json" and not (np.isfinite(tables.v0[lo:hi]).all() and np.isfinite(v1).all()):
            raise ValueError("Out of range float values are not JSON compliant")
        not_floor = np.flatnonzero(v1 != floor)
        mid = lo + (int(not_floor[-1]) + 1 if not_floor.size else 0)
        return itertools.chain(
            chunks(row, row_chunk, lo, mid, tables.v0, tables.v1),
            chunks(floor_row, floor_chunk, mid, hi, tables.v0),
        )

    rows = itertools.chain.from_iterable(map(block_rows, range(1, n_apps + 1, _BLOCK)))
    return _document(fmt, _TABLE_COLUMNS, meta, rows)


def _write(pieces: Iterator[str], args: argparse.Namespace) -> None:
    if args.out:
        sink = open(args.out, "w", encoding="utf-8", newline="\n")
    else:
        sink = contextlib.nullcontext(sys.stdout)
    # Join pieces into writes of about 128 KiB: a dict row is one small piece,
    # and a write costs ~1 us on a pipe; a table chunk is a write of its own.
    with sink as fh:
        batch, size = [], 0
        for piece in pieces:
            batch.append(piece)
            size += len(piece)
            if size >= 1 << 17:
                fh.write("".join(batch))
                batch, size = [], 0
        if size:
            fh.write("".join(batch))


def _emit(rows: Sequence[dict], meta: dict, args: argparse.Namespace) -> None:
    if args.format == "json":
        items = json.JSONEncoder(allow_nan=False, separators=(_ITEM_SEP, ": ")).encode
        cells = ([items(row)[1:-1]] for row in rows)
    else:
        cells = (map(_fmt, row.values()) for row in rows)
    pieces = (_row(args.format, c) for c in cells)
    _write(_document(args.format, rows[0], meta, pieces), args)


def _meta(args: argparse.Namespace, **extra) -> dict:
    return {"tool": "costly-secretary", "version": __version__, "command": args.command, **extra}


def _run_solve(args: argparse.Namespace) -> int:
    config = GameConfig(args.n, args.cost)
    tables = solve_values(config, tables=args.tables)
    if args.tables:
        _write(_table_pieces(tables, args.format, _meta(args)), args)
        return 0
    rows = [
        {
            "n": config.n_applicants,
            "cost": config.cost,
            "n_star": tables.threshold,
            "pi": tables.success_probability,
            "expected_tau": expected_stopping_time(config),
            "accept_record_before_threshold": config.cost,
            "accept_record_from_threshold": 1.0,
            "accept_nonrecord": 0.0,
        }
    ]
    _emit(rows, _meta(args), args)
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    n_range = _parse_n_range(args.n_range, args.log_spaced)
    cost_list = _parse_cost_list(args.cost_list)
    configs = [GameConfig(n_apps, cost) for cost in cost_list for n_apps in n_range]
    scales = {cost: limit_constant(cost) for cost in cost_list}
    rows = [
        {
            "n": config.n_applicants,
            "cost": config.cost,
            "n_star": n_star,
            "pi": pi,
            "scaled_pi": config.n_applicants**config.cost * pi,
            "asymptote": scales[config.cost] * config.n_applicants ** (-config.cost),
            "expected_tau": tau,
        }
        for config, (n_star, pi, tau) in zip(configs, _solve_sizes(configs))
    ]
    _emit(rows, _meta(args), args)
    return 0


def _run_asymptotics(args: argparse.Namespace) -> int:
    n_range = _parse_n_range(args.n_range, args.log_spaced)
    report = convergence_report(args.cost, n_range, tolerance=args.tolerance)
    rows = [
        {
            "n": n_apps,
            "n_star": n_star,
            "threshold_lower": lower,
            "threshold_upper": upper,
            "scaled_pi": scaled,
            "limit_constant": report.limit_constant,
            "relative_deviation": deviation,
        }
        for (n_apps, scaled), (_, n_star, lower, upper), deviation in zip(
            report.samples, report.threshold_samples, report.deviations()
        )
    ]
    meta = _meta(
        args,
        cost=report.cost,
        limit_constant=report.limit_constant,
        tolerance=report.tolerance,
        note=report.note,
    )
    _emit(rows, meta, args)
    violations = report.violations()
    if violations:
        for v in violations:
            print(f"asymptotics check failed: {v}", file=sys.stderr)
        return _VERIFICATION_ERROR
    print(report.note, file=sys.stderr)
    return 0


def _run_simulate(args: argparse.Namespace) -> int:
    config = GameConfig(args.n, args.cost)
    # A bad --trials, --seed or --workers fails first, before any work of size N.
    AggregateStats.check_run(args.trials, args.seed, args.workers)
    profile = StrategyProfile.equilibrium(config)
    stats = estimate(config, profile, args.trials, args.seed, workers=args.workers)
    mean_tau_cond = stats.mean_tau_conditional
    rows = [
        {
            "n": config.n_applicants,
            "cost": config.cost,
            "trials": stats.trials,
            "seed": stats.seed,
            "success_rate": stats.success_rate,
            "success_se": stats.success_se,
            "acceptance_rate": stats.acceptance_rate,
            "mean_tau_unconditional": stats.mean_tau_unconditional,
            "mean_tau_conditional": None if math.isnan(mean_tau_cond) else mean_tau_cond,
            "tau_se": stats.tau_se,
        }
    ]
    _emit(rows, _meta(args, seed=args.seed), args)
    return 0


def _run_oracle(args: argparse.Namespace) -> int:
    config = GameConfig(args.n, args.cost)
    tolerance = args.tolerance
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tolerance!r}")
    # An instance too large to enumerate fails first, before any work of
    # size N.  The scan checks its grid and budget before any work; run it
    # next so that a bad --grid-step fails fast, and report its outcome
    # after the other rows.
    ExactEvaluation.require_enumerable(config)
    scan = None
    if args.grid_step is not None:
        try:
            scan = optimality_scan(config, args.grid_step)
        except VerificationError as exc:
            scan = exc
    dp = solve_values(config, tables=False).success_probability
    tau_closed = expected_stopping_time(config)
    closed = tau_closed / config.n_applicants
    exact = exact_evaluation(config, StrategyProfile.equilibrium(config))
    enum_pi = float(exact.success)
    enum_tau = float(exact.expected_tau)
    audit_ok = exact.counterexample is None

    def check(name, a, b, tol=tolerance):
        diff = abs(a - b)
        return {
            "check": name,
            "value_a": a,
            "value_b": b,
            "difference": diff,
            "tolerance": tol,
            "status": "ok" if diff <= tol else "fail",
        }

    rows = [
        check("closed_form_vs_dp", closed, dp),
        check("enumeration_vs_dp", enum_pi, dp),
        check("expected_tau_vs_n_pi", tau_closed, config.n_applicants * dp),
        check("enumeration_tau_vs_n_pi", enum_tau, config.n_applicants * enum_pi),
        check("full_learning_audit", 1.0 if audit_ok else 0.0, 1.0, tol=0.0),
    ]
    scan_failed = isinstance(scan, VerificationError)
    if scan_failed:
        print(f"optimality scan failed: {scan}", file=sys.stderr)
    elif scan is not None:
        rows.append(check("scan_max_vs_dp", scan.max_success, scan.dp_success))
    _emit(rows, _meta(args, tolerance=tolerance), args)
    failed = [r["check"] for r in rows if r["status"] == "fail"]
    for name in failed:
        print(f"verification failed: {name}", file=sys.stderr)
    return _VERIFICATION_ERROR if scan_failed or failed else 0


def run(args: argparse.Namespace) -> int:
    """Execute a parsed invocation; returns the process exit code."""
    try:
        return args.handler(args)
    except BrokenPipeError:
        # The reader stopped early (`| head`): stop quietly, with stdout's
        # descriptor, if it has one, on devnull so that the interpreter's
        # final flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        with contextlib.suppress(AttributeError, OSError, ValueError):
            os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except MemoryError as exc:
        print(f"error: out of memory ({str(exc) or 'allocation failed'})", file=sys.stderr)
        return _USAGE_ERROR
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return _VERIFICATION_ERROR


def _parse_n_range(text: str, log_spaced: bool) -> tuple[int, ...]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"range must look like A:B or A:B:STEP, got {text!r}")
    try:
        lo, hi, *step_or_count = map(int, parts)
    except ValueError:
        form = "A:B:COUNT" if log_spaced else "A:B:STEP"
        raise ValueError(f"range must look like A:B or {form}, got {text!r}") from None
    if lo < 2 or hi < lo:
        raise ValueError(f"range must satisfy 2 <= A <= B, got {text!r}")
    if log_spaced:
        count = step_or_count[0] if step_or_count else 20
        if count < 2:
            raise ValueError("log-spaced range needs a count of at least 2")
        values = np.geomspace(lo, hi, count)
        out = sorted({int(round(v)) for v in values})
        return tuple(out)
    step = step_or_count[0] if step_or_count else 1
    if step < 1:
        raise ValueError("range step must be a positive integer")
    return tuple(range(lo, hi + 1, step))


def _parse_cost_list(text: str) -> tuple[float, ...]:
    costs = tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    if not costs:
        raise ValueError("cost list is empty")
    return costs


# The output pair that every command takes after its own arguments.
_IO_ARGS = (
    ("--format", {"choices": ("csv", "json"), "default": "csv"}),
    ("--out", {"default": None, "help": "output path (default stdout)"}),
)

# Each subcommand's help, handler and own arguments as (flag, add_argument
# keywords), in the order that --help lists them.
_COMMANDS = {
    "solve": ("solve one instance", _run_solve, (
        ("--n", {"type": int, "required": True}),
        ("--cost", {"type": float, "required": True}),
        ("--tables", {"action": "store_true", "help": "emit per-stage values"}),
    )),
    "sweep": ("solve a grid of instances", _run_sweep, (
        ("--n-range", {"required": True,
                       "help": "A:B, A:B:STEP, or A:B:COUNT with --log-spaced"}),
        ("--cost-list", {"required": True, "help": "comma-separated costs"}),
        ("--log-spaced", {"action": "store_true"}),
    )),
    "asymptotics": ("convergence report for one cost", _run_asymptotics, (
        ("--cost", {"type": float, "required": True}),
        ("--n-range", {"required": True}),
        ("--log-spaced", {"action": "store_true"}),
        ("--tolerance", {"type": float, "default": 0.05}),
    )),
    "simulate": ("Monte Carlo under the solved profile", _run_simulate, (
        ("--n", {"type": int, "required": True}),
        ("--cost", {"type": float, "required": True}),
        ("--trials", {"type": int, "required": True}),
        ("--seed", {"type": int, "default": 0}),
        ("--workers", {"type": int, "default": None,
                       "help": "most threads to run (default: every usable CPU); "
                               "the output never depends on it"}),
    )),
    "oracle": ("exact verification of one instance", _run_oracle, (
        ("--n", {"type": int, "required": True}),
        ("--cost", {"type": float, "required": True}),
        ("--grid-step", {"type": float, "default": None, "help": "also run the policy scan"}),
        ("--tolerance", {"type": float, "default": 1e-12}),
    )),
}


def _add_command(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """``parser`` with the arguments and handler of command ``name``."""
    _, handler, arguments = _COMMANDS[name]
    for flag, keywords in arguments + _IO_ARGS:
        parser.add_argument(flag, **keywords)
    parser.set_defaults(handler=handler)
    return parser


def _build_parser() -> argparse.ArgumentParser:
    """The full parser: every subcommand with its help, arguments and
    handler.  main builds it only for help and top-level errors."""
    parser = argparse.ArgumentParser(
        prog="costly-secretary",
        description=(
            "Solve, sweep, simulate, and verify the secretary problem with "
            "applicant-borne interview costs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text), name)
    return parser


@functools.cache
def _pin_mmap_threshold() -> None:
    """Give every allocation of 1 MiB or more its own mapping (glibc only),
    once per process.

    glibc maps a block of at least its mmap threshold and unmaps it when it
    is freed, but by default raises the threshold to the size of each mapped
    block freed, up to 32 MB; larger buffers then come from the heap and can
    leave holes there.  A process that runs several commands then peaks at
    an RSS set by the order of its earlier frees: one ``analytic`` benchmark
    pass read 53 or 59 MB on glibc 2.36, by request order alone.  Pinned at
    1 MiB, above the per-block temporaries of the solver (``_BLOCK``
    doubles) and of a Monte Carlo batch (32768 64-bit words), the threshold
    maps every value table and output document and returns it whole.
    """
    try:
        os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError):  # no confstr, or not glibc
        return
    ctypes.CDLL(None).mallopt(-3, 1 << 20)  # -3 is M_MMAP_THRESHOLD in <malloc.h>


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse ``argv`` (default ``sys.argv[1:]``) and run it; returns the
    exit code.

    When argv[0] names a command, only that command's own parser is built.
    It is the parser that the full one's ``add_parser`` makes (the same
    class and prog), and the full parser, whose only option is ``-h``,
    hands it every string after the command name, to parse into a namespace
    that already holds ``command``; so its help, errors and namespace are
    the full parser's.  The full parser is built only for
    help and top-level errors: when argv[0] is no command (no arguments,
    ``--help``, an unknown command, an option before the command), or when
    the command's parser leaves strings over, which the full parser
    reports as unrecognized with its own usage.
    """
    _pin_mmap_threshold()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = rest = None
        if argv and argv[0] in _COMMANDS:
            own = _add_command(argparse.ArgumentParser(prog=f"costly-secretary {argv[0]}"), argv[0])
            args, rest = own.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if args is None or rest:
            args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else _USAGE_ERROR
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
