"""Record the analytic outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Runs every analytic request kind once per cost in ANALYTIC_COSTS through
``cli.main`` and writes the parsed rows to perfbench/reference.json.gz.  Run
it only on a commit whose analytic outputs are trusted; the checks then hold
later commits to these values within 1e-12.
"""

from __future__ import annotations

import gzip
import io
import json
import math
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench.checks import REFERENCE, parse_csv, parse_json_rows  # noqa: E402
from perfbench.workloads import ANALYTIC_ARGV, ANALYTIC_COSTS  # noqa: E402


def _run(argv: list[str]) -> str:
    from costly_secretary import cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return out.getvalue()


def tables_summary(header: list[str], rows: list[list]) -> dict:
    """Row count, about 50 evenly spaced rows plus the rows around n*, and
    compensated column sums."""
    n_rows = len(rows)
    accept = header.index("accept_record")
    n_star = next(i + 1 for i, row in enumerate(rows) if row[accept] == 1)
    stages = set(range(1, n_rows + 1, max(1, n_rows // 50))) | {n_rows, n_star - 1, n_star, n_star + 1}
    return {
        "header": header,
        "n_rows": n_rows,
        "sample": {str(s): rows[s - 1] for s in sorted(stages) if 1 <= s <= n_rows},
        "sums": {col: math.fsum(float(r[j]) for r in rows) for j, col in enumerate(header)},
    }


def main() -> int:
    ref: dict[str, dict] = {kind: {} for kind in ANALYTIC_ARGV}
    for cost in ANALYTIC_COSTS:
        for kind, argv in ANALYTIC_ARGV.items():
            text = _run(argv(cost))
            if kind == "tables_json":
                meta, header, rows = parse_json_rows(text)
                ref[kind][cost] = dict(tables_summary(header, rows), meta=meta)
            elif kind == "tables_csv":
                ref[kind][cost] = tables_summary(*parse_csv(text))
            else:
                header, rows = parse_csv(text)
                ref[kind][cost] = {"header": header, "rows": rows}
            print(f"{kind} cost={cost}: ok", file=sys.stderr)
    with gzip.GzipFile(REFERENCE, "wb", mtime=0) as raw:
        raw.write(json.dumps(ref, sort_keys=True).encode())
    print(f"wrote {REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
