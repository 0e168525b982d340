"""The three workloads, generated from the workload seed.

Each workload is a closed loop with one client: requests run one after
another in one process.  A request is a CLI invocation (``cli.main(argv)``,
as users drive the tool) or, where the CLI cannot express the input, one
public library call.  The seed picks the Monte Carlo seeds, the costs of the
``analytic`` and ``monte-carlo`` requests, and the request order.  Instance
sizes are fixed, so the work per pass does not depend on the seed; the costs
in ``exact`` are fixed too, because there the cost sets the scan grid and
the size of the rationals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("analytic", "monte-carlo", "exact")

# Costs the seed draws from.  The analytic outputs are checked against values
# recorded for each of these costs in reference.json.gz.
ANALYTIC_COSTS = ("0.05", "0.1", "0.25", "0.4")
MC_COSTS = ("0.05", "0.1", "0.2", "0.3", "0.4")


@dataclass(frozen=True)
class Request:
    """One request of a workload.

    ``command`` groups requests for the ``cmd.*`` metrics: a CLI subcommand
    or ``library``.  ``kind`` names the check (and, for library requests,
    the call); ``params`` holds what the call and the check need.
    """

    id: str
    command: str
    kind: str
    argv: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)


def _cli(rid: str, kind: str, argv: list[str], **params) -> Request:
    return Request(rid, argv[0], kind, tuple(argv), params)


# Analytic request argv by check kind; ``costs`` is one cost, or two joined
# by a comma for ``sweep_log``.  make_reference.py records each kind per cost.
ANALYTIC_ARGV = {
    "sweep_log": lambda costs: ["sweep", "--n-range", "10:1000000:40", "--cost-list", costs, "--log-spaced"],
    "sweep_lin": lambda costs: ["sweep", "--n-range", "2:2000", "--cost-list", costs],
    "solve_big": lambda cost: ["solve", "--n", "3000000", "--cost", cost],
    "tables_csv": lambda cost: ["solve", "--n", "100000", "--cost", cost, "--tables"],
    "tables_json": lambda cost: ["solve", "--n", "50000", "--cost", cost, "--tables", "--format", "json"],
    "asymptotics": lambda cost: ["asymptotics", "--cost", cost, "--n-range", "100:1000000:5", "--log-spaced"],
}


def _analytic(rng: random.Random) -> list[Request]:
    requests = []
    for kind, argv in ANALYTIC_ARGV.items():
        costs = rng.sample(ANALYTIC_COSTS, 2 if kind == "sweep_log" else 1)
        requests.append(_cli(kind.replace("_", "-"), kind, argv(",".join(costs)), costs=costs))
    return requests


def _monte_carlo(rng: random.Random) -> list[Request]:
    c = [rng.choice(MC_COSTS) for _ in range(4)]
    seeds = [str(rng.randrange(2**32)) for _ in range(4)]
    sim = ["simulate", "--n", "1000", "--cost", c[0], "--trials", "131072", "--seed", seeds[0]]
    return [
        _cli("simulate-2w", "simulate", sim + ["--workers", "2"], twin="simulate-1w"),
        _cli("simulate-1w", "simulate", sim + ["--workers", "1"], twin="simulate-2w"),
        Request("estimate-blind", "library", "estimate_blind",
                params={"n": 1000, "cost": c[1], "trials": 65536, "seed": int(seeds[1])}),
        Request("estimate-deviation", "library", "estimate_deviation",
                params={"n": 1000, "cost": c[2], "trials": 65536, "seed": int(seeds[2])}),
        _cli("simulate-4000", "simulate",
             ["simulate", "--n", "4000", "--cost", c[3], "--trials", "32768", "--seed", seeds[3]]),
    ]


def _exact(rng: random.Random) -> list[Request]:
    return [
        _cli("oracle-8", "oracle", ["oracle", "--n", "8", "--cost", "0.1"]),
        _cli("oracle-5-scan", "oracle", ["oracle", "--n", "5", "--cost", "0.4", "--grid-step", "0.1"]),
        _cli("oracle-6-scan", "oracle", ["oracle", "--n", "6", "--cost", "0.4", "--grid-step", "0.25"]),
        # The README example.  It exits 2 while the scan budget is 5M policies
        # (15^6 = 11.4M are needed); it stays in and counts as failed.
        _cli("oracle-readme", "oracle", ["oracle", "--n", "6", "--cost", "0.4", "--grid-step", "0.1"]),
        Request("exact-blind-8", "library", "exact_blind", params={"n": 8, "cost": "0.1"}),
        Request("state-values-7", "library", "state_values", params={"n": 7, "cost": "0.4"}),
    ]


_BUILDERS = {"analytic": _analytic, "monte-carlo": _monte_carlo, "exact": _exact}


def requests_for(workload: str, seed: int) -> list[Request]:
    """The workload's requests, in the order the seed picks."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    requests = _BUILDERS[workload](rng)
    rng.shuffle(requests)
    return requests
