"""Large-market diagnostics: limit constants, threshold bounds, and
convergence reports for the costly-interview hiring game.

The success probability decays like K * N^(-cost) with
K = e^(cost-1) / Gamma(2-cost); the threshold stage sits between N/e and
(N-1)/e + 2.  The functions here evaluate those constants and bounds and
measure how fast solved instances approach them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .equilibrium import (
    _LOCKSTEP_MIN_LANES,
    GameConfig,
    _as_count,
    _check_cost,
    _solve_sizes,
    solve_values,
)

__all__ = [
    "AsymptoticReport",
    "limit_constant",
    "threshold_bounds",
    "convergence_report",
]


def limit_constant(cost: float) -> float:
    """Limit of N^cost * success probability as N grows: e^(cost-1)/Gamma(2-cost)."""
    cost = _check_cost(cost)
    return math.exp(cost - 1.0) / math.gamma(2.0 - cost)


def threshold_bounds(n_applicants: int) -> tuple[float, float]:
    """Enclosing interval (N/e, (N-1)/e + 2) for the threshold stage."""
    n_applicants = _as_count(n_applicants, 2, "n_applicants")
    return n_applicants / math.e, (n_applicants - 1) / math.e + 2.0


@dataclass(frozen=True)
class AsymptoticReport:
    """Convergence diagnostics for one cost across a ladder of instance sizes.

    ``samples`` holds (N, N^cost * success probability); ``threshold_samples``
    holds (N, threshold, lower bound, upper bound).  ``tolerance`` is the
    declared relative deviation allowed for the final sample; the limit
    theory proves no convergence rate, so the tolerance is empirical (see
    ``note``).
    """

    cost: float
    limit_constant: float
    tolerance: float
    samples: tuple[tuple[int, float], ...]
    threshold_samples: tuple[tuple[int, int, float, float], ...]
    note: str

    def deviations(self) -> list[float]:
        """Relative deviation of each scaled sample from the limit constant."""
        return [abs(s - self.limit_constant) / self.limit_constant for _, s in self.samples]

    def violations(self) -> list[str]:
        """Invariant breaches: threshold outside its bounds, or a final
        scaled value farther from the limit constant than the tolerance."""
        out = []
        for n_apps, n_star, lower, upper in self.threshold_samples:
            if not lower <= n_star <= upper:
                out.append(
                    f"threshold {n_star} at N={n_apps} outside [{lower}, {upper}]"
                )
        final_dev = self.deviations()[-1]
        if not final_dev < self.tolerance:
            out.append(
                f"final scaled value deviates by {final_dev:.3g} "
                f"(declared tolerance {self.tolerance:g})"
            )
        return out


def convergence_report(
    cost: float, n_list: Sequence[int], tolerance: float = 0.05
) -> AsymptoticReport:
    """Solve each instance size and report scaled values and thresholds.

    A ladder shorter than the lockstep lane count of the multi-size solver
    has nothing to share and is solved one size at a time; a longer one is
    solved by that solver, with the same bits as one solve_values call each.

    ``n_list`` must be non-empty and strictly ascending with every entry at
    least 2, and ``tolerance`` must be positive and finite.  The default 5%
    tolerance is an empirical acceptance threshold, not a proved rate.
    """
    cost = _check_cost(cost)
    sizes = [_as_count(n, 2, "n_list entry") for n in n_list]
    if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("n_list must be non-empty and strictly ascending")
    if not 0.0 < tolerance:
        raise ValueError("tolerance must be positive")
    if tolerance == math.inf:
        raise ValueError("tolerance must be finite")
    samples = []
    thresholds = []
    configs = [GameConfig(n, cost) for n in sizes]
    if len(configs) < _LOCKSTEP_MIN_LANES:
        tables = [solve_values(config, tables=False) for config in configs]
        solved = [(t.threshold, t.success_probability, None) for t in tables]
    else:
        solved = _solve_sizes(configs, stopping_times=False)
    for n_apps, (n_star, pi, _) in zip(sizes, solved):
        samples.append((n_apps, n_apps**cost * pi))
        lower, upper = threshold_bounds(n_apps)
        thresholds.append((n_apps, n_star, lower, upper))
    note = (
        f"tolerance {tolerance:g} is an empirical acceptance threshold; "
        "the limit theory provides no convergence rate"
    )
    return AsymptoticReport(
        cost=cost,
        limit_constant=limit_constant(cost),
        tolerance=float(tolerance),
        samples=tuple(samples),
        threshold_samples=tuple(thresholds),
        note=note,
    )
