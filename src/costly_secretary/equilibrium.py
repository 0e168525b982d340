"""Backward-induction solver for the costly-interview hiring game.

An administrator interviews N applicants in uniformly random order and wants
to hire the overall best.  Completing an interview costs each applicant a
fraction ``cost`` of the job's value, so a current-best applicant only shows
their ability when the acceptance probability covers the cost.  This module
computes the threshold stage, the per-stage continuation values, and closed
forms for the success probability and the expected length of search; the
acceptance plan they solve for is ``simulator.StrategyProfile.equilibrium``.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "GameConfig",
    "ValueTables",
    "compute_threshold",
    "compute_threshold_sequence",
    "solve_values",
    "record_survival_product",
    "closed_form_success",
    "expected_stopping_time",
]


def _as_count(value, minimum: int, name: str) -> int:
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got a bool")
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def _check_cost(cost: float) -> float:
    cost = float(cost)
    if not math.isfinite(cost) or not 0.0 <= cost < 1.0:
        raise ValueError(f"cost must lie in [0, 1), got {cost!r}")
    return cost + 0.0  # -0.0 becomes 0.0, so a zero cost always prints as 0


@dataclass(frozen=True)
class GameConfig:
    """A single hiring instance.

    ``n_applicants`` is the number of applicants interviewed in random order;
    ``cost`` is the interview-completion cost paid by an applicant, expressed
    as a fraction of the job's value.
    """

    n_applicants: int
    cost: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "n_applicants", _as_count(self.n_applicants, 2, "n_applicants")
        )
        object.__setattr__(self, "cost", _check_cost(self.cost))


# Stages per vectorized block: bounds the temporaries of solve_values,
# record_survival_product and _reciprocal_total to a few hundred kB whatever N is.
_BLOCK = 1 << 14
# Graham-Knuth-Patashnik (9.89): H_m = ln m + gamma + 1/(2m) - 1/(12m^2)
# + 1/(120m^4) - eps with 0 < eps < 1/(252 m^6), so _tail_estimate(N, n)
# errs from the real tail sum by under 1/(252 (n-1)^6) plus its roundings,
# which stay under ~1e-15; the exact tail sum errs by under ~3e-16 (the
# roundings of each 1.0/k and of the total).  compute_threshold certifies
# n against 1 with this margin plus 1/(252 (n-2)^6), which covers the
# estimates of both T(n) and T(n-1), so a comparison that clears it comes
# out the same in the estimate and in the exact sum.
_THRESHOLD_MARGIN = 1e-12
# The exact tail sum of the fallback runs once over about 0.63 N terms
# (about 7 s at N = 1e9 on a 2-core host); above this size
# compute_threshold refuses instead of running it.
_LOOP_MAX_N = 10**9
# _solve_sizes runs in lockstep only the stages where at least this many
# instances are in their head stages.  On a 2-core x86-64 host (Python
# 3.11, numpy 2.4), one numpy step of five ufuncs over 48 lanes took
# 2.5-4.1 us and a scalar head stage 0.076-0.10 us per instance (six runs
# of each), so they break even between about 26 and 54 lanes, near 32 in
# most runs; 48 stays until an end-to-end measurement moves it.
_LOCKSTEP_MIN_LANES = 48


def _harmonic_correction(m: int) -> float:
    """H_m - ln m - Euler's gamma, to the 1/(120 m^4) term."""
    m = float(m)
    inv2 = 1.0 / (m * m)
    return 0.5 / m - inv2 / 12.0 + inv2 * inv2 / 120.0


def _tail_estimate(n_apps: int, n: int) -> float:
    """sum_{k=n}^{N-1} 1/k = H_{N-1} - H_{n-1} by Euler-Maclaurin."""
    return (
        math.log((n_apps - 1) / (n - 1))
        + _harmonic_correction(n_apps - 1)
        - _harmonic_correction(n - 1)
    )


def compute_threshold(n_applicants: int) -> int:
    """First stage from which a current-best applicant is accepted outright.

    Returns the least n with sum_{k=n}^{N-1} 1/k <= 1, by one of two routes:

    - The tail sums near N/e are estimated in O(1) by the Euler-Maclaurin
      expansion of the harmonic numbers, stepping n until T(n) <= 1 <
      T(n-1); that n is returned only when both estimates clear 1 by
      _THRESHOLD_MARGIN (1e-12) plus 1/(252 (n-2)^6), more than the
      combined error of the estimate and of the exact sums below, so the
      answer is theirs.  Up to N = 1e6 only N <= 4 miss the margin; a few
      larger sizes whose tail sum lies that close to 1 miss it too (N =
      15,872,517 is one), and from about 1e12 on (1/n* nears it) all do.
    - An estimate that does not clear the margin: n is stepped the same way
      on the tail sums of the doubles 1.0/k, each correctly rounded once
      (the exact integer total of _reciprocal_total, which the closed form
      also uses), so only a sum within about 3e-16 of 1 could come out on
      the wrong side.  The total is summed once, over about 0.63 N terms,
      and each step adds or removes one exact term; this runs only up to
      N = 1e9: above it, an undecided estimate raises ValueError instead.
    """
    n_applicants = _as_count(n_applicants, 2, "n_applicants")
    # the estimate brackets n >= 3 only (T(n-1) needs n-1 >= 2); the exact
    # sums settle the smaller thresholds, of N <= 4
    n = max(int((n_applicants - 1) / math.e) + 1, 3)
    while _tail_estimate(n_applicants, n) > 1.0:
        n += 1
    while n > 3 and _tail_estimate(n_applicants, n - 1) <= 1.0:
        n -= 1
    margin = _THRESHOLD_MARGIN + 1 / (252 * (n - 2) ** 6)
    if (
        _tail_estimate(n_applicants, n) <= 1.0 - margin
        and _tail_estimate(n_applicants, n - 1) > 1.0 + margin
    ):
        return n
    if n_applicants > _LOOP_MAX_N:
        raise ValueError(
            f"cannot settle the threshold for n_applicants={n_applicants}: "
            f"its tail-sum estimate is within {margin:g} of 1, and "
            f"the exact sum would take about {0.63 * n_applicants:.1e} steps "
            f"(it is run only up to n_applicants={_LOOP_MAX_N})"
        )
    # the last term 1/(N-1) alone is at most 1, so n stops by N - 1
    n = min(n, n_applicants - 1)
    (total,), unit = _reciprocal_total(n, n_applicants)

    def term(k: int) -> int:  # the double 1.0/k in units, exactly
        return int(math.ldexp(1.0 / k, -unit))

    while _round_total(total, unit) > 1.0:
        total -= term(n)
        n += 1
    while n > 1 and _round_total(total + term(n - 1), unit) <= 1.0:
        n -= 1
        total += term(n)
    return n


def compute_threshold_sequence(max_applicants: int) -> np.ndarray:
    """Thresholds for every instance size 2..max_applicants in one pass.

    Entry [N] of the returned array is compute_threshold(N); entries 0 and 1
    are zero.  The harmonic numbers H_m are a running sum plus the running sum
    of each step's exact TwoSum rounding error.  n*(N) is then the least n with
    H_{N-1} - H_{n-1} <= 1, found for every N at once by one binary search;
    nothing assumes that the threshold grows with N.
    """
    max_applicants = _as_count(max_applicants, 2, "max_applicants")
    terms = 1.0 / np.arange(1.0, max_applicants)
    sums = np.cumsum(terms)
    # TwoSum: the exact rounding error of each step of the running sum
    delta = sums[1:] - sums[:-1]
    err = (sums[:-1] - (sums[1:] - delta)) + (terms[1:] - delta)
    harmonic = np.zeros(max_applicants, dtype=np.float64)  # harmonic[m] = H_m
    harmonic[1:] = sums
    harmonic[2:] += np.cumsum(err)
    out = np.zeros(max_applicants + 1, dtype=np.int64)
    out[2:] = np.searchsorted(harmonic, harmonic[1:] - 1.0, side="left") + 1
    return out


@dataclass(frozen=True, eq=False)
class ValueTables:
    """Per-stage normalized continuation values for one instance.

    ``v0[n]`` / ``v1[n]`` is the value per remaining candidate when applicant
    n is dominated / the current best (index 0 is unused and set to NaN);
    both are None when the instance was solved with ``tables=False``.
    ``threshold`` is the stage from which a current best is accepted with
    probability one, and ``success_probability`` is v1[1], the probability of
    hiring the overall best under the solved policy.
    """

    config: GameConfig
    v0: np.ndarray | None
    v1: np.ndarray | None
    threshold: int
    success_probability: float


def _check_fits(need: int, what: str) -> None:
    """Raise MemoryError before allocating ``need`` bytes for ``what`` when
    that is more than the host's physical memory (skipped where it is
    unknown)."""
    names = getattr(os, "sysconf_names", {})
    if "SC_PHYS_PAGES" not in names or "SC_PAGE_SIZE" not in names:
        return
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if 0 < have < need:
        raise MemoryError(
            f"{what} need {need} bytes, more than the {have} bytes of physical memory"
        )


def solve_values(config: GameConfig, *, tables: bool = True) -> ValueTables:
    """Solve the stage values by backward induction.

    Boundary: v0[N] = 0 and v1[N] = 1/N.  Recursion, for n = N-1 down to 1:

        v0[n] = v1[n+1] / n + v0[n+1]
        v1[n] = max(cost/N + (1 - cost) * v0[n], 1/N)

    The max picks between accepting a current best with the incentive-minimum
    probability (cost) and accepting it outright.  While it picks the floor
    1/N (about the stages from the threshold on), v0 is a running sum of
    (1/N)/n.  Those tail stages are computed in numpy blocks of at most
    _BLOCK stages from N-1 down, with a sequential running sum that adds in
    the loop's order, until the first stage whose max does not pick the
    floor; that stage is found from the recursion's own floats, not from
    compute_threshold.  The remaining ~N/e head stages run one at a time in
    Python.  Every stage gets the same floating-point operations either way,
    so the tables are the same bits as a plain stage loop's.  That recursion
    is _descend, which here stops after stage 1; the multi-size solver
    (_solve_sizes) stops it at its lockstep cut instead, to run each of the
    largest instances alone down to there.

    With ``tables=False`` nothing of size N is allocated: the same recursion
    carries only the current v0 and v1 and one block, and the result has
    ``v0 = v1 = None`` and the same ``threshold`` and ``success_probability``
    bits.  With ``tables=True``, two tables larger than the host's physical
    memory raise MemoryError before any allocation.
    """
    n_apps = config.n_applicants
    v0 = v1 = None
    if tables:
        _check_fits(16 * (n_apps + 1), f"the value tables for n_applicants={n_apps}")
        v0 = np.empty(n_apps + 1, dtype=np.float64)
        v1 = np.empty(n_apps + 1, dtype=np.float64)
        v0[0] = v1[0] = math.nan
        v0[n_apps] = 0.0
        v1[n_apps] = 1.0 / n_apps
    _, success = _descend(n_apps, config.cost, 0, v0, v1)
    return ValueTables(
        config=config,
        v0=v0,
        v1=v1,
        threshold=compute_threshold(n_apps),
        success_probability=success,
    )


def _descend(
    n_apps: int,
    cost: float,
    stop: int,
    v0: np.ndarray | None = None,
    v1: np.ndarray | None = None,
) -> tuple[float, float]:
    """solve_values's recursion from the stage-N boundary down to stage
    stop + 1 (solve_values stops at 0): returns v0 and v1 there, and stores
    each stage solved into the tables v0 and v1 when they are given."""
    floor = 1.0 / n_apps
    pay = cost / n_apps
    keep = 1.0 - cost
    prev0 = 0.0
    prev1 = floor
    top = n_apps - 1  # the highest stage not yet solved
    while top > stop:
        size = min(top - stop, _BLOCK)
        # x[0] is the carried v0[top + 1]; x[k] becomes v0[top + 1 - k]
        x = np.empty(size + 1, dtype=np.float64)
        x[0] = prev0
        np.divide(floor, np.arange(top, top - size, -1, dtype=np.float64), out=x[1:])
        np.add.accumulate(x, out=x)
        stops = pay + keep * x[1:] >= floor
        done = int(stops.argmax()) if stops.any() else size
        if v0 is not None:
            v0[top - done + 1 : top + 1] = x[done:0:-1]
            v1[top - done + 1 : top + 1] = floor
        prev0 = float(x[done])
        top -= done
        if done < size:
            break
    # The head stages, one at a time: the same operations whether stored or
    # not.  The max never picks the floor here: the first head stage is the
    # one whose max stopped the block above, and below it v0 only grows.
    if v0 is not None:
        out0 = memoryview(v0)
        out1 = memoryview(v1)
        for n in range(top, stop, -1):
            prev0 = prev1 / n + prev0
            prev1 = pay + keep * prev0
            out0[n] = prev0
            out1[n] = prev1
    else:
        for n in range(top, stop, -1):
            prev0 = prev1 / n + prev0
            prev1 = pay + keep * prev0
    return prev0, prev1


def record_survival_product(n: int, cost: float) -> float:
    """prod_{k=1}^{n} (1 - cost/k), with the empty product equal to 1.

    This is the probability that no current-best applicant has been accepted
    through stage n while every current best is accepted with probability
    ``cost``.  Always in (0, 1].  The factors are multiplied in blocks of at
    most _BLOCK, so the memory used does not grow with n.
    """
    n = _as_count(n, 0, "n")
    cost = _check_cost(cost)
    product = 1.0
    for lo in range(1, n + 1, _BLOCK):
        factors = 1.0 - cost / np.arange(lo, min(lo + _BLOCK, n + 1), dtype=np.float64)
        product *= float(np.prod(factors))
    return product


def _reciprocal_total(*points: int) -> tuple[list[int], int]:
    """The sums of the doubles 1.0/k exactly between sorted breakpoints
    1 <= points[0] < points[1] < ...: returns (totals, unit) with totals[i]
    * 2**unit equal to sum_{k=points[i]}^{points[i+1]-1} 1.0/k, where
    2**unit is the spacing of the doubles at the last term
    1.0/(points[-1]-1), so any 1.0/k with k < points[-1] is a whole number
    of units.

    Each term is m * 2^(e-1075) for its 53-bit mantissa m and biased
    exponent e.  Per block of at most _BLOCK terms, the mantissas of each
    segment (a run of equal exponent, as 1.0/k falls, cut again at each
    breakpoint) are summed exactly in int64 as 27- and 26-bit halves, each
    sum below 2^27 * _BLOCK = 2^41, by one np.add.reduceat.  The segment
    sums are shifted into one Python int per breakpoint interval over the
    smallest exponent.
    """
    unit = math.frexp(1.0 / (points[-1] - 1))[1] - 53
    e_min = unit + 1075  # biased exponent of the last term
    bounds = np.array(points, dtype=np.int64)
    totals = [0] * (len(points) - 1)
    for start in range(points[0], points[-1], _BLOCK):
        stop = min(start + _BLOCK, points[-1])
        bits = (1.0 / np.arange(start, stop, dtype=np.float64)).view(np.int64)
        exps = bits >> 52
        inner = bounds[np.searchsorted(bounds, start) : np.searchsorted(bounds, stop)]
        cuts = np.diff(exps, prepend=0) != 0
        cuts[inner - start] = True
        segments = np.flatnonzero(cuts)
        intervals = np.searchsorted(bounds, start + segments, "right") - 1
        bits &= (1 << 52) - 1
        bits |= 1 << 52
        high = np.add.reduceat(bits >> 26, segments).tolist()
        low = np.add.reduceat(bits & ((1 << 26) - 1), segments).tolist()
        for i, e, h, l in zip(intervals.tolist(), exps[segments].tolist(), high, low):
            totals[i] += ((h << 26) + l) << (e - e_min)
    return totals, unit


def _round_total(total: int, unit: int) -> float:
    """total * 2**unit, correctly rounded once (by float())."""
    return math.ldexp(float(total), unit)


def expected_stopping_time(config: GameConfig) -> float:
    """Expected index of the accepted applicant, by the closed form.

    Trials where nobody is accepted contribute zero to the expectation.  The
    value is N times the success probability (see _acceptance_masses), so
    closed_form_success reads it off.
    """
    n_apps = config.n_applicants
    return _acceptance_masses([config], {n_apps: compute_threshold(n_apps)})[0]


def closed_form_success(config: GameConfig) -> float:
    """Success probability without running the backward induction:
    expected_stopping_time(config) / N.

    Agrees with solve_values(config).success_probability to well below
    1e-12 on moderate instance sizes.
    """
    return expected_stopping_time(config) / config.n_applicants


def _solve_sizes(
    configs: Sequence[GameConfig], *, stopping_times: bool = True
) -> list[tuple[int, float, float | None]]:
    """(threshold, success probability, expected stopping time) of each
    instance: the same bits as solve_values(config, tables=False) and
    expected_stopping_time(config).  The stopping time is None when
    ``stopping_times`` is false.

    Every stage n < N of every instance runs the same floating-point step,
    v0 = v1/n + v0 then v1 = max(cost/N + (1-cost) v0, 1/N), so the
    backward inductions run in lockstep (_lockstep_successes), and the
    closed forms of every size come from one pass (_acceptance_masses).
    """
    thresholds = {n: compute_threshold(n) for n in {c.n_applicants for c in configs}}
    successes = _lockstep_successes(configs, thresholds)
    if stopping_times:
        taus = _acceptance_masses(configs, thresholds)
    else:
        taus = [None] * len(configs)
    return [
        (thresholds[c.n_applicants], pi, tau)
        for c, pi, tau in zip(configs, successes, taus)
    ]


def _lockstep_successes(
    configs: Sequence[GameConfig], thresholds: dict[int, int]
) -> list[float]:
    """v1[1] of each instance by one backward descent over all of them.

    The lanes, one per instance, are sorted by N from the largest, so the
    lanes with N > n are a prefix of the lane arrays.  The cut stage m is
    the threshold of lane _LOCKSTEP_MIN_LANES (n* grows with N), so below
    it at least that many lanes are in their head stages; with fewer lanes
    the cut is stage 1.  Each instance larger than m runs solve_values's
    recursion (_descend) alone down to stage m, and every stage n < m is one
    numpy step over the lanes with N > n, each lane starting from its
    stage-N boundary when n reaches N-1.  At cut 1 every lane runs alone to
    stage 1, which is solve_values(config, tables=False), and no step runs.
    """
    order = sorted(range(len(configs)), key=lambda i: configs[i].n_applicants, reverse=True)
    sizes = np.array([configs[i].n_applicants for i in order], dtype=np.int64)
    costs = np.array([configs[i].cost for i in order], dtype=np.float64)
    floor = 1.0 / sizes
    pay = costs / sizes
    keep = 1.0 - costs
    v0 = np.zeros(len(order))
    v1 = floor.copy()
    cut = 1
    if len(order) >= _LOCKSTEP_MIN_LANES:
        cut = thresholds[int(sizes[_LOCKSTEP_MIN_LANES - 1])]
    for lane in range(int(np.count_nonzero(sizes > cut))):
        v0[lane], v1[lane] = _descend(int(sizes[lane]), float(costs[lane]), cut - 1)
    stages = np.arange(cut - 1, 0, -1)
    active = np.searchsorted(-sizes, -stages)  # the count of lanes with N > n
    step = np.empty_like(v0)
    runs = itertools.groupby(zip(stages.tolist(), active.tolist()), operator.itemgetter(1))
    for a, run in runs:  # slice once per lane count: 15 slices cost as much as a step
        x0, x1, t = v0[:a], v1[:a], step[:a]
        keep_a, pay_a, floor_a = keep[:a], pay[:a], floor[:a]
        for n, _ in run:
            np.divide(x1, n, out=t)
            np.add(t, x0, out=x0)
            np.multiply(keep_a, x0, out=t)
            np.add(pay_a, t, out=t)
            np.maximum(t, floor_a, out=x1)
    out = np.empty(len(order))
    out[order] = v1
    return out.tolist()


def _acceptance_masses(configs: Sequence[GameConfig], thresholds: dict[int, int]) -> list[float]:
    """N * success probability of each instance, given n* of each size: the
    one closed-form driver.

    The same quantity is the expected index of the accepted applicant (with
    no acceptance contributing zero), so both public closed forms read off
    this value and the stopping-time identity holds to a rounding error.

    With S_k = record_survival_product(k, cost), the mass is
    cost * sum_{k=0}^{n*-2} S_k + (n*-1) * S_{n*-1} * sum_{k=n*-1}^{N-1} 1/k.
    The S_k are rising factorials over k!, so sum_{k=0}^{m} S_k telescopes to
    S_m (m+1-cost)/(1-cost), and (n*-1) S_{n*-1} = S_{n*-2} (n*-1-cost):

        N * pi = S_{n*-2} * (n*-1-cost) * (cost/(1-cost) + sum_{k=n*-1}^{N-1} 1/k)

    Only the harmonic tail is summed, exactly: the sum of the doubles 1.0/k,
    correctly rounded once, the bits of math.fsum over the same terms.  The
    tails do not depend on the cost: one pass of _reciprocal_total over the
    sorted breakpoints n*-1 and N of every size gives exact integer totals,
    and each tail is a difference of their running sums.  S_{n*-2} is taken
    from record_survival_product once per distinct (n*, cost).
    At N = 2 the threshold is 1 and S_{n*-2} is undefined; there stage 1 is
    always a current best, accepted outright, so the mass is 1.
    """
    sizes = [n for n, n_star in thresholds.items() if n_star > 1]
    tails = {}
    if sizes:
        points = sorted({thresholds[n] - 1 for n in sizes}.union(sizes))
        totals, unit = _reciprocal_total(*points)
        running = dict(zip(points, itertools.accumulate(totals, initial=0)))
        tails = {n: _round_total(running[n] - running[thresholds[n] - 1], unit) for n in sizes}
    survivals = {}
    masses = []
    for config in configs:
        n_star = thresholds[config.n_applicants]
        if n_star == 1:
            masses.append(1.0)
            continue
        cost = config.cost
        key = (n_star, cost)
        if key not in survivals:
            survivals[key] = record_survival_product(n_star - 2, cost)
        tail = tails[config.n_applicants]
        masses.append(survivals[key] * (n_star - 1 - cost) * (cost / (1.0 - cost) + tail))
    return masses
