"""Exact desk-scale evaluation of stage plans, as ``PolicySpec.plan`` and
``StrategyProfile.plan`` read them, for the costly-interview hiring game.

Everything here is deliberately independent of the backward-induction
solver: success probabilities are exact averages over all N! arrival
orders of the acceptance probabilities propagated along each order.  The
walk that computes them carries integer numerators over the common
denominator of the acceptance probabilities stage by stage, and lumps the
order prefixes by what decides their future: below a prefix the ranks
still to arrive come in uniformly random order, so all that matters is
how many of them lie above the best rank revealed so far and whether the
top rank is among them.  That bounds the work by O(N^2) states instead of
the N! orders.  ``exact_evaluation`` runs that walk once per plan for the
success probability and the expected stopping index.  The first prefix on
which full learning breaks, if any, lies at the first stage that reveals
nothing, behind the first prefix that reaches it, and is built in O(N)
steps.  ``exact_state_value`` starts the walk at a
later stage.  On top of that sit a fast stage recursion, vectorized over
policies (cross-checked against the enumeration), and an exhaustive
policy-space scan that looks for anything beating the solved policy.  The
scan shares the recursion between policies with the same leading options:
it walks the stages depth first, expanding pieces of at most
``_BLOCK // 4 // base`` states (base options per stage) by one stage at a
time, so it holds at most one expansion of ``_BLOCK // 4`` states per
stage, a ``tracemalloc`` peak of about 1.1 MB at the deepest admitted scan
(N = 14), whatever the grid.  The last stage is bounded before it is run:
each stage-(N - 1) state's q = 1 leaf is its largest, so only the states
whose q = 1 leaf can still rise or tie have their leaves computed and
folded, and a skipped leaf lies provably more than 1e-12 below the fold's
running maximum.  The scan still covers every gridded policy."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .equilibrium import _BLOCK, GameConfig, _as_count, solve_values
from .simulator import PolicySpec, StrategyProfile

__all__ = [
    "VerificationError",
    "ScanReport",
    "ExactEvaluation",
    "exact_evaluation",
    "exact_success_probability",
    "policy_success_probability",
    "optimality_scan",
    "exact_state_value",
]

_MAX_ENUM = 10
_MAX_POLICIES = 5_000_000
_MAX_KEPT = 256


class VerificationError(RuntimeError):
    """An exact check that should hold for the solved policy failed."""


def _lumped_walk(
    reveals: Sequence[bool], probs: Sequence[float | Fraction], stage: int = 1, state: int = 1
) -> tuple[Fraction, Fraction, int]:
    """Sum, from ``stage`` on, over every arrival order in which the
    stage's applicant is (state 1) or is not (state 0) the best so far;
    from stage 1 in state 1 that is all N! orders.

    ``reveals`` and ``probs`` are a stage plan: at a revealing stage only a
    new best completes and may be accepted, at any other stage the
    acceptance is blind.  Per order the only randomness left is the
    administrator's coin flips, so the surviving probability mass is
    carried along the order and hiring-the-best and stopping-index mass
    accumulate at each acceptance opportunity.  The probabilities enter
    exactly (floats too), the mass is carried as integer numerators over
    the product of their denominators, and the mass met at stage k is
    weighted by the (N - k)! orders that complete its prefix.

    Below a prefix the ranks still to arrive come in uniformly random
    order, so what happens there depends only on how many of them lie
    above the best rank revealed so far (a) and whether rank N is among
    them (b).  The walk carries the summed mass of the prefixes in each
    (a, b) state, at most 2(N + 1) numbers per stage, and steps each in
    O(1):
    - at a revealing stage, an arrival above the best revealed becomes it
      and leaves a' uniform on 0..a - 1, with rank N still to come iff
      a' > 0 and b; an arrival below leaves the state as it is;
    - at a blind stage every arrival is offered: rank N leaves (a - 1, 0),
      another arrival above leaves (a - 1, b), one below leaves (a, b).
    The ranks that arrive before ``stage`` are taken as revealed: the head
    sets with maximum M, C(M - 1, stage - 2) of them with (stage - 1)!
    orderings each, leave a = N - M.  At ``stage`` itself only the
    arrivals above the best revealed (state 1) or below it (state 0) play.

    Returns the summed success and stopping-index masses as Fractions and
    the number of orders summed over.
    """
    n_apps = len(probs)
    start = stage - 1
    exact = [Fraction(q) for q in probs]
    offer = [q.numerator for q in exact]
    den = [q.denominator for q in exact]
    # Mass offered at stage idx, per unit entering it, is a numerator over
    # den[idx]; tail[idx] brings it over den[idx + 1 :] too and weights it
    # by the orders that complete its prefix.
    tail = [1] * n_apps
    for idx in range(n_apps - 1, start, -1):
        tail[idx - 1] = tail[idx] * den[idx] * (n_apps - idx)
    # mass[b][a]: the prefixes in state (a, b), times their coin numerators
    # over den[start:idx]
    mass = [[0] * (n_apps - start + 1) for _ in range(2)]
    if start:
        for top in range(start, n_apps + 1):
            mass[top < n_apps][n_apps - top] = math.comb(top - 1, start - 1)
    else:
        mass[1][n_apps] = 1
    count = sum(
        m * (a if state else n_apps - start - a) for row in mass for a, m in enumerate(row)
    )
    success = stop = 0
    for idx in range(start, n_apps):
        left = n_apps - idx
        up = idx > start or state == 1
        down = idx > start or state == 0
        reveal = reveals[idx]
        keep = den[idx] - offer[idx]
        win = offer[idx] * tail[idx]
        # rank N is one of the arrivals above, where b = 1
        success += win * up * sum(mass[1])
        plays = [up * a + (down and not reveal) * (left - a) for a in range(left + 1)]
        stop += win * (idx + 1) * sum(m * k for row in mass for m, k in zip(row, plays))
        nxt = [[0] * left for _ in range(2)]
        stay = den[idx] if reveal else keep
        for b in range(2):
            row = mass[b]
            if down:
                for a in range(left):
                    nxt[b][a] += stay * (left - a) * row[a]
            if not (up and keep):
                continue
            if reveal:
                # the new best leaves each of a' = a - 1, ..., 0 above it
                # once, so a' gathers the mass of every state above it
                run = 0
                for a in range(left, 0, -1):
                    run += row[a]
                    nxt[b if a > 1 else 0][a - 1] += keep * run
            else:
                # rank N (where b = 1) leaves (a - 1, 0), the other a - b
                # arrivals above leave (a - 1, b)
                for a in range(1, left + 1):
                    nxt[b][a - 1] += keep * (a - b) * row[a]
                    nxt[0][a - 1] += keep * b * row[a]
        mass = nxt
    heads = math.factorial(start)
    total = math.prod(den[start:])
    count *= heads * math.factorial(n_apps - stage)
    return Fraction(success * heads, total), Fraction(stop * heads, total), count


def _first_break(
    reveals: Sequence[bool], probs: Sequence[float | Fraction]
) -> Optional[tuple[tuple[int, ...], int]]:
    """The first (rank order, stage) at which a non-revealing stage holds a
    new best on a reachable prefix, from stage 1; None if there is none.

    "First" is the order in which a depth-first search over order prefixes,
    in lexicographic order, meets the breaks: the break's prefix completed
    by the remaining ranks in ascending order.  A prefix behind a certain
    acceptance is unreachable.

    Every break passes the first non-revealing stage b, so the first break
    lies below the first prefix that reaches b.  Before b a stage that may
    decline (q < 1) passes any arrival, and one with q = 1 only an arrival
    below the best revealed, so the first prefix gives each stage that may
    decline the smallest rank that leaves one rank below it for each q = 1
    stage up to the next stage that may decline (or b), and those stages
    the ranks below it in ascending order.  It holds ranks 1, ..., b - 1,
    so every rank still to come lies above the best revealed, and the
    first of them breaks at b.  No prefix reaches b if stage 1 reveals and
    has q = 1, since its arrival is always a new best.  O(N) steps.
    """
    n_apps = len(probs)
    blind = next((idx for idx, reveal in enumerate(reveals) if not reveal), None)
    if blind is None:
        return None
    free = [idx for idx in range(blind) if probs[idx] != 1] + [blind]
    if free[0]:  # stage 1 reveals and accepts its new best for certain
        return None
    order = list(range(1, n_apps + 1))
    for start, end in zip(free, free[1:]):
        order[start:end] = [end, *range(start + 1, end)]
    return tuple(order), blind + 1


@dataclass(frozen=True)
class ExactEvaluation:
    """One plan's exact evaluation, averaged over all N! arrival orders.

    ``success`` is the probability of hiring the overall best and
    ``expected_tau`` the expected stopping index (zero when nobody is
    accepted).  For the solved plan expected_tau equals N times success in
    exact arithmetic, because a record accepted at stage n is the overall
    best with probability exactly n/N.  ``counterexample`` is the first
    (rank order, stage) of a reachable prefix on which the running maximum
    of outputs differs from the running maximum of abilities, which is
    where a stage that reveals nothing holds a new best; None when the plan
    keeps full learning.  Prefixes behind a certain acceptance are
    unreachable and are not checked.
    """

    success: Fraction
    expected_tau: Fraction
    counterexample: Optional[tuple[tuple[int, ...], int]]

    @staticmethod
    def require_enumerable(config: GameConfig) -> None:
        """Raise ValueError for an instance too large for the exact checks
        (N > 10), before anything of size N is built.  The walk takes O(N^2)
        states and the counterexample O(N) steps, but the walk's
        integers grow with N and with the plan's denominators, so the limit
        stays until one is set from measured work."""
        if config.n_applicants > _MAX_ENUM:
            raise ValueError(f"enumeration supports at most {_MAX_ENUM} applicants")


def exact_evaluation(config: GameConfig, plan: PolicySpec | StrategyProfile) -> ExactEvaluation:
    """Evaluate a policy or profile exactly, over all N! arrival orders:
    one lumped walk from stage 1 gives the success probability and expected
    stopping index, and ``_first_break`` the counterexample, if any."""
    ExactEvaluation.require_enumerable(config)
    reveals, probs = plan.plan(config)
    success, tau_mass, count = _lumped_walk(reveals, probs)
    return ExactEvaluation(success / count, tau_mass / count, _first_break(reveals, probs))


def exact_success_probability(config: GameConfig, policy: PolicySpec) -> Fraction:
    """Probability of hiring the overall best, by exhaustive enumeration:
    the ``success`` of ``exact_evaluation``.

    Exact rational result; convert with float() as needed.
    """
    return exact_evaluation(config, policy).success


def policy_success_probability(config: GameConfig, policy: PolicySpec | StrategyProfile) -> float:
    """Success probability of a policy by an O(N) stage recursion.

    Within the completing subsequence of stages, the j-th completed
    interview reveals a new maximum with probability 1/j independently, and
    an acceptance there hires the overall best with probability j/N; a blind
    acceptance hires the best with probability 1/N.  The recursion carries
    the surviving probability mass across stages.  The policy scan runs the
    same arithmetic, vectorized over policies; the test suite checks its
    leaves against this function bit for bit, and this function against the
    exhaustive enumeration.
    """
    reveals, probs = policy.plan(config)
    inv_n = 1.0 / config.n_applicants
    j, total, alive = 0, 0.0, 1.0
    for reveal, q in zip(reveals, probs):
        q = float(q)
        j += reveal
        total += alive * q * inv_n
        alive *= 1.0 - q / (j if reveal else 1)
    return float(total)


@dataclass(frozen=True)
class ScanReport:
    """Outcome of an exhaustive policy-space scan.

    ``maximizers`` holds the first ``_MAX_KEPT`` of the ``n_maximizers``
    policies that tie for the maximum.  The solved policy is always among
    the ties: the scan raises instead of returning a report where it is not.
    """

    config: GameConfig
    grid_step: float
    n_policies: int
    max_success: float
    n_maximizers: int
    maximizers: tuple[PolicySpec, ...]
    equilibrium_success: float
    dp_success: float


def _fold_maximum(
    total: np.ndarray, where: np.ndarray, best: float, n_max: int, kept: list[int]
) -> tuple[float, int]:
    """Fold scan leaves into the running maximum, as taking them one by one
    would: a total above the maximum by more than 1e-12 becomes the maximum
    and restarts the ties, one within 1e-12 of it is a tie.

    ``where`` holds the leaves' policy positions, increasing; ``kept`` holds
    the positions of the first ``_MAX_KEPT`` ties.  Returns the new maximum
    and tie count.  A rise lies above every total before it, so the rises
    are sought among the running-maximum records alone, whose values
    increase: one binary search per rise.
    """
    rises = np.flatnonzero(total > best + 1e-12)
    since = 0
    if rises.size:
        up = total[rises]
        records = rises[up >= np.maximum.accumulate(up)]
        heights = total[records]
        pick = 0
        while pick < records.size:
            since = records[pick]
            best = float(heights[pick])
            pick = np.searchsorted(heights, best + 1e-12, side="right")
        kept.clear()
        n_max = 0
    ties = since + np.flatnonzero(total[since:] >= best - 1e-12)
    kept.extend(where[ties[: _MAX_KEPT - len(kept)]].tolist())
    return best, n_max + ties.size


def _fold_rows(
    total: np.ndarray,
    alive: np.ndarray,
    start: int,
    probs: np.ndarray,
    inv_n: float,
    best: float,
    n_max: int,
    kept: list[int],
) -> tuple[float, int]:
    """Fold the last stage of consecutive scan rows, stage-(N - 1) states
    with success ``total`` and surviving mass ``alive``, into the running
    maximum, as folding all their leaves would.

    Row ``start + r`` has one leaf per last-stage probability in ``probs``
    (which holds 1.0), at position (start + r) * len(probs) + option.  Only
    the rows whose q = 1 leaf can still rise or tie are expanded, in groups
    of at most ``_BLOCK // 4`` leaves.  Returns the new maximum and tie
    count.
    """
    # The q = 1 leaf, bit for bit total + alive * inv_n, is a row's largest
    # (q <= 1, alive >= 0 and rounding is monotone).  The running maximum is
    # within 1e-12 of every leaf before it, so a rise or tie lies within
    # 2e-12 of each earlier q = 1 leaf (3e-12 leaves room for rounding) and
    # within 1e-12 of the maximum carried in.
    base = probs.size
    top = total + alive * inv_n
    bar = np.maximum(np.maximum.accumulate(top) - 3e-12, best - 1e-12)
    live = np.flatnonzero(top >= bar)
    group = max(_BLOCK // 4 // base, 1)
    for at in range(0, live.size, group):
        row = live[at : at + group, None]
        leaves = total[row] + alive[row] * probs * inv_n
        where = (start + row) * base + np.arange(base)
        best, n_max = _fold_maximum(leaves.ravel(), where.ravel(), best, n_max, kept)
    return best, n_max


def _grid_points(cost: float, grid_step: float) -> int:
    """Number of scan grid points cost + k * grid_step, k = 0, 1, ..., that
    lie below 1 - 1e-12, found by the test the grid is built with.  The
    test is monotone in k, so a doubling search and a bisection find the
    count in O(log k) tests, before anything is built.  Raises ValueError
    where the count passes 2**1023, beyond which k * grid_step overflows."""

    def below(k: int) -> bool:
        return cost + k * grid_step < 1.0 - 1e-12

    if not below(0):
        return 0
    lo, hi = 0, 1
    while below(hi):
        if hi == 2**1023:
            raise ValueError(
                f"grid_step {grid_step!r} gives over 2**1023 grid points, over "
                f"the scan budget of {_MAX_POLICIES} policies"
            )
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
    return hi


def _stage_rows(
    state: tuple, start: int, stages: int, reveals: np.ndarray, probs: np.ndarray,
    survive: np.ndarray, inv_n: float,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Run ``stages`` more stages of the recursion from consecutive states,
    the first at prefix position ``start``, depth first: split the states
    into pieces of at most ``_BLOCK // 4 // base`` and expand each piece by
    one stage, one state per (state, option) pair in itertools.product
    order, before the next piece.  Yields (position of the first state,
    success total, surviving mass) for the states after the last stage, in
    increasing position; each expansion holds at most ``_BLOCK // 4``
    states.  ``survive[j, option]`` is the mass an option keeps after j
    completed interviews."""
    if not stages:
        yield start, state[1], state[2]
        return
    base = probs.size
    piece = max(_BLOCK // 4 // base, 1)
    for lo in range(0, state[0].size, piece):
        j, total, alive = (x[lo : lo + piece, None] for x in state)
        nxt = (j + reveals, total + alive * probs * inv_n, alive * survive[j[:, 0]])
        yield from _stage_rows(
            tuple(x.ravel() for x in nxt), (start + lo) * base, stages - 1,
            reveals, probs, survive, inv_n,
        )


def optimality_scan(config: GameConfig, grid_step: float) -> ScanReport:
    """Scan every gridded policy and verify none beats the solved one.

    Each stage independently either learns with record-acceptance in
    {cost, cost+step, ..., 1}, rejects outright, or accepts blindly with a
    probability from {0} plus the same grid.  Raises VerificationError if
    any scanned policy exceeds the solved success probability by more than
    1e-12 or if the solved policy misses the scan maximum, and ValueError if
    the grid holds more than ``_MAX_POLICIES`` policies (counted before
    anything is built), the one limit on N too: at most 14, at base 3.  A
    grid scan is evidence, not proof: deviations off the grid are not
    examined.

    Policies that share their first s options share the recursion state
    after stage s, so the stage recursion runs once per prefix, in one
    stage-major walk (``_stage_rows``): the states of each stage are split
    into pieces of at most ``_BLOCK // 4 // base`` (base options per
    stage), and each piece is expanded by one stage and walked on, depth
    first, before the next, down to the stage-(N - 1) rows.  One expansion
    of at most ``_BLOCK // 4`` states is held per stage: a ``tracemalloc``
    peak of 1.06 MB at N = 14 (base 3) and 0.50 MB at N = 7 (base 9).

    The last stage is bounded rather than run for every policy
    (``_fold_rows``): each stage-(N - 1) state's q = 1 leaf is its largest,
    and a skipped leaf lies provably more than 1e-12 below the fold's
    running maximum, so it can be neither a rise nor a tie.  The maximum,
    the ties and the kept maximizers are those of folding every policy, and
    every gridded policy is still covered.
    """
    grid_step = float(grid_step)
    if not 0.0 < grid_step <= 0.25:
        raise ValueError(f"grid_step must lie in (0, 0.25], got {grid_step}")
    cost = config.cost
    n_apps = config.n_applicants

    n_points = _grid_points(cost, grid_step)
    # Each grid point plus 1.0, learning and blind, and outright rejection:
    # (learning, 0) is rejection with nobody completing, which plays
    # identically to blind acceptance with probability 0; scan it once.
    base = 2 * (n_points + 1) + 1
    n_policies = base ** n_apps
    if n_policies > _MAX_POLICIES:
        raise ValueError(
            f"scan would evaluate {n_policies} policies, over the budget "
            f"of {_MAX_POLICIES}"
        )
    qgrid = [cost + k * grid_step for k in range(n_points)]
    qgrid.append(1.0)
    options = [(True, q) for q in qgrid]
    options.append((False, 0.0))
    options.extend((False, q) for q in qgrid)

    # Policy p is the p-th combination of itertools.product(options,
    # repeat=N): its option at stage s is digit s of p in base len(options).
    weights = [base ** (n_apps - s) for s in range(1, n_apps + 1)]
    option_reveals = np.array([learn for learn, _ in options])
    option_probs = np.array([q for _, q in options])
    inv_n = 1.0 / n_apps
    # the surviving mass's factor, 1 - q / (interviews completed, for a
    # learning option), by the interviews completed before the stage
    survive = 1.0 - option_probs / np.where(option_reveals, np.arange(1, n_apps + 1)[:, None], 1)
    best, n_max, kept = -1.0, 0, []
    root = (np.zeros(1, dtype=np.int64), np.zeros(1), np.ones(1))
    rows = _stage_rows(root, 0, n_apps - 1, option_reveals, option_probs, survive, inv_n)
    for start, total, alive in rows:
        best, n_max = _fold_rows(total, alive, start, option_probs, inv_n, best, n_max, kept)

    dp_success = solve_values(config, tables=False).success_probability
    eq_success = policy_success_probability(config, StrategyProfile.equilibrium(config))
    if best > dp_success + 1e-12:
        raise VerificationError(
            f"scan found a policy with success {best!r} above the solved "
            f"value {dp_success!r}"
        )
    if eq_success < best - 1e-12:
        raise VerificationError(
            f"solved policy (success {eq_success!r}) misses the scan "
            f"maximum {best!r}"
        )
    combos = ([options[p // w % base] for w in weights] for p in kept)
    maximizers = tuple(
        PolicySpec(
            accept_probs=tuple(q for _, q in combo),
            learning=tuple(learn for learn, _ in combo),
        )
        for combo in combos
    )
    return ScanReport(
        config=config,
        grid_step=grid_step,
        n_policies=n_policies,
        max_success=best,
        n_maximizers=n_max,
        maximizers=maximizers,
        equilibrium_success=eq_success,
        dp_success=dp_success,
    )


def exact_state_value(config: GameConfig, stage: int, state: int) -> Fraction:
    """Continuation value of the solved policy by exhaustive enumeration.

    ``state`` 1 means the stage's applicant is the best interviewed so far,
    0 means dominated.  Averages the success probability of the solved plan,
    ``StrategyProfile.equilibrium``, from that point over all arrival orders
    consistent with the state: the lumped walk of ``exact_evaluation``,
    started at the stage instead of stage 1.  The play from the stage on
    depends only on the largest rank that arrived before it, so the walk
    starts from each such rank once, weighted by the head sets with that
    maximum and their (stage - 1)! orderings.
    Stage 1 in state 0 never occurs; it is defined, as in the backward
    recursion, as the average of the two stage-2 values.
    """
    n_apps = config.n_applicants
    stage = _as_count(stage, 1, "stage")
    if stage > n_apps:
        raise ValueError(f"stage must be in 1..{n_apps}, got {stage}")
    if state not in (0, 1):
        raise ValueError(f"state must be 0 or 1, got {state!r}")
    ExactEvaluation.require_enumerable(config)
    if stage == 1 and state == 0:
        return (
            exact_state_value(config, 2, 1) + exact_state_value(config, 2, 0)
        ) / 2
    plan = StrategyProfile.equilibrium(config).plan(config)
    success, _, count = _lumped_walk(*plan, stage, state)
    return success / count
