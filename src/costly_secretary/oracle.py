"""Exact desk-scale verification for the costly-interview hiring game.

Everything here is deliberately independent of the backward-induction
solver: success probabilities are obtained by enumerating all N! arrival
orders and propagating acceptance probabilities analytically along each
order, in exact rational arithmetic.  The same walk over the orders, run
on a profile's float stage plan, audits the full-learning property on
every reachable prefix.  On top of that sit a fast per-policy stage
recursion (cross-checked against the enumeration) and an exhaustive
policy-space scan that looks for anything beating the solved policy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .equilibrium import GameConfig, _as_count, equilibrium_accept_probs, solve_values
from .simulator import (
    StrategyProfile,
    _check_profile,
    _masses_to_stage_probs,
    _reveals,
    _stage_plan,
)

__all__ = [
    "VerificationError",
    "PolicySpec",
    "ScanReport",
    "exact_success_probability",
    "exact_expected_tau",
    "policy_success_probability",
    "optimality_scan",
    "full_learning_audit",
    "full_learning_counterexample",
    "exact_state_value",
]

_MAX_ENUM = 10
_MAX_POLICIES = 5_000_000
_MAX_KEPT = 256
Prob = Union[float, Fraction]


class VerificationError(RuntimeError):
    """An exact check that should hold for the solved policy failed."""


@dataclass(frozen=True)
class PolicySpec:
    """Per-stage acceptance plan evaluated by the oracle.

    A learning stage accepts a strictly new positive maximum with the stated
    probability (zero means outright rejection, which also removes any reason
    to complete the interview); a non-learning stage accepts blindly with the
    stated probability and reveals nothing.  Learning stages must offer
    either zero or at least the interview cost, otherwise no applicant would
    complete.
    """

    accept_probs: tuple
    learning: tuple

    def __post_init__(self) -> None:
        probs = tuple(self.accept_probs)
        flags = tuple(bool(f) for f in self.learning)
        if len(probs) != len(flags):
            raise ValueError("accept_probs and learning must have equal length")
        for p in probs:
            if not 0 <= p <= 1:
                raise ValueError(f"acceptance probability {p!r} outside [0, 1]")
        object.__setattr__(self, "accept_probs", probs)
        object.__setattr__(self, "learning", flags)

    @classmethod
    def equilibrium(cls, config: GameConfig) -> "PolicySpec":
        probs = tuple(equilibrium_accept_probs(config))
        return cls(accept_probs=probs, learning=(True,) * config.n_applicants)

    @classmethod
    def from_acceptance_masses(cls, masses: Sequence[Prob]) -> "PolicySpec":
        """Blind policy from unconditional acceptance masses.

        ``masses`` gives the total probability of accepting each applicant
        (non-negative, summing to at most 1); any mass vector summing to 1
        hires the best with probability exactly 1/N.  The masses enter
        exactly, so the conditional per-stage probabilities are exact
        Fractions.
        """
        probs = _masses_to_stage_probs([Fraction(p) for p in masses])
        return cls(accept_probs=tuple(probs), learning=(False,) * len(probs))

    def validate_for(self, config: GameConfig) -> list[bool]:
        """Check the policy against the instance; return which stages reveal
        a current best.

        A learning stage that nobody completes must offer zero, so it plays
        as a blind stage with acceptance probability zero.
        """
        if len(self.accept_probs) != config.n_applicants:
            raise ValueError(
                f"policy has {len(self.accept_probs)} stages, instance has "
                f"{config.n_applicants} applicants"
            )
        reveals = []
        for n, (q, learn) in enumerate(zip(self.accept_probs, self.learning), start=1):
            reveals.append(_reveals(learn, q, config.cost))
            if learn and q != 0 and not reveals[-1]:
                raise ValueError(
                    f"stage {n}: record acceptance {q!r} is below the cost "
                    f"{config.cost} but not outright rejection"
                )
        return reveals


def _exact_plan(
    config: GameConfig, policy: PolicySpec
) -> tuple[list[bool], list[Fraction]]:
    """The policy's stage plan in exact arithmetic (floats enter exactly)."""
    return policy.validate_for(config), [Fraction(q) for q in policy.accept_probs]


def _exact_walk(
    reveals: Sequence[bool], probs: Sequence[Prob], stage: int = 1, state: int = 1
) -> tuple[Prob, Prob, int, Optional[tuple[tuple[int, ...], int]]]:
    """Walk, from ``stage`` on, every arrival order in which the stage's
    applicant is (state 1) or is not (state 0) the best so far; from stage 1
    in state 1 that is all N! orders.

    ``reveals`` and ``probs`` are a stage plan: at a revealing stage only a
    new best completes and may be accepted, at any other stage the
    acceptance is blind.  Per order the only randomness left is the
    administrator's coin flips, so the walk carries the surviving
    probability mass along the order and accumulates hiring-the-best and
    stopping-index mass at each acceptance opportunity, in the number type
    of ``probs``.  Returns the summed success and stopping-index masses, the
    number of orders walked, and the first (rank order, stage) at which a
    non-revealing stage holds a new best on a reachable prefix (None if
    there is none).  A prefix behind a certain acceptance is unreachable.
    """
    n_apps = len(probs)
    if n_apps > _MAX_ENUM:
        raise ValueError(f"enumeration supports at most {_MAX_ENUM} applicants")
    start = stage - 1
    want_best = state == 1
    one = type(probs[0])(1)
    zero = 0 * one
    success = zero
    tau_mass = zero
    count = 0
    first = None
    for order in itertools.permutations(range(1, n_apps + 1)):
        revealed = max(order[:start], default=0)
        if (order[start] > revealed) != want_best:
            continue
        count += 1
        alive = one
        for idx in range(start, n_apps):
            rank = order[idx]
            if reveals[idx]:
                if rank <= revealed:
                    continue
                revealed = rank
            elif first is None and rank > revealed:
                first = order, idx + 1
            q = probs[idx]
            if q:
                win = alive * q
                if rank == n_apps:
                    success += win
                tau_mass += win * (idx + 1)
                alive -= win
                # Exact for floats too: alive * q rounds below alive when
                # q < 1, and ten stages cannot underflow, so only q == 1 ends.
                if not alive:
                    break
    return success, tau_mass, count, first


def exact_success_probability(config: GameConfig, policy: PolicySpec) -> Fraction:
    """Probability of hiring the overall best, by exhaustive enumeration.

    Exact rational result; convert with float() as needed.
    """
    success, _, count, _ = _exact_walk(*_exact_plan(config, policy))
    return success / count


def exact_expected_tau(config: GameConfig, policy: PolicySpec) -> Fraction:
    """Expected stopping index (zero when nobody is accepted), exactly.

    For the solved policy this equals N times exact_success_probability in
    exact arithmetic, because a record accepted at stage n is the overall
    best with probability exactly n/N.
    """
    _, tau_mass, count, _ = _exact_walk(*_exact_plan(config, policy))
    return tau_mass / count


def policy_success_probability(config: GameConfig, policy: PolicySpec) -> float:
    """Success probability of a policy by an O(N) stage recursion.

    Within the completing subsequence of stages, the j-th completed
    interview reveals a new maximum with probability 1/j independently, and
    an acceptance there hires the overall best with probability j/N; a blind
    acceptance hires the best with probability 1/N.  The recursion carries
    the surviving probability mass across stages.  The policy scan runs the
    same recursion; it is cross-checked against the exhaustive enumeration
    in the test suite.
    """
    reveals = policy.validate_for(config)
    stages = list(zip(reveals, [float(q) for q in policy.accept_probs]))
    return _stage_recursion(stages, config.n_applicants)


def _stage_recursion(stages: Sequence[tuple[bool, float]], n_apps: int) -> float:
    """Success probability of (reveals, acceptance probability) stages."""
    inv_n = 1.0 / n_apps
    alive = 1.0
    total = 0.0
    j = 0
    for reveals, q in stages:
        if reveals:
            j += 1
            total += alive * q * inv_n
            alive *= 1.0 - q / j
        elif q > 0.0:
            total += alive * q * inv_n
            alive *= 1.0 - q
    return total


@dataclass(frozen=True)
class ScanReport:
    """Outcome of an exhaustive policy-space scan.

    ``maximizers`` holds the first ``_MAX_KEPT`` of the ``n_maximizers``
    policies that tie for the maximum.
    """

    config: GameConfig
    grid_step: float
    n_policies: int
    max_success: float
    n_maximizers: int
    maximizers: tuple[PolicySpec, ...]
    equilibrium_success: float
    dp_success: float
    equilibrium_attains_max: bool


def optimality_scan(config: GameConfig, grid_step: float) -> ScanReport:
    """Scan every gridded policy and verify none beats the solved one.

    Each stage independently either learns with record-acceptance in
    {cost, cost+step, ..., 1}, rejects outright, or accepts blindly with a
    probability from {0} plus the same grid.  Raises VerificationError if
    any scanned policy exceeds the solved success probability by more than
    1e-12 or if the solved policy misses the scan maximum, and ValueError if
    the grid holds more than ``_MAX_POLICIES`` policies.  A grid scan is
    evidence, not proof: deviations off the grid are not examined.
    """
    if config.n_applicants > 8:
        raise ValueError("optimality_scan supports at most 8 applicants")
    grid_step = float(grid_step)
    if not 0.0 < grid_step <= 0.25:
        raise ValueError(f"grid_step must lie in (0, 0.25], got {grid_step}")
    cost = config.cost
    n_apps = config.n_applicants

    qgrid: list[float] = []
    v = cost
    while v < 1.0 - 1e-12:
        qgrid.append(v)
        v = cost + len(qgrid) * grid_step
    qgrid.append(1.0)
    # (learning, 0) is outright rejection with nobody completing, which plays
    # identically to blind acceptance with probability 0; scan it once.
    options = [(True, q) for q in qgrid]
    options.append((False, 0.0))
    options.extend((False, q) for q in qgrid)

    n_policies = len(options) ** n_apps
    if n_policies > _MAX_POLICIES:
        raise ValueError(
            f"scan would evaluate {n_policies} policies, over the budget "
            f"of {_MAX_POLICIES}"
        )

    best = -1.0
    kept: list[tuple] = []
    n_max = 0
    for combo in itertools.product(options, repeat=n_apps):
        total = _stage_recursion(combo, n_apps)
        if total > best + 1e-12:
            best = total
            kept = [combo]
            n_max = 1
        elif total >= best - 1e-12:
            n_max += 1
            if len(kept) < _MAX_KEPT:
                kept.append(combo)

    dp_success = solve_values(config).success_probability
    eq_policy = PolicySpec.equilibrium(config)
    eq_success = policy_success_probability(config, eq_policy)
    attains = eq_success >= best - 1e-12
    if best > dp_success + 1e-12:
        raise VerificationError(
            f"scan found a policy with success {best!r} above the solved "
            f"value {dp_success!r}"
        )
    if not attains:
        raise VerificationError(
            f"solved policy (success {eq_success!r}) misses the scan "
            f"maximum {best!r}"
        )
    maximizers = tuple(
        PolicySpec(
            accept_probs=tuple(q for _, q in combo),
            learning=tuple(learn for learn, _ in combo),
        )
        for combo in kept
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
        equilibrium_attains_max=attains,
    )


def full_learning_counterexample(
    config: GameConfig, profile: Optional[StrategyProfile] = None
) -> Optional[tuple[tuple[int, ...], int]]:
    """Search every arrival order for a reachable prefix where the running
    maximum of outputs differs from the running maximum of abilities.

    Returns (rank order, stage) for the first violating prefix, or None.
    The prefix breaks exactly where a stage that reveals nothing holds a new
    best.  Prefixes behind a certain acceptance (probability one) are
    unreachable and are not checked.
    """
    if profile is None:
        profile = StrategyProfile.equilibrium(config)
    _check_profile(config, profile)
    return _exact_walk(*_stage_plan(profile))[3]


def full_learning_audit(
    config: GameConfig, profile: Optional[StrategyProfile] = None
) -> bool:
    """True when every reachable prefix of every arrival order keeps the
    output maximum equal to the ability maximum."""
    return full_learning_counterexample(config, profile) is None


def exact_state_value(config: GameConfig, stage: int, state: int) -> Fraction:
    """Continuation value of the solved policy by exhaustive enumeration.

    ``state`` 1 means the stage's applicant is the best interviewed so far,
    0 means dominated.  Averages the success probability of equilibrium play
    from that point over all arrival orders consistent with the state.
    Stage 1 in state 0 never occurs; it is defined, as in the backward
    recursion, as the average of the two stage-2 values.
    """
    n_apps = config.n_applicants
    stage = _as_count(stage, 1, "stage")
    if stage > n_apps:
        raise ValueError(f"stage must be in 1..{n_apps}, got {stage}")
    if state not in (0, 1):
        raise ValueError(f"state must be 0 or 1, got {state!r}")
    if stage == 1 and state == 0:
        return (
            exact_state_value(config, 2, 1) + exact_state_value(config, 2, 0)
        ) / 2
    plan = _exact_plan(config, PolicySpec.equilibrium(config))
    success, _, count, _ = _exact_walk(*plan, stage, state)
    return success / count
