"""The two per-stage plan types of the interview game, the one reader of
their stage plans, and the Monte Carlo play of a strategy profile.

A *learning* stage accepts a strictly new positive maximum output with some
probability and everything else with probability zero; the applicant
completes the interview exactly when their ability beats all previous
outputs and the acceptance probability covers the interview cost.  A
*non-learning* (blind) stage accepts with a fixed probability and the
applicant never completes.  A ``StrategyProfile`` holds float stage rules
bound to a cost, with forced-decline deviations; a ``PolicySpec`` holds
cost-free acceptance probabilities that may be exact Fractions.  Both read
their stages through ``_read_plan`` into one *stage plan* (per-stage reveal
flags and acceptance probabilities), which the batch kernel here and the
oracle's state walk and stage recursion play.

Monte Carlo aggregation is batched: trial batches draw from independent
counter-based substreams keyed by (seed, batch index) and are reduced in a
fixed order, so results are bit-identical for any worker count.  The unit
of parallel work is a *trial slice*, a range of a batch's trials that reads
only its own places in the batch's stream and jumps over the rest; a batch
is cut into slices only when there are fewer batches than threads, so that
even a single batch can use every thread.  Slices sum to the batch's integer
totals, whatever the cut.

The stream layout is the reproducibility contract.  Batch b of a run with
seed s holds size = _BATCH trials (the last batch holds the rest) and draws
from the Philox stream keyed (s << 64) | b.  At stage j (from 0) the
abilities are its outputs [2j·size, (2j+1)·size) and the acceptance uniforms
the next ``size`` outputs, one 64-bit output per double.  A stage whose
acceptance probability is 0 or 1 reads no uniform, so the kernel jumps over
that block without drawing it; the results are the same bits.

The kernel never makes the doubles: it reads an output ``raw`` as the
ability ``raw >> 11``, the integer the double (raw >> 11)·2^-53 scales, and
tests a uniform against q (0 < q < 1) as ``raw < ceil(q·2^53) << 11``.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .equilibrium import GameConfig, _as_count, _check_cost, _check_fits, compute_threshold

__all__ = [
    "StageRule",
    "StrategyProfile",
    "PolicySpec",
    "AggregateStats",
    "estimate",
]

_BATCH = 32768  # fixed batch width; part of the reproducibility contract
_PLAN_BYTES = 32  # peak bytes per stage of a solved profile and its plan; 24.9 measured at N = 1e6
_SLICE = 4096  # fewest trials worth a thread of their own; not part of the contract
_SHIFT = np.uint64(11)  # a 64-bit output keeps its top 53 bits as a double


@dataclass(frozen=True)
class StageRule:
    """Acceptance rule for one stage.

    learning=True: accept a strictly new positive maximum with probability
    ``accept_prob``, anything else with probability zero.  learning=False:
    accept with probability ``accept_prob`` regardless of the output.
    ``force_decline`` overrides the applicant to decline unconditionally
    (used to construct off-path deviations).
    """

    learning: bool
    accept_prob: float
    force_decline: bool = False

    def __post_init__(self) -> None:
        p = float(self.accept_prob)
        if not math.isfinite(p) or not 0.0 <= p <= 1.0:
            raise ValueError(f"accept_prob must lie in [0, 1], got {p!r}")
        object.__setattr__(self, "accept_prob", p)


@dataclass(frozen=True, eq=False)
class StrategyProfile:
    """Per-stage rules plus the interview cost they are played against."""

    cost: float
    stages: tuple[StageRule, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cost", _check_cost(self.cost))
        stages = tuple(self.stages)
        if len(stages) < 2:
            raise ValueError("a profile needs at least two stages")
        if not all(isinstance(r, StageRule) for r in stages):
            raise ValueError("stages must be StageRule instances")
        object.__setattr__(self, "stages", stages)

    @classmethod
    def equilibrium(cls, config: GameConfig) -> "StrategyProfile":
        """The solved full-learning profile: accept a current best with
        probability cost before the threshold stage and outright from it on,
        and never accept any other applicant.  ``plan(config)[1]`` is the
        plan's acceptance probability at each stage 1..N.  The stages
        share one frozen rule per probability.  Once the threshold is known,
        a size whose rules and plan (see ``plan``) would not fit in physical
        memory raises MemoryError before either is built."""
        n_apps = config.n_applicants
        n_star = compute_threshold(n_apps)
        _check_fits(_PLAN_BYTES * n_apps, f"the stage rules and plan for n_applicants={n_apps}")
        head, tail = StageRule(True, config.cost), StageRule(True, 1.0)
        stages = (head,) * (n_star - 1) + (tail,) * (n_apps - n_star + 1)
        return cls(cost=config.cost, stages=stages)

    @classmethod
    def no_learning(
        cls, config: GameConfig, acceptance_masses: Sequence[float]
    ) -> "StrategyProfile":
        """Blind acceptance; applicants always decline.

        ``acceptance_masses`` gives the unconditional probability of
        accepting each applicant (entries non-negative, summing to at most
        1), the parametrization under which every mass vector summing to 1
        hires the best with probability exactly 1/N.  The masses are
        converted to per-stage acceptance probabilities conditional on
        reaching the stage.
        """
        if len(acceptance_masses) != config.n_applicants:
            raise ValueError("need one acceptance mass per applicant")
        probs = _masses_to_stage_probs([float(p) for p in acceptance_masses])
        return cls(cost=config.cost, stages=tuple(StageRule(False, q) for q in probs))

    def plan(self, config: GameConfig) -> tuple[list[bool], list[float]]:
        """The profile's stage plan on the instance (see ``_read_plan``)."""
        rules = ((r.learning, r.accept_prob, r.force_decline) for r in self.stages)
        return _read_plan(config, self.cost, rules)


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
    def from_acceptance_masses(cls, masses: Sequence[float | Fraction]) -> "PolicySpec":
        """Blind policy from unconditional acceptance masses.

        ``masses`` gives the total probability of accepting each applicant
        (non-negative, summing to at most 1); any mass vector summing to 1
        hires the best with probability exactly 1/N.  The masses enter
        exactly, so the conditional per-stage probabilities are exact
        Fractions.
        """
        probs = _masses_to_stage_probs([Fraction(p) for p in masses])
        return cls(accept_probs=tuple(probs), learning=(False,) * len(probs))

    def plan(self, config: GameConfig) -> tuple[list[bool], list[float | Fraction]]:
        """The policy's stage plan at the instance's cost (see
        ``_read_plan``); a learning stage that offers less than the cost
        must offer zero."""
        rules = zip(self.learning, self.accept_probs, itertools.repeat(False))
        reveals, probs = _read_plan(config, config.cost, rules)
        for n, (learn, q) in enumerate(zip(self.learning, self.accept_probs), start=1):
            if learn and 0 < q < config.cost:
                raise ValueError(
                    f"stage {n}: record acceptance {q!r} is below the cost "
                    f"{config.cost} but not outright rejection"
                )
        return reveals, probs


def _masses_to_stage_probs(
    masses: Sequence[float | Fraction],
) -> list[float | Fraction]:
    """Unconditional acceptance masses -> conditional-on-reaching stage
    probabilities: q_n = p_n / (1 - p_1 - ... - p_{n-1}).

    The arithmetic stays in the masses' own number type: floats give floats,
    Fractions give exact Fractions.  Masses must be non-negative with a total
    (fsum for floats, exact for Fractions) of at most 1 + 1e-9; a stage
    whose mass exceeds what remains accepts outright.
    """
    if any(p < 0 for p in masses):
        raise ValueError("acceptance masses must be non-negative")
    exact = any(isinstance(p, Fraction) for p in masses)
    total = sum(masses) if exact else math.fsum(masses)
    if total > 1.0 + 1e-9:
        raise ValueError(f"acceptance masses sum to {float(total)}, over 1")
    one = Fraction(1) if exact else 1.0
    probs = []
    remaining = one
    for p in masses:
        probs.append(min(p / remaining, one) if remaining > 0 else 0 * one)
        remaining -= p
    return probs


def _read_plan(
    config: GameConfig, cost: float, rules: Iterable[tuple[bool, float | Fraction, bool]]
) -> tuple[list[bool], list[float | Fraction]]:
    """Read per-stage (learning, acceptance probability, forced decline)
    rules played at ``cost``, in one pass, into a stage plan: per-stage
    reveal flags and acceptance probabilities, the one reading that the
    batch kernel, the oracle's state walk and its stage recursion play.
    Then check the plan against the instance.

    A learning stage reveals a current best unless its applicant is forced
    to decline or the record acceptance falls short of the cost; a blind
    stage never reveals.  At a revealing stage only a new best completes,
    and only a completed interview may be accepted, so a learning stage
    that nobody completes plays as a blind stage with probability zero.
    """
    reveals, probs = [], []
    for learn, q, decline in rules:
        live = learn and not decline and q >= cost
        reveals.append(live)
        probs.append(q if live or not learn else 0.0)
    if len(reveals) != config.n_applicants:
        raise ValueError(
            f"plan has {len(reveals)} stages, instance has {config.n_applicants} applicants"
        )
    if cost != config.cost:
        raise ValueError(f"profile cost {cost} does not match instance cost {config.cost}")
    return reveals, probs


@dataclass(frozen=True)
class AggregateStats:
    """Monte Carlo summary of repeated plays.

    ``mean_tau_unconditional`` counts a trial without acceptance as stopping
    index 0; ``mean_tau_conditional`` averages only accepted trials (NaN if
    none).  ``success_se`` and ``tau_se`` are standard errors of the
    corresponding means.
    """

    trials: int
    success_rate: float
    success_se: float
    acceptance_rate: float
    mean_tau_unconditional: float
    mean_tau_conditional: float
    tau_se: float
    seed: int

    @staticmethod
    def check_run(trials: int, seed: int, workers: int | None) -> tuple[int, int, int | None]:
        """The trial count, seed and worker bound of ``estimate`` as integers,
        or ValueError for a bad one, before anything of size N is built."""
        trials = _as_count(trials, 1, "trials")
        seed = _as_count(seed, 0, "seed")
        if seed >= 2**64:
            raise ValueError("seed must fit in 64 bits")
        if workers is not None:
            workers = _as_count(workers, 1, "workers")
        return trials, seed, workers


def _skip(bitgen: np.random.BitGenerator, pos: int, count: int) -> None:
    """Move a Philox stream that has produced ``pos`` outputs on by
    ``count`` outputs without computing most of them.

    Philox makes outputs in blocks of 4 and buffers the rest of a block, so
    the ``-pos % 4`` buffered outputs are drawn first, whole blocks are
    jumped, and the tail is drawn.  ``advance`` also empties the buffer, so
    it is called only for a jump of at least one block.
    """
    rest = min(count, -pos % 4)
    if rest:
        bitgen.random_raw(rest)
    blocks, tail = divmod(count - rest, 4)
    if blocks:
        bitgen.advance(blocks)
    if tail:
        bitgen.random_raw(tail)


def _run_batch(
    reveals: Sequence[bool],
    probs: Sequence[float],
    size: int,
    key: int,
    lo: int,
    hi: int,
) -> tuple[int, int, int, int]:
    """Simulate trials [lo, hi) of a batch of ``size`` trials; returns
    integer totals (successes, acceptances, sum of stopping indices, sum of
    squared stopping indices).

    Stage j (from 0) reads the abilities at stream outputs
    [2j·size, (2j+1)·size) and the acceptance uniforms at the next ``size``
    outputs, one output per double; trial i reads the output at offset i of
    each block.  The slice reads only its own outputs and jumps over the
    rest, as it does over the uniforms of a stage with acceptance
    probability 0 or 1, which reads none.  Trials are independent and the
    totals are integer sums, so any partition of a batch into slices sums to
    the whole batch's totals.

    The kernel works on the raw 64-bit outputs.  An ability is ``raw >> 11``,
    the integer that the double ``(raw >> 11) * 2**-53`` scales, so every
    comparison of abilities answers as it would in doubles.  A uniform u is
    below q (0 < q < 1) exactly when ``raw < ceil(q * 2**53) << 11``.

    A trial accepted at stage τ (from 1) is alive at the start of stages
    0..τ-1; a trial never accepted is alive at the start of all N stages.  So
    with live_j trials alive at the start of stage j and ``live`` never accepted,
    Σ τ = Σ_j live_j - N·live and Σ τ² = Σ_j (2j+1)·live_j - N²·live.
    """
    m = hi - lo
    bitgen = np.random.Philox(key=key)
    pos = 0  # stream outputs produced so far

    def read(start: int) -> np.ndarray:
        nonlocal pos
        _skip(bitgen, pos, start + lo - pos)
        pos = start + hi
        return bitgen.random_raw(m)

    alive = np.ones(m, dtype=bool)
    revealed_max = np.zeros(m, dtype=np.uint64)
    true_max = np.zeros(m, dtype=np.uint64)
    chosen = np.zeros(m, dtype=np.uint64)
    live = m
    live_sum = live_sq_sum = 0
    for j in range(len(reveals)):
        live_sum += live
        live_sq_sum += (2 * j + 1) * live
        theta = read(2 * j * size)
        np.right_shift(theta, _SHIFT, out=theta)  # in place: a second array costs page faults
        np.maximum(true_max, theta, out=true_max)
        eligible = alive
        if reveals[j]:  # only a new best completes and may be accepted
            eligible = alive & (theta > revealed_max)
            np.maximum(revealed_max, theta, out=revealed_max)
        q = probs[j]
        if q > 0.0:
            if q < 1.0:
                u_raw = read((2 * j + 1) * size)
                eligible = eligible & (u_raw < np.uint64(math.ceil(q * 2**53) << 11))
            newly = np.flatnonzero(eligible)
            chosen[newly] = theta[newly]
            alive[newly] = False
            live -= len(newly)
    n = len(reveals)
    return (
        int(np.count_nonzero(~alive & (chosen == true_max))),
        m - live,
        live_sum - n * live,
        live_sq_sum - n * n * live,
    )


def _usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask where
    the platform has one (``os.cpu_count()`` counts the host's CPUs)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def estimate(
    config: GameConfig,
    profile: StrategyProfile,
    trials: int,
    seed: int,
    workers: int | None = None,
) -> AggregateStats:
    """Aggregate many plays into success and stopping-time statistics.

    Bit-identical output for fixed (config, profile, trials, seed) no matter
    how many workers run the batches.  ``workers`` is an upper bound on the
    threads, which are also at most one per usable CPU; None means every
    usable CPU.  A thread plays whole batches, unless there are fewer batches
    than threads: then each batch is cut into trial slices of at least
    _SLICE trials, enough to give every thread one where the batches allow.
    """
    trials, seed, workers = AggregateStats.check_run(trials, seed, workers)
    reveals, probs = profile.plan(config)
    cpus = _usable_cpus()
    threads = min(cpus if workers is None else workers, cpus)
    n_batches = -(-trials // _BATCH)
    cuts = -(-threads // n_batches)  # 1 unless there are fewer batches than threads
    slices = []
    for batch in range(n_batches):
        size = min(_BATCH, trials - batch * _BATCH)
        parts = max(1, min(cuts, size // _SLICE))
        key = (seed << 64) | batch
        slices += [(size, key, size * i // parts, size * (i + 1) // parts) for i in range(parts)]

    def one(trial_slice: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
        return _run_batch(reveals, probs, *trial_slice)

    threads = min(threads, len(slices))
    if threads == 1:
        results = list(map(one, slices))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, slices))
    n_success, n_accepted, tau_sum, tau_sq_sum = map(sum, zip(*results))

    success_rate = n_success / trials
    success_se = math.sqrt(success_rate * (1.0 - success_rate) / trials)
    mean_tau = tau_sum / trials
    if trials > 1:
        tau_var = max(tau_sq_sum - tau_sum * tau_sum / trials, 0.0) / (trials - 1)
    else:
        tau_var = 0.0
    return AggregateStats(
        trials=trials,
        success_rate=success_rate,
        success_se=success_se,
        acceptance_rate=n_accepted / trials,
        mean_tau_unconditional=mean_tau,
        mean_tau_conditional=tau_sum / n_accepted if n_accepted else math.nan,
        tau_se=math.sqrt(tau_var / trials),
        seed=seed,
    )
