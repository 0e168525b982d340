"""Same-seed Monte Carlo results are pinned, and the batch kernel is checked
against a plain reference kernel that draws every stream output."""

import math

import numpy as np
import pytest

from costly_secretary import (
    GameConfig,
    StageRule,
    StrategyProfile,
    compute_threshold,
    estimate,
    simulator,
)
from costly_secretary.cli import main


def plain_run_batch(reveals, probs, size, key):
    """The batch kernel as first written: it draws the acceptance uniforms at
    every stage, whether or not any trial reads them."""
    rng = np.random.Generator(np.random.Philox(key=key))
    alive = np.ones(size, dtype=bool)
    revealed_max = np.zeros(size)
    true_max = np.zeros(size)
    tau = np.zeros(size, dtype=np.int64)
    chosen = np.full(size, -1.0)
    for j in range(len(reveals)):
        theta = rng.random(size)
        u = rng.random(size)
        np.maximum(true_max, theta, out=true_max)
        eligible = alive
        if reveals[j]:
            complete = theta > revealed_max
            eligible = alive & complete
            np.copyto(revealed_max, theta, where=complete)
        q = probs[j]
        if q > 0.0:
            newly = eligible & (u < q)
            tau[newly] = j + 1
            chosen[newly] = theta[newly]
            alive &= ~newly
    accepted = tau > 0
    success = accepted & (chosen == true_max)
    return (
        int(success.sum()),
        int(accepted.sum()),
        int(tau.sum()),
        int((tau * tau).sum()),
    )


def equilibrium(n_apps, cost):
    config = GameConfig(n_apps, cost)
    return config, StrategyProfile.equilibrium(config)


def blind(n_apps, cost):
    # zero masses give q = 0 stages; every mass left is taken at the last
    # positive one
    masses = [0.0 if n % 4 == 0 else 1.0 for n in range(1, n_apps + 1)]
    total = sum(masses)
    config = GameConfig(n_apps, cost)
    return config, StrategyProfile.no_learning(config, [m / total for m in masses])


def deviation(n_apps, cost):
    # the solved plan with the stage-n* applicant forced to decline
    config = GameConfig(n_apps, cost)
    stages = list(StrategyProfile.equilibrium(config).stages)
    stages[compute_threshold(n_apps) - 1] = StageRule(True, 1.0, force_decline=True)
    return config, StrategyProfile(cost=cost, stages=tuple(stages))


def mixed(n_apps, cost):
    # learning stages of the solved plan, blind stages with q = 0 and
    # q = 0.05, and learning stages that underpay so that nobody completes
    config = GameConfig(n_apps, cost)
    stages = []
    for n, rule in enumerate(StrategyProfile.equilibrium(config).stages, start=1):
        if n % 3 == 0:
            stages.append(StageRule(False, 0.0 if n % 6 == 0 else 0.05))
        elif n % 7 == 0:
            stages.append(StageRule(True, cost / 2))
        else:
            stages.append(rule)
    return config, StrategyProfile(cost=cost, stages=tuple(stages))


PROFILES = {
    "equilibrium": equilibrium,
    "blind": blind,
    "deviation": deviation,
    "mixed": mixed,
}

# (profile, N, cost, trials, seed) -> (success_rate, success_se,
# acceptance_rate, mean_tau_unconditional, mean_tau_conditional, tau_se), as
# the kernel that draws every stream output gave them.  65549 = 2 * 32768 + 13.
GOLDEN = {
    ("equilibrium", 300, 0.0, 70001, 2**63 + 1): (
        0.37146612191254413, 0.0018262987817541123, 0.6358909158440593,
        111.05685633062384, 174.64765349448476, 0.353024157665574),
    ("equilibrium", 1000, 0.1, 65549, 2**64 - 1): (
        0.21056003905475293, 0.0015924451926773628, 0.8077621321454179,
        212.25268120032342, 262.7663178968044, 1.1030428315655023),
    ("equilibrium", 10, 0.1, 3, 2**63): (
        0.6666666666666666, 0.2721655269759087, 0.6666666666666666,
        4.333333333333333, 6.5, 2.185812841434),
    ("equilibrium", 2, 0.5, 5, 2**63 + 2): (
        0.4, 0.21908902300206645, 1.0, 1.0, 1.0, 0.0),
    ("blind", 50, 0.3, 5, 2**63 + 3): (
        0.0, 0.0, 1.0, 28.2, 28.2, 6.995712972957082),
    ("blind", 50, 0.3, 70001, 2**63 + 4): (
        0.019971143269381864, 0.0005287723937257385, 1.0,
        25.3707661319124, 25.3707661319124, 0.055076282532112164),
    ("deviation", 200, 0.25, 65549, 2**63 + 5): (
        0.13428122473264276, 0.0013317203299922794, 0.8985796884773223,
        27.26747929030191, 30.345087519736506, 0.17774265348998222),
    ("deviation", 1000, 0.1, 3, 2**63 + 6): (
        0.3333333333333333, 0.2721655269759087, 1.0, 303.0, 303.0,
        152.13261758522836),
    ("mixed", 40, 0.2, 70001, 2**63 + 7): (
        0.1289267296181483, 0.001266621060026622, 0.8630590991557263,
        10.190111569834716, 11.806968468095672, 0.040961790419578044),
    ("mixed", 40, 0.2, 5, 12345): (
        0.0, 0.0, 0.8, 14.4, 18.0, 6.071243694664216),
}

# README: costly-secretary simulate --n 1000 --cost 0.1 --trials 20000 --seed 1
README_SIMULATE = (
    "n,cost,trials,seed,success_rate,success_se,acceptance_rate,"
    "mean_tau_unconditional,mean_tau_conditional,tau_se\n"
    "1000,0.10000000000000001,20000,1,0.21199999999999999,"
    "0.0028901211047290044,0.8115,215.82225,265.95471349353051,"
    "2.0020124126567991\n"
)


@pytest.mark.parametrize("case", sorted(GOLDEN, key=repr), ids=repr)
def test_golden_estimates(case):
    kind, n_apps, cost, trials, seed = case
    config, profile = PROFILES[kind](n_apps, cost)
    stats = estimate(config, profile, trials, seed)
    got = (
        stats.success_rate,
        stats.success_se,
        stats.acceptance_rate,
        stats.mean_tau_unconditional,
        stats.mean_tau_conditional,
        stats.tau_se,
    )
    assert (stats.trials, stats.seed) == (trials, seed)
    assert got == GOLDEN[case]


def test_golden_readme_simulate_bytes(capsys):
    argv = "simulate --n 1000 --cost 0.1 --trials 20000 --seed 1".split()
    assert main(argv) == 0
    assert capsys.readouterr().out == README_SIMULATE


KERNEL_PLANS = [
    ("equilibrium", 30, 0.0),
    ("equilibrium", 30, 0.1),
    ("blind", 30, 0.3),
    ("deviation", 30, 0.1),
    ("mixed", 30, 0.2),
]
KERNEL_SIZES = [1, 2, 3, 4, 5, 6, 7, 33, 1001, 4096, 32768]
KERNEL_KEYS = [0, 5, ((2**63 + 9) << 64) | 3, ((2**64 - 1) << 64) | 2]


@pytest.mark.parametrize("plan", KERNEL_PLANS, ids=repr)
def test_kernel_matches_plain_kernel(plan):
    kind, n_apps, cost = plan
    config, profile = PROFILES[kind](n_apps, cost)
    reveals, probs = profile.plan(config)
    for size in KERNEL_SIZES:
        for key in KERNEL_KEYS:
            want = plain_run_batch(reveals, probs, size, key)
            assert simulator._run_batch(reveals, probs, size, key, 0, size) == want, (size, key)


def test_skip_lands_where_drawing_would():
    ref = np.random.Philox(key=9).random_raw(64)
    for pos in range(0, 13):
        for count in range(0, 14):
            bitgen = np.random.Philox(key=9)
            if pos:
                bitgen.random_raw(pos)
            simulator._skip(bitgen, pos, count)
            got = bitgen.random_raw(6)
            assert np.array_equal(got, ref[pos + count : pos + count + 6]), (pos, count)


def test_one_output_per_double():
    # the layout counts stream outputs; Generator.random must use one per double
    raw = np.random.Philox(key=11).random_raw(1001)
    doubles = np.random.Generator(np.random.Philox(key=11)).random(1001)
    assert np.array_equal(doubles, (raw >> np.uint64(11)) * 2.0**-53)


def crafted_philox(words):
    """A stand-in for np.random.Philox that serves ``words`` in order, so
    the kernel plays chosen 64-bit outputs at their places in the layout."""

    class Philox:
        def __init__(self, key):
            self.pos = 0

        def random_raw(self, size):
            out = words[self.pos : self.pos + size].copy()
            assert len(out) == size, "read past the crafted words"
            self.pos += size
            return out

        def advance(self, blocks):
            assert self.pos % 4 == 0, "advance would drop buffered outputs"
            self.pos += 4 * blocks

    return Philox


def per_trial_in_doubles(reveals, probs, words, size):
    """Each trial played alone, in the doubles Generator.random makes of the
    words at the trial's places in the stream layout."""
    doubles = ((words >> np.uint64(11)) * 2.0**-53).tolist()
    n = len(reveals)
    totals = [0, 0, 0, 0]
    for i in range(size):
        best = top = chosen = 0.0
        tau = 0
        for j in range(n):
            theta, u = doubles[2 * j * size + i], doubles[(2 * j + 1) * size + i]
            top = max(top, theta)
            complete = theta > best or not reveals[j]
            if reveals[j]:
                best = max(best, theta)
            if not tau and complete and u < probs[j]:
                tau, chosen = j + 1, theta
        totals[0] += tau > 0 and chosen == top
        totals[1] += tau > 0
        totals[2] += tau
        totals[3] += tau * tau
    return tuple(totals)


def play_crafted(monkeypatch, reveals, probs, abilities, uniforms):
    """Run the kernel and the per-trial reference on stage-by-trial arrays
    of ability and uniform words; returns both results."""
    abilities = np.asarray(abilities, dtype=np.uint64)
    uniforms = np.asarray(uniforms, dtype=np.uint64)
    size = abilities.shape[1]
    words = np.stack([abilities, uniforms], axis=1).reshape(-1)
    monkeypatch.setattr(np.random, "Philox", crafted_philox(words))
    got = simulator._run_batch(reveals, probs, size, 0, 0, size)
    return got, per_trial_in_doubles(reveals, probs, words, size)


@pytest.mark.parametrize(
    "q, k, accepted",
    [
        (3 * 2.0**-53, 3, 2),  # u == q rejects
        (float(np.nextafter(3 * 2.0**-53, 1.0)), 3, 4),  # u == 3 * 2**-53 is below
        ((2**52 + 5) * 2.0**-53, 2**52 + 5, 2),
        ((2**52 + 6) * 2.0**-53, 2**52 + 5, 4),  # the next double above k * 2**-53
        (2.0**-1074, 0, 2),  # only u = 0 is below
        (1.0 - 2.0**-53, 2**53 - 1, 2),  # u == 1 - 2**-53 rejects
    ],
)
def test_acceptance_uniform_at_the_boundary(monkeypatch, q, k, accepted):
    # stage-1 uniforms whose top 53 bits are k - 1, k and k + 1, each with
    # low bits 0 and 2047; stage 2 accepts nobody and stage 3 everybody
    uniforms_0 = [((k + d) << 11) | low for d in (-1, 0, 1) for low in (0, 2047)
                  if 0 <= k + d < 2**53]
    size = len(uniforms_0)
    rng = np.random.Generator(np.random.Philox(key=1))
    abilities = rng.integers(0, 2**64, size=(3, size), dtype=np.uint64)
    uniforms = rng.integers(0, 2**64, size=(3, size), dtype=np.uint64)
    uniforms[0] = uniforms_0
    for reveals in ([False] * 3, [True] * 3):
        got, want = play_crafted(monkeypatch, reveals, [q, 0.0, 1.0], abilities, uniforms)
        assert got == want
        if not reveals[0]:
            assert got[1:3] == (size, accepted + 3 * (size - accepted))


# 0 and 2047 are both the double 0.0, which is no record
TIED_ABILITIES = [
    0, 2047, (5 << 11) | 5, (5 << 11) | 9, 5 << 11, (5 << 11) | 2047, (4 << 11) | 2047, 6 << 11
]


@pytest.mark.parametrize("first_q", [0.0, 0.5, 1.0])
def test_abilities_tied_in_their_top_53_bits(monkeypatch, first_q):
    # every order of three abilities that tie or differ in the 53 bits a
    # double keeps: a tie is no new record, and a chosen tie is the best
    triples = np.array(
        [(a, b, c) for a in TIED_ABILITIES for b in TIED_ABILITIES for c in TIED_ABILITIES],
        dtype=np.uint64,
    ).T
    size = triples.shape[1]
    uniforms = np.full((3, size), 1 << 63, dtype=np.uint64)  # u = 0.5
    uniforms[:, ::2] = 1 << 62  # u = 0.25 at every other trial
    got, want = play_crafted(monkeypatch, [True] * 3, [first_q, 1.0, 1.0], triples, uniforms)
    assert got == want


def cut_points(size):
    """Cuts that are not multiples of 4 cross Philox's 4-output buffer."""
    return sorted({c for c in (0, 1, 3, 5, size // 2, size - 1, size) if 0 <= c <= size})


@pytest.mark.parametrize("plan", KERNEL_PLANS, ids=repr)
def test_slices_sum_to_the_whole_batch(plan):
    kind, n_apps, cost = plan
    config, profile = PROFILES[kind](n_apps, cost)
    reveals, probs = profile.plan(config)
    for size in [1, 7, 33, 1001, 32768]:
        cuts = cut_points(size)
        for key in KERNEL_KEYS:
            whole = simulator._run_batch(reveals, probs, size, key, 0, size)
            parts = [
                simulator._run_batch(reveals, probs, size, key, lo, hi)
                for lo, hi in zip(cuts, cuts[1:])
            ]
            assert tuple(map(sum, zip(*parts))) == whole, (size, key, cuts)


def recording_executor(sizes):
    """A stand-in for ThreadPoolExecutor that appends its size to ``sizes``
    and runs ``map`` serially, so no thread is started."""

    class Executor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    return Executor


def set_cpus(monkeypatch, affinity, count):
    """Let the process run on ``affinity`` CPUs (None: the platform has no
    affinity mask) of a host that counts ``count``."""
    if affinity is None:
        monkeypatch.delattr(simulator.os, "sched_getaffinity", raising=False)
    else:
        mask = set(range(affinity))
        monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: mask, raising=False)
    monkeypatch.setattr(simulator.os, "cpu_count", lambda: count)


@pytest.mark.parametrize(
    "affinity, count, cpus",
    [(3, 64, 3), (64, 2, 64), (None, 64, 64), (None, None, 1)],
)
def test_usable_cpus(monkeypatch, affinity, count, cpus):
    set_cpus(monkeypatch, affinity, count)
    assert simulator._usable_cpus() == cpus


# (workers, usable CPUs, trials, threads started or None for serial, slices
# per batch); None CPUs: the platform counts none
WORKER_CASES = [
    (5000, 2, 3 * 32768 + 1, 2, [1, 1, 1, 1]),  # one thread per CPU at most
    (3, 64, 5 * 32768, 3, [1] * 5),  # never more than asked
    (5000, None, 3 * 32768 + 1, None, [1] * 4),  # unknown CPU count: serial
    (5000, 64, 100, None, [1]),  # one batch too small to cut: serial
    (5000, 64, 3 * 32768 + 1, 25, [8, 8, 8, 1]),  # fewer batches than CPUs: slices
    (None, 2, 131072, 2, [1] * 4),  # as many batches as CPUs: whole batches
    (None, 2, 32768, 2, [2]),  # one batch: one slice per CPU
    (None, 8, 32768, 8, [8]),  # slices of 4096 trials at least
    (None, 64, 20000, 4, [4]),
    (None, 64, 8192, 2, [2]),
    (None, 64, 8191, None, [1]),
    (1, 64, 32768, None, [1]),  # one worker: serial
    (None, 1, 3 * 32768 + 1, None, [1] * 4),  # one CPU: serial
]


@pytest.mark.parametrize(
    "workers, cpus, trials, threads, parts",
    WORKER_CASES,
    ids=["-".join(map(str, case[:4])) for case in WORKER_CASES],
)
def test_workers_bound_the_threads(monkeypatch, workers, cpus, trials, threads, parts):
    config, profile = equilibrium(4, 0.1)
    serial = estimate(config, profile, trials, seed=21, workers=1)
    sizes, played = [], []
    kernel = simulator._run_batch

    def spy(reveals, probs, *piece):
        played.append(piece)
        return kernel(reveals, probs, *piece)

    monkeypatch.setattr(simulator, "_run_batch", spy)
    monkeypatch.setattr(simulator, "ThreadPoolExecutor", recording_executor(sizes))
    set_cpus(monkeypatch, None, cpus)
    stats = estimate(config, profile, trials, seed=21, workers=workers)
    assert sizes == ([] if threads is None else [threads])
    # batch b is cut into parts[b] even slices, played in order
    want = []
    for batch, cut in enumerate(parts):
        size = min(32768, trials - 32768 * batch)
        key = (21 << 64) | batch
        want += [(size, key, size * i // cut, size * (i + 1) // cut) for i in range(cut)]
    assert played == want
    assert stats == serial


def test_three_threads_match_serial(monkeypatch):
    set_cpus(monkeypatch, 3, 3)
    config, profile = mixed(40, 0.2)
    serial = estimate(config, profile, 70001, seed=2**63 + 7, workers=1)
    assert estimate(config, profile, 70001, seed=2**63 + 7, workers=8) == serial
