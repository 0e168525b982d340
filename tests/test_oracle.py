import dataclasses
import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from costly_secretary import (
    GameConfig,
    PolicySpec,
    StageRule,
    StrategyProfile,
    VerificationError,
    closed_form_success,
    estimate,
    exact_evaluation,
    exact_state_value,
    exact_success_probability,
    optimality_scan,
    policy_success_probability,
    solve_values,
)
from costly_secretary import oracle
from costly_secretary.oracle import _first_break, _lumped_walk

COST_GRID = [k / 10 for k in range(10)]


class TestExactSuccessProbability:
    def test_equilibrium_three_half(self):
        cfg = GameConfig(3, 0.5)
        pi = exact_success_probability(cfg, StrategyProfile.equilibrium(cfg))
        assert pi == Fraction(5, 12)

    def test_equilibrium_two_free(self):
        cfg = GameConfig(2, 0.0)
        pi = exact_success_probability(cfg, StrategyProfile.equilibrium(cfg))
        assert pi == Fraction(1, 2)

    def test_uniform_masses(self):
        cfg = GameConfig(3, 0.0)
        policy = PolicySpec.from_acceptance_masses([Fraction(1, 3)] * 3)
        assert exact_success_probability(cfg, policy) == Fraction(1, 3)

    def test_random_mass_vectors_give_uniform_success(self):
        rand = random.Random(424242)
        for n_apps in range(2, 7):
            cfg = GameConfig(n_apps, 0.0)
            for _ in range(5):
                weights = [rand.randint(1, 50) for _ in range(n_apps)]
                total = sum(weights)
                masses = [Fraction(w, total) for w in weights]
                policy = PolicySpec.from_acceptance_masses(masses)
                assert exact_success_probability(cfg, policy) == Fraction(1, n_apps)

    def test_three_way_agreement_small_grid(self):
        for cost in (0.0, 0.3, 0.7):
            for n_apps in range(2, 7):
                cfg = GameConfig(n_apps, cost)
                dp = solve_values(cfg).success_probability
                enum = float(exact_success_probability(cfg, StrategyProfile.equilibrium(cfg)))
                assert abs(enum - dp) <= 1e-12
                assert abs(closed_form_success(cfg) - dp) <= 1e-12

    def test_rejects_large_instances(self):
        cfg = GameConfig(11, 0.0)
        with pytest.raises(ValueError):
            exact_success_probability(cfg, StrategyProfile.equilibrium(cfg))

    def test_rejects_underfunded_learning_stage(self):
        cfg = GameConfig(3, 0.5)
        policy = PolicySpec(accept_probs=(0.2, 1.0, 1.0), learning=(True,) * 3)
        with pytest.raises(ValueError):
            exact_success_probability(cfg, policy)


class TestExactExpectedTau:
    def test_three_half(self):
        cfg = GameConfig(3, 0.5)
        tau = exact_evaluation(cfg, StrategyProfile.equilibrium(cfg)).expected_tau
        assert tau == Fraction(5, 4)

    def test_two_free(self):
        cfg = GameConfig(2, 0.0)
        assert exact_evaluation(cfg, StrategyProfile.equilibrium(cfg)).expected_tau == 1

    def test_identity_with_success(self):
        # a record accepted at stage n is best with probability exactly n/N,
        # so the stopping mass is N times the success mass, rationally
        for n_apps, cost in [(4, 0.3), (5, 0.8), (6, 0.0), (7, 0.45)]:
            cfg = GameConfig(n_apps, cost)
            exact = exact_evaluation(cfg, StrategyProfile.equilibrium(cfg))
            assert exact.expected_tau == n_apps * exact.success

    @pytest.mark.parametrize("n_apps", [9, 10])
    @pytest.mark.parametrize("cost", [0.0, 0.375, 0.5])
    def test_exact_identities_at_the_largest_sizes(self, n_apps, cost):
        cfg = GameConfig(n_apps, cost)
        exact = exact_evaluation(cfg, StrategyProfile.equilibrium(cfg))
        assert exact.expected_tau == n_apps * exact.success
        assert exact.counterexample is None
        assert exact.success == product_form(n_apps, cost)

    @pytest.mark.parametrize("n_apps", [50, 100, 300])
    @pytest.mark.parametrize("cost", [0.0, 0.375, 0.1])
    def test_lumped_walk_past_the_enumeration_limit(self, n_apps, cost):
        # the walk needs O(N^2) states, so it reaches sizes that no order
        # enumeration could; the refusal above N = 10 stays, since the walk's
        # integers grow with N and with the plan's denominators
        cfg = GameConfig(n_apps, cost)
        success, tau_mass, count = _lumped_walk(*StrategyProfile.equilibrium(cfg).plan(cfg))
        assert count == math.factorial(n_apps)
        assert tau_mass == n_apps * success
        assert success / count == product_form(n_apps, cost)


def product_form(n_apps, cost):
    """The solved plan's success at N >= 3, worked out in Fractions:
    N pi = S_{n*-2} (n* - 1 - c) (c / (1 - c) + sum_{k=n*-1}^{N-1} 1/k)
    with S_m = prod_{k<=m} (1 - c/k) and n* the least n with
    sum_{k=n}^{N-1} 1/k <= 1."""
    c = Fraction(cost)
    n_star, tail = n_apps, Fraction(0)  # tail = sum_{k=n*}^{N-1} 1/k
    while tail + Fraction(1, n_star - 1) <= 1:
        n_star -= 1
        tail += Fraction(1, n_star)
    tail += Fraction(1, n_star - 1)
    survive = math.prod(1 - c / k for k in range(1, n_star - 1))
    return survive * (n_star - 1 - c) * (c / (1 - c) + tail) / n_apps


class TestPolicyEvaluator:
    def test_matches_enumeration_on_random_policies(self):
        rand = random.Random(90125)
        for n_apps in (3, 4, 5):
            for cost in (0.0, 0.4):
                cfg = GameConfig(n_apps, cost)
                for _ in range(40):
                    probs = []
                    flags = []
                    for _ in range(n_apps):
                        learn = rand.random() < 0.6
                        if learn:
                            q = 0.0 if rand.random() < 0.2 else rand.uniform(cost, 1.0)
                        else:
                            q = rand.uniform(0.0, 1.0)
                        probs.append(q)
                        flags.append(learn)
                    policy = PolicySpec(tuple(probs), tuple(flags))
                    fast = policy_success_probability(cfg, policy)
                    slow = float(exact_success_probability(cfg, policy))
                    assert abs(fast - slow) <= 1e-13

    def test_hand_algebra_two_applicants(self):
        # accept stage-1 record with probability c, stage-2 record outright:
        # c/2 + (1-c)/2 = 1/2; blind-accepting applicant 1 also gives 1/2
        cfg = GameConfig(2, 0.3)
        learn = PolicySpec(accept_probs=(0.3, 1.0), learning=(True, True))
        assert policy_success_probability(cfg, learn) == pytest.approx(0.5, abs=1e-15)
        blind_first = PolicySpec(accept_probs=(1.0, 0.0), learning=(False, False))
        assert policy_success_probability(cfg, blind_first) == pytest.approx(
            0.5, abs=1e-15
        )

    def test_ignore_first_then_full_learning_scores_less(self):
        cfg = GameConfig(3, 0.5)
        ignore_first = PolicySpec(
            accept_probs=(0.0, 1.0, 1.0), learning=(False, True, True)
        )
        value = policy_success_probability(cfg, ignore_first)
        assert value == pytest.approx(1 / 3, abs=1e-15)
        assert value < 5 / 12 - 1e-9

    def test_numpy_probabilities_give_a_float(self):
        # numpy accept probabilities make numpy reveal flags and counts; the
        # result is still a Python float, equal to the plain one
        cfg = GameConfig(4, 0.25)
        plain = PolicySpec((0.25, 0.5, 1.0, 1.0), (True, True, True, False))
        numpy_probs = PolicySpec(tuple(np.array(plain.accept_probs)), plain.learning)
        value = policy_success_probability(cfg, numpy_probs)
        assert type(value) is float
        assert value == policy_success_probability(cfg, plain)


def _read_low(fn):
    """``fn`` with its success probability read 1e-6 low."""

    def low(*args, **kwargs):
        value = fn(*args, **kwargs)
        if hasattr(value, "success_probability"):
            return dataclasses.replace(value, success_probability=value.success_probability - 1e-6)
        return value - 1e-6

    return low


class TestOptimalityScan:
    def test_three_half_quarter_grid(self):
        cfg = GameConfig(3, 0.5)
        report = optimality_scan(cfg, grid_step=0.25)
        assert report.max_success == pytest.approx(5 / 12, abs=1e-12)
        found = {(p.learning, p.accept_probs) for p in report.maximizers}
        assert ((True, True, True), (0.5, 1.0, 1.0)) in found
        # blindly accepting the last applicant only ever fires on non-records,
        # which lose anyway, so that variant ties; nothing beats 5/12
        assert all(
            policy_success_probability(cfg, p) <= 5 / 12 + 1e-12
            for p in report.maximizers
        )

    def test_two_applicants_argmax_not_unique(self):
        report = optimality_scan(GameConfig(2, 0.3), grid_step=0.1)
        assert report.max_success == pytest.approx(0.5, abs=1e-12)
        assert report.n_maximizers > 1
        probs = {(p.learning, p.accept_probs) for p in report.maximizers}
        # blind-accepting applicant 1 outright ties the solved policy
        assert ((False, False), (1.0, 0.0)) in probs

    def test_four_applicants(self):
        cfg = GameConfig(4, 0.25)
        report = optimality_scan(cfg, grid_step=0.25)
        dp = solve_values(cfg).success_probability
        assert report.max_success <= dp + 1e-12

    @pytest.mark.parametrize(
        "name, message",
        [("solve_values", "above the solved value"),
         ("policy_success_probability", "misses the scan maximum")],
    )
    def test_scan_raises_on_a_value_read_low(self, monkeypatch, name, message):
        # the solved value or the solved policy's success read 1e-6 low: the
        # scan maximum then beats the one, or is missed by the other
        monkeypatch.setattr(oracle, name, _read_low(getattr(oracle, name)))
        with pytest.raises(VerificationError, match=message):
            optimality_scan(GameConfig(4, 0.25), grid_step=0.25)

    def test_budget_and_validation(self):
        with pytest.raises(ValueError):
            optimality_scan(GameConfig(5, 0.2), grid_step=0.05)
        # counted before the grid is built: a tiny step fails at once, and
        # one near the smallest float does not overflow k * grid_step
        with pytest.raises(ValueError, match=r"evaluate \d{901} policies, over the budget"):
            optimality_scan(GameConfig(3, 0.0), grid_step=1e-300)
        with pytest.raises(ValueError, match=r"over 2\*\*1023 grid points"):
            optimality_scan(GameConfig(2, 0.0), grid_step=5e-324)
        # the budget alone bounds the size: 11**9 policies at N = 9
        with pytest.raises(ValueError, match="evaluate 2357947691 policies, over the budget"):
            optimality_scan(GameConfig(9, 0.2), grid_step=0.25)
        with pytest.raises(ValueError):
            optimality_scan(GameConfig(3, 0.2), grid_step=0.3)

    @pytest.mark.parametrize(
        "n_apps, cost", [(14, 1 - 1e-13), (7, 0.4)], ids=["deepest", "widest"]
    )
    def test_peak_memory_of_the_largest_scans(self, n_apps, cost):
        # 3**14 and 9**7 policies, both under the budget: the walk holds one
        # expansion of at most _BLOCK // 4 states per stage, about 1.1 and
        # 0.5 MB at the peak
        tracemalloc.start()
        try:
            report = optimality_scan(GameConfig(n_apps, cost), grid_step=0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.n_policies <= oracle._MAX_POLICIES
        assert peak <= 2 << 20

    def test_nine_applicants_within_the_budget(self):
        # one grid point, base 5: 5**9 policies, under the budget
        cfg = GameConfig(9, 0.9)
        report = optimality_scan(cfg, grid_step=0.25)
        assert report.n_policies == 5**9
        dp = solve_values(cfg, tables=False).success_probability
        assert abs(report.max_success - dp) <= 1e-12


def flat_walk(reveals, probs, stage=1, state=1):
    """The enumeration as a per-order replay in the number type of ``probs``:
    every order of the N! is walked stage by stage on its own.  Kept as an
    independent reference for the state walk, which reuses each state."""
    n_apps = len(probs)
    start = stage - 1
    one = type(probs[0])(1)
    success = tau_mass = 0 * one
    count = 0
    first = None
    for order in itertools.permutations(range(1, n_apps + 1)):
        revealed = max(order[:start], default=0)
        if (order[start] > revealed) != (state == 1):
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
                if not alive:
                    break
    return success, tau_mass, count, first


def dfs_first_break(reveals, probs):
    """The first full-learning break as a depth-first search over order
    prefixes in lexicographic order, each (ranks left, best revealed) state
    solved at most once: up to 2^N (N + 1) states.  Kept as an independent
    reference for the oracle's O(N) construction of the same break."""
    n_apps = len(probs)
    certain = [q == 1 for q in probs]
    path = []
    clean = set()

    def search(idx, rest, revealed):
        if (rest, revealed) in clean:
            return None
        for i, rank in enumerate(rest):
            above = rank > revealed
            if not reveals[idx] and above:
                return (*path, rank, *rest[:i], *rest[i + 1 :]), idx + 1
            # a prefix behind a certain acceptance is unreachable
            if certain[idx] and (above or not reveals[idx]):
                continue
            if idx + 1 < n_apps:
                path.append(rank)
                found = search(idx + 1, rest[:i] + rest[i + 1 :], max(rank, revealed))
                path.pop()
                if found:
                    return found
        clean.add((rest, revealed))
        return None

    return search(0, tuple(range(1, n_apps + 1)), 0)


def random_policy(rand, n_apps, cost):
    """Learning and blind stages with float and Fraction probabilities,
    certain acceptances included; ``cost`` is at most 1/2."""
    probs, flags = [], []
    for _ in range(n_apps):
        learn = rand.random() < 0.5
        if learn:
            q = rand.choice(
                [0, cost, 1.0, Fraction(1), rand.uniform(cost, 1.0),
                 Fraction(rand.randint(10, 20), 20)]
            )
        else:
            q = rand.choice(
                [0.0, 1.0, Fraction(1), rand.random(), Fraction(rand.randint(0, 7), 7)]
            )
        probs.append(q)
        flags.append(learn)
    return PolicySpec(tuple(probs), tuple(flags))


class TestPrefixWalk:
    """The prefix walk equals the per-order replay exactly."""

    def test_success_and_tau_on_random_policies(self):
        rand = random.Random(20240611)
        for _ in range(120):
            n_apps = rand.randint(2, 6)
            cfg = GameConfig(n_apps, rand.choice([0.0, 0.1, 0.5]))
            policy = random_policy(rand, n_apps, cfg.cost)
            reveals, probs = policy.plan(cfg)
            success, tau_mass, count, _ = flat_walk(reveals, [Fraction(q) for q in probs])
            exact = exact_evaluation(cfg, policy)
            assert exact.success == success / count
            assert exact.expected_tau == tau_mass / count

    def test_every_state_value(self):
        rand = random.Random(77)
        for n_apps in range(2, 7):
            for cost in (0.0, rand.random(), rand.choice(COST_GRID)):
                cfg = GameConfig(n_apps, cost)
                plan = (
                    [True] * n_apps,
                    [Fraction(q) for q in StrategyProfile.equilibrium(cfg).plan(cfg)[1]],
                )
                expected = {}
                for stage in range(n_apps, 0, -1):
                    for state in (1, 0):
                        if (stage, state) == (1, 0):
                            value = (expected[2, 1] + expected[2, 0]) / 2
                        else:
                            success, _, count, _ = flat_walk(*plan, stage, state)
                            value = success / count
                        expected[stage, state] = value
                        assert exact_state_value(cfg, stage, state) == value

    def test_counts_and_first_break_from_any_state(self):
        # from stage 3 on a head set has several orderings, which the walk
        # takes once by its largest rank; the first break from stage 1 must
        # be the replay's
        rand = random.Random(31337)
        for _ in range(80):
            n_apps = rand.randint(2, 7)
            cost = rand.choice([0.0, 0.3])
            rules = [
                StageRule(rand.random() < 0.7, rand.choice([0.0, 1.0, rand.uniform(cost, 1)]),
                          force_decline=rand.random() < 0.15)
                for _ in range(n_apps)
            ]
            profile = StrategyProfile(cost, tuple(rules))
            float_plan = profile.plan(GameConfig(n_apps, cost))
            exact_plan = (float_plan[0], [Fraction(q) for q in float_plan[1]])
            stage = rand.randint(1, n_apps)
            state = 1 if stage == 1 else rand.randint(0, 1)
            expected = flat_walk(*exact_plan, stage, state)
            # from stage 1, the witness search, and the public evaluation of
            # the float profile and of its plan as a Fraction policy, equal
            # the per-order replay
            success, tau_mass, count, first = flat_walk(*exact_plan)
            for plan in (exact_plan, float_plan):
                assert _lumped_walk(*plan, stage, state) == expected[:3]
                assert _first_break(*plan) == first
            fraction_policy = PolicySpec(tuple(exact_plan[1]), tuple(exact_plan[0]))
            for plan in (profile, fraction_policy):
                got = exact_evaluation(GameConfig(n_apps, cost), plan)
                assert (got.success, got.expected_tau, got.counterexample) == (
                    success / count, tau_mass / count, first
                )

    def test_eight_applicants_from_stage_one_and_a_later_state(self):
        # two revealing stages, then blind and forced-decline ones; the walk
        # lumps the orders by (ranks above the best revealed, rank N among
        # them), and every output, the first break included, must still be
        # the replay's
        rand = random.Random(20)
        cost = 0.25
        rules = [StageRule(True, rand.randint(4, 15) / 16) for _ in range(2)] + [
            StageRule(rand.random() < 0.6, rand.randint(0, 16) / 16,
                      force_decline=rand.random() < 0.2)
            for _ in range(6)
        ]
        float_plan = StrategyProfile(cost, tuple(rules)).plan(GameConfig(8, cost))
        assert any(r.force_decline for r in rules) and not all(r.learning for r in rules)
        fraction_plan = (
            float_plan[0],
            [Fraction(rand.randint(2, 7), 7) if q else Fraction(0) for q in float_plan[1]],
        )
        for reveals, probs in (float_plan, fraction_plan):
            later = rand.randint(3, 8), rand.randint(0, 1)
            exact = [Fraction(q) for q in probs]
            expected = flat_walk(reveals, exact)
            assert expected[3] is not None
            assert _first_break(reveals, probs) == expected[3]
            assert _lumped_walk(reveals, probs) == expected[:3]
            later_walk = _lumped_walk(reveals, probs, *later)
            assert later_walk == flat_walk(reveals, exact, *later)[:3]


def one_by_one(totals):
    """The scan's running maximum, taken one total at a time: returns the
    maximum, the number of ties, the positions of the first 256 ties, and
    the positions of every rise and tie."""
    best, n_max, kept, hits = -1.0, 0, [], []
    for pos, total in enumerate(totals):
        if total > best + 1e-12:
            best, n_max, kept = total, 1, [pos]
            hits.append(pos)
        elif total >= best - 1e-12:
            n_max += 1
            hits.append(pos)
            if len(kept) < 256:
                kept.append(pos)
    return best, n_max, kept, hits


def scan_reference(config, grid_step):
    """The policy scan as a loop over itertools.product with a scalar stage
    recursion.  Returns the maximum, the number of ties, the kept maximizers
    as (learning, accept_probs), and the positions of the rises and ties."""
    cost, n_apps = config.cost, config.n_applicants
    qgrid = grid_loop(cost, grid_step)
    options = [(True, q) for q in qgrid] + [(False, 0.0)] + [(False, q) for q in qgrid]
    combos = list(itertools.product(options, repeat=n_apps))
    totals = []
    for combo in combos:
        inv_n, alive, total, j = 1.0 / n_apps, 1.0, 0.0, 0
        for reveals, q in combo:
            if reveals:
                j += 1
                total += alive * q * inv_n
                alive *= 1.0 - q / j
            elif q > 0.0:
                total += alive * q * inv_n
                alive *= 1.0 - q
        totals.append(total)
    best, n_max, kept, hits = one_by_one(totals)
    kept = [(tuple(f for f, _ in combos[p]), tuple(q for _, q in combos[p])) for p in kept]
    return best, n_max, kept, hits


def grid_loop(cost, grid_step):
    """The scan grid built one point at a time, as the scan built it before
    it counted the points first."""
    qgrid = []
    v = cost
    while v < 1.0 - 1e-12:
        qgrid.append(v)
        v = cost + len(qgrid) * grid_step
    qgrid.append(1.0)
    return qgrid


def test_grid_points_match_the_loop():
    rand = random.Random(1618)
    cases = [(0.0, 0.25), (0.0, 0.1), (0.4, 0.1), (0.75, 0.25), (1 - 1e-12, 0.25),
             (0.0, 0.00045), (0.3, 1e-4), (0.5, 1 / 3 / 7)]
    cases += [(rand.choice([0.0, rand.random()]), rand.uniform(1e-3, 0.25)) for _ in range(200)]
    for cost, grid_step in cases:
        assert oracle._grid_points(cost, grid_step) == len(grid_loop(cost, grid_step)) - 1


class TestScanAgainstProductLoop:
    @staticmethod
    def assert_same(config, grid_step):
        best, n_max, kept, hits = scan_reference(config, grid_step)
        fold, seen = oracle._fold_maximum, []

        def spy(total, where, *args):
            seen.extend(where.tolist())
            return fold(total, where, *args)

        with mock.patch.object(oracle, "_fold_maximum", spy):
            report = optimality_scan(config, grid_step)
        # every rise and tie reaches the fold, and in order
        assert set(hits) <= set(seen)
        assert all(a < b for a, b in itertools.pairwise(seen))
        base = 2 * len(grid_loop(config.cost, grid_step)) + 1
        assert report.n_policies == base**config.n_applicants
        assert report.max_success == best and type(report.max_success) is float
        assert report.n_maximizers == n_max
        assert [(p.learning, p.accept_probs) for p in report.maximizers] == kept
        return n_max, kept, hits

    def test_fold_matches_one_by_one_on_near_ties(self):
        # totals 5e-13 apart around a slowly rising level, so that rises and
        # ties within and just past the 1e-12 margin fall in every block
        rand = random.Random(8128)
        for _ in range(20):
            totals = [0.5 + (i // 40 + rand.randint(-4, 4)) * 5e-13 for i in range(3000)]
            best, n_max, kept, _ = one_by_one(totals)
            got_best, got_n, got_kept, lo = -1.0, 0, [], 0
            while lo < len(totals):
                size = rand.randint(1, 400)
                block = np.array(totals[lo : lo + size])
                where = np.arange(lo, lo + block.size)
                got_best, got_n = oracle._fold_maximum(block, where, got_best, got_n, got_kept)
                lo += size
            assert (got_best, got_n, got_kept) == (best, n_max, kept)
            assert type(got_best) is float

    def test_row_filter_matches_one_by_one_on_near_ties(self, monkeypatch):
        # rows whose q = 1 leaves sit 5e-13 apart (on the grid or off it)
        # around a slowly rising level, with surviving masses from 0 to far
        # above the 1e-12 margin, so that rows near every bar are kept and
        # skipped
        monkeypatch.setattr(oracle, "_BLOCK", 256)
        probs = np.array([0.25, 0.5, 0.75, 1.0, 0.0, 0.25, 0.5, 0.75, 1.0])
        inv_n = 1.0 / 4
        fold, folded = oracle._fold_maximum, []

        def spy(total, *args):
            folded.append(total.size)
            return fold(total, *args)

        monkeypatch.setattr(oracle, "_fold_maximum", spy)
        rand = random.Random(496)
        for _ in range(20):
            alive = np.array([rand.choice([0.0, 1e-12, 6e-12, 0.4]) for _ in range(600)])
            jitter = rand.choice([0.0, 5e-13])
            level = np.array([
                0.5 + (i // 30 + rand.randint(-4, 4)) * 5e-13 + rand.uniform(0.0, jitter)
                for i in range(600)
            ])
            total = level - alive * inv_n
            leaves = [t + a * q * inv_n for t, a in zip(total, alive) for q in probs]
            best, n_max, kept, _ = one_by_one(leaves)
            got_best, got_n, got_kept, lo = -1.0, 0, [], 0
            while lo < total.size:
                size = rand.randint(1, 150)
                got_best, got_n = oracle._fold_rows(
                    total[lo : lo + size], alive[lo : lo + size], lo, probs, inv_n,
                    got_best, got_n, got_kept,
                )
                lo += size
            assert (got_best, got_n, got_kept) == (best, n_max, kept)
            assert type(got_best) is float
        assert sum(folded) < 20 * len(leaves) and max(folded) <= 256 // 4

    @pytest.mark.parametrize("block", [4, 28, 1000, None])
    def test_random_grids(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(oracle, "_BLOCK", block)
        rand = random.Random(2025 + (block or 0))
        for _ in range(8):
            n_apps = rand.randint(2, 4)
            while True:
                cost = rand.choice([0.0, round(rand.uniform(0.0, 0.9), 3)])
                grid_step = rand.uniform(0.01, 0.25)
                base = 2 * len(grid_loop(cost, grid_step)) + 1
                if base**n_apps <= 20000:
                    break
            self.assert_same(GameConfig(n_apps, cost), grid_step)

    @pytest.mark.parametrize(
        "n_apps, cost, grid_step",
        [(3, 0.5, 0.25),  # 7**3 policies: one piece at every stage
         (5, 0.4, 0.25)],  # 729 three-stage states in pieces of 455: the last is short
    )
    def test_chunk_edges(self, n_apps, cost, grid_step):
        self.assert_same(GameConfig(n_apps, cost), grid_step)

    def test_ties_truncated_to_kept_cap(self):
        n_max, kept, _ = self.assert_same(GameConfig(2, 0.0), 0.02)
        assert n_max == 408 and len(kept) == 256

    @pytest.mark.parametrize(
        "n_apps, cost, grid_step", [(3, 0.5, 0.1), (4, 0.0, 0.25), (5, 0.4, 0.25), (6, 0.25, 0.25)]
    )
    def test_leaves_are_the_recursion_bit_for_bit(self, n_apps, cost, grid_step):
        # the scan's vectorized stages and policy_success_probability are
        # written apart: every folded leaf, the solved plan's among them,
        # must be the scalar recursion's float exactly
        config = GameConfig(n_apps, cost)
        fold, leaves = oracle._fold_maximum, {}

        def spy(total, where, *args):
            leaves.update(zip(where.tolist(), total.tolist()))
            return fold(total, where, *args)

        with mock.patch.object(oracle, "_fold_maximum", spy):
            report = optimality_scan(config, grid_step)
        qgrid = grid_loop(cost, grid_step)
        options = [(True, q) for q in qgrid] + [(False, 0.0)] + [(False, q) for q in qgrid]
        base = len(options)
        reveals, probs = StrategyProfile.equilibrium(config).plan(config)
        solved = 0
        for learn, q in zip(reveals, probs):
            solved = solved * base + options.index((learn, q))
        assert leaves[solved] == report.equilibrium_success
        for pos, total in leaves.items():
            digits = [(pos // base**k) % base for k in reversed(range(n_apps))]
            policy = PolicySpec(
                tuple(options[d][1] for d in digits), tuple(options[d][0] for d in digits)
            )
            assert policy_success_probability(config, policy) == total

    def test_ties_in_later_blocks(self):
        # base 203: the root expands to 203 stage-1 rows, folded in groups of 20
        _, _, hits = self.assert_same(GameConfig(2, 0.0), 0.01)
        assert max(hits) >= oracle._BLOCK

    @pytest.mark.parametrize(
        "n_apps, cost, grid_step, block",
        [(3, 0.5, 0.25, 4), (2, 0.3, 0.05, 4), (3, 0.2, 0.1, 20), (2, 0.0, 0.02, 256),
         (4, 0.3, 0.1, 28), (4, 0.3, 0.1, 1000)],
    )
    def test_resets_and_ties_across_small_blocks(self, monkeypatch, n_apps, cost, grid_step, block):
        monkeypatch.setattr(oracle, "_BLOCK", block)
        _, _, hits = self.assert_same(GameConfig(n_apps, cost), grid_step)
        assert len({pos // block for pos in hits}) > 1


class TestFullLearningAudit:
    def test_equilibrium_passes(self):
        for cfg in (GameConfig(3, 0.5), GameConfig(5, 0.0)):
            assert exact_evaluation(cfg, StrategyProfile.equilibrium(cfg)).counterexample is None

    def test_forced_decline_fails_with_counterexample(self):
        cfg = GameConfig(3, 0.5)
        rules = list(StrategyProfile.equilibrium(cfg).stages)
        rules[1] = StageRule(True, 1.0, force_decline=True)
        profile = StrategyProfile(0.5, tuple(rules))
        order, stage = exact_evaluation(cfg, profile).counterexample
        # the prefix breaks exactly when applicant 2 should have revealed
        assert stage == 2
        assert order[1] > order[0]

    @pytest.mark.parametrize("n_apps", range(2, 11))
    def test_witness_search_runs_only_on_a_plan_that_can_break(self, n_apps):
        # the search runs on every plan: every stage of the solved plan
        # reveals, so no prefix breaks; with the last stage forced to
        # decline the witness is found there
        cfg = GameConfig(n_apps, 0.3)
        solved = StrategyProfile.equilibrium(cfg)
        assert exact_evaluation(cfg, solved).counterexample is None
        rules = list(solved.stages)
        rules[-1] = dataclasses.replace(rules[-1], force_decline=True)
        found = exact_evaluation(cfg, StrategyProfile(cfg.cost, tuple(rules))).counterexample
        if n_apps == 2:
            # stage 1 accepts its record outright, so stage 2 is never reached
            assert found is None
        else:
            order, stage = found
            assert stage == n_apps and order[-1] == n_apps

    def test_first_break_matches_the_depth_first_search(self):
        rand = random.Random(2718)
        stages = []
        for _ in range(6000):
            n_apps = rand.randint(2, 9)
            reveals, probs = [], []
            for _ in range(n_apps):
                kind = rand.random()
                q = rand.choice(
                    [0, 1, Fraction(rand.randint(0, 5), 5), rand.random(), 0.375]
                )
                if kind < 0.1:
                    q = 0.0  # a forced decline: blind, never accepts
                reveals.append(0.1 <= kind < 0.8)
                probs.append(q)
            expected = dfs_first_break(reveals, probs)
            assert _first_break(reveals, probs) == expected
            stages.append(None if expected is None else expected[1])
        # both verdicts, and breaks at several stages, occur in the sample
        assert None in stages and len(set(stages)) >= 6

    def test_forced_break_past_the_enumeration_limit(self):
        # the solved plan with its last stage blind at q = 0
        cfg = GameConfig(300, 0.1)
        reveals, probs = StrategyProfile.equilibrium(cfg).plan(cfg)
        reveals[-1], probs[-1] = False, 0.0
        order, stage = _first_break(reveals, probs)
        assert stage == 300 and order[-1] == 300
        assert sorted(order) == list(range(1, 301))

    @pytest.mark.parametrize("n_apps", [16, 300])
    def test_solved_plan_past_the_enumeration_limit_keeps_full_learning(self, n_apps):
        # every stage reveals, so the search finds no break; the
        # depth-first search visits up to 2^N (N + 1) states here
        cfg = GameConfig(n_apps, 0.1)
        reveals, probs = StrategyProfile.equilibrium(cfg).plan(cfg)
        assert all(reveals)
        assert _first_break(reveals, probs) is None

    def test_blind_stage_fails(self):
        cfg = GameConfig(3, 0.2)
        profile = StrategyProfile(
            0.2,
            (
                StageRule(False, 0.0),
                StageRule(True, 1.0),
                StageRule(True, 1.0),
            ),
        )
        assert exact_evaluation(cfg, profile).counterexample is not None

    def test_rejects_large_instances(self):
        cfg = GameConfig(11, 0.1)
        with pytest.raises(ValueError):
            exact_evaluation(cfg, StrategyProfile.equilibrium(cfg))

    @pytest.mark.parametrize("n_apps", [11, 10**9])
    def test_rejects_large_instances_before_reading_a_plan(self, monkeypatch, n_apps):
        # neither the plan of exact_evaluation nor the solved profile of
        # exact_state_value is built or read: each is O(N)
        class Unread:
            def plan(self, config):
                raise AssertionError("read the plan before checking the size")

        def forbidden(config):
            raise AssertionError("built the solved profile before checking the size")

        monkeypatch.setattr(StrategyProfile, "equilibrium", forbidden)
        cfg = GameConfig(n_apps, 0.1)
        message = "enumeration supports at most 10 applicants"
        with pytest.raises(ValueError, match=message):
            exact_evaluation(cfg, Unread())
        for stage, state in ((1, 1), (1, 0), (2, 0)):
            with pytest.raises(ValueError, match=message):
                exact_state_value(cfg, stage, state)

    @staticmethod
    def reference_counterexample(profile):
        """The audit as a per-stage replay of the game rules, kept as an
        independent reference for the walk over the orders."""
        n_apps = len(profile.stages)
        for order in itertools.permutations(range(1, n_apps + 1)):
            max_y = 0
            max_theta = 0
            for n, (rank, r) in enumerate(zip(order, profile.stages), start=1):
                pays = r.accept_prob >= profile.cost
                act = r.learning and not r.force_decline and pays and rank > max_y
                y = rank if act else 0
                if r.learning:
                    p = r.accept_prob if y > max_y else 0.0
                else:
                    p = r.accept_prob
                max_y = max(max_y, y)
                max_theta = max(max_theta, rank)
                if max_y != max_theta:
                    return order, n
                if p >= 1.0:
                    break
        return None

    def test_matches_per_stage_reference_on_random_profiles(self):
        rand = random.Random(5150)
        outcomes = set()
        for _ in range(320):
            n_apps = rand.randint(2, 6)
            cost = rand.choice(COST_GRID)
            rules = []
            for _ in range(n_apps):
                kind = rand.random()
                q = rand.choice([0.0, 1.0, rand.random()])
                if kind < 0.6:
                    rules.append(StageRule(True, max(q, cost)))
                elif kind < 0.7:
                    rules.append(StageRule(True, q))
                elif kind < 0.8:
                    rules.append(StageRule(True, q, force_decline=True))
                else:
                    rules.append(StageRule(False, q))
            profile = StrategyProfile(cost, tuple(rules))
            expected = self.reference_counterexample(profile)
            cfg = GameConfig(n_apps, cost)
            assert exact_evaluation(cfg, profile).counterexample == expected
            outcomes.add(None if expected is None else expected[1])
        # both verdicts, and breaks at several stages, occur in the sample
        assert None in outcomes and len(outcomes) >= 4


class TestExactStateValue:
    def test_matches_dp_tables(self):
        for cost in (0.0, 0.3, 0.7):
            for n_apps in (2, 3, 5, 6, 8):
                cfg = GameConfig(n_apps, cost)
                tables = solve_values(cfg)
                for stage in range(1, n_apps + 1):
                    v0 = float(exact_state_value(cfg, stage, 0))
                    v1 = float(exact_state_value(cfg, stage, 1))
                    assert abs(v0 - stage * tables.v0[stage]) <= 1e-12
                    assert abs(v1 - stage * tables.v1[stage]) <= 1e-12

    def test_scaled_state0_values_monotone_in_instance_size(self):
        # N * V must not fall as the market grows, for each fixed stage;
        # exact rational comparison across N up to 8
        for cost in (0.0, 0.5):
            for stage in range(1, 5):
                values = []
                for n_apps in range(max(stage, 2), 9):
                    cfg = GameConfig(n_apps, cost)
                    values.append(n_apps * exact_state_value(cfg, stage, 0))
                assert all(a <= b for a, b in zip(values, values[1:]))

    def test_terminal_state(self):
        cfg = GameConfig(4, 0.2)
        assert exact_state_value(cfg, 4, 0) == 0
        assert exact_state_value(cfg, 4, 1) == 1

    def test_validation(self):
        cfg = GameConfig(4, 0.2)
        with pytest.raises(ValueError):
            exact_state_value(cfg, 5, 0)
        with pytest.raises(ValueError):
            exact_state_value(cfg, 1, 2)


class TestMassConversion:
    """The simulator and the oracle convert acceptance masses by one rule."""

    @pytest.mark.parametrize(
        "masses", [[1.0, 6e-10, 6e-10], [0.5, 0.5, 0.5], [-0.1, 0.6, 0.4]]
    )
    def test_rejected_by_both(self, masses):
        with pytest.raises(ValueError):
            StrategyProfile.no_learning(GameConfig(len(masses), 0.1), masses)
        with pytest.raises(ValueError):
            PolicySpec.from_acceptance_masses(masses)

    def test_accepted_by_both(self):
        masses = [0.5, 0.5 + 8e-10]
        blind = StrategyProfile.no_learning(GameConfig(2, 0.1), masses)
        assert [r.accept_prob for r in blind.stages] == [0.5, 1.0]
        policy = PolicySpec.from_acceptance_masses(masses)
        assert policy.accept_probs == (Fraction(1, 2), Fraction(1))

    @pytest.mark.parametrize("masses", [[0.25] * 4, [0.1, 0.2, 0.3, 0.4]])
    def test_float_masses_keep_float_bits(self, masses):
        expected = []
        remaining = 1.0
        for p in masses:
            expected.append(min(p / remaining, 1.0))
            remaining -= p
        blind = StrategyProfile.no_learning(GameConfig(4, 0.1), masses)
        assert [r.accept_prob for r in blind.stages] == expected

    def test_fraction_masses_stay_exact(self):
        policy = PolicySpec.from_acceptance_masses([0.25] * 4)
        assert policy.accept_probs == tuple(Fraction(1, k) for k in (4, 3, 2, 1))
        assert all(isinstance(q, Fraction) for q in policy.accept_probs)


def test_enumeration_and_monte_carlo_never_call_the_solver(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an independent check called the solver")

    for name, module in list(sys.modules.items()):
        if name == "costly_secretary" or name.startswith("costly_secretary."):
            for attr in ("solve_values", "closed_form_success", "expected_stopping_time"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, forbidden)
    cfg = GameConfig(5, 0.3)
    profile = StrategyProfile.equilibrium(cfg)
    exact = exact_evaluation(cfg, profile)
    assert exact.success > 0
    assert exact.expected_tau > 0
    assert exact.counterexample is None
    assert exact_state_value(cfg, 2, 1) > 0
    assert estimate(cfg, profile, 1000, 0).trials == 1000
