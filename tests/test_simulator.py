import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costly_secretary import (
    GameConfig,
    PolicySpec,
    StageRule,
    StrategyProfile,
    closed_form_success,
    compute_threshold,
    estimate,
    exact_evaluation,
    expected_stopping_time,
    simulator,
)


def rng_for(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def play_one(config, profile, key):
    """One game played by the batch kernel with a single trial.

    Returns the game's abilities and acceptance uniforms, read from the
    stream layout (with one trial, stage j draws its ability at output 2j
    and its uniform at output 2j + 1), the stage the kernel accepted at (0
    for nobody) and whether that hired the overall best.
    """
    draws = rng_for(key).random(2 * config.n_applicants)
    success, _, tau, _ = simulator._run_batch(*profile.plan(config), 1, key)
    return draws[0::2], draws[1::2], tau, bool(success)


def record_at(n, n_apps):
    """With no cost: every stage reveals, records before stage n are
    rejected, and a record at stage n is accepted outright."""
    rules = tuple(StageRule(True, float(k == n)) for k in range(1, n_apps + 1))
    return StrategyProfile(cost=0.0, stages=rules)


class TestProfiles:
    def test_equilibrium_matches_policy(self):
        cfg = GameConfig(10, 0.1)
        profile = StrategyProfile.equilibrium(cfg)
        accept = [0.1] * 3 + [1.0] * 7
        for n in range(1, 11):
            rule = profile.stages[n - 1]
            assert rule.learning
            assert rule.accept_prob == accept[n - 1]

    @pytest.mark.parametrize("n_apps, cost", [(2, 0.0), (10, 0.1), (1000, 0.4), (1000, 0.999)])
    def test_equilibrium_shares_one_rule_per_probability(self, n_apps, cost):
        cfg = GameConfig(n_apps, cost)
        profile = StrategyProfile.equilibrium(cfg)
        n_star = compute_threshold(n_apps)
        accept = [cost if n < n_star else 1.0 for n in range(1, n_apps + 1)]
        per_stage = StrategyProfile(cost=cost, stages=tuple(StageRule(True, q) for q in accept))
        assert len({id(rule) for rule in profile.stages}) <= 2
        assert profile.stages == per_stage.stages
        assert profile.plan(cfg) == per_stage.plan(cfg)

    def test_plan_larger_than_memory_is_refused(self, monkeypatch):
        real = os.sysconf
        monkeypatch.setattr(
            os, "sysconf", lambda name: 100 if name == "SC_PHYS_PAGES" else real(name)
        )
        big = GameConfig(10**5, 0.1)
        with pytest.raises(MemoryError, match="n_applicants=100000 need 3200000 bytes"):
            StrategyProfile.equilibrium(big)
        monkeypatch.undo()
        # where the host memory is unknown, the check is skipped
        monkeypatch.setattr(os, "sysconf_names", {})
        assert len(StrategyProfile.equilibrium(big).stages) == 10**5

    @pytest.mark.parametrize("n_apps", [10**5, 10**6])
    def test_plan_peak_is_within_the_refusal_bound(self, n_apps):
        # the memory refusal counts _PLAN_BYTES per stage for the solved
        # profile and its plan, so their traced peak must not exceed it
        cfg = GameConfig(n_apps, 0.1)
        tracemalloc.start()
        try:
            StrategyProfile.equilibrium(cfg).plan(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= simulator._PLAN_BYTES * n_apps

    def test_admin_acceptance_mapping(self):
        cfg = GameConfig(4, 0.3)
        profile = StrategyProfile.equilibrium(cfg)
        assert [r.accept_prob for r in profile.stages] == [0.3, 1.0, 1.0, 1.0]
        assert profile.plan(cfg) == ([True] * 4, [0.3, 1.0, 1.0, 1.0])
        # records are accepted per the rule, anything else never: stage 1
        # accepts when its uniform falls below 0.3, and otherwise the first
        # record after stage 1 is accepted
        accepted_first = 0
        for key in range(2000):
            theta, u, tau, _ = play_one(cfg, profile, key)
            later = [k + 1 for k in range(1, 4) if theta[k] > theta[:k].max()]
            if u[0] < 0.3:
                assert tau == 1
            else:
                assert tau == (later[0] if later else 0)
            accepted_first += tau == 1
        assert 0 < accepted_first < 2000

    def test_no_learning_masses_become_stage_probabilities(self):
        cfg = GameConfig(4, 0.3)
        blind = StrategyProfile.no_learning(cfg, [0.25, 0.25, 0.25, 0.25])
        # conditional on reaching the stage: 0.25, 1/3, 0.5, 1
        assert blind.stages[0].accept_prob == pytest.approx(0.25)
        assert blind.stages[1].accept_prob == pytest.approx(1 / 3)
        assert blind.stages[2].accept_prob == pytest.approx(0.5)
        assert blind.stages[3].accept_prob == pytest.approx(1.0)
        with pytest.raises(ValueError):
            StrategyProfile.no_learning(cfg, [0.5, 0.5, 0.5, 0.5])
        with pytest.raises(ValueError):
            StrategyProfile.no_learning(cfg, [-0.1, 0.5, 0.5, 0.1])

    def test_validation(self):
        cfg = GameConfig(3, 0.2)
        with pytest.raises(ValueError):
            StrategyProfile.no_learning(cfg, [0.5, 0.5])
        with pytest.raises(ValueError):
            StageRule(True, 1.5)
        for other in (GameConfig(4, 0.2), GameConfig(3, 0.3)):
            profile = StrategyProfile.equilibrium(other)
            with pytest.raises(ValueError):
                profile.plan(cfg)
            with pytest.raises(ValueError):
                estimate(cfg, profile, 10, seed=0)
        # both plan types share the stage-count check and its message
        four = GameConfig(4, 0.2)
        policy = PolicySpec(tuple(StrategyProfile.equilibrium(four).plan(four)[1]), (True,) * 4)
        for plan in (StrategyProfile.equilibrium(four), policy):
            with pytest.raises(ValueError, match="plan has 4 stages, instance has 3 applicants"):
                plan.plan(cfg)


class TestSampleAbilities:
    def test_record_frequencies_played_by_kernel(self):
        # stage n holds a record, and so is accepted, 1/n of the time
        cfg = GameConfig(5, 0.0)
        trials = 20000
        for n in range(1, 6):
            stats = estimate(cfg, record_at(n, 5), trials, seed=13 + n)
            p = 1.0 / n
            se = math.sqrt(p * (1 - p) / trials)
            assert abs(stats.acceptance_rate - p) <= 4 * se

    def test_symmetry_two_applicants(self):
        # blind acceptance of the second applicant hires the best half the time
        cfg = GameConfig(2, 0.0)
        stats = estimate(cfg, StrategyProfile.no_learning(cfg, [0.0, 1.0]), 20000, seed=17)
        se = math.sqrt(0.25 / 20000)
        assert abs(stats.success_rate - 0.5) <= 4 * se

    def test_record_indicators_independent(self):
        # N=3, no cost: stage 1 rejects, stage 2 accepts a record half the
        # time, stage 3 accepts a record outright.  Acceptance then has
        # probability 1/2 * 1/2 + 1/3 - P(records at 2 and 3) / 2, which is
        # 1/2 with mean stopping index 5/4 when the records at stages 2 and 3
        # are independent (probability 1/6 jointly)
        cfg = GameConfig(3, 0.0)
        rules = (StageRule(True, 0.0), StageRule(True, 0.5), StageRule(True, 1.0))
        trials = 40000
        stats = estimate(cfg, StrategyProfile(0.0, rules), trials, seed=19)
        assert abs(stats.acceptance_rate - 0.5) <= 4 * math.sqrt(0.25 / trials)
        assert abs(stats.mean_tau_unconditional - 1.25) <= 4 * stats.tau_se


class TestApplicantAction:
    """Interview decisions, read off the stage plan and single games."""

    def test_below_past_maximum_declines(self):
        cfg = GameConfig(5, 0.3)
        profile = StrategyProfile.equilibrium(cfg)
        declined = 0
        for key in range(2000):
            theta, _, tau, _ = play_one(cfg, profile, key)
            # an applicant below the best so far declines, so is never accepted
            if tau:
                assert theta[tau - 1] > theta[: tau - 1].max(initial=0.0)
            declined += sum(theta[k] < theta[:k].max() for k in range(1, tau or 5))
        assert declined > 0

    def test_stage_one_always_completes(self):
        for cost in (0.0, 0.5, 0.9):
            cfg = GameConfig(5, cost)
            profile = StrategyProfile.equilibrium(cfg)
            reveals, probs = profile.plan(cfg)
            assert reveals[0]
            # so only the administrator's coin decides stage 1
            for key in range(200):
                _, u, tau, _ = play_one(cfg, profile, key)
                assert (tau == 1) == (u[0] < probs[0])

    def test_no_learning_always_declines(self):
        cfg = GameConfig(5, 0.3)
        profile = StrategyProfile.no_learning(cfg, [0.6, 0.1, 0.1, 0.1, 0.1])
        reveals, probs = profile.plan(cfg)
        assert reveals == [False] * 5
        # nobody completes, so the coins alone pick the stage
        for key in range(500):
            _, u, tau, _ = play_one(cfg, profile, key)
            coins = [k + 1 for k in range(5) if u[k] < probs[k]]
            assert tau == (coins[0] if coins else 0)

    def test_record_with_insufficient_incentive_declines(self):
        cfg = GameConfig(5, 0.3)
        rules = tuple(StageRule(True, 0.1) for _ in range(5))
        profile = StrategyProfile(cost=0.3, stages=rules)
        # nobody completes, and a stage nobody completes accepts nothing
        assert profile.plan(cfg) == ([False] * 5, [0.0] * 5)
        assert estimate(cfg, profile, 500, seed=59).acceptance_rate == 0.0


class TestPlayGame:
    """Single games, played by the batch kernel with one trial."""

    def test_transcript_invariants_equilibrium(self):
        cfg = GameConfig(6, 0.4)
        profile = StrategyProfile.equilibrium(cfg)
        for key in range(3000):
            theta, _, tau, success = play_one(cfg, profile, key)
            # only a record is accepted, and success means the accepted
            # applicant is the overall best
            if tau:
                assert theta[tau - 1] == theta[:tau].max()
            assert success == (tau > 0 and theta[tau - 1] == theta.max())
        # outputs track the running maximum of abilities on every prefix
        assert exact_evaluation(cfg, profile).counterexample is None

    def test_two_applicants_no_cost(self):
        cfg = GameConfig(2, 0.0)
        profile = StrategyProfile.equilibrium(cfg)
        for key in range(500):
            theta, _, tau, success = play_one(cfg, profile, key)
            assert tau == 1
            assert success == (theta[0] > theta[1])

    def test_accept_first_blindly(self):
        cfg = GameConfig(6, 0.4)
        profile = StrategyProfile.no_learning(cfg, [1.0, 0, 0, 0, 0, 0])
        trials = 6000
        stats = estimate(cfg, profile, trials, seed=31)
        assert stats.acceptance_rate == 1.0
        assert stats.mean_tau_unconditional == 1.0
        se = math.sqrt((1 / 6) * (5 / 6) / trials)
        assert abs(stats.success_rate - 1 / 6) <= 4 * se

    def test_conditional_success_given_acceptance_stage(self):
        # a record accepted at stage n is the overall best n/N of the time
        cfg = GameConfig(5, 0.0)
        trials = 25000
        for n in range(1, 6):
            stats = estimate(cfg, record_at(n, 5), trials, seed=41 + n)
            accepts = stats.acceptance_rate * trials
            p = n / 5
            se = math.sqrt(p * (1 - p) / accepts)
            assert abs(stats.success_rate / stats.acceptance_rate - p) <= 4 * se + 1e-12


class TestEstimate:
    def test_matches_exact_small_instance(self):
        cfg = GameConfig(3, 0.5)
        profile = StrategyProfile.equilibrium(cfg)
        stats = estimate(cfg, profile, 200000, seed=1)
        pi = closed_form_success(cfg)
        assert abs(stats.success_rate - pi) <= 4 * stats.success_se
        tau = expected_stopping_time(cfg)
        assert abs(stats.mean_tau_unconditional - tau) <= 4 * stats.tau_se

    def test_large_market_clears_one_fifth_with_margin(self):
        cfg = GameConfig(1000, 0.1)
        stats = estimate(cfg, StrategyProfile.equilibrium(cfg), 150000, seed=8)
        assert stats.success_rate - 4 * stats.success_se > 0.2

    def test_deterministic_across_workers(self):
        cfg = GameConfig(10, 0.1)
        profile = StrategyProfile.equilibrium(cfg)
        runs = [
            estimate(cfg, profile, 70000, seed=99, workers=w) for w in (1, 2, 5)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_different_seeds_differ(self):
        cfg = GameConfig(10, 0.1)
        profile = StrategyProfile.equilibrium(cfg)
        a = estimate(cfg, profile, 50000, seed=1)
        b = estimate(cfg, profile, 50000, seed=2)
        assert a.success_rate != b.success_rate

    def test_no_learning_success_is_uniform(self):
        # success rate 1/N for any blind acceptance vector
        cfg = GameConfig(5, 0.3)
        rng = np.random.default_rng(5)
        for _ in range(3):
            weights = rng.random(5)
            probs = weights / weights.sum()
            profile = StrategyProfile.no_learning(cfg, probs.tolist())
            stats = estimate(cfg, profile, 120000, seed=7)
            assert abs(stats.success_rate - 0.2) <= 4 * stats.success_se + 1e-9

    def test_consistency_of_means(self):
        cfg = GameConfig(8, 0.2)
        profile = StrategyProfile.equilibrium(cfg)
        stats = estimate(cfg, profile, 90000, seed=3)
        recomposed = stats.mean_tau_conditional * stats.acceptance_rate
        assert stats.mean_tau_unconditional == pytest.approx(recomposed, abs=1e-9)

    def test_validation(self):
        cfg = GameConfig(3, 0.1)
        profile = StrategyProfile.equilibrium(cfg)
        with pytest.raises(ValueError):
            estimate(cfg, profile, 0, seed=1)
        with pytest.raises(ValueError):
            estimate(cfg, profile, 10, seed=-1)
        with pytest.raises(ValueError):
            estimate(cfg, profile, 10, seed=2**64)
        for workers in (0, 1.5, True):
            with pytest.raises(ValueError):
                estimate(cfg, profile, 10, seed=1, workers=workers)


class TestIncentiveAudit:
    """The incentive constraints of a profile, as the stage plan, the oracle's
    policy check and the full-learning audit read them."""

    def test_equilibrium_clean_on_grid(self):
        for n_apps in (2, 3, 7, 20):
            for cost in (0.0, 0.1, 0.5, 0.9):
                cfg = GameConfig(n_apps, cost)
                # every record acceptance covers the cost, so every stage reveals
                profile = StrategyProfile.equilibrium(cfg)
                assert profile.plan(cfg)[0] == [True] * n_apps
                policy = PolicySpec(tuple(profile.plan(cfg)[1]), (True,) * n_apps)
                assert policy.plan(cfg)[0] == [True] * n_apps

    def test_underpaying_record_stage_flagged(self):
        cfg = GameConfig(4, 0.4)
        probs = StrategyProfile.equilibrium(cfg).plan(cfg)[1]
        probs[1] = 0.2  # cost/2 at a record stage
        with pytest.raises(ValueError, match="stage 2: record acceptance 0.2 is below"):
            PolicySpec(tuple(probs), (True,) * 4).plan(cfg)
        rules = list(StrategyProfile.equilibrium(cfg).stages)
        rules[1] = StageRule(True, 0.2)
        reveals, plan_probs = StrategyProfile(0.4, tuple(rules)).plan(cfg)
        assert reveals == [True, False, True, True]
        assert plan_probs[1] == 0.0

    def test_no_learning_clean(self):
        cfg = GameConfig(5, 0.6)
        profile = StrategyProfile.no_learning(cfg, [0.2] * 5)
        reveals, probs = profile.plan(cfg)
        assert reveals == [False] * 5
        assert probs == [r.accept_prob for r in profile.stages]
        assert PolicySpec.from_acceptance_masses([0.2] * 5).plan(cfg)[0] == [False] * 5

    def test_forced_decline_mismatch_flagged(self):
        cfg = GameConfig(3, 0.2)
        rules = list(StrategyProfile.equilibrium(cfg).stages)
        rules[1] = StageRule(True, 1.0, force_decline=True)
        profile = StrategyProfile(0.2, tuple(rules))
        # stage 2 reveals nothing although completing pays, so a new best
        # there breaks the full-learning prefix
        assert profile.plan(cfg)[0] == [True, False, True]
        assert exact_evaluation(cfg, profile).counterexample == ((1, 2, 3), 2)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_both_plan_types_read_one_plan(data):
    # on stages both types can express, a profile and a policy give the same
    # stage plan: learning stages offer 0 or at least the cost, blind stages
    # any probability, and nobody is forced to decline
    n_apps = data.draw(st.integers(min_value=2, max_value=8))
    cost = data.draw(st.floats(min_value=0.0, max_value=0.99))
    offer = st.just(0.0) | st.just(cost) | st.floats(min_value=cost, max_value=1.0)
    stage = st.tuples(st.just(True), offer) | st.tuples(
        st.just(False), st.floats(min_value=0.0, max_value=1.0)
    )
    stages = data.draw(st.lists(stage, min_size=n_apps, max_size=n_apps))
    cfg = GameConfig(n_apps, cost)
    profile = StrategyProfile(cost, tuple(StageRule(learn, q) for learn, q in stages))
    policy = PolicySpec(tuple(q for _, q in stages), tuple(learn for learn, _ in stages))
    assert profile.plan(cfg) == policy.plan(cfg)
