import itertools
import math

import numpy as np
import pytest

from costly_secretary import (
    GameConfig,
    StageRule,
    StrategyProfile,
    closed_form_success,
    equilibrium_accept_probs,
    estimate,
    expected_stopping_time,
    incentive_audit,
    play_game,
    sample_abilities,
)


def rng_for(seed):
    return np.random.Generator(np.random.Philox(key=seed))


class TestProfiles:
    def test_equilibrium_matches_policy(self):
        cfg = GameConfig(10, 0.1)
        profile = StrategyProfile.equilibrium(cfg)
        accept = equilibrium_accept_probs(cfg)
        for n in range(1, 11):
            rule = profile.stages[n - 1]
            assert rule.learning
            assert rule.accept_prob == accept[n - 1]

    def test_admin_acceptance_mapping(self):
        cfg = GameConfig(4, 0.3)
        profile = StrategyProfile.equilibrium(cfg)
        assert [r.accept_prob for r in profile.stages] == [0.3, 1.0, 1.0, 1.0]
        # records are accepted per the rule, anything else never: every
        # accepted applicant completed and was the best so far, and a record
        # after stage 1 is always accepted
        rng = rng_for(3)
        accepted_first = 0
        for _ in range(2000):
            t = play_game(cfg, profile, rng)
            for k, act in enumerate(t.actions):
                assert act == (t.abilities[k] > max(t.abilities[:k], default=0.0))
                if k + 1 == t.accepted_index:
                    assert act
                elif k >= 1:
                    assert not act
            accepted_first += t.accepted_index == 1
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
        profile = StrategyProfile.equilibrium(GameConfig(4, 0.2))
        with pytest.raises(ValueError):
            play_game(cfg, profile, rng_for(0))


class TestSampleAbilities:
    def test_distinct_and_positive(self):
        rng = rng_for(7)
        for _ in range(200):
            draw = sample_abilities(10, rng)
            assert draw.shape == (10,)
            assert np.all(draw > 0)
            assert len(set(draw.tolist())) == 10

    def test_record_frequencies_match_inverse_rank(self):
        # the per-stage record probability is 1/n; check the same i.i.d.
        # uniform scheme the scalar sampler uses, at a million draws
        rng = rng_for(11)
        draws = rng.random((10**6, 10))
        running = np.maximum.accumulate(draws, axis=1)
        records = draws >= running
        freq = records.mean(axis=0)
        for n in range(1, 11):
            p = 1.0 / n
            se = math.sqrt(p * (1 - p) / 10**6)
            assert abs(freq[n - 1] - p) <= 4 * se + 1e-12

    def test_record_frequencies_scalar_path(self):
        rng = rng_for(13)
        trials = 20000
        hits = np.zeros(5)
        for _ in range(trials):
            draw = sample_abilities(5, rng)
            running = np.maximum.accumulate(draw)
            hits += draw >= running
        for n in range(1, 6):
            p = 1.0 / n
            se = math.sqrt(p * (1 - p) / trials)
            assert abs(hits[n - 1] / trials - p) <= 4 * se

    def test_symmetry_two_applicants(self):
        rng = rng_for(17)
        wins = sum(
            sample_abilities(2, rng).argmax() == 1 for _ in range(20000)
        )
        se = math.sqrt(0.25 / 20000)
        assert abs(wins / 20000 - 0.5) <= 4 * se

    def test_record_indicators_independent(self):
        # exact at N=3: records at stages 2 and 3 jointly in 1 of 6 orders
        joint = 0
        for order in itertools.permutations((1, 2, 3)):
            rec2 = order[1] > order[0]
            rec3 = order[2] > max(order[:2])
            joint += rec2 and rec3
        assert joint / 6 == pytest.approx(1 / 6)
        rng = rng_for(19)
        draws = rng.random((10**5, 3))
        rec2 = draws[:, 1] > draws[:, 0]
        rec3 = draws[:, 2] > draws[:, :2].max(axis=1)
        freq = np.mean(rec2 & rec3)
        se = math.sqrt((1 / 6) * (5 / 6) / 10**5)
        assert abs(freq - 1 / 6) <= 4 * se


class TestApplicantAction:
    """Interview decisions, read off play_game transcripts."""

    def test_below_past_maximum_declines(self):
        cfg = GameConfig(5, 0.3)
        profile = StrategyProfile.equilibrium(cfg)
        rng = rng_for(43)
        declined = 0
        for _ in range(2000):
            t = play_game(cfg, profile, rng)
            for k, act in enumerate(t.actions):
                if t.abilities[k] < max(t.outputs[:k], default=0.0):
                    assert act == 0
                    declined += 1
        assert declined > 0

    def test_stage_one_always_completes(self):
        for cost in (0.0, 0.5, 0.9):
            cfg = GameConfig(5, cost)
            profile = StrategyProfile.equilibrium(cfg)
            rng = rng_for(47)
            for _ in range(200):
                assert play_game(cfg, profile, rng).actions[0] == 1

    def test_no_learning_always_declines(self):
        cfg = GameConfig(5, 0.3)
        profile = StrategyProfile.no_learning(cfg, [0.6, 0.1, 0.1, 0.1, 0.1])
        rng = rng_for(53)
        for _ in range(500):
            assert not any(play_game(cfg, profile, rng).actions)

    def test_record_with_insufficient_incentive_declines(self):
        cfg = GameConfig(5, 0.3)
        rules = tuple(StageRule(True, 0.1) for _ in range(5))
        profile = StrategyProfile(cost=0.3, stages=rules)
        rng = rng_for(59)
        for _ in range(500):
            t = play_game(cfg, profile, rng)
            # nobody completes, and a stage nobody completes accepts nothing
            assert t.actions == (0,) * 5
            assert t.accepted_index is None


def check_transcript(transcript, config):
    n_seen = len(transcript.actions)
    assert len(transcript.outputs) == n_seen
    assert len(transcript.applicant_payoffs) == n_seen
    if transcript.accepted_index is None:
        assert n_seen == config.n_applicants
    else:
        assert n_seen == transcript.accepted_index
    # outputs reveal ability exactly when the interview was completed
    for k in range(n_seen):
        expected = transcript.abilities[k] if transcript.actions[k] else 0.0
        assert transcript.outputs[k] == expected
    # success means the accepted applicant is the overall best
    best = transcript.abilities.argmax() + 1
    assert transcript.success == (transcript.accepted_index == best)
    # payoff table
    for k in range(n_seen):
        a = transcript.actions[k]
        accepted = transcript.accepted_index == k + 1
        if a and accepted:
            assert transcript.applicant_payoffs[k] == 1.0 - config.cost
        elif a:
            assert transcript.applicant_payoffs[k] == -config.cost
        else:
            assert transcript.applicant_payoffs[k] == 0.0


class TestPlayGame:
    def test_transcript_invariants_equilibrium(self):
        cfg = GameConfig(6, 0.4)
        profile = StrategyProfile.equilibrium(cfg)
        rng = rng_for(23)
        for _ in range(3000):
            t = play_game(cfg, profile, rng)
            check_transcript(t, cfg)
            # full-learning prefix property and record classification
            run_theta = 0.0
            run_y = 0.0
            for k in range(len(t.outputs)):
                is_record = t.abilities[k] > run_theta
                assert (t.outputs[k] > run_y) == is_record
                run_theta = max(run_theta, float(t.abilities[k]))
                run_y = max(run_y, t.outputs[k])
                assert run_theta == run_y

    def test_two_applicants_no_cost(self):
        cfg = GameConfig(2, 0.0)
        profile = StrategyProfile.equilibrium(cfg)
        rng = rng_for(29)
        for _ in range(500):
            t = play_game(cfg, profile, rng)
            assert t.accepted_index == 1
            assert t.success == (t.abilities[0] > t.abilities[1])

    def test_accept_first_blindly(self):
        cfg = GameConfig(6, 0.4)
        profile = StrategyProfile.no_learning(cfg, [1.0, 0, 0, 0, 0, 0])
        rng = rng_for(31)
        hits = 0
        trials = 6000
        for _ in range(trials):
            t = play_game(cfg, profile, rng)
            assert t.accepted_index == 1
            check_transcript(t, cfg)
            hits += t.success
        se = math.sqrt((1 / 6) * (5 / 6) / trials)
        assert abs(hits / trials - 1 / 6) <= 4 * se

    def test_transcripts_no_learning(self):
        cfg = GameConfig(5, 0.3)
        profile = StrategyProfile.no_learning(cfg, [0.2] * 5)
        rng = rng_for(37)
        for _ in range(2000):
            t = play_game(cfg, profile, rng)
            check_transcript(t, cfg)
            assert all(a == 0 for a in t.actions)

    def test_conditional_success_given_acceptance_stage(self):
        # a record accepted at stage n is the overall best n/N of the time
        cfg = GameConfig(5, 0.3)
        profile = StrategyProfile.equilibrium(cfg)
        rng = rng_for(41)
        trials = 25000
        accepts = np.zeros(6)
        wins = np.zeros(6)
        for _ in range(trials):
            t = play_game(cfg, profile, rng)
            if t.accepted_index is not None:
                accepts[t.accepted_index] += 1
                wins[t.accepted_index] += t.success
        for n in range(1, 6):
            if accepts[n] < 200:
                continue
            p = n / 5
            se = math.sqrt(p * (1 - p) / accepts[n])
            assert abs(wins[n] / accepts[n] - p) <= 4 * se + 1e-12


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


class TestIncentiveAudit:
    def test_equilibrium_clean_on_grid(self):
        for n_apps in (2, 3, 7, 20):
            for cost in (0.0, 0.1, 0.5, 0.9):
                cfg = GameConfig(n_apps, cost)
                assert incentive_audit(cfg, StrategyProfile.equilibrium(cfg)) == []

    def test_underpaying_record_stage_flagged(self):
        cfg = GameConfig(4, 0.4)
        rules = list(StrategyProfile.equilibrium(cfg).stages)
        rules[1] = StageRule(True, 0.2)  # cost/2 at a record stage
        violations = incentive_audit(cfg, StrategyProfile(0.4, tuple(rules)))
        assert any(
            v.stage == 2 and v.code == "record-acceptance-below-cost"
            for v in violations
        )

    def test_no_learning_clean(self):
        cfg = GameConfig(5, 0.6)
        profile = StrategyProfile.no_learning(cfg, [0.2] * 5)
        assert incentive_audit(cfg, profile) == []

    def test_forced_decline_mismatch_flagged(self):
        cfg = GameConfig(3, 0.2)
        rules = list(StrategyProfile.equilibrium(cfg).stages)
        rules[1] = StageRule(True, 1.0, force_decline=True)
        violations = incentive_audit(cfg, StrategyProfile(0.2, tuple(rules)))
        assert any(
            v.stage == 2 and v.code == "completion-mismatch" for v in violations
        )
