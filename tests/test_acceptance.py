"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Tolerances are pinned here and nowhere else.
"""

import math
import random
from fractions import Fraction

import numpy as np

from costly_secretary import (
    GameConfig,
    PolicySpec,
    StrategyProfile,
    closed_form_success,
    compute_threshold,
    compute_threshold_sequence,
    convergence_report,
    equilibrium_accept_probs,
    estimate,
    exact_evaluation,
    exact_success_probability,
    expected_stopping_time,
    limit_constant,
    optimality_scan,
    record_survival_product,
    solve_values,
)

COST_GRID = [k / 10 for k in range(10)]


def report(num, name, passed, detail):
    line = f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'} {name}: {detail}"
    print(line)
    assert passed, line


def test_criterion_01_classical_limit():
    pi = solve_values(GameConfig(10**4, 0.0)).success_probability
    gap = abs(pi - 1.0 / math.e)
    report(1, "cost-free limit at N=10^4", gap <= 1e-3, f"|pi - 1/e| = {gap:.3e}")


def test_criterion_02_headline_number():
    pi = solve_values(GameConfig(1000, 0.1)).success_probability
    report(2, "pi_1000(0.1) above 0.2", pi > 0.2, f"pi = {pi:.6f}")


def test_criterion_03_three_way_agreement():
    worst_closed = 0.0
    worst_enum = 0.0
    for n_apps in range(2, 9):
        for cost in COST_GRID:
            cfg = GameConfig(n_apps, cost)
            dp = solve_values(cfg).success_probability
            closed = closed_form_success(cfg)
            enum = float(exact_evaluation(cfg, StrategyProfile.equilibrium(cfg)).success)
            worst_closed = max(worst_closed, abs(dp - closed))
            worst_enum = max(worst_enum, abs(dp - enum))
    ok = worst_closed <= 1e-12 and worst_enum <= 1e-12
    report(
        3,
        "DP = closed form = enumeration on N 2..8, cost grid",
        ok,
        f"max |dp-closed| = {worst_closed:.3e}, max |dp-enum| = {worst_enum:.3e}",
    )


def stopping_time_by_recursion(cfg):
    """E[tau] along the solved plan by backward recursion, using only the
    record probability 1/n and never the success factor n/N.

    t1 is the expected accepted index (0 for nobody) from stage n on given
    a record at stage n; t0 is the same before stage n's rank is seen, which
    is also the value at stage n - 1 without a record, since the solved plan
    accepts only records.
    """
    t0 = 0.0
    probs = equilibrium_accept_probs(cfg)
    for n in range(cfg.n_applicants, 0, -1):
        q = probs[n - 1]
        t1 = q * n + (1 - q) * t0
        t0 = t1 / n + (1 - 1 / n) * t0
    return t0


def test_criterion_04_stopping_identity():
    sizes = list(range(2, 101)) + sorted(
        {int(round(v)) for v in np.geomspace(100, 1000, 25)}
    )
    worst = 0.0
    for cost in COST_GRID:
        for n_apps in sizes:
            cfg = GameConfig(n_apps, cost)
            gap = abs(
                stopping_time_by_recursion(cfg)
                - n_apps * solve_values(cfg).success_probability
            )
            worst = max(worst, gap)
    report(
        4,
        "E[tau] = N * pi on N 2..1000, cost grid",
        worst <= 1e-12,
        f"max |E[tau] - N pi| = {worst:.3e}",
    )


def test_criterion_05_threshold_bounds_and_limit():
    seq = compute_threshold_sequence(10**5)
    sizes = np.arange(2, 10**5 + 1)
    thresholds = seq[2:]
    contained = bool(
        np.all(sizes / math.e <= thresholds)
        and np.all(thresholds <= (sizes - 1) / math.e + 2)
    )
    monotone = bool(np.all(np.diff(thresholds) >= 0))
    ratio_gap = abs(compute_threshold(10**6) / 10**6 - 1.0 / math.e)
    ok = contained and monotone and ratio_gap <= 1e-3
    report(
        5,
        "threshold in [N/e, (N-1)/e + 2], monotone, ratio -> 1/e",
        ok,
        f"contained={contained}, monotone={monotone}, "
        f"|n*/N - 1/e| at 10^6 = {ratio_gap:.3e}",
    )


def test_criterion_06_power_law_decay():
    sizes = [10**4, 10**5, 10**6]
    details = []
    ok = True
    for cost in (0.1, 0.5):
        rep = convergence_report(cost, sizes, tolerance=0.05)
        scaled = [s for _, s in rep.samples]
        pis = [s * n ** (-cost) for (n, _), s in zip(rep.samples, scaled)]
        slope = float(np.polyfit(np.log(sizes), np.log(pis), 1)[0])
        constant = limit_constant(cost)
        devs = [abs(s - constant) / constant for s in scaled]
        slope_ok = abs(slope - (-cost)) <= 0.01
        final_ok = devs[-1] <= 0.05
        shrinking = devs[0] > devs[1] > devs[2]
        ok = ok and slope_ok and final_ok and shrinking
        details.append(
            f"c={cost}: slope={slope:.5f}, final rel dev={devs[-1]:.2e}, "
            f"shrinking={shrinking}"
        )
    report(6, "log-log slope -c and scaled limit", ok, "; ".join(details))


def test_criterion_07_gauss_product():
    n = 10**6
    worst = 0.0
    for cost in (0.1, 0.5, 0.9):
        gap = abs(n**cost * record_survival_product(n, cost) - 1.0 / math.gamma(1.0 - cost))
        worst = max(worst, gap)
    report(
        7,
        "n^c S_n(c) near 1/Gamma(1-c) at n=10^6",
        worst <= 1e-3,
        f"max gap = {worst:.3e}",
    )


def test_criterion_08_no_learning_uniform_success():
    rand = random.Random(20260808)
    ok = True
    for n_apps in range(2, 7):
        cfg = GameConfig(n_apps, 0.0)
        for _ in range(5):
            weights = [rand.randint(1, 99) for _ in range(n_apps)]
            masses = [Fraction(w, sum(weights)) for w in weights]
            value = exact_success_probability(
                cfg, PolicySpec.from_acceptance_masses(masses)
            )
            ok = ok and value == Fraction(1, n_apps)
    report(
        8,
        "blind acceptance succeeds with probability exactly 1/N",
        ok,
        "five random mass vectors at each N in 2..6, rational equality",
    )


def test_criterion_09_optimality_scan():
    ok = True
    details = []
    for n_apps in (3, 4, 5):
        for cost in (0.2, 0.5):
            cfg = GameConfig(n_apps, cost)
            rep = optimality_scan(cfg, grid_step=0.1)  # raises on violation
            margin = rep.max_success - rep.dp_success
            ok = ok and margin <= 1e-12
            details.append(f"N={n_apps},c={cost}: max-dp={margin:+.1e}")
    report(9, "no scanned policy beats the solved one", ok, "; ".join(details))


def test_criterion_10_monte_carlo_consistency():
    ok = True
    details = []
    for n_apps, cost in ((3, 0.5), (10, 0.1), (1000, 0.1)):
        cfg = GameConfig(n_apps, cost)
        profile = StrategyProfile.equilibrium(cfg)
        stats = estimate(cfg, profile, 10**6, seed=12345, workers=1)
        redone = estimate(cfg, profile, 10**6, seed=12345, workers=4)
        reproducible = stats == redone
        pi = closed_form_success(cfg)
        tau = expected_stopping_time(cfg)
        z_pi = abs(stats.success_rate - pi) / stats.success_se
        z_tau = abs(stats.mean_tau_unconditional - tau) / stats.tau_se
        ok = ok and reproducible and z_pi <= 4.0 and z_tau <= 4.0
        details.append(
            f"N={n_apps},c={cost}: z_pi={z_pi:.2f}, z_tau={z_tau:.2f}, "
            f"bitwise={reproducible}"
        )
    report(10, "10^6-trial runs match exact values within 4 SE", ok, "; ".join(details))


def test_criterion_11_full_learning_audit():
    ok = True
    for n_apps in range(2, 9):
        for cost in COST_GRID:
            cfg = GameConfig(n_apps, cost)
            exact = exact_evaluation(cfg, StrategyProfile.equilibrium(cfg))
            ok = ok and exact.counterexample is None
    report(
        11,
        "output maxima track ability maxima on every reachable prefix",
        ok,
        "all rank orders, N 2..8, cost grid",
    )
