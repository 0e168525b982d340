import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costly_secretary import (
    GameConfig,
    StrategyProfile,
    closed_form_success,
    compute_threshold,
    compute_threshold_sequence,
    expected_stopping_time,
    record_survival_product,
    solve_values,
)
from costly_secretary import equilibrium
from costly_secretary.equilibrium import _BLOCK

COST_GRID = [k / 10 for k in range(10)]


def exact_threshold(n_applicants):
    """Independent reference: exact rational harmonic tail sums."""
    total = Fraction(0)
    candidate = n_applicants
    for k in range(n_applicants - 1, 0, -1):
        total += Fraction(1, k)
        if total <= 1:
            candidate = k
        else:
            break
    return candidate


def kahan_threshold(n_applicants):
    """Reference: the backward Kahan-compensated tail-sum loop."""
    total = 0.0
    comp = 0.0
    candidate = n_applicants
    for k in range(n_applicants - 1, 0, -1):
        y = 1.0 / k - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if total <= 1.0:
            candidate = k
        else:
            break
    return candidate


class TestComputeThreshold:
    def test_n2_is_forced(self):
        # sum_{k=1}^{1} 1/k = 1 <= 1, so the threshold is stage 1
        assert compute_threshold(2) == 1

    def test_n10(self):
        assert exact_threshold(10) == 4
        assert compute_threshold(10) == 4

    def test_n100(self):
        assert exact_threshold(100) == 38
        assert compute_threshold(100) == 38

    def test_matches_rational_oracle_up_to_300(self):
        for n in range(2, 301):
            assert compute_threshold(n) == exact_threshold(n)

    def test_matches_kahan_loop(self):
        # every size to 5000, then 200 sizes up to 2e6, log-uniform because
        # the reference loop costs O(N) per size
        rng = random.Random(7)
        log_lo, log_hi = math.log(5001), math.log(2 * 10**6)
        sizes = list(range(2, 5001)) + [
            int(math.exp(rng.uniform(log_lo, log_hi))) for _ in range(199)
        ] + [2 * 10**6]
        for n in sizes:
            assert compute_threshold(n) == kahan_threshold(n), n

    def test_billion_applicants_in_constant_time(self):
        # the Kahan loop gives the same n* after about 1e9 steps
        assert compute_threshold(10**9) == 367879442

    def test_fallback_matches_rational_and_kahan_references(self, monkeypatch):
        # no estimate clears an infinite margin, so every call settles n*
        # with the exact tail sums
        monkeypatch.setattr(equilibrium, "_THRESHOLD_MARGIN", math.inf)
        for n in range(2, 5001):
            assert compute_threshold(n) == kahan_threshold(n), n
        for n in range(2, 301):
            assert compute_threshold(n) == exact_threshold(n), n

    @pytest.mark.parametrize("shift", [-0.01, 0.01])
    def test_fallback_steps_from_an_estimate_off_either_way(self, monkeypatch, shift):
        # an estimate shifted by 0.01 starts the exact sums several stages
        # below or above n*, and they must step there
        estimate = equilibrium._tail_estimate
        monkeypatch.setattr(equilibrium, "_THRESHOLD_MARGIN", math.inf)
        monkeypatch.setattr(
            equilibrium, "_tail_estimate", lambda n_apps, n: estimate(n_apps, n) + shift
        )
        for n in range(2, 2001):
            assert compute_threshold(n) == kahan_threshold(n), n

    def test_undecided_estimate_settles_with_the_exact_tail_sum(self, monkeypatch):
        # at this size the estimated tail sums do not clear the margin, so the
        # exact sums decide; a spy records that one exact total was summed,
        # and the steps from it add or remove single terms
        reciprocal_total = equilibrium._reciprocal_total
        calls = []

        def spy(lo, hi):
            calls.append((lo, hi))
            return reciprocal_total(lo, hi)

        monkeypatch.setattr(equilibrium, "_reciprocal_total", spy)
        assert compute_threshold(15_872_517) == 5_839_174
        assert len(calls) == 1

    def test_undecided_estimate_above_a_billion_fails_fast(self):
        # at 1e12 the estimated tail sums sit within the margin of 1, and the
        # exact sums would take about 6e11 terms each; a child process bounds
        # a hang
        code = (
            "import time\n"
            "from costly_secretary import compute_threshold\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    compute_threshold(10**12)\n"
            "except ValueError as exc:\n"
            "    print(time.perf_counter() - start, exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        elapsed, message = proc.stdout.split(" ", 1)
        assert float(elapsed) < 1.0
        assert "cannot settle the threshold for n_applicants=1000000000000" in message

    def test_loop_runs_only_up_to_the_size_limit(self, monkeypatch):
        # no estimate clears an infinite margin: the exact sums answer up to
        # the limit, and above it the call refuses
        monkeypatch.setattr(equilibrium, "_THRESHOLD_MARGIN", math.inf)
        monkeypatch.setattr(equilibrium, "_LOOP_MAX_N", 5000)
        assert compute_threshold(5000) == kahan_threshold(5000)
        with pytest.raises(ValueError, match="run only up to n_applicants=5000"):
            compute_threshold(5001)

    def test_rejects_small_and_non_integer(self):
        for bad in (1, 0, -3):
            with pytest.raises(ValueError):
                compute_threshold(bad)
        with pytest.raises(ValueError):
            compute_threshold(2.5)
        with pytest.raises(ValueError):
            compute_threshold(True)

    def test_tail_estimate_within_its_error_bound(self):
        # Graham-Knuth-Patashnik (9.89) bounds the omitted terms of the
        # harmonic numbers by 1/(252 m^6): the bound the margin rests on
        harmonic = [Fraction(0)]
        for k in range(1, 400):
            harmonic.append(harmonic[-1] + Fraction(1, k))
        for n_apps in range(3, 401):
            n_star = exact_threshold(n_apps)
            for n in range(max(n_star - 1, 3), min(n_star + 1, n_apps - 1) + 1):
                tail = harmonic[n_apps - 1] - harmonic[n - 1]
                error = abs(Fraction(equilibrium._tail_estimate(n_apps, n)) - tail)
                assert error <= Fraction(1, 252 * (n - 1) ** 6) + Fraction(1e-15), (n_apps, n)

    def test_estimate_decides_every_size_from_five(self, monkeypatch):
        # a margin so wide that small sizes fall back to the exact tail sum
        # would show here: only N <= 4, whose n* the estimate cannot bracket,
        # sum it
        reciprocal_total = equilibrium._reciprocal_total
        summed = []

        def spy(*points):
            summed.append(points[-1])
            return reciprocal_total(*points)

        monkeypatch.setattr(equilibrium, "_reciprocal_total", spy)
        for n in range(2, 1000):
            compute_threshold(n)
        assert summed == [2, 3, 4]

    def test_sequence_agrees_with_single_calls(self):
        seq = compute_threshold_sequence(5000)
        for n in range(2, 5001):
            assert seq[n] == compute_threshold(n)
        seq = compute_threshold_sequence(10**6)
        rng = random.Random(6)
        sizes = [rng.randint(501, 10**6) for _ in range(29)] + [10**6]
        for n in sizes:
            assert seq[n] == compute_threshold(n)

    def test_sequence_non_decreasing(self):
        seq = compute_threshold_sequence(3000)
        assert np.all(np.diff(seq[2:]) >= 0)


def list_recursion(n_apps, cost):
    """Reference: the backward induction kept in Python lists."""
    v0 = [0.0] * (n_apps + 1)
    v1 = [0.0] * (n_apps + 1)
    v1[n_apps] = 1.0 / n_apps
    for n in range(n_apps - 1, 0, -1):
        v0[n] = v1[n + 1] / n + v0[n + 1]
        v1[n] = max(cost / n_apps + (1.0 - cost) * v0[n], 1.0 / n_apps)
    v0[0] = v1[0] = math.nan
    return np.array(v0), np.array(v1)


def switch_stage(n_apps, cost, v0):
    """Highest stage below N whose max does not pick 1/N, or 0 if none."""
    floor = 1.0 / n_apps
    for n in range(n_apps - 1, 0, -1):
        if cost / n_apps + (1.0 - cost) * v0[n] >= floor:
            return n
    return 0


def size_with_switch_gap(cost, gap):
    """The least N whose switch stage is N - gap, by the list recursion.

    N - switch stage grows by 0 or 1 as N grows by 1 and is about
    N (1 - 1/e), so stepping up from just below that estimate meets the gap.
    """

    def below(n_apps):
        return n_apps - switch_stage(n_apps, cost, list_recursion(n_apps, cost)[0])

    n_apps = round(gap * math.e / (math.e - 1)) - 5
    assert below(n_apps) < gap
    while below(n_apps) < gap:
        n_apps += 1
    return n_apps


def block_edge_sizes(cost):
    """Sizes that stress the blocked tail of solve_values.

    The tail runs in blocks of _BLOCK stages from N-1 down: sizes at the
    block edges, and sizes whose switch stage is the last stage of the first
    block (N - BLOCK) or the first of the second (N - BLOCK - 1).
    """
    edges = [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]
    switch_at_edge = [size_with_switch_gap(cost, g) for g in (_BLOCK, _BLOCK + 1)]
    return (2, 3, 10, 1000, 100000, *edges, *switch_at_edge)


class TestSolveValues:
    @pytest.mark.parametrize("cost", [0.0, 0.1, 0.5, 0.9])
    def test_bit_identical_to_list_recursion(self, cost):
        for n_apps in block_edge_sizes(cost):
            t = solve_values(GameConfig(n_apps, cost))
            ref0, ref1 = list_recursion(n_apps, cost)
            assert np.array_equal(t.v0, ref0, equal_nan=True)
            assert np.array_equal(t.v1, ref1, equal_nan=True)
            assert t.success_probability == ref1[1]

    def test_peak_memory_is_the_two_tables(self):
        n_apps = 200_000
        tables_bytes = 2 * 8 * (n_apps + 1)
        tracemalloc.start()
        try:
            solve_values(GameConfig(n_apps, 0.3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * tables_bytes

    @pytest.mark.parametrize("cost", [0.0, 0.1, 0.5, 0.9])
    def test_table_free_pass_is_the_same_bits(self, cost):
        for n_apps in (*block_edge_sizes(cost), 10**6):
            config = GameConfig(n_apps, cost)
            full = solve_values(config)
            bare = solve_values(config, tables=False)
            assert bare.v0 is None and bare.v1 is None
            assert bare.success_probability == full.success_probability == full.v1[1]
            assert bare.threshold == full.threshold

    def test_table_free_pass_allocates_no_tables(self):
        # the two tables alone would take 16 MB
        tracemalloc.start()
        try:
            solve_values(GameConfig(10**6, 0.3), tables=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1e6

    def test_tables_larger_than_memory_are_refused(self, monkeypatch):
        real = os.sysconf
        monkeypatch.setattr(
            os, "sysconf", lambda name: 100 if name == "SC_PHYS_PAGES" else real(name)
        )
        config = GameConfig(100000, 0.1)
        with pytest.raises(MemoryError, match="n_applicants=100000 need 1600016 bytes"):
            solve_values(config)
        bare = solve_values(config, tables=False)
        assert bare.v1 is None
        # where the host memory is unknown, the check is skipped
        monkeypatch.setattr(os, "sysconf_names", {})
        assert solve_values(config).v1[1] == bare.success_probability

    def test_boundary_values(self):
        for n, c in [(2, 0.0), (5, 0.3), (40, 0.9)]:
            t = solve_values(GameConfig(n, c))
            assert t.v0[n] == 0.0
            assert t.v1[n] == pytest.approx(1.0 / n, abs=0)

    def test_two_applicants_no_cost(self):
        # hand iteration: v1[2] = 1/2, v0[1] = 1/2, v1[1] = max(1/2, 1/2)
        t = solve_values(GameConfig(2, 0.0))
        assert t.success_probability == pytest.approx(0.5, abs=1e-15)

    def test_three_applicants_no_cost(self):
        t = solve_values(GameConfig(3, 0.0))
        assert t.success_probability == pytest.approx(0.5, abs=1e-15)

    def test_three_applicants_half_cost(self):
        # v0[2] = 1/6, v1[2] = max(1/6 + 1/12, 1/3) = 1/3,
        # v0[1] = 1/3 + 1/6 = 1/2, v1[1] = max(1/6 + 1/4, 1/3) = 5/12
        t = solve_values(GameConfig(3, 0.5))
        assert t.success_probability == pytest.approx(5 / 12, abs=1e-15)
        assert t.threshold == 2

    def test_success_probability_is_v1_at_stage_1(self):
        t = solve_values(GameConfig(17, 0.4))
        assert t.success_probability == t.v1[1]

    @pytest.mark.parametrize("cost", COST_GRID)
    def test_monotonicity_and_bounds(self, cost):
        for n_apps in (2, 3, 7, 25, 120):
            t = solve_values(GameConfig(n_apps, cost))
            v0 = t.v0[1:]
            v1 = t.v1[1:]
            assert np.all(np.diff(v0) < 0), "v0 must decrease strictly"
            assert np.all(np.diff(v1) <= 0), "v1 must not increase"
            assert np.all(v1 >= 1.0 / n_apps)
            stages = np.arange(1, n_apps + 1)
            assert np.all(v0[:-1] >= 1.0 / (n_apps * stages[:-1]))

    def test_threshold_characterizes_v0(self):
        # threshold = first stage with v0 <= 1/N, for every N <= 200 and cost
        for cost in COST_GRID:
            for n_apps in range(2, 201):
                t = solve_values(GameConfig(n_apps, cost))
                below = np.flatnonzero(t.v0[1:] <= 1.0 / n_apps) + 1
                assert below[0] == t.threshold == compute_threshold(n_apps)

    def test_threshold_independent_of_cost(self):
        for n_apps in (2, 3, 10, 57, 200):
            thresholds = {
                solve_values(GameConfig(n_apps, c)).threshold for c in COST_GRID
            }
            assert len(thresholds) == 1

    def test_scaled_state0_values_monotone_in_instance_size(self):
        # N * (n * v0[n]) must not decrease as N grows, for each fixed n
        for cost in (0.0, 0.3, 0.8):
            tables = {n: solve_values(GameConfig(n, cost)) for n in range(2, 101)}
            for n in range(1, 11):
                prev = -math.inf
                for n_apps in range(max(n, 2), 101):
                    z = n_apps * n * tables[n_apps].v0[n]
                    assert z >= prev - 1e-12
                    prev = z

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            GameConfig(1, 0.0)
        with pytest.raises(ValueError):
            GameConfig(10, 1.0)
        with pytest.raises(ValueError):
            GameConfig(10, -0.1)
        with pytest.raises(ValueError):
            GameConfig(10, math.nan)

    def test_negative_zero_cost_is_zero(self):
        assert math.copysign(1.0, GameConfig(10, -0.0).cost) == 1.0


def solved_plan(cfg):
    """The acceptance probability of the solved plan at each stage 1..N."""
    return StrategyProfile.equilibrium(cfg).plan(cfg)[1]


class TestBuildPolicy:
    """The solved plan, StrategyProfile.equilibrium(cfg).plan(cfg)[1], at
    stages 1..N."""

    def test_three_applicants_half_cost(self):
        assert solved_plan(GameConfig(3, 0.5)) == [0.5, 1.0, 1.0]

    def test_two_applicants_no_cost(self):
        assert solved_plan(GameConfig(2, 0.0)) == [1.0, 1.0]

    def test_ten_applicants(self):
        accept = solved_plan(GameConfig(10, 0.1))
        assert accept == [0.1] * 3 + [1.0] * 7

    def test_incentive_floor(self):
        for cost in COST_GRID:
            accept = solved_plan(GameConfig(30, cost))
            assert min(accept) >= cost


class TestRecordSurvivalProduct:
    def test_empty_product(self):
        assert record_survival_product(0, 0.7) == 1.0

    def test_zero_cost(self):
        assert record_survival_product(5, 0.0) == 1.0

    def test_direct_product(self):
        # (1 - 0.5)(1 - 0.25) = 0.375
        assert record_survival_product(2, 0.5) == pytest.approx(0.375, abs=1e-16)

    def test_in_unit_interval(self):
        for cost in (0.1, 0.5, 0.9):
            for n in (1, 10, 1000):
                s = record_survival_product(n, cost)
                assert 0.0 < s <= 1.0

    def test_flat_memory_and_one_block_bits(self):
        # the 1e7 factors as one float64 array would take 80 MB
        tracemalloc.start()
        try:
            record_survival_product(10**7, 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000
        # up to one block it is np.prod of the one whole array
        for cost in (0.1, 0.5, 0.9):
            for n in (1, 2, 10, _BLOCK - 1, _BLOCK):
                whole = float(np.prod(1.0 - cost / np.arange(1.0, n + 1.0)))
                assert record_survival_product(n, cost) == whole


def list_acceptance_mass(n_apps, cost):
    """Reference: the closed form with every survival product in one list."""
    n_star = compute_threshold(n_apps)
    if n_star == 1:
        return 1.0
    survivals = np.concatenate(
        ([1.0], np.cumprod(1.0 - cost / np.arange(1.0, n_star - 1.0)))
    ).tolist()
    pre_sum = math.fsum(survivals)
    survival_at_threshold = survivals[-1] * (1.0 - cost / (n_star - 1))
    tail_sum = math.fsum(1.0 / m for m in range(n_star - 1, n_apps))
    return cost * pre_sum + (n_star - 1) * survival_at_threshold * tail_sum


def fsum_acceptance_mass(n_apps, cost):
    """Reference: the telescoped closed form with the harmonic tail summed by
    math.fsum, S_{n*-2} * (n*-1-cost) * (cost/(1-cost) + tail)."""
    n_star = compute_threshold(n_apps)
    if n_star == 1:
        return 1.0
    tail_sum = math.fsum((1.0 / np.arange(n_star - 1, n_apps)).tolist())
    survival = record_survival_product(n_star - 2, cost)
    return survival * (n_star - 1 - cost) * (cost / (1.0 - cost) + tail_sum)


def first_size(start, reached):
    return next(n for n in itertools.count(start) if reached(n))


def exact_acceptance_mass(n_apps, cost):
    """Reference: the closed form's definition in exact rationals,
    cost * sum_{k<n*-1} S_k + (n*-1) * S_{n*-1} * sum_{k=n*-1}^{N-1} 1/k."""
    n_star = exact_threshold(n_apps)
    if n_star == 1:
        return Fraction(1)
    survivals = [Fraction(1)]  # S_0 .. S_{n*-1}
    for k in range(1, n_star):
        survivals.append(survivals[-1] * (1 - cost / k))
    tail = sum(Fraction(1, k) for k in range(n_star - 1, n_apps))
    return cost * sum(survivals[:-1]) + (n_star - 1) * survivals[-1] * tail


def tail_test_sizes(dense_max, sparse_max):
    """Sizes for the exact harmonic tail: every N up to dense_max; N at the
    edges of the default block; N whose N-1 or n*-1 is at 2^j - 1, 2^j or
    2^j + 1; 200 seeded sizes, log-uniform up to 5e6.  Sizes above
    sparse_max are left out."""
    sizes = set(range(3, dense_max + 1)) | {16385, 16386, 2 * 16384 + 1}
    for j in range(1, 22):
        for t in (2**j - 1, 2**j, 2**j + 1):
            sizes.add(t + 1)
            # the first N whose n* - 1 reaches t
            start = max(int(t * math.e) - 5, 2)
            sizes.add(next(n for n in itertools.count(start) if compute_threshold(n) - 1 >= t))
    rng = random.Random(16)
    log_lo, log_hi = math.log(3001), math.log(5 * 10**6)
    sizes.update(int(math.exp(rng.uniform(log_lo, log_hi))) for _ in range(200))
    return sorted(n for n in sizes if 3 <= n <= sparse_max)  # N = 2 sums no tail


def reciprocal_sum(lo, hi):
    """sum_{k=lo}^{hi-1} of the doubles 1.0/k, summed exactly in integers and
    rounded once."""
    (total,), unit = equilibrium._reciprocal_total(lo, hi)
    return equilibrium._round_total(total, unit)


class TestExactTail:
    @pytest.mark.parametrize(
        "block, dense_max, sparse_max",
        [(_BLOCK, 3000, 5 * 10**6), (64, 3000, 4 * 10**4), (3, 600, 5000)],
        ids=["default", "block-64", "block-3"],
    )
    def test_bits_equal_fsum(self, monkeypatch, block, dense_max, sparse_max):
        # small blocks cross many block edges and exponent runs; their size
        # ranges are cut to keep the test short
        monkeypatch.setattr(equilibrium, "_BLOCK", block)
        for n_apps in tail_test_sizes(dense_max, sparse_max):
            lo = compute_threshold(n_apps) - 1
            want = math.fsum((1.0 / np.arange(lo, n_apps)).tolist())
            assert reciprocal_sum(lo, n_apps) == want, n_apps

    def test_bits_equal_fsum_at_block_edges(self, monkeypatch):
        # ranges of one term and of whole blocks plus or minus one
        monkeypatch.setattr(equilibrium, "_BLOCK", 64)
        for lo in (1, 2, 3, 63, 64, 65, 1000, 2**20 - 1):
            for size in (1, 2, 63, 64, 65, 127, 128, 129):
                want = math.fsum((1.0 / np.arange(lo, lo + size)).tolist())
                assert reciprocal_sum(lo, lo + size) == want, (lo, size)


class TestClosedForms:
    @pytest.mark.parametrize("cost", [Fraction(k, 8) for k in (0, 1, 3, 4, 7)], ids=str)
    def test_matches_exact_definition(self, cost):
        # dyadic costs are exact floats, so only the closed form rounds
        for n_apps in list(range(2, 61)) + [100, 345, 1000]:
            exact = exact_acceptance_mass(n_apps, cost)
            mass = expected_stopping_time(GameConfig(n_apps, float(cost)))
            assert abs(Fraction(mass) - exact) <= Fraction(1, 10**14) * exact

    @pytest.mark.parametrize("cost", [0.0, 0.1, 0.5, 0.9])
    def test_matches_list_form(self, cost):
        # the product and the tail run in blocks of _BLOCK terms; the last two
        # sizes make the n* - 2 survival factors one whole block and the
        # N - n* + 1 tail terms two whole blocks
        whole_survival = first_size(
            int(_BLOCK * math.e), lambda n: compute_threshold(n) - 2 >= _BLOCK
        )
        whole_tail = first_size(
            int(2 * _BLOCK * math.e / (math.e - 1)) - 5,
            lambda n: n - compute_threshold(n) + 1 >= 2 * _BLOCK,
        )
        assert compute_threshold(whole_survival) - 2 == _BLOCK
        assert whole_tail - compute_threshold(whole_tail) + 1 == 2 * _BLOCK
        # the sizes whose tails have 700 and 701 terms, where math.fsum and
        # the integer sum break even
        first_integer_tail = first_size(
            int(700 * math.e / (math.e - 1)) - 5,
            lambda n: n - compute_threshold(n) + 1 > 700,
        )
        assert first_integer_tail - compute_threshold(first_integer_tail) == 700
        sizes = (2, 3, 4, 10, first_integer_tail - 1, first_integer_tail, _BLOCK - 1)
        sizes += (_BLOCK + 1, 10**5, 10**6, whole_survival, whole_tail)
        for n_apps in sizes:
            cfg = GameConfig(n_apps, cost)
            want = list_acceptance_mass(n_apps, cost)
            mass = expected_stopping_time(cfg)
            assert abs(mass - want) <= 2e-13 * want
            assert closed_form_success(cfg) == mass / n_apps
            # the integer tail sum gives the bits of the fsum one
            assert mass == fsum_acceptance_mass(n_apps, cost), n_apps

    @pytest.mark.parametrize("cost", [0.0, 0.1, 0.5, 0.9])
    def test_every_size_to_3000_equals_the_fsum_form(self, cost):
        for n_apps in range(2, 3001):
            cfg = GameConfig(n_apps, cost)
            mass = fsum_acceptance_mass(n_apps, cost)
            assert expected_stopping_time(cfg) == mass, n_apps
            assert closed_form_success(cfg) == mass / n_apps, n_apps

    def test_peak_memory_does_not_grow_with_n(self):
        # one block of 2**14 floats as a Python list is about 0.5 MB; the
        # whole survival list at this size was about 12 MB
        tracemalloc.start()
        try:
            expected_stopping_time(GameConfig(10**6, 0.3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2_000_000

    def test_three_applicants_half_cost(self):
        assert closed_form_success(GameConfig(3, 0.5)) == pytest.approx(
            5 / 12, abs=1e-15
        )

    def test_two_applicants_no_cost(self):
        # threshold 1 collapses the factored form; stage 1 is accepted
        # outright whatever the cost, so pi = 1/2 exactly on the whole grid
        for cost in COST_GRID:
            assert closed_form_success(GameConfig(2, cost)) == 0.5

    def test_large_instance_headline(self):
        assert closed_form_success(GameConfig(1000, 0.1)) > 0.2

    def test_expected_tau_three_applicants(self):
        # acceptance path mass: stage 1 w.p. 0.5, stage 2 w.p. 0.25,
        # stage 3 w.p. 1/12 -> E = 0.5 + 0.5 + 0.25 = 1.25
        assert expected_stopping_time(GameConfig(3, 0.5)) == pytest.approx(
            1.25, abs=1e-15
        )

    def test_expected_tau_two_applicants(self):
        # stage-1 applicant is always a record and always accepted
        for cost in COST_GRID:
            assert expected_stopping_time(GameConfig(2, cost)) == 1.0

    def test_stopping_identity_ten_applicants(self):
        cfg = GameConfig(10, 0.1)
        assert abs(
            expected_stopping_time(cfg) - 10 * closed_form_success(cfg)
        ) <= 1e-12

    @pytest.mark.parametrize("cost", COST_GRID)
    def test_closed_form_matches_dp(self, cost):
        for n_apps in list(range(2, 60)) + [128, 345, 1000]:
            cfg = GameConfig(n_apps, cost)
            dp = solve_values(cfg).success_probability
            assert abs(closed_form_success(cfg) - dp) <= 1e-12

    def test_zero_cost_reduces_to_classic_rule(self):
        # pi = ((n*-1)/N) * sum_{k=n*-1}^{N-1} 1/k for thresholds >= 2
        for n_apps in (3, 10, 50, 200, 1000):
            n_star = compute_threshold(n_apps)
            assert n_star >= 2
            classic = (n_star - 1) / n_apps * math.fsum(
                1.0 / k for k in range(n_star - 1, n_apps)
            )
            assert closed_form_success(GameConfig(n_apps, 0.0)) == pytest.approx(
                classic, abs=1e-12
            )
            accept = solved_plan(GameConfig(n_apps, 0.0))
            assert accept == [0.0] * (n_star - 1) + [1.0] * (n_apps - n_star + 1)


def one_at_a_time(configs):
    """Reference for _solve_sizes: the one-instance solvers."""
    out = []
    for config in configs:
        tables = solve_values(config, tables=False)
        out.append(
            (tables.threshold, tables.success_probability, expected_stopping_time(config))
        )
    return out


def assert_same_bits(configs, **kwargs):
    got = equilibrium._solve_sizes(configs, **kwargs)
    want = one_at_a_time(configs)
    assert len(got) == len(configs)
    wrong = [(c, g, w) for c, g, w in zip(configs, got, want) if g != w]
    assert not wrong, wrong[:3]


class TestSolveSizes:
    # every threshold, success probability and stopping time must be the
    # bits of solve_values(config, tables=False) and expected_stopping_time
    LANES = equilibrium._LOCKSTEP_MIN_LANES

    @pytest.mark.parametrize("cost", [0.0, 0.05, 0.4, 0.9, 0.999])
    def test_every_size_to_3000(self, cost):
        assert_same_bits([GameConfig(n, cost) for n in range(2, 3001)])

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_lane_counts_around_the_cut(self, monkeypatch, extra):
        # below LANES lanes each instance runs alone to stage 1; from LANES
        # on the larger ones run alone down to the cut and the rest in
        # lockstep
        stops = []
        real = equilibrium._descend
        monkeypatch.setattr(
            equilibrium, "_descend", lambda n, c, stop: stops.append(stop) or real(n, c, stop)
        )
        configs = [GameConfig(40 + 61 * k, 0.3) for k in range(self.LANES + extra)]
        equilibrium._solve_sizes(configs)
        monkeypatch.undo()
        if extra < 0:
            assert stops == [0] * len(configs)
        else:
            cut = compute_threshold(sorted(c.n_applicants for c in configs)[-self.LANES])
            assert cut > 1
            assert stops == [cut - 1] * sum(c.n_applicants > cut for c in configs)
        assert_same_bits(configs)

    def test_stepped_range(self):
        assert_same_bits([GameConfig(n, 0.25) for n in range(2, 3001, 7)])

    def test_mixed_costs_in_any_order(self):
        # lanes of equal size and different cost, a repeated instance, and
        # results returned in the order asked
        configs = [GameConfig(n, c) for c in (0.0, 0.1, 0.9) for n in range(2, 1500, 3)]
        configs += configs[:5]
        random.Random(20).shuffle(configs)
        assert_same_bits(configs)

    def test_log_ladder_with_a_dense_bottom(self):
        sizes = set(range(2, 120)) | {int(round(v)) for v in np.geomspace(120, 2e5, 25)}
        assert_same_bits([GameConfig(n, 0.1) for n in sorted(sizes)])

    def test_without_stopping_times(self):
        configs = [GameConfig(n, 0.4) for n in range(2, 600)]
        got = equilibrium._solve_sizes(configs, stopping_times=False)
        assert got == [(t, pi, None) for t, pi, _ in one_at_a_time(configs)]


class TestBreakpointTotals:
    @pytest.mark.parametrize("block", [_BLOCK, 64, 3])
    def test_each_interval_is_exact(self, monkeypatch, block):
        # breakpoints on and next to block edges and exponent changes
        monkeypatch.setattr(equilibrium, "_BLOCK", block)
        rng = random.Random(block)
        points = {1, 2, 63, 64, 65, 127, 128, 129, 192, 1000}
        points |= {rng.randrange(3, 1000) for _ in range(40)}
        points = sorted(points)
        totals, unit = equilibrium._reciprocal_total(*points)
        assert len(totals) == len(points) - 1
        for lo, hi, total in zip(points, points[1:], totals):
            exact = sum(Fraction(1.0 / k) for k in range(lo, hi))
            assert Fraction(total) * Fraction(2) ** unit == exact, (lo, hi)


@settings(max_examples=60, deadline=None)
@given(
    n_apps=st.integers(min_value=2, max_value=80),
    cost=st.floats(min_value=0.0, max_value=0.95, allow_nan=False),
)
def test_solution_invariants(n_apps, cost):
    cfg = GameConfig(n_apps, cost)
    tables = solve_values(cfg)
    v0 = tables.v0[1:]
    v1 = tables.v1[1:]
    assert tables.v0[n_apps] == 0.0
    assert v1[-1] == 1.0 / n_apps
    assert np.all(np.diff(v0) < 0)
    assert np.all(np.diff(v1) <= 0)
    assert np.all(v1 >= 1.0 / n_apps)
    n_star = tables.threshold
    assert np.all(v0[n_star - 1 :] <= 1.0 / n_apps)
    assert np.all(v0[: n_star - 1] > 1.0 / n_apps)
    assert abs(closed_form_success(cfg) - tables.success_probability) <= 1e-12
    assert abs(
        expected_stopping_time(cfg) - n_apps * closed_form_success(cfg)
    ) <= 1e-12
    accept = solved_plan(cfg)
    assert accept.index(1.0) == n_star - 1
    assert min(accept) >= cost
