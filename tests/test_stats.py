"""Rank statistics: Spearman correlation and one-sided Mann-Whitney U."""

import math
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import mannwhitneyu, spearmanr

from focusrank.stats import EXACT_MAX_N, average_ranks, mann_whitney_u, spearman_rho


class TestAverageRanks:
    def test_sorted_input(self):
        assert average_ranks([10, 20, 30]) == [1.0, 2.0, 3.0]

    def test_unsorted_input(self):
        assert average_ranks([30, 10, 20]) == [3.0, 1.0, 2.0]

    def test_ties_share_mean_position(self):
        assert average_ranks([5, 5, 1]) == [2.5, 2.5, 1.0]

    def test_all_equal(self):
        assert average_ranks([7, 7, 7]) == [2.0, 2.0, 2.0]

    def test_rank_sum_is_fixed(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            values = list(rng.integers(0, 5, size=int(rng.integers(1, 12))))
            ranks = average_ranks(values)
            n = len(values)
            assert sum(ranks) == pytest.approx(n * (n + 1) / 2)


class TestSpearman:
    def test_perfect_agreement(self):
        rho, p = spearman_rho([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])
        assert rho == 1.0 and p == 0.0

    def test_perfect_disagreement(self):
        rho, p = spearman_rho([1, 2, 3, 4, 5], [5, 4, 3, 2, 1])
        assert rho == -1.0 and p == 0.0

    def test_partial_agreement_fixture(self):
        rho, p = spearman_rho([1, 2, 3, 4, 5], [1, 3, 2, 5, 4])
        assert rho == pytest.approx(0.8, abs=1e-12)
        assert p == pytest.approx(0.10408803866182778, abs=1e-12)

    def test_matches_scipy_including_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(4, 15))
            xs = list(rng.integers(0, 6, size=n).astype(float))
            ys = list(rng.integers(0, 6, size=n).astype(float))
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            rho, p = spearman_rho(xs, ys)
            ref = spearmanr(xs, ys)
            assert rho == pytest.approx(float(ref.statistic), abs=1e-12)
            assert p == pytest.approx(float(ref.pvalue), abs=1e-10)

    def test_invariant_under_monotone_transform(self):
        xs = [0.1, 4.0, 2.5, 9.9, 3.3, 7.0]
        ys = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
        assert spearman_rho(xs, ys) == spearman_rho(xs, [math.exp(y) for y in ys])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="got 3 xs and 2 ys"):
            spearman_rho([1, 2, 3], [1, 2])

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="need at least 3 paired observations"):
            spearman_rho([1, 2], [2, 1])

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError):
            spearman_rho([3, 3, 3], [1, 2, 3])


def pairwise_u(a, b) -> float:
    """U by literal pairwise counting: wins count 1, ties count 1/2."""
    u = 0.0
    for x in a:
        for y in b:
            if x > y:
                u += 1.0
            elif x == y:
                u += 0.5
    return u


def enumerate_p_greater(a, b) -> float:
    """Exact permutation p-value from scratch, using pairwise counting
    rather than rank sums."""
    pooled = list(a) + list(b)
    n1 = len(a)
    u_obs = pairwise_u(a, b)
    hits = total = 0
    for picked in combinations(range(len(pooled)), n1):
        chosen = [pooled[i] for i in picked]
        rest = [pooled[i] for i in range(len(pooled)) if i not in picked]
        if pairwise_u(chosen, rest) >= u_obs - 1e-12:
            hits += 1
        total += 1
    return hits / total


class TestMannWhitney:
    def test_complete_separation_fixture(self):
        u, p = mann_whitney_u([10, 11, 12], [1, 2, 3])
        assert u == 9.0
        # only 1 of C(6,3) = 20 regroupings reaches U = 9
        assert p == pytest.approx(0.05, abs=1e-15)

    def test_u_equals_pairwise_counting(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            a = list(rng.integers(0, 8, size=int(rng.integers(1, 7))).astype(float))
            b = list(rng.integers(0, 8, size=int(rng.integers(1, 7))).astype(float))
            u, _ = mann_whitney_u(a, b)
            assert u == pytest.approx(pairwise_u(a, b), abs=1e-9)

    def test_exact_branch_matches_independent_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = list(rng.integers(0, 5, size=int(rng.integers(1, 6))).astype(float))
            b = list(rng.integers(0, 5, size=int(rng.integers(1, 6))).astype(float))
            _, p = mann_whitney_u(a, b)
            assert p == pytest.approx(enumerate_p_greater(a, b), abs=1e-12)

    def test_single_tied_observation_each(self):
        u, p = mann_whitney_u([5.0], [5.0])
        assert u == 0.5
        assert p == 1.0  # both regroupings give the same U

    def test_identical_large_samples_sit_on_the_fence(self):
        values = [float(i) for i in range(10)]
        _, p = mann_whitney_u(values, values)
        assert abs(p - 0.5) <= 0.02

    def test_normal_branch_tracks_enumeration(self):
        """Above the exact-size cutoff the tie-corrected normal p should sit
        within a hundredth of the true permutation p."""
        rng = np.random.default_rng(4)
        for _ in range(3):
            a = list(rng.normal(0.3, 1.0, size=9))
            b = list(rng.normal(0.0, 1.0, size=9))
            assert max(len(a), len(b)) > EXACT_MAX_N
            _, p = mann_whitney_u(a, b)
            assert p == pytest.approx(enumerate_p_greater(a, b), abs=0.01)

    def test_normal_branch_matches_scipy(self):
        rng = np.random.default_rng(5)
        a = list(rng.normal(size=12))
        b = list(rng.normal(size=15))
        u, p = mann_whitney_u(a, b)
        ref = mannwhitneyu(a, b, alternative="greater", method="asymptotic")
        assert u == pytest.approx(float(ref.statistic), abs=1e-9)
        assert p == pytest.approx(float(ref.pvalue), abs=1e-12)

    def test_u_statistics_of_both_orientations_sum_to_n1_n2(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = list(rng.integers(0, 6, size=int(rng.integers(1, 10))).astype(float))
            b = list(rng.integers(0, 6, size=int(rng.integers(1, 10))).astype(float))
            u_ab, _ = mann_whitney_u(a, b)
            u_ba, _ = mann_whitney_u(b, a)
            assert u_ab + u_ba == pytest.approx(len(a) * len(b), abs=1e-9)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="both samples must be non-empty"):
            mann_whitney_u([], [1.0])
        with pytest.raises(ValueError, match="both samples must be non-empty"):
            mann_whitney_u([1.0], [])

    def test_only_greater_alternative(self):
        with pytest.raises(ValueError):
            mann_whitney_u([1.0], [2.0], alternative="less")
        with pytest.raises(ValueError):
            mann_whitney_u([1.0], [2.0], alternative="two-sided")
