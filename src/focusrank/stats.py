"""Rank statistics for comparing approaches; no pipeline stage calls them yet.

Pure-Python implementations with explicit branch behavior so results are
reproducible across platforms: Spearman correlation with average ranks and
a closed-form t-distribution p-value, and a one-sided Mann-Whitney U with
an exact enumeration branch for small samples and a tie-corrected normal
approximation otherwise.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Sequence

# Largest per-sample size handled by exhaustive enumeration; C(16, 8) = 12870.
EXACT_MAX_N = 8


def average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks, ties sharing the mean of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j + 2) / 2.0  # positions i..j, 1-based
        for pos in range(i, j + 1):
            ranks[order[pos]] = mean_rank
        i = j + 1
    return ranks


def spearman_rho(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Rank correlation and a two-sided p-value.

    Ranks use averaging for ties; rho is the Pearson correlation of the two
    rank vectors; the p-value comes from the usual t approximation with
    n - 2 degrees of freedom, clamped to 0 at |rho| = 1.
    """
    if len(xs) != len(ys):
        raise ValueError(f"got {len(xs)} xs and {len(ys)} ys")
    n = len(xs)
    if n < 3:
        raise ValueError("need at least 3 paired observations")
    rx = average_ranks(xs)
    ry = average_ranks(ys)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0.0 or vy == 0.0:
        raise ValueError("constant input has no defined rank correlation")
    rho = cov / math.sqrt(vx * vy)
    rho = max(-1.0, min(1.0, rho))
    if abs(rho) == 1.0:
        return rho, 0.0
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    return rho, t_two_sided_p(t, n - 2)


def t_two_sided_p(t: float, dof: int) -> float:
    """P(|T| >= |t|) for Student's t with a positive integer number of
    degrees of freedom: the finite series of Abramowitz & Stegun 26.7.3-4
    in theta = atan(|t| / sqrt(dof))."""
    theta = math.atan(abs(t) / math.sqrt(dof))
    sin, cos = math.sin(theta), math.cos(theta)
    odd = dof % 2
    term, series = 1.0, 0.0
    for j in range((dof - 1) // 2 if odd else dof // 2):
        if j:
            term *= cos * cos * (2 * j - 1 + odd) / (2 * j + odd)
        series += term
    if odd:
        return 1.0 - 2.0 / math.pi * (theta + sin * cos * series)
    return 1.0 - sin * series


def _exact_p_greater(ranks: Sequence[float], n1: int, u_obs: float) -> float:
    """P(U >= u_obs) over all equally likely regroupings of the pooled
    ranks into n1 and the rest, keeping tie structure (permutation null)."""
    offset = n1 * (n1 + 1) / 2.0
    hits = 0
    for idx in combinations(range(len(ranks)), n1):
        u = sum(ranks[i] for i in idx) - offset
        if u >= u_obs - 1e-12:
            hits += 1
    return hits / math.comb(len(ranks), n1)


def _normal_p_greater(a: Sequence[float], b: Sequence[float], u_obs: float) -> float:
    n1, n2 = len(a), len(b)
    n = n1 + n2
    mu = n1 * n2 / 2.0
    # tie correction over pooled value multiplicities
    counts: dict[float, int] = {}
    for v in list(a) + list(b):
        counts[v] = counts.get(v, 0) + 1
    tie_term = sum(t**3 - t for t in counts.values())
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0.0:
        return 0.5  # every pooled value identical: no evidence either way
    z = (u_obs - mu - 0.5) / math.sqrt(var)  # continuity correction
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def mann_whitney_u(
    a: Sequence[float], b: Sequence[float], alternative: str = "greater"
) -> tuple[float, float]:
    """U statistic for the first sample and a one-sided p-value.

    Tests whether values in `a` tend to exceed values in `b`. Samples with
    at most EXACT_MAX_N observations each get an exact permutation p-value;
    larger samples use the tie-corrected normal approximation with
    continuity correction.
    """
    if alternative != "greater":
        raise ValueError("only the one-sided 'greater' alternative is supported")
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both samples must be non-empty")
    ranks = average_ranks([*a, *b])  # the pooled sample's, read by U and the exact branch
    n1 = len(a)
    u_obs = sum(ranks[:n1]) - n1 * (n1 + 1) / 2.0
    if max(len(a), len(b)) <= EXACT_MAX_N:
        return u_obs, _exact_p_greater(ranks, n1, u_obs)
    return u_obs, _normal_p_greater(a, b, u_obs)
