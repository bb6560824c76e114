"""Comparison rankers' inputs: the seeded random order and the historical
co-change counts. Their scorers, and the label-similarity scorer, live in
`evaluation`, which orders candidates by descending score with ties broken
by ascending node id, so rankings are reproducible.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Iterable, Sequence

from .errors import json_lines, write_artifact
from .graphs import Diff


def rank_random(candidates: Sequence[str], seed: int, anchor: str = "") -> list[str]:
    """Uniform permutation, deterministic per (seed, anchor)."""
    ids = sorted(candidates)
    if not ids:
        raise ValueError("cannot rank an empty candidate set")
    rng = random.Random(f"random:{seed}:{anchor}")
    rng.shuffle(ids)
    return ids


def build_cochange(train_diffs: Iterable[Diff]) -> dict[tuple[str, str], int]:
    """Count, per anchor, how often each candidate was a positive across the
    training diffs (same positive definition as the training labels): one
    count for every (anchor, positive) pair of every diff. Absent pairs
    count 0."""
    counts: dict[tuple[str, str], int] = {}
    for d in train_diffs:
        for key in product(d.anchors, d.positives):
            counts[key] = counts.get(key, 0) + 1
    return counts


def save_cochange(counts: dict[tuple[str, str], int], path) -> None:
    write_artifact(path, json_lines(
        {"anchor": anchor, "candidate": candidate, "count": count}
        for (anchor, candidate), count in sorted(counts.items())
    ))
