"""Comparison rankers: random order, label-embedding similarity, and
historical co-change frequency.

Each yields a score per candidate; the evaluation orders candidates by
descending score with ties broken by ascending node id, so rankings are
reproducible.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping, Sequence

from .errors import EmptyCandidatesError, write_artifact
from .graphs import Diff


def rank_random(candidates: Sequence[str], seed: int, anchor: str = "") -> list[str]:
    """Uniform permutation, deterministic per (seed, anchor)."""
    ids = sorted(candidates)
    if not ids:
        raise EmptyCandidatesError("cannot rank an empty candidate set")
    rng = random.Random(f"random:{seed}:{anchor}")
    rng.shuffle(ids)
    return ids


def semantic_scores(
    anchor_emb: "np.ndarray", candidate_embs: Mapping[str, "np.ndarray"]
) -> dict[str, float]:
    """Cosine against the anchor; zero vectors score a sentinel below -1 so
    they always land after every defined similarity."""
    import numpy as np

    anchor = np.asarray(anchor_emb, dtype=np.float64)
    anchor_norm = float(np.linalg.norm(anchor))
    scores: dict[str, float] = {}
    for node_id, emb in candidate_embs.items():
        vec = np.asarray(emb, dtype=np.float64)
        norm = float(np.linalg.norm(vec))
        if anchor_norm == 0.0 or norm == 0.0:
            scores[node_id] = -2.0
        else:
            scores[node_id] = float(anchor @ vec) / (anchor_norm * norm)
    return scores


@dataclass(frozen=True)
class CoChangeMatrix:
    """Sparse (anchor, candidate) -> count map; absent keys count 0."""

    _counts: dict

    def count(self, anchor: str, candidate: str) -> int:
        return self._counts.get((anchor, candidate), 0)

    def counts(self) -> dict[tuple[str, str], int]:
        return dict(self._counts)

    def __len__(self) -> int:
        return len(self._counts)


def build_cochange(train_diffs: Iterable[Diff]) -> CoChangeMatrix:
    """Count, per anchor, how often each candidate was a positive across the
    training diffs (same positive definition as the training labels): one
    count for every (anchor, positive) pair of every diff."""
    counts: dict[tuple[str, str], int] = {}
    for d in train_diffs:
        for key in product(d.anchors, d.positives):
            counts[key] = counts.get(key, 0) + 1
    return CoChangeMatrix(counts)


def save_cochange(matrix: CoChangeMatrix, path) -> None:
    write_artifact(path, (
        json.dumps({"anchor": anchor, "candidate": candidate, "count": count}, sort_keys=True) + "\n"
        for (anchor, candidate), count in sorted(matrix.counts().items())
    ))
