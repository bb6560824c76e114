"""Ranking evaluation: Precision@k, radius-restricted candidate sets,
prevalence baselines, per-project aggregation, and report serialization.

An evaluation walks test diffs; for each one the lexicographically smallest
changed node becomes the anchor, preserved nodes become candidates
(optionally restricted to within a distance threshold of the anchor on the
union graph), a scorer scores them, and they are ranked by descending
score. Anchors without a single positive candidate after filtering are
skipped and counted.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from . import ranker as ranker_mod
from .baselines import CoChangeMatrix, rank_random, semantic_scores
from .dataset import diff_views
from .errors import NoPositivesError
from .graphs import Diff, ModelGraph, Project

PREVALENCE_FLOOR = 1e-12


@dataclass(frozen=True)
class RankedList:
    """One anchor's ordered candidates plus the ground-truth positive set."""

    anchor: str
    ordered: tuple[str, ...]
    positives: frozenset[str]

    def __post_init__(self):
        if len(set(self.ordered)) != len(self.ordered):
            raise ValueError("ranked candidates must be unique")
        if not self.positives <= set(self.ordered):
            raise ValueError("positives must be a subset of the candidates")


def precision_at_k(ranking: RankedList, k: int) -> float:
    """Hits in the top k over min(k, number of positives)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not ranking.positives:
        raise NoPositivesError(f"anchor {ranking.anchor} has no positive candidates")
    hits = sum(1 for v in ranking.ordered[:k] if v in ranking.positives)
    return hits / min(k, len(ranking.positives))


def dynamic_k(n_candidates: int, fraction: float = 0.01) -> int:
    """Candidate-count-proportional cutoff, never below 1."""
    return max(1, math.ceil(fraction * n_candidates))


def radius_filter(
    graph: ModelGraph, anchor: str, candidates: Sequence[str], tau: Optional[float]
) -> list[str]:
    """Candidates within undirected distance tau of the anchor.

    tau None or infinity is the identity. The threshold is inclusive: tau=1
    keeps exactly the anchor's immediate neighborhood.
    """
    if tau is None or tau == math.inf:
        return list(candidates)
    distances = graph.distances_from(anchor)
    return [v for v in candidates if distances.get(v, math.inf) <= tau]


def by_score(candidates: Sequence[str], scores: Mapping[str, float]) -> list[str]:
    """Candidates by descending score, ties by ascending id."""
    return sorted(candidates, key=lambda c: (-scores[c], c))


def neural_scores(params, provider, graph: ModelGraph | Diff, anchor: str, candidates: Sequence[str]):
    """Predicted probability that each candidate changes with the anchor,
    from their labels in `graph`, a version or a diff. The anchor is row 0
    of the embedded labels, so it is projected once for all candidates."""
    embs = provider.embed([graph.label(v) for v in [anchor, *candidates]])
    n = len(candidates)
    logits = ranker_mod.pair_logits(params, embs, np.zeros(n, np.intp), np.arange(1, n + 1))
    return ranker_mod.sigmoid(logits)


class Scorer:
    """Scores an anchor's candidates within one diff."""

    name = "scorer"

    def scores(self, anchor: str, candidates: Sequence[str], view: Diff) -> dict:
        raise NotImplementedError


class NeuralScorer(Scorer):
    """Scores pairs with a trained checkpoint's predicted probability."""

    name = "nextfocus"

    def __init__(self, checkpoint: ranker_mod.Checkpoint, provider):
        self.checkpoint = checkpoint
        self.provider = provider

    def scores(self, anchor, candidates, view):
        probs = neural_scores(self.checkpoint.params, self.provider, view, anchor, candidates)
        return {c: float(p) for c, p in zip(candidates, probs)}


class RandomScorer(Scorer):
    """The seeded permutation of `rank_random`: earlier places score higher."""

    name = "random"

    def __init__(self, seed: int):
        self.seed = seed

    def scores(self, anchor, candidates, view):
        order = rank_random(candidates, self.seed, anchor)
        return {c: -place for place, c in enumerate(order)}


class SemanticScorer(Scorer):
    """Cosine similarity between anchor and candidate label embeddings."""

    name = "semantic"

    def __init__(self, provider):
        self.provider = provider

    def scores(self, anchor, candidates, view):
        embs = self.provider.embed([view.label(v) for v in [anchor, *candidates]])
        return semantic_scores(embs[0], dict(zip(candidates, embs[1:])))


class CoChangeScorer(Scorer):
    """Historical count of the (anchor, candidate) pair as a positive."""

    name = "cochange"

    def __init__(self, matrix: CoChangeMatrix):
        self.matrix = matrix

    def scores(self, anchor, candidates, view):
        return {c: self.matrix.count(anchor, c) for c in candidates}


@dataclass(frozen=True)
class AnchorResult:
    project: str
    diff_index: int
    ranking: RankedList

    @property
    def anchor(self) -> str:
        return self.ranking.anchor

    @property
    def n_candidates(self) -> int:
        return len(self.ranking.ordered)

    @property
    def n_positives(self) -> int:
        return len(self.ranking.positives)

    @property
    def prevalence(self) -> float:
        return self.n_positives / self.n_candidates

    def precision(self, k: int) -> float:
        return precision_at_k(self.ranking, k)

    def mean_precision(self, ks: Sequence[int]) -> float:
        return sum(self.precision(k) for k in ks) / len(ks)


@dataclass
class EvalReport:
    approach: str
    tau: Optional[float]
    k_max: int
    results: list[AnchorResult] = field(default_factory=list)
    skipped_no_positive: int = 0
    skipped_no_anchor: int = 0

    def ks(self) -> range:
        return range(1, self.k_max + 1)

    def mean_precision(self, k: int) -> float:
        if not self.results:
            return 0.0
        return sum(r.precision(k) for r in self.results) / len(self.results)

    @property
    def prevalence(self) -> float:
        if not self.results:
            return 0.0
        return sum(r.prevalence for r in self.results) / len(self.results)

    def ratio(self, k: int) -> float:
        return self.mean_precision(k) / max(self.prevalence, PREVALENCE_FLOOR)

    def margin(self, k: int) -> float:
        return self.mean_precision(k) - self.prevalence

    def summary(self) -> dict:
        return {
            "approach": self.approach,
            "tau": "inf" if self.tau == math.inf else self.tau,
            "k_max": self.k_max,
            "anchors": len(self.results),
            "skipped_no_positive": self.skipped_no_positive,
            "skipped_no_anchor": self.skipped_no_anchor,
            "prevalence": self.prevalence,
            "precision": {str(k): self.mean_precision(k) for k in self.ks()},
            "ratio": {str(k): self.ratio(k) for k in self.ks()},
            "margin": {str(k): self.margin(k) for k in self.ks()},
            "mean_precision_over_k": (
                sum(self.mean_precision(k) for k in self.ks()) / self.k_max
            ),
        }


def evaluate(
    scorer: Scorer,
    corpus: Mapping[str, Project],
    items: Sequence[tuple[str, int]],
    k_max: int = 10,
    tau: Optional[float] = None,
) -> EvalReport:
    """Run one scorer over (project, diff_index) test items."""
    report = EvalReport(approach=scorer.name, tau=tau, k_max=k_max)
    for view in diff_views(corpus, items):
        if not view.anchors:
            report.skipped_no_anchor += 1
            continue
        anchor = view.anchors[0]
        candidates = (list(view.candidates) if tau in (None, math.inf)
                      else radius_filter(view.union, anchor, view.candidates, tau))
        positives = view.positives.intersection(candidates)
        if not positives:
            report.skipped_no_positive += 1
            continue
        scores = scorer.scores(anchor, candidates, view)
        ranking = RankedList(anchor, tuple(by_score(candidates, scores)), positives)
        report.results.append(AnchorResult(view.project, view.source_version, ranking))
    return report


def aggregate_by_project(
    results: Sequence[AnchorResult],
    ks: Sequence[int] = tuple(range(1, 11)),
    dynamic: bool = False,
    dynamic_fraction: float = 0.01,
) -> dict:
    """Mean precision per project (unweighted over anchors), then the
    overall mean over projects; optionally also at a per-anchor dynamic k."""
    by_project: dict[str, list[AnchorResult]] = {}
    for r in results:
        by_project.setdefault(r.project, []).append(r)
    projects = {}
    for name in sorted(by_project):
        group = by_project[name]
        entry = {
            str(k): sum(r.precision(k) for r in group) / len(group) for k in ks
        }
        if dynamic:
            entry["dynamic"] = sum(
                r.precision(dynamic_k(r.n_candidates, dynamic_fraction)) for r in group
            ) / len(group)
        projects[name] = entry
    n = len(projects)
    overall = {}
    if n:
        keys = [str(k) for k in ks] + (["dynamic"] if dynamic else [])
        overall = {key: sum(projects[p][key] for p in projects) / n for key in keys}
    return {"projects": projects, "overall": overall}


def report_to_csv(report: EvalReport) -> str:
    """One row per anchor per k, plus per-anchor context columns."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([
        "approach", "tau", "project", "diff", "anchor",
        "k", "precision", "n_candidates", "n_positives", "prevalence",
    ])
    tau_text = "inf" if report.tau == math.inf else ("" if report.tau is None else report.tau)
    for r in report.results:
        for k in report.ks():
            writer.writerow([
                report.approach, tau_text, r.project, r.diff_index, r.anchor,
                k, repr(r.precision(k)), r.n_candidates, r.n_positives,
                repr(r.prevalence),
            ])
    return buf.getvalue()


def radius_rows(reports: Sequence[EvalReport], ks: Sequence[int]) -> list[dict]:
    """Flat (tau, k, precision, prevalence, ratio, margin) series for plots."""
    rows = []
    for report in reports:
        for k in ks:
            rows.append({
                "tau": "inf" if report.tau in (None, math.inf) else report.tau,
                "k": k,
                "precision": report.mean_precision(k),
                "prevalence": report.prevalence,
                "ratio": report.ratio(k),
                "margin": report.margin(k),
            })
    return rows


def radius_rows_csv(rows: Sequence[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["tau", "k", "precision", "prevalence", "ratio", "margin"])
    for row in rows:
        writer.writerow([
            row["tau"], row["k"], repr(row["precision"]), repr(row["prevalence"]),
            repr(row["ratio"]), repr(row["margin"]),
        ])
    return buf.getvalue()
