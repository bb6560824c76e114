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
from typing import Iterable, Mapping, Optional, Sequence

from .baselines import rank_random
from .dataset import diff_views, group_by_project
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
        raise ValueError(f"anchor {ranking.anchor} has no positive candidates")
    hits = sum(1 for v in ranking.ordered[:k] if v in ranking.positives)
    return hits / min(k, len(ranking.positives))


def dynamic_k(n_candidates: int) -> int:
    """One percent of the candidates, rounded up, never below 1."""
    return max(1, math.ceil(0.01 * n_candidates))


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
    import numpy as np

    from . import ranker

    embs = provider.embed([graph.label(v) for v in [anchor, *candidates]])
    n = len(candidates)
    logits = ranker.pair_logits(params, embs, np.zeros(n, np.intp), np.arange(1, n + 1))
    return ranker.sigmoid(logits)


class NeuralScorer:
    """Scores pairs with a trained checkpoint's predicted probability."""

    name = "nextfocus"

    def __init__(self, checkpoint: "ranker.Checkpoint", provider):
        self.checkpoint = checkpoint
        self.provider = provider

    def scores(self, anchor, candidates, view):
        probs = neural_scores(self.checkpoint.params, self.provider, view, anchor, candidates)
        return {c: float(p) for c, p in zip(candidates, probs)}


class RandomScorer:
    """The seeded permutation of `rank_random`: earlier places score higher."""

    name = "random"

    def __init__(self, seed: int):
        self.seed = seed

    def scores(self, anchor, candidates, view):
        order = rank_random(candidates, self.seed, anchor)
        return {c: -place for place, c in enumerate(order)}


class SemanticScorer:
    """Cosine similarity between anchor and candidate label embeddings; a
    zero vector scores a sentinel below -1, so it lands after every defined
    similarity. Row by row: a batched norm or product may differ in the
    last bits and flip a tie."""

    name = "semantic"

    def __init__(self, provider):
        self.provider = provider

    def scores(self, anchor, candidates, view):
        import numpy as np

        texts = [view.label(v) for v in [anchor, *candidates]]
        anchor_emb, *embs = np.asarray(self.provider.embed(texts), dtype=np.float64)
        anchor_norm = float(np.linalg.norm(anchor_emb))
        scores = {}
        for c, vec in zip(candidates, embs):
            norm = float(np.linalg.norm(vec))
            zero = anchor_norm == 0.0 or norm == 0.0
            scores[c] = -2.0 if zero else float(anchor_emb @ vec) / (anchor_norm * norm)
        return scores


class CoChangeScorer:
    """Historical count of the (anchor, candidate) pair as a positive, from
    `baselines.build_cochange`; an absent pair counts 0."""

    name = "cochange"

    def __init__(self, counts: Mapping[tuple[str, str], int]):
        self.counts = counts

    def scores(self, anchor, candidates, view):
        return {c: self.counts.get((anchor, c), 0) for c in candidates}


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
    scorer,
    corpus: Mapping[str, Project],
    items: Sequence[tuple[str, int]],
    k_max: int = 10,
    tau: Optional[float] = None,
) -> EvalReport:
    """Run one scorer over (project, diff_index) test items, reading only its
    `name` and `scores(anchor, candidates, view)`, which maps each candidate
    to its score within the diff `view`."""
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
) -> dict:
    """Mean precision per project (unweighted over anchors) at each k and at
    each anchor's `dynamic_k`, then the overall mean over projects."""
    by_project = group_by_project(results)
    projects = {}
    for name in sorted(by_project):
        group = by_project[name]
        entry = {
            str(k): sum(r.precision(k) for r in group) / len(group) for k in ks
        }
        entry["dynamic"] = sum(r.precision(dynamic_k(r.n_candidates)) for r in group) / len(group)
        projects[name] = entry
    keys = [str(k) for k in ks] + ["dynamic"]
    overall = {key: sum(e[key] for e in projects.values()) / len(projects)
               for key in keys} if projects else {}
    return {"projects": projects, "overall": overall}


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The header line, then one line per row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def report_to_csv(report: EvalReport) -> str:
    """One row per anchor per k, plus per-anchor context columns."""
    tau_text = "inf" if report.tau == math.inf else ("" if report.tau is None else report.tau)
    return _csv(
        ["approach", "tau", "project", "diff", "anchor",
         "k", "precision", "n_candidates", "n_positives", "prevalence"],
        ([report.approach, tau_text, r.project, r.diff_index, r.anchor,
          k, repr(r.precision(k)), r.n_candidates, r.n_positives, repr(r.prevalence)]
         for r in report.results for k in report.ks()),
    )


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
    header = ["tau", "k", "precision", "prevalence", "ratio", "margin"]
    return _csv(header, ([row["tau"], row["k"], *(repr(row[key]) for key in header[2:])] for row in rows))
