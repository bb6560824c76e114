"""Precision@k, radius filtering, scorer drivers, aggregation, reports."""

import math

import pytest

from focusrank.baselines import rank_random
from focusrank.dataset import diff_views
from focusrank.embedding import HashedProvider
from focusrank.evaluation import (
    AnchorResult,
    CoChangeScorer,
    EvalReport,
    NeuralScorer,
    RandomScorer,
    RankedList,
    SemanticScorer,
    aggregate_by_project,
    by_score,
    dynamic_k,
    evaluate,
    precision_at_k,
    radius_filter,
    radius_rows,
    radius_rows_csv,
    report_to_csv,
)
from focusrank.graphs import ModelGraph, Project
from focusrank.ranker import Checkpoint, TrainConfig, init_params

import random


def ranked(ordered, positives, anchor="A"):
    return RankedList(anchor=anchor, ordered=tuple(ordered), positives=frozenset(positives))


class TestPrecisionAtK:
    def test_two_hits_out_of_two_positives_in_top_three(self):
        r = ranked(["p1", "p2", "n1"], {"p1", "p2"})
        assert precision_at_k(r, 3) == 1.0

    def test_one_hit_when_five_positives_exist(self):
        ordered = ["p1", "n1", "n2", "p2", "p3", "p4", "p5", "n3"]
        r = ranked(ordered, {"p1", "p2", "p3", "p4", "p5"})
        assert precision_at_k(r, 3) == pytest.approx(1.0 / 3.0)

    def test_k_beyond_list_saturates_at_one(self):
        r = ranked(["n1", "n2", "p1"], {"p1"})
        assert precision_at_k(r, 50) == 1.0

    def test_k_below_one_rejected(self):
        r = ranked(["p1"], {"p1"})
        with pytest.raises(ValueError):
            precision_at_k(r, 0)

    def test_no_positives_rejected(self):
        r = ranked(["n1", "n2"], set())
        with pytest.raises(ValueError, match="has no positive candidates"):
            precision_at_k(r, 1)

    def test_matches_literal_recount_on_random_rankings(self):
        rng = random.Random("precision-oracle")
        for _ in range(100):
            n = rng.randint(1, 10)
            ids = [f"c{i}" for i in range(n)]
            rng.shuffle(ids)
            positives = {v for v in ids if rng.random() < 0.4} or {ids[0]}
            r = ranked(ids, positives)
            for k in range(1, n + 2):
                hits = len(set(ids[:k]) & positives)
                assert precision_at_k(r, k) == hits / min(k, len(positives))

    def test_random_ranking_mean_matches_prevalence(self):
        """Averaged over many draws, random Precision@10 equals the positive
        rate of the candidate pool."""
        candidates = [f"c{i:03d}" for i in range(100)]
        positives = frozenset(candidates[::10])  # prevalence 0.1
        total = 0.0
        for seed in range(1000):
            order = rank_random(candidates, seed=seed, anchor="A")
            total += precision_at_k(ranked(order, positives), 10)
        assert abs(total / 1000 - 0.1) <= 0.02


class TestRankedListValidation:
    def test_duplicate_candidates_rejected(self):
        with pytest.raises(ValueError):
            ranked(["a", "a"], {"a"})

    def test_stray_positive_rejected(self):
        with pytest.raises(ValueError):
            ranked(["a", "b"], {"zzz"})


class TestDynamicK:
    def test_one_percent_of_250_rounds_up_to_3(self):
        assert dynamic_k(250) == 3

    def test_never_below_one(self):
        assert dynamic_k(5) == 1
        assert dynamic_k(0) == 1

    def test_exact_percent_boundary(self):
        assert dynamic_k(100) == 1
        assert dynamic_k(101) == 2


def chain_graph():
    return ModelGraph(
        {"A": "A", "B": "B", "C": "C", "D": "D"},
        [("A", "B", "e"), ("B", "C", "e"), ("C", "D", "e")],
    )


class TestByScore:
    def test_descending_score_then_ascending_id(self):
        scores = {"b": 1.0, "a": 1.0, "c": 2.0, "d": -1.0}
        assert by_score(["d", "c", "b", "a"], scores) == ["c", "a", "b", "d"]

    def test_only_the_given_candidates_are_ranked(self):
        assert by_score(["b"], {"a": 5.0, "b": 0.0}) == ["b"]


class TestRadiusFilter:
    def test_tau_one_is_immediate_neighborhood(self):
        g = chain_graph()
        assert radius_filter(g, "A", ["B", "C", "D"], tau=1) == ["B"]

    def test_tau_two_reaches_two_hops(self):
        g = chain_graph()
        assert radius_filter(g, "A", ["B", "C", "D"], tau=2) == ["B", "C"]

    def test_none_and_infinity_are_identity(self):
        g = chain_graph()
        candidates = ["B", "C", "D"]
        assert radius_filter(g, "A", candidates, tau=None) == candidates
        assert radius_filter(g, "A", candidates, tau=math.inf) == candidates

    def test_unreachable_candidates_always_drop(self):
        g = ModelGraph({"A": "A", "B": "B", "Z": "Z"}, [("A", "B", "e")])
        assert radius_filter(g, "A", ["B", "Z"], tau=10) == ["B"]


def growing_project(name="proj"):
    """v0 is a 4-chain; v1 hangs a new node E off B. The positive candidate
    for anchor E is therefore exactly B."""
    v0 = chain_graph()
    v1 = ModelGraph(
        {"A": "A", "B": "B", "C": "C", "D": "D", "E": "E"},
        [("A", "B", "e"), ("B", "C", "e"), ("C", "D", "e"), ("B", "E", "e")],
    )
    return Project(name=name, versions=[v0, v1])


class OracleScorer:
    """Reads the ground truth it is handed; the ceiling for any ranker."""

    name = "oracle"

    def __init__(self, positives):
        self.positives = set(positives)

    def scores(self, anchor, candidates, view):
        return {c: 1.0 if c in self.positives else 0.0 for c in candidates}


class InverseScorer:
    name = "inverse"

    def __init__(self, positives):
        self.positives = set(positives)

    def scores(self, anchor, candidates, view):
        return {c: 0.0 if c in self.positives else 1.0 for c in candidates}


class TestEvaluate:
    def test_perfect_scorer_scores_one_everywhere(self):
        corpus = {"proj": growing_project()}
        report = evaluate(OracleScorer({"B"}), corpus, [("proj", 0)], k_max=4)
        assert len(report.results) == 1
        result = report.results[0]
        assert result.anchor == "E"
        assert result.ranking.ordered[0] == "B"
        assert all(report.mean_precision(k) == 1.0 for k in report.ks())

    def test_inverse_scorer_misses_until_saturation(self):
        corpus = {"proj": growing_project()}
        report = evaluate(InverseScorer({"B"}), corpus, [("proj", 0)], k_max=4)
        assert report.mean_precision(1) == 0.0
        assert report.mean_precision(4) == 1.0  # the single positive is in the tail

    def test_anchor_is_smallest_changed_node(self):
        corpus = {"proj": growing_project()}
        report = evaluate(RandomScorer(seed=1), corpus, [("proj", 0)])
        assert report.results[0].anchor == "E"
        assert set(report.results[0].ranking.ordered) == {"A", "B", "C", "D"}

    def test_unchanged_diff_counts_as_skipped_anchor(self):
        g = chain_graph()
        corpus = {"idle": Project(name="idle", versions=[g, g])}
        report = evaluate(RandomScorer(seed=0), corpus, [("idle", 0)])
        assert report.results == []
        assert report.skipped_no_anchor == 1

    def test_isolated_addition_counts_as_skipped_positive(self):
        v0 = chain_graph()
        v1 = ModelGraph(
            {"A": "A", "B": "B", "C": "C", "D": "D", "E": "E"},
            [("A", "B", "e"), ("B", "C", "e"), ("C", "D", "e")],
        )
        corpus = {"iso": Project(name="iso", versions=[v0, v1])}
        report = evaluate(RandomScorer(seed=0), corpus, [("iso", 0)])
        assert report.results == []
        assert report.skipped_no_positive == 1

    def test_radius_keeps_positive_within_reach(self):
        corpus = {"proj": growing_project()}
        report = evaluate(OracleScorer({"B"}), corpus, [("proj", 0)], k_max=2, tau=1)
        (result,) = report.results
        # E's 1-hop neighborhood on the union graph is just B
        assert result.ranking.ordered == ("B",)
        assert result.prevalence == 1.0

    def test_tau_infinity_equals_unrestricted(self):
        corpus = {"proj": growing_project()}
        free = evaluate(RandomScorer(seed=3), corpus, [("proj", 0)], k_max=4, tau=None)
        capped = evaluate(RandomScorer(seed=3), corpus, [("proj", 0)], k_max=4, tau=math.inf)
        assert [r.ranking.ordered for r in free.results] == [
            r.ranking.ordered for r in capped.results
        ]

    def test_random_scorer_ranks_in_rank_random_order(self):
        corpus = {"proj": growing_project()}
        for seed in range(20):
            (result,) = evaluate(RandomScorer(seed), corpus, [("proj", 0)]).results
            expected = rank_random(["A", "B", "C", "D"], seed, "E")
            assert list(result.ranking.ordered) == expected

    def test_scorer_sees_the_diff_view(self):
        seen = []

        class Spy:
            name = "spy"

            def scores(self, anchor, candidates, view):
                seen.append((anchor, tuple(candidates), view))
                return {c: 0.0 for c in candidates}

        evaluate(Spy(), {"proj": growing_project()}, [("proj", 0)])
        ((anchor, candidates, view),) = seen
        assert (view.project, view.source_version) == ("proj", 0)
        assert anchor == view.anchors[0] == "E"
        assert candidates == view.candidates == ("A", "B", "C", "D")
        assert view.positives == {"B"}
        assert view.label("E") == view.union.label("E") == "E"

    def test_semantic_scorer_end_to_end(self):
        v0 = ModelGraph(
            {"B": "BillingHandler", "Q": "QueueWorker"},
            [("B", "Q", "e")],
        )
        v1 = ModelGraph(
            {"B": "BillingHandler", "Q": "QueueWorker", "T": "BillingTask"},
            [("B", "Q", "e"), ("B", "T", "e"), ("Q", "T", "e")],
        )
        corpus = {"p": Project(name="p", versions=[v0, v1])}
        scorer = SemanticScorer(HashedProvider(dimension=32))
        report = evaluate(scorer, corpus, [("p", 0)], k_max=2)
        (result,) = report.results
        # anchor T ("BillingTask") shares a token with B, not with Q
        assert result.ranking.ordered[0] == "B"
        (view,) = diff_views(corpus, [("p", 0)])
        scores = scorer.scores(result.ranking.anchor, result.ranking.ordered, view)
        assert scores["B"] > scores["Q"]

    def test_neural_scorer_with_fresh_checkpoint_ties_to_id_order(self):
        """An untrained checkpoint scores every pair 0.5, so ordering falls
        back to ascending candidate id."""
        corpus = {"proj": growing_project()}
        provider = HashedProvider(dimension=16)
        ckpt = Checkpoint(
            params=init_params(d=16, h=4, init_scale=1.0, seed=0),
            train_config=TrainConfig(),
            provider_fingerprint=provider.fingerprint,
        )
        scorer = NeuralScorer(ckpt, provider)
        report = evaluate(scorer, corpus, [("proj", 0)], k_max=4)
        (result,) = report.results
        assert result.ranking.ordered == ("A", "B", "C", "D")
        (view,) = diff_views(corpus, [("proj", 0)])
        scores = scorer.scores(result.ranking.anchor, result.ranking.ordered, view)
        assert all(s == 0.5 for s in scores.values())

    def test_cochange_scorer_uses_history(self):
        corpus = {"proj": growing_project()}
        report = evaluate(CoChangeScorer({("E", "D"): 7}), corpus, [("proj", 0)], k_max=4)
        assert report.results[0].ranking.ordered[0] == "D"


class TestAggregation:
    def hit_result(self, project):
        return AnchorResult(project, 0, ranked(["p1", "n1"], {"p1"}))

    def miss_result(self, project):
        return AnchorResult(project, 0, ranked(["n1", "p1"], {"p1"}))

    def test_single_anchor_passes_through(self):
        agg = aggregate_by_project([self.hit_result("x")], ks=[1, 2])
        assert agg["projects"]["x"] == {"1": 1.0, "2": 1.0, "dynamic": 1.0}
        assert agg["overall"] == {"1": 1.0, "2": 1.0, "dynamic": 1.0}

    def test_projects_average_evenly(self):
        agg = aggregate_by_project([self.hit_result("x"), self.miss_result("y")], ks=[1])
        assert agg["projects"] == {"x": {"1": 1.0, "dynamic": 1.0}, "y": {"1": 0.0, "dynamic": 0.0}}
        assert agg["overall"] == {"1": 0.5, "dynamic": 0.5}

    def test_anchor_count_does_not_skew_project_weighting(self):
        results = [self.hit_result("x"), self.hit_result("x"), self.miss_result("y")]
        agg = aggregate_by_project(results, ks=[1])
        assert agg["overall"] == {"1": 0.5, "dynamic": 0.5}

    def test_dynamic_column(self):
        """An anchor with 101 candidates is judged at k = 2, where its one
        positive in second place is a hit; at k = 1 it is a miss."""
        ordered = ["n0", "p1", *(f"n{i}" for i in range(1, 100))]
        agg = aggregate_by_project([AnchorResult("x", 0, ranked(ordered, {"p1"}))], ks=[1])
        assert agg["projects"]["x"] == {"1": 0.0, "dynamic": 1.0}
        assert agg["overall"] == {"1": 0.0, "dynamic": 1.0}

    def test_empty_results(self):
        assert aggregate_by_project([], ks=[1]) == {"projects": {}, "overall": {}}


class TestReport:
    def make_report(self):
        report = EvalReport(approach="oracle", tau=None, k_max=2)
        report.results.append(AnchorResult("x", 0, ranked(["p1", "n1", "n2", "n3"], {"p1"})))
        return report

    def test_summary_metrics(self):
        summary = self.make_report().summary()
        assert summary["approach"] == "oracle"
        assert summary["tau"] is None
        assert summary["anchors"] == 1
        assert summary["prevalence"] == 0.25
        assert summary["precision"] == {"1": 1.0, "2": 1.0}
        assert summary["ratio"]["1"] == 4.0
        assert summary["margin"]["1"] == 0.75
        assert summary["mean_precision_over_k"] == 1.0

    def test_infinite_tau_serializes_as_inf(self):
        report = EvalReport(approach="r", tau=math.inf, k_max=1)
        assert report.summary()["tau"] == "inf"

    def test_csv_shape_and_determinism(self):
        report = self.make_report()
        text = report_to_csv(report)
        lines = text.strip().split("\n")
        assert len(lines) == 1 + len(report.results) * report.k_max
        assert lines[0].startswith("approach,tau,project,diff,anchor,k,precision")
        assert report_to_csv(report) == text

    def test_radius_rows_cover_all_taus_and_ks(self):
        reports = [
            EvalReport(approach="r", tau=t, k_max=2) for t in (1, 2, math.inf)
        ]
        rows = radius_rows(reports, ks=[1, 2])
        assert len(rows) == 6
        assert {row["tau"] for row in rows} == {1, 2, "inf"}
        assert set(rows[0]) == {"tau", "k", "precision", "prevalence", "ratio", "margin"}
        text = radius_rows_csv(rows)
        assert text.splitlines()[0] == "tau,k,precision,prevalence,ratio,margin"
        assert len(text.splitlines()) == 7
