"""Comparison rankers: random, semantic similarity, co-change counts."""

import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focusrank.baselines import build_cochange, rank_random, save_cochange
from focusrank.datagen import GenConfig, build_corpus
from focusrank.dataset import diff_views, label_pairs
from focusrank.evaluation import CoChangeScorer, SemanticScorer, by_score
from focusrank.graphs import ModelGraph, diff

ids_strategy = st.sets(
    st.text(alphabet="abcdefgh123", min_size=1, max_size=4), min_size=1, max_size=8
)


class TestRandomRanker:
    def test_deterministic_per_seed_and_anchor(self):
        candidates = ["n3", "n1", "n4", "n2"]
        assert rank_random(candidates, seed=9, anchor="A") == rank_random(
            candidates, seed=9, anchor="A"
        )

    def test_seed_and_anchor_both_matter(self):
        candidates = [f"n{i}" for i in range(12)]
        base = rank_random(candidates, seed=1, anchor="A")
        assert base != rank_random(candidates, seed=2, anchor="A")
        assert base != rank_random(candidates, seed=1, anchor="B")

    def test_singleton(self):
        assert rank_random(["only"], seed=0) == ["only"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="cannot rank an empty candidate set"):
            rank_random([], seed=0)

    def test_input_order_is_irrelevant(self):
        a = rank_random(["x", "y", "z"], seed=5, anchor="q")
        b = rank_random(["z", "x", "y"], seed=5, anchor="q")
        assert a == b

    def test_first_place_is_uniform_over_10k_seeds(self):
        """Each of four candidates should take rank 1 in about a quarter of
        independent draws."""
        candidates = ["a", "b", "c", "d"]
        firsts = Counter(rank_random(candidates, seed=s)[0] for s in range(10_000))
        for candidate in candidates:
            assert abs(firsts[candidate] / 10_000 - 0.25) <= 0.02

    @settings(max_examples=50, deadline=None)
    @given(ids=ids_strategy, seed=st.integers(0, 1000))
    def test_always_a_permutation(self, ids, seed):
        assert sorted(rank_random(sorted(ids), seed=seed)) == sorted(ids)


def unit_with_cosine(c: float) -> np.ndarray:
    """2-d unit vector whose cosine against (1, 0) is exactly c."""
    return np.array([c, math.sqrt(1.0 - c * c)])


class StubProvider:
    """Embeds each label as the vector a test gives it."""

    def __init__(self, vectors):
        self.vectors = vectors

    def embed(self, texts):
        return np.array([self.vectors[t] for t in texts], dtype=np.float64)


class IdLabels:
    """A view in which each node's label is its id."""

    @staticmethod
    def label(node_id):
        return node_id


def cosines(anchor_emb, candidate_embs):
    """`SemanticScorer`'s scores for candidates embedded as given, against
    an anchor embedded as `anchor_emb`."""
    provider = StubProvider({"@anchor": anchor_emb, **candidate_embs})
    return SemanticScorer(provider).scores("@anchor", list(candidate_embs), IdLabels())


def rank_semantic(anchor_emb, candidate_embs):
    """Candidates by descending cosine, the order `evaluate` gives them."""
    return by_score(list(candidate_embs), cosines(anchor_emb, candidate_embs))


class TestSemanticRanker:
    def test_orders_by_descending_cosine(self):
        anchor = np.array([1.0, 0.0])
        embs = {
            "first": unit_with_cosine(0.9),
            "second": unit_with_cosine(0.1),
            "third": unit_with_cosine(0.5),
        }
        assert rank_semantic(anchor, embs) == ["first", "third", "second"]

    def test_scores_are_cosines(self):
        anchor = np.array([1.0, 0.0])
        scores = cosines(anchor, {"x": unit_with_cosine(0.5)})
        assert scores["x"] == pytest.approx(0.5, abs=1e-12)

    def test_scores_are_the_row_by_row_cosine_bit_for_bit(self):
        """Each score is a·v / (|a| |v|) with the norms taken one row at a
        time; a batched norm or product could move the last bits and flip
        a tie."""
        rng = np.random.default_rng(11)
        anchor = rng.normal(size=7)
        embs = {f"c{i}": rng.normal(size=7) for i in range(40)}
        scores = cosines(anchor, embs)
        for name, vec in embs.items():
            expected = float(anchor @ vec) / (float(np.linalg.norm(anchor)) * float(np.linalg.norm(vec)))
            assert scores[name] == expected

    def test_zero_vector_candidate_ranks_last(self):
        anchor = np.array([1.0, 0.0])
        embs = {
            "zed": np.zeros(2),
            "far": unit_with_cosine(-0.95),
            "near": unit_with_cosine(0.8),
        }
        scores = cosines(anchor, embs)
        assert scores["zed"] == -2.0
        assert rank_semantic(anchor, embs) == ["near", "far", "zed"]

    def test_zero_anchor_degenerates_to_id_order(self):
        embs = {"b": unit_with_cosine(0.9), "a": unit_with_cosine(0.1)}
        assert cosines(np.zeros(2), embs) == {"a": -2.0, "b": -2.0}
        assert rank_semantic(np.zeros(2), embs) == ["a", "b"]

    def test_ties_break_by_id(self):
        anchor = np.array([1.0, 0.0])
        embs = {"beta": unit_with_cosine(0.5), "alpha": unit_with_cosine(0.5)}
        assert rank_semantic(anchor, embs) == ["alpha", "beta"]

    def test_scale_invariance(self):
        """Rescaling any embedding by a positive factor never changes the
        ranking, because cosine ignores magnitude."""
        rng = np.random.default_rng(4)
        for _ in range(20):
            anchor = rng.normal(size=5)
            embs = {f"c{i}": rng.normal(size=5) for i in range(6)}
            scaled = {k: float(rng.uniform(0.1, 10.0)) * v for k, v in embs.items()}
            assert rank_semantic(anchor, embs) == rank_semantic(3.7 * anchor, scaled)


def view(anchors, positives, candidates=(), diff_index=0, project="p"):
    """A diff that adds the anchors, with an edge from each positive into the
    first anchor; the other candidates are kept untouched."""
    kept = set(candidates) | set(positives)
    source = ModelGraph({v: v for v in kept})
    target = ModelGraph({v: v for v in kept | set(anchors)}, [(p, min(anchors), "e") for p in positives])
    d = diff(source, target, diff_index, project)
    assert set(d.anchors) == set(anchors) and d.positives == set(positives)
    return d


def rank_cochange(counts, anchor, candidates):
    """Candidates by descending count, the order `evaluate` gives them."""
    return by_score(candidates, CoChangeScorer(counts).scores(anchor, candidates, None))


class TestCoChange:
    def test_three_positive_diffs_count_three(self):
        views = [view({"A"}, {"B"}, {"C"}, diff_index=i) for i in range(3)]
        counts = build_cochange(views)
        assert counts == {("A", "B"): 3}
        assert CoChangeScorer(counts).scores("A", ["B", "C"], None) == {"B": 3, "C": 0}

    def test_counts_only_from_supplied_pairs(self):
        """Views outside the training slice leave no trace in the counts."""
        train = [view({"A"}, {"B"}, diff_index=0)]
        held_out = [view({"A"}, {"C"}, diff_index=9)]
        assert build_cochange(train) == {("A", "B"): 1}
        assert len(build_cochange(train + held_out)) == 2

    def test_counts_equal_the_labeled_pair_recount(self):
        """One count per positive labeled pair of the training diffs, the
        definition the counts had when they were read off listed pairs."""
        corpus, _ = build_corpus(GenConfig(projects=3, commits_per_project=5, seed=3))
        keys = [(name, i) for name in sorted(corpus) for i in range(corpus[name].n_diffs)]
        expected = Counter()
        for name, i in keys:
            d = corpus[name].diff_at(i)
            if d.changed_nodes():
                pairs = label_pairs(d, corpus[name].versions[i + 1], d.changed_nodes())
                expected.update((p.anchor, p.candidate) for p in pairs if p.label == 1)
        assert expected
        assert build_cochange(diff_views(corpus, keys)) == dict(expected)

    def test_ranking_by_count_then_id(self):
        counts = {("A", "B"): 5, ("A", "C"): 2, ("B", "D"): 9}
        assert rank_cochange(counts, "A", ["B", "C", "D"]) == ["B", "C", "D"]

    def test_all_zero_counts_fall_back_to_id_order(self):
        assert rank_cochange({}, "A", ["c", "a", "b"]) == ["a", "b", "c"]

    def test_tied_counts_break_by_id(self):
        counts = {("A", "y"): 2, ("A", "x"): 2}
        assert rank_cochange(counts, "A", ["y", "x"]) == ["x", "y"]

    def test_counts_are_additive_over_slices(self):
        """Building once from all views equals merging the counts built
        from any partition of the views."""
        views = [
            view({"A"}, {"B"}, diff_index=0),
            view({"A", "B"}, {"C"}, diff_index=1),
            view({"A"}, set(), {"C"}, diff_index=2),
            view({"A"}, {"C", "D"}, diff_index=3),
        ]
        full = build_cochange(views)
        for cut in range(len(views) + 1):
            head = build_cochange(views[:cut])
            tail = build_cochange(views[cut:])
            merged = Counter(head)
            merged.update(Counter(tail))
            assert dict(merged) == full

    def test_jsonl_round_trip_and_stable_bytes(self, tmp_path):
        counts = {("A", "B"): 3, ("B", "A"): 1, ("A", "C"): 2}
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_cochange(counts, first)
        save_cochange(dict(reversed(counts.items())), second)
        assert first.read_bytes() == second.read_bytes()
        rows = [json.loads(line) for line in first.read_text().splitlines()]
        assert [(r["anchor"], r["candidate"]) for r in rows] == sorted(counts)
        assert {(r["anchor"], r["candidate"]): r["count"] for r in rows} == counts

    @settings(max_examples=40, deadline=None)
    @given(ids=ids_strategy)
    def test_cochange_ranking_is_a_permutation(self, ids):
        counts = {("A", i): len(i) for i in ids}
        ranked = rank_cochange(counts, "A", sorted(ids))
        assert sorted(ranked) == sorted(ids)
