"""Pair labeling, temporal/cross-project splits, and per-project balancing."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focusrank import graphs
from focusrank.baselines import build_cochange
from focusrank.datagen import GenConfig, build_corpus
from focusrank.dataset import (
    BalanceConfig,
    DatasetSplit,
    LabeledPair,
    ViewPairs,
    balance,
    diff_views,
    group_by_project,
    label_pairs,
    load_pairs,
    load_split,
    pairs_by_project,
    save_pairs,
    save_split,
    split_cross_project,
    split_temporal,
)
from focusrank.embedding import HashedProvider
from focusrank.errors import (
    ArtifactFormatError,
    EmptyAnchorSetError,
    EmptyProjectError,
    TooFewCommitsError,
    TooFewProjectsError,
)
from focusrank.evaluation import NeuralScorer, SemanticScorer, evaluate
from focusrank.graphs import ModelGraph, Project, diff, union_graph
from focusrank.ranker import Checkpoint, TrainConfig, init_params


def successors(g, v):
    """Recount of v's direct successors from the edge triples of g."""
    return {dst for src, dst, _ in g.edges if src == v}


def graph(nodes, edges=()):
    return ModelGraph({n: f"L{n}" for n in nodes}, edges)


class TestLabelPairs:
    def test_chain_with_new_tail(self):
        """A -> B -> C where C is new: B points at the change, A does not."""
        old = graph("AB", [("A", "B", "e")])
        new = graph("ABC", [("A", "B", "e"), ("B", "C", "e")])
        d = diff(old, new)
        pairs = label_pairs(d, new, anchors={"C"}, project="p")
        by_candidate = {p.candidate: p.label for p in pairs}
        assert by_candidate == {"A": 0, "B": 1}
        assert all(p.anchor == "C" and p.project == "p" for p in pairs)

    def test_empty_anchor_set_rejected(self):
        old = graph("A")
        d = diff(old, old)
        with pytest.raises(EmptyAnchorSetError):
            label_pairs(d, old, anchors=set())

    def test_anchor_must_be_changed_node(self):
        old = graph("AB")
        new = graph("ABC")
        d = diff(old, new)
        with pytest.raises(ValueError):
            label_pairs(d, new, anchors={"A"})

    def test_target_must_be_the_diffs_own(self):
        old = graph("AB")
        new = graph("ABC")
        d = diff(old, new)
        for other in (old, graph("ABC"), union_graph(old, new)):
            with pytest.raises(ValueError, match="own target"):
                label_pairs(d, other, anchors={"C"})

    def test_anchor_never_its_own_candidate(self):
        # a relabeled node stays in both versions; as anchor it must not pair
        # with itself even though other anchors may see it
        old = ModelGraph({"A": "x", "B": "y"}, [("A", "B", "e")])
        new = ModelGraph({"A": "x2", "B": "y"}, [("A", "B", "e")])
        d = diff(old, new)
        pairs = label_pairs(d, new, anchors={"A"})
        assert all(p.candidate != "A" for p in pairs)

    def test_labels_match_successor_oracle_on_random_diffs(self):
        """Candidate label == 1 iff a direct successor in the target version
        is a changed node, re-derived literally per candidate."""
        rng = random.Random("pair-oracle")
        for _ in range(40):
            names = [f"v{i}" for i in range(rng.randint(3, 9))]

            def rand_graph():
                nodes = {v: rng.choice("XY") for v in names if rng.random() < 0.85}
                edges = set()
                for a in nodes:
                    for b in nodes:
                        if a != b and rng.random() < 0.3:
                            edges.add((a, b, "e"))
                return ModelGraph(nodes, edges)

            old, new = rand_graph(), rand_graph()
            d = diff(old, new)
            changed = d.changed_nodes()
            anchors = sorted(changed)
            if not anchors:
                continue
            pairs = label_pairs(d, new, anchors=anchors)
            assert {p.candidate for p in pairs} <= set(d.candidates)
            for p in pairs:
                expected = int(any(u in changed for u in successors(new, p.candidate)))
                assert p.label == expected


    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6))
    def test_positive_candidates_match_successor_rule(self, seed):
        """`positives`, an edge scan, equals the per-candidate rule: preserved
        nodes with a changed successor in the target version, with self-loops
        and parallel edges allowed."""
        rng = random.Random(seed)
        names = [f"v{i}" for i in range(rng.randint(1, 8))]

        def rand_graph():
            nodes = {v: rng.choice("XY") for v in names if rng.random() < 0.8}
            edges = {(a, b, label) for a in nodes for b in nodes for label in "pq"
                     if rng.random() < 0.2}
            return ModelGraph(nodes, edges)

        old, new = rand_graph(), rand_graph()
        d = diff(old, new)
        changed = d.changed_nodes()
        assert d.positives == {v for v in d.candidates if successors(new, v) & changed}


def random_project(rng, name, versions):
    """Versions over a shared pool of node ids, so diffs add, remove,
    relabel and keep nodes, and some diffs change nothing."""
    pool = [f"v{i}" for i in range(rng.randint(2, 8))]
    graphs = []
    for _ in range(versions):
        if graphs and rng.random() < 0.15:
            graphs.append(graphs[-1])
            continue
        nodes = {v: rng.choice("XY") for v in pool if rng.random() < 0.8}
        edges = {(a, b, "e") for a in nodes for b in nodes if a != b and rng.random() < 0.3}
        graphs.append(ModelGraph(nodes, edges))
    return Project(name=name, versions=graphs)


def random_corpus(seed):
    rng = random.Random(f"corpus:{seed}")
    names = [f"p{i}" for i in range(rng.randint(1, 4))]
    return {name: random_project(rng, name, rng.randint(2, 5)) for name in names}


def all_keys(corpus):
    return [(name, i) for name in sorted(corpus) for i in range(corpus[name].n_diffs)]


def listed_pairs(corpus, keys):
    """The labeled pairs of each keyed diff, listed with `label_pairs`."""
    out = []
    for name, i in keys:
        d = corpus[name].diff_at(i)
        if d.changed_nodes():
            out.extend(label_pairs(d, corpus[name].versions[i + 1], d.changed_nodes(), name))
    return out


def scorers():
    """The two scorers that read node labels: an untrained ranker and the
    label-embedding similarity."""
    provider = HashedProvider(dimension=16)
    ckpt = Checkpoint(init_params(16, 4, 1.0, 0), TrainConfig(), provider.fingerprint)
    return [NeuralScorer(ckpt, provider), SemanticScorer(provider)]


class TestDiffView:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_expansion_equals_label_pairs(self, seed):
        corpus = random_corpus(seed)
        keys = all_keys(corpus)
        assert list(ViewPairs(diff_views(corpus, keys))) == listed_pairs(corpus, keys)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), target=st.integers(1, 40), balance_seed=st.integers(0, 9))
    def test_balance_over_views_equals_balance_over_listed_pairs(
        self, seed, target, balance_seed
    ):
        corpus = random_corpus(seed)
        keys = all_keys(corpus)
        cfg = BalanceConfig(target_pairs_per_project=target, seed=balance_seed)
        listed = group_by_project(listed_pairs(corpus, keys))
        viewed = pairs_by_project(diff_views(corpus, keys))
        assert sorted(viewed) == sorted(listed)
        assert {name: len(pairs) for name, pairs in viewed.items()} == {
            name: len(pairs) for name, pairs in listed.items()
        }
        assert balance(viewed, cfg) == balance(listed, cfg)

    def test_default_corpus_balances_identically(self):
        corpus, _ = build_corpus(GenConfig())
        train = split_temporal(all_keys(corpus)).train
        cfg = BalanceConfig(target_pairs_per_project=400, seed=7)
        listed = balance(group_by_project(listed_pairs(corpus, train)), cfg)
        assert balance(pairs_by_project(diff_views(corpus, train)), cfg) == listed
        assert len(listed) == 400 * len(corpus)

    def test_labeling_and_cochange_build_no_union_graph(self, monkeypatch):
        """A diff holds the corpus's two versions; only a read of `union`
        (evaluation's distances at a finite tau) builds their union, so
        labeling, co-change counts and scoring without a radius build none."""
        corpus, _ = build_corpus(GenConfig(projects=3, commits_per_project=5))
        keys = all_keys(corpus)

        def refuse(*args):
            raise AssertionError("union_graph called")

        monkeypatch.setattr(graphs, "union_graph", refuse)
        views = list(diff_views(corpus, keys))
        for view, (name, index) in zip(views, keys):
            versions = corpus[name].versions
            assert view.source is versions[index] and view.target is versions[index + 1]
        groups = pairs_by_project(views)
        assert all(list(pairs) for pairs in groups.values())
        assert len(build_cochange(views)) > 0
        for scorer in scorers():
            assert evaluate(scorer, corpus, keys, tau=None).results
        with pytest.raises(AssertionError, match="union_graph called"):
            views[0].union

    def test_evaluate_at_a_finite_tau_builds_one_union_per_scored_diff(self, monkeypatch):
        """The radius filter reads `union` once for each diff with an anchor."""
        corpus, _ = build_corpus(GenConfig(projects=3, commits_per_project=5))
        keys = all_keys(corpus)
        with_anchors = sum(1 for name, i in keys if corpus[name].diff_at(i).anchors)
        for scorer in scorers():
            built = []
            monkeypatch.setattr(graphs, "union_graph", lambda m, n: built.append(1) or union_graph(m, n))
            report = evaluate(scorer, corpus, keys, tau=2)
            assert report.results
            assert len(built) == with_anchors == len(report.results) + report.skipped_no_positive

    def test_parts_of_a_diff(self):
        old = graph("ABD", [("A", "B", "e")])
        new = graph("ABC", [("A", "B", "e"), ("B", "C", "e")])
        d = Project("p", [old, new]).diff_at(0)
        assert d.anchors == ("C", "D")
        assert d.candidates == ("A", "B")
        assert d.positives == {"B"}
        pairs = ViewPairs([d])
        assert len(pairs) == 4
        assert pairs[1] == LabeledPair("p", 0, "C", "B", 1)
        assert pairs[2] == LabeledPair("p", 0, "D", "A", 0)
        assert sorted(d.union.node_ids) == ["A", "B", "C", "D"]

    def test_views_without_pairs_are_left_out(self):
        g = graph("AB", [("A", "B", "e")])
        idle = Project("idle", [g, g])
        fresh = Project("fresh", [graph(""), graph("A")])
        assert not idle.diff_at(0).anchors and not fresh.diff_at(0).candidates
        pairs = ViewPairs([idle.diff_at(0), fresh.diff_at(0)])
        assert len(pairs) == 0 and not pairs.views
        assert pairs_by_project([idle.diff_at(0)]) == {}

    def test_index_out_of_range(self):
        pairs = ViewPairs([Project("p", [graph("A"), graph("AB")]).diff_at(0)])
        assert len(pairs) == 1
        with pytest.raises(IndexError):
            pairs[1]


class TestTemporalSplit:
    def test_five_diffs(self):
        keys = [("p", i) for i in range(5)]
        s = split_temporal(keys)
        assert s.train == [("p", 0), ("p", 1), ("p", 2)]
        assert s.validation == [("p", 3)]
        assert s.test == [("p", 4)]
        assert s.mode == "temporal"

    def test_three_diffs_is_the_minimum(self):
        s = split_temporal([("p", 0), ("p", 1), ("p", 2)])
        assert s.train == [("p", 0)]
        assert s.validation == [("p", 1)]
        assert s.test == [("p", 2)]

    def test_two_diffs_rejected(self):
        with pytest.raises(TooFewCommitsError):
            split_temporal([("p", 0), ("p", 1)])

    def test_multiple_projects_split_independently(self):
        keys = [("a", i) for i in range(4)] + [("b", i) for i in range(3)]
        s = split_temporal(keys)
        assert ("a", 2) in s.validation and ("a", 3) in s.test
        assert ("b", 1) in s.validation and ("b", 2) in s.test
        assert set(s.train) == {("a", 0), ("a", 1), ("b", 0)}

    def test_partitions_cover_and_never_overlap(self):
        rng = random.Random("temporal-props")
        for _ in range(20):
            keys = []
            for p in range(rng.randint(1, 5)):
                keys.extend((f"p{p}", i) for i in range(rng.randint(3, 8)))
            s = split_temporal(keys)
            parts = [set(s.train), set(s.validation), set(s.test)]
            assert parts[0] | parts[1] | parts[2] == set(keys)
            assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])
            # every train key precedes its project's validation and test keys
            for project, idx in s.validation:
                assert all(i < idx for q, i in s.train if q == project)


class TestCrossProjectSplit:
    def test_ten_projects_ten_folds_hold_out_one_each(self):
        counts = {f"p{i}": 4 for i in range(10)}
        folds = split_cross_project(counts, folds=10, seed=3)
        assert len(folds) == 10
        held = [sorted({p for p, _ in f.test}) for f in folds]
        assert all(len(h) == 1 for h in held)
        assert sorted(p for (p,) in held) == sorted(counts)

    def test_four_projects_two_folds_are_disjoint(self):
        counts = {"a": 3, "b": 3, "c": 3, "d": 3}
        folds = split_cross_project(counts, folds=2, seed=0)
        test_a = {p for p, _ in folds[0].test}
        test_b = {p for p, _ in folds[1].test}
        assert test_a.isdisjoint(test_b)
        assert test_a | test_b == set(counts)

    def test_fewer_projects_than_folds_rejected(self):
        with pytest.raises(TooFewProjectsError):
            split_cross_project({"a": 3, "b": 3, "c": 3}, folds=5, seed=0)

    def test_validation_is_last_train_diff_per_project(self):
        counts = {"a": 4, "b": 5, "c": 2}
        folds = split_cross_project(counts, folds=3, seed=1)
        for fold in folds:
            train_projects = {p for p, _ in fold.train}
            for project, idx in fold.validation:
                assert idx == counts[project] - 1
                assert project in train_projects
                assert (project, idx) not in fold.train

    def test_deterministic_in_seed(self):
        counts = {f"p{i}": 3 for i in range(7)}
        a = split_cross_project(counts, folds=3, seed=42)
        b = split_cross_project(counts, folds=3, seed=42)
        assert [f.to_manifest() for f in a] == [f.to_manifest() for f in b]
        c = split_cross_project(counts, folds=3, seed=43)
        assert [f.to_manifest() for f in a] != [f.to_manifest() for f in c]


def make_pairs(project, n, label=0):
    return [
        LabeledPair(project=project, diff_index=0, anchor="a", candidate=f"c{i}", label=label)
        for i in range(n)
    ]


class TestBalance:
    def test_downsample_and_upsample_to_target(self):
        groups = {"big": make_pairs("big", 100), "small": make_pairs("small", 10)}
        out = balance(groups, BalanceConfig(target_pairs_per_project=50, seed=7))
        sizes = {p: len(g) for p, g in group_by_project(out).items()}
        assert sizes == {"big": 50, "small": 50}

    def test_exact_size_group_copies_through(self):
        groups = {"p": make_pairs("p", 50)}
        out = balance(groups, BalanceConfig(target_pairs_per_project=50, seed=7))
        assert out == groups["p"]

    def test_downsample_preserves_original_order(self):
        groups = {"p": make_pairs("p", 30)}
        out = balance(groups, BalanceConfig(target_pairs_per_project=10, seed=0))
        indices = [int(p.candidate[1:]) for p in out]
        assert indices == sorted(indices)
        assert len(set(indices)) == 10

    def test_upsample_draws_only_existing_pairs(self):
        groups = {"p": make_pairs("p", 3)}
        out = balance(groups, BalanceConfig(target_pairs_per_project=20, seed=1))
        assert len(out) == 20
        assert set(out) <= set(groups["p"])

    def test_deterministic_in_seed(self):
        groups = {"p": make_pairs("p", 80), "q": make_pairs("q", 5)}
        cfg = BalanceConfig(target_pairs_per_project=40, seed=9)
        assert balance(groups, cfg) == balance(groups, cfg)

    def test_empty_group_rejected(self):
        with pytest.raises(EmptyProjectError):
            balance({"p": []}, BalanceConfig(target_pairs_per_project=5, seed=0))

    def test_nonpositive_target_rejected(self):
        with pytest.raises(ValueError):
            BalanceConfig(target_pairs_per_project=0, seed=0)


class TestPersistence:
    def test_pairs_jsonl_round_trip(self, tmp_path):
        pairs = [
            LabeledPair("p", 2, "A", "B", 1),
            LabeledPair("p", 2, "A", "C", 0),
            LabeledPair("q", 0, "X", "Y", 1),
        ]
        path = tmp_path / "pairs.jsonl"
        save_pairs(pairs, path)
        assert load_pairs(path) == pairs

    def test_split_round_trip(self, tmp_path):
        split = DatasetSplit(
            train=[("p", 0), ("p", 1)],
            validation=[("p", 2)],
            test=[("p", 3)],
            mode="temporal",
        )
        path = tmp_path / "split.json"
        save_split(split, path)
        assert load_split(path) == split

    @pytest.mark.parametrize(
        "record",
        [
            {"project": "p", "diff": 0, "anchor": "A", "candidate": "B"},
            {"project": "p", "diff": "0", "anchor": "A", "candidate": "B", "label": 1},
            {"project": "p", "diff": 0, "anchor": 3, "candidate": "B", "label": 1},
            {"project": "p", "diff": 0, "anchor": "A", "candidate": "B", "label": 2},
            {"project": "p", "diff": 0, "anchor": "A", "candidate": "B", "label": True},
            ["p", 0, "A", "B", 1],
            b'{"project": "p", "diff": 0, "anchor": "\xff", "candidate": "B", "label": 1}',
            b"[" * 3000,
        ],
    )
    def test_malformed_pair_row_names_its_line(self, tmp_path, record):
        path = tmp_path / "pairs.jsonl"
        save_pairs([LabeledPair("p", 0, "A", "C", 0)], path)
        with open(path, "ab") as fh:  # a bytes record is written as it is
            fh.write((record if isinstance(record, bytes) else json.dumps(record).encode()) + b"\n")
        with pytest.raises(ArtifactFormatError) as caught:
            load_pairs(path)
        assert str(caught.value).startswith(f"{path} line 2: ")

    @pytest.mark.parametrize(
        "manifest",
        [
            {"mode": "temporal", "validation": [], "test": []},
            {"mode": "sideways", "train": [], "validation": [], "test": []},
            {"mode": "temporal", "train": 5, "validation": [], "test": []},
            {"mode": "temporal", "train": [["p", "1"]], "validation": [], "test": []},
            {"mode": "temporal", "train": [["p", 1, 2]], "validation": [], "test": []},
            [["p", 1]],
        ],
    )
    def test_malformed_split_rejected(self, tmp_path, manifest):
        path = tmp_path / "split.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactFormatError):
            load_split(path)
