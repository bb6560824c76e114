"""Synthetic corpus generator: planted co-change patterns plus noise."""

import itertools
import json

import pytest

from focusrank.datagen import (
    DEFAULT_VOCABULARY,
    GenConfig,
    build_corpus,
    describe,
    write_corpus,
)
from focusrank.embedding import HashedProvider, tokenize
from focusrank.errors import ConfigInvalidError
from focusrank.graphs import change_radius, load_corpus, union_graph


def small_config(**overrides) -> GenConfig:
    base = dict(projects=3, commits_per_project=6, base_nodes=56, noise_rate=0.3, seed=21)
    base.update(overrides)
    return GenConfig(**base)


class TestGenConfig:
    def test_default_config_is_valid(self):
        cfg = GenConfig()
        assert cfg.projects == 8
        assert cfg.commits_per_project == 10
        assert cfg.noise_rate == 0.3

    def test_rejects_bad_values(self):
        bad = [
            dict(projects=0),
            dict(commits_per_project=2),
            dict(pattern_size_c=1),
            dict(target_dispersion_s=1),
            dict(noise_rate=-0.1),
            dict(noise_rate=1.5),
            dict(vocabulary=("Solo",)),
            dict(vocabulary=("Has Space", "Ok")),
            dict(vocabulary=(True, "Ok")),
            dict(base_nodes=10),
        ]
        for overrides in bad:
            with pytest.raises(ConfigInvalidError):
                small_config(**overrides)


class TestDeterminism:
    def test_same_seed_writes_identical_bytes(self, tmp_path):
        cfg = small_config()
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        write_corpus(*build_corpus(cfg), a_dir)
        write_corpus(*build_corpus(cfg), b_dir)
        a_files = sorted(p.name for p in a_dir.iterdir())
        b_files = sorted(p.name for p in b_dir.iterdir())
        assert a_files == b_files
        for name in a_files:
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_different_seed_changes_output(self, tmp_path):
        write_corpus(*build_corpus(small_config(seed=1)), tmp_path / "a")
        write_corpus(*build_corpus(small_config(seed=2)), tmp_path / "b")
        a = json.loads((tmp_path / "a" / "manifest.json").read_text())
        b = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert a != b

    def test_written_corpus_round_trips(self, tmp_path):
        cfg = small_config()
        corpus, manifest = build_corpus(cfg)
        paths = write_corpus(corpus, manifest, tmp_path)
        assert load_corpus(paths) == corpus

    def test_rewrite_deletes_only_projects_the_old_manifest_lists(self, tmp_path):
        write_corpus(*build_corpus(small_config(projects=3)), tmp_path)
        (tmp_path / "mine.json").write_text("{}")
        write_corpus(*build_corpus(small_config(projects=2)), tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["manifest.json", "mine.json", "proj00.json", "proj01.json"]

    @pytest.mark.parametrize("manifest", [
        "{not json",
        json.dumps({"projects": [{"file": "../outside.json"}, {"file": "manifest.json"},
                                 {"file": "sub/x.json"}, {"file": 3}, {"no": "file"}]}),
        json.dumps({"projects": 5}),
    ])
    def test_unreadable_or_foreign_manifest_entries_delete_nothing(self, tmp_path, manifest):
        out = tmp_path / "corpus"
        (out / "sub").mkdir(parents=True)
        for path in (tmp_path / "outside.json", out / "sub" / "x.json"):
            path.write_text("{}")
        (out / "manifest.json").write_text(manifest)
        write_corpus(*build_corpus(small_config(projects=2)), out)
        assert (tmp_path / "outside.json").exists() and (out / "sub" / "x.json").exists()
        assert json.loads((out / "manifest.json").read_text())["config"]["projects"] == 2


class TestPlantedPattern:
    def test_planted_commits_meet_size_and_dispersion(self):
        """Re-measure every planted commit with the change-radius oracle."""
        cfg = small_config()
        corpus, manifest = build_corpus(cfg)
        checked = 0
        for entry in manifest["projects"]:
            project = corpus[entry["name"]]
            for commit in entry["planted_commits"]:
                d = project.diff_at(commit)
                g = union_graph(project.versions[commit], project.versions[commit + 1])
                r = change_radius(g, d)
                assert r.c >= cfg.pattern_size_c
                assert r.s >= cfg.target_dispersion_s
                assert r.is_multi_location
                checked += 1
        assert checked > 0

    def test_planted_changes_touch_only_the_named_group(self):
        cfg = small_config(noise_rate=0.0)
        corpus, manifest = build_corpus(cfg)
        for entry in manifest["projects"]:
            project = corpus[entry["name"]]
            for commit in entry["planted_commits"]:
                g = entry["planted_group_by_commit"][str(commit)]
                children = set(entry["groups"][g]["children"])
                changed = project.diff_at(commit).changed_nodes()
                assert changed
                assert changed <= children

    def test_full_noise_plants_nothing(self):
        _, manifest = build_corpus(small_config(noise_rate=1.0))
        for entry in manifest["projects"]:
            assert entry["planted_commits"] == []
            assert entry["planted_group_by_commit"] == {}
            assert entry["last_commit_planted"] is False

    def test_zero_noise_plants_every_commit(self):
        cfg = small_config(noise_rate=0.0)
        _, manifest = build_corpus(cfg)
        for entry in manifest["projects"]:
            assert entry["planted_commits"] == list(range(cfg.commits_per_project))
            assert entry["last_commit_planted"] is True

    def test_members_share_the_concept_token(self):
        cfg = small_config()
        corpus, manifest = build_corpus(cfg)
        provider = HashedProvider(dimension=64)
        for entry in manifest["projects"]:
            version = corpus[entry["name"]].versions[0]
            labels = {v: version.label(v) for v in version.node_ids}
            for group in entry["groups"]:
                concept = group["concept"].lower()
                member_labels = [labels[m] for m in group["members"]]
                assert all(concept in tokenize(text) for text in member_labels)
                embs = provider.embed(member_labels)
                for a, b in itertools.combinations(embs, 2):
                    assert a @ b > 0  # unit-norm rows, so this is their cosine

    def test_concepts_cycle_through_the_vocabulary(self):
        _, manifest = build_corpus(small_config())
        concepts = [
            g["concept"] for entry in manifest["projects"] for g in entry["groups"]
        ]
        assert concepts == list(DEFAULT_VOCABULARY[: len(concepts)])


class TestCorpusShape:
    def test_version_counts(self):
        cfg = small_config()
        corpus, _ = build_corpus(cfg)
        assert len(corpus) == cfg.projects
        for project in corpus.values():
            assert len(project.versions) == cfg.commits_per_project + 1
            assert project.n_diffs == cfg.commits_per_project

    def test_every_commit_changes_something(self):
        cfg = small_config()
        corpus, _ = build_corpus(cfg)
        for project in corpus.values():
            for i in range(project.n_diffs):
                d = project.diff_at(i)
                assert d.anchors or d.changed_edges

    def test_base_version_holds_the_configured_node_count(self):
        cfg = small_config(base_nodes=64)
        corpus, _ = build_corpus(cfg)
        for project in corpus.values():
            assert len(project.versions[0]) == 64


class TestDescribe:
    def test_empty_corpus(self):
        stats = describe({})
        assert stats == {
            "projects": 0,
            "versions": 0,
            "mean_nodes_per_version": 0.0,
            "mean_changes_per_commit": 0.0,
            "pairs": 0,
            "positive_pairs": 0,
            "prevalence": 0.0,
        }

    def test_counts_follow_the_config(self):
        cfg = small_config()
        corpus, _ = build_corpus(cfg)
        stats = describe(corpus)
        assert stats["projects"] == cfg.projects
        assert stats["versions"] == cfg.projects * (cfg.commits_per_project + 1)
        assert stats["mean_nodes_per_version"] >= cfg.base_nodes
        assert 0.0 < stats["prevalence"] < 1.0

    def test_pair_totals_match_successor_recount(self):
        """Re-derive pair and positive counts for one project from scratch:
        every (changed anchor, preserved candidate) pair, positive iff the
        candidate points at any changed node in the target version."""
        cfg = small_config(projects=1)
        corpus, _ = build_corpus(cfg)
        (project,) = corpus.values()
        expected_pairs = 0
        expected_positive = 0
        for i in range(project.n_diffs):
            d = project.diff_at(i)
            target = project.versions[i + 1]
            changed = d.changed_nodes()
            preserved = d.candidates
            expected_pairs += len(changed) * len(preserved)
            hot = sum(1 for c in preserved if {dst for src, dst, _ in target.edges if src == c} & changed)
            expected_positive += len(changed) * hot
        stats = describe(corpus)
        assert stats["pairs"] == expected_pairs
        assert stats["positive_pairs"] == expected_positive
