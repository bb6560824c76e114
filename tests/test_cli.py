"""End-to-end command pipeline, exit codes, config loading and overrides."""

import base64
import contextlib
import json
import logging
import math
import os
import random
import shutil
import subprocess
import sys
import urllib.request
import weakref
from collections import Counter
from dataclasses import FrozenInstanceError, asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import focusrank
from focusrank import cli, config, datagen, embedding, errors, evaluation, ranker
from focusrank.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VALIDATION,
    RunConfig,
    _balanced_table,
    _config_hash,
    _diff_table,
    _parse_tau,
    load_run_config,
    main,
)
from focusrank.errors import (
    ArtifactFormatError, ConfigInvalidError, MissingArtifactError, TrainingDivergedError,
)
from focusrank.dataset import BalanceConfig, ViewPairs, balance, diff_views, load_split, pairs_by_project
from focusrank.embedding import HashedProvider
from focusrank.graphs import ModelGraph, Project, load_corpus, load_project, union_graph


def write_config(base_dir, **section_overrides) -> str:
    """A small, fast run config rooted inside base_dir."""
    cfg = {
        "out_dir": str(base_dir / "out"),
        "corpus_dir": str(base_dir / "corpus"),
        "gen": {"projects": 3, "commits_per_project": 6, "seed": 17},
        "provider": {"dimension": 64},
        "balance": {"target_pairs_per_project": 120},
        "train": {"epochs": 30, "h": 16, "batch_size": 32, "early_stop_patience": 5},
    }
    for section, value in section_overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(section), dict):
            cfg[section].update(value)
        else:
            cfg[section] = value
    path = base_dir / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


ENTRY = "import sys; from focusrank.cli import main; sys.exit(main())"


def fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """`python -c code args` in a new interpreter that imports this
    package, with stdout and stderr captured as text."""
    src = str(Path(focusrank.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen + prepare + train, shared by the read-only tests below."""
    base = tmp_path_factory.mktemp("pipeline")
    config_path = write_config(base)
    assert main(["--config", config_path, "gen"]) == EXIT_OK
    assert main(["--config", config_path, "prepare"]) == EXIT_OK
    assert main(["--config", config_path, "train"]) == EXIT_OK
    return config_path, base / "out", base / "corpus"


class TestPipeline:
    def test_gen_outputs(self, pipeline):
        _, out_dir, corpus_dir = pipeline
        names = sorted(p.name for p in corpus_dir.iterdir())
        assert names == ["manifest.json", "proj00.json", "proj01.json", "proj02.json"]
        stats = json.loads((out_dir / "corpus-stats.json").read_text())
        assert stats["projects"] == 3
        assert stats["versions"] == 3 * 7

    def test_corpus_stats_describe_the_written_files(self, pipeline):
        _, out_dir, corpus_dir = pipeline
        stats = json.loads((out_dir / "corpus-stats.json").read_text())
        written = load_corpus(sorted(corpus_dir.glob("proj*.json")))
        assert stats == datagen.describe(written)

    def test_balanced_table_holds_each_pairs_label_embeddings(self, pipeline):
        """The table's anchor and candidate rows of pair i point at the
        embeddings of pair i's labels, as read off its diff's union graph
        and embedded one at a time; each distinct label has one row."""
        config_path, out_dir, corpus_dir = pipeline
        corpus = load_corpus(sorted(corpus_dir.glob("proj*.json")))
        train = load_split(out_dir / "split.json").train
        pairs = balance(pairs_by_project(diff_views(corpus, train)), load_run_config(config_path).balance)
        provider = HashedProvider(dimension=64)
        table = _balanced_table(pairs, dict(zip(train, diff_views(corpus, train))), provider)
        assert table.anchors.shape == table.cands.shape == table.labels.shape == (len(pairs),)
        texts = set()
        for i, pair in enumerate(pairs):
            versions = corpus[pair.project].versions
            union = union_graph(versions[pair.diff_index], versions[pair.diff_index + 1])
            texts.update((union.label(pair.anchor), union.label(pair.candidate)))
            if i % 7:
                continue
            (anchor,) = provider.embed([union.label(pair.anchor)])
            (cand,) = provider.embed([union.label(pair.candidate)])
            assert np.array_equal(table.vectors[table.anchors[i]], anchor)
            assert np.array_equal(table.vectors[table.cands[i]], cand)
            assert table.labels[i] == pair.label
        assert table.vectors.shape == (len(texts), 64)

    def test_prepare_outputs(self, pipeline):
        """prepare writes the split alone; train draws the balanced sample,
        target_pairs_per_project pairs of each project, from its train diffs."""
        config_path, out_dir, _ = pipeline
        for name in ("split.json", "manifest-prepare.json"):
            assert (out_dir / name).exists(), name
        assert not list(out_dir.glob("pairs*"))
        manifest = json.loads((out_dir / "manifest-prepare.json").read_text())
        assert manifest["outputs"] == ["split.json"]
        _, train_set, _ = cli._train_tables(load_run_config(config_path))
        assert len(train_set) == 3 * 120

    def test_split_is_temporal(self, pipeline):
        _, out_dir, _ = pipeline
        split = json.loads((out_dir / "split.json").read_text())
        assert split["mode"] == "temporal"
        assert len(split["validation"]) == 3 and len(split["test"]) == 3
        for project, idx in split["test"]:
            assert idx == 5  # last of 6 diffs

    def test_train_writes_checkpoint(self, pipeline):
        _, out_dir, _ = pipeline
        ckpt = json.loads((out_dir / "checkpoint.json").read_text())
        assert ckpt["format"] == "focusrank-checkpoint"
        assert ckpt["d"] == 64
        assert ckpt["provider_fingerprint"] == "hashed:d=64"
        assert not (out_dir / "grid-results.json").exists()  # written only for a grid

    def test_eval_every_approach(self, pipeline):
        config_path, out_dir, _ = pipeline
        for approach in ("nextfocus", "random", "semantic", "cochange"):
            code = main(["--config", config_path, "eval", "--approach", approach])
            assert code == EXIT_OK, approach
            assert (out_dir / f"report-{approach}.csv").exists()
            summary = json.loads((out_dir / f"report-{approach}.json").read_text())
            assert summary["approach"] == approach
            assert summary["anchors"] + summary["skipped_no_positive"] + summary[
                "skipped_no_anchor"
            ] == 3
        assert (out_dir / "cochange.jsonl").exists()

    def test_eval_is_deterministic(self, pipeline):
        config_path, out_dir, _ = pipeline
        assert main(["--config", config_path, "eval", "--approach", "random"]) == EXIT_OK
        first = (out_dir / "report-random.csv").read_bytes()
        assert main(["--config", config_path, "eval", "--approach", "random"]) == EXIT_OK
        assert (out_dir / "report-random.csv").read_bytes() == first

    def test_plot_data_sweeps_radii(self, pipeline):
        config_path, out_dir, _ = pipeline
        code = main(
            ["--config", config_path, "eval", "--approach", "random", "--plot-data"]
        )
        assert code == EXIT_OK
        lines = (out_dir / "plot-random.csv").read_text().splitlines()
        assert lines[0] == "tau,k,precision,prevalence,ratio,margin"
        # default taus: 1, 2, 3, unrestricted; k_max 10 each
        assert len(lines) == 1 + 4 * 10
        taus = {line.split(",")[0] for line in lines[1:]}
        assert taus == {"1.0", "2.0", "3.0", "inf"}

    @pytest.mark.parametrize("tau, evaluated", [
        (None, [None, 1.0, 2.0, 3.0]),
        (2, [2.0, 1.0, 3.0, None]),
        ("inf", [math.inf, 1.0, 2.0, 3.0, None]),
    ])
    def test_plot_data_reuses_the_reports_own_tau(self, pipeline, monkeypatch, tau, evaluated):
        """The sweep takes the report's pass for a tau equal to eval.tau (None
        only for None, inf only for inf) and writes the series a fresh pass
        per tau gives."""
        config_path, out_dir, corpus_dir = pipeline
        real, taus = evaluation.evaluate, []
        monkeypatch.setattr(
            evaluation, "evaluate", lambda *args, tau, **kw: taus.append(tau) or real(*args, tau=tau, **kw)
        )
        argv = ["--config", config_path, "--set", f"eval.tau={json.dumps(tau)}",
                "eval", "--approach", "random", "--plot-data"]
        assert main(argv) == EXIT_OK
        assert taus == evaluated
        corpus = load_corpus(sorted(corpus_dir.glob("proj*.json")))
        test_keys = load_split(out_dir / "split.json").test
        scorer = evaluation.RandomScorer(RunConfig().eval.seed)
        reports = [real(scorer, corpus, test_keys, k_max=10, tau=t) for t in (1.0, 2.0, 3.0, None)]
        expected = evaluation.radius_rows_csv(evaluation.radius_rows(reports, ks=range(1, 11)))
        assert (out_dir / "plot-random.csv").read_text() == expected

    def test_rank_prints_exactly_k_nodes(self, pipeline, capsys):
        config_path, _, _ = pipeline
        code = main(
            ["--config", config_path, "rank", "--project", "proj00", "--anchor", "n0", "--k", "1"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        assert out[0] != "n0"

    def test_rank_unknown_project_and_anchor(self, pipeline):
        config_path, _, _ = pipeline
        assert (
            main(["--config", config_path, "rank", "--project", "nope", "--anchor", "n0"])
            == EXIT_VALIDATION
        )
        assert (
            main(["--config", config_path, "rank", "--project", "proj00", "--anchor", "ghost"])
            == EXIT_VALIDATION
        )

    def test_manifests_record_config_and_versions_without_timestamps(self, pipeline, tmp_path):
        _, out_dir, _ = pipeline
        manifest = json.loads((out_dir / "manifest-train.json").read_text())
        assert set(manifest) == {"command", "config_sha256", "seeds", "versions", "outputs"}
        assert manifest["command"] == "train"
        assert manifest["outputs"] == ["checkpoint.json"]
        assert set(manifest["seeds"]) == {"gen", "split", "balance", "train", "eval"}
        assert set(manifest["versions"]) == {"focusrank", "numpy", "python"}
        assert len(manifest["config_sha256"]) == 64
        # a manifest lists the libraries its stage loaded, and gen loads no NumPy
        done = fresh_python(ENTRY, "--config", write_config(tmp_path), "gen")
        assert done.returncode == EXIT_OK, done.stderr
        gen = json.loads((tmp_path / "out" / "manifest-gen.json").read_text())
        assert set(gen["versions"]) == {"focusrank", "python"}


class TestExitCodes:
    def test_eval_before_train_is_a_validation_error(self, tmp_path, caplog):
        config_path = write_config(tmp_path)
        assert main(["--config", config_path, "gen"]) == EXIT_OK
        assert main(["--config", config_path, "prepare"]) == EXIT_OK
        code = main(["--config", config_path, "eval", "--approach", "nextfocus"])
        assert code == EXIT_VALIDATION
        assert "checkpoint.json not found" in caplog.text
        assert "focusrank train" in caplog.text

    def test_prepare_without_corpus(self, tmp_path):
        config_path = write_config(tmp_path)
        assert main(["--config", config_path, "prepare"]) == EXIT_VALIDATION

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"bogus": 1}))
        assert main(["--config", str(path), "gen"]) == EXIT_VALIDATION

    def test_invalid_approach_flag(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        code = main(["--config", config_path, "eval", "--approach", "psychic"])
        assert code == EXIT_VALIDATION
        capsys.readouterr()

    def test_invalid_generator_setting_via_set(self, tmp_path):
        config_path = write_config(tmp_path)
        code = main(["--config", config_path, "--set", "gen.projects=0", "gen"])
        assert code == EXIT_VALIDATION

    def test_unreachable_remote_provider_is_a_runtime_error(self, tmp_path):
        config_path = write_config(
            tmp_path,
            provider={
                "kind": "remote",
                "dimension": 64,
                "remote": {"endpoint": "http://127.0.0.1:9/none", "model": "m"},
            },
        )
        assert main(["--config", config_path, "gen"]) == EXIT_OK
        assert main(["--config", config_path, "prepare"]) == EXIT_OK
        assert main(["--config", config_path, "train"]) == EXIT_RUNTIME

    @pytest.mark.parametrize(
        "assignment, message",
        [
            ("train.h=abc", 'train.h must be int, got "abc"'),
            ("eval.k_max=x", 'eval.k_max must be int, got "x"'),
            ('provider.dimension="a"', 'provider.dimension must be int, got "a"'),
        ],
    )
    def test_mistyped_setting_is_a_one_line_validation_error(
        self, tmp_path, caplog, assignment, message
    ):
        config_path = write_config(tmp_path)
        assert main(["--config", config_path, "--set", assignment, "gen"]) == EXIT_VALIDATION
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [message]

    def test_diverged_training_is_a_runtime_error(self, pipeline, monkeypatch, caplog):
        config_path, out_dir, _ = pipeline
        before = (out_dir / "checkpoint.json").read_bytes()

        def diverge(*args, **kwargs):
            raise TrainingDivergedError("epoch 0: batch loss is nan")

        monkeypatch.setattr(ranker, "train", diverge)
        assert main(["--config", config_path, "train"]) == EXIT_RUNTIME
        assert "batch loss is nan" in caplog.text
        assert (out_dir / "checkpoint.json").read_bytes() == before

    def test_gradcheck_passes(self, capsys):
        assert main(["gradcheck", "--trials", "4"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "4/4 passed" in out
        assert out.count("PASS") == 4

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_gradcheck_without_a_trial_is_a_validation_error(self, trials, capsys):
        """A check that checks nothing does not pass: exit 1, one line."""
        code, lines = run_cli(["gradcheck", "--trials", trials])
        assert code == EXIT_VALIDATION
        assert_one_line_failure(code, lines)
        assert "trials must be >= 1" in lines[0]
        assert "passed" not in capsys.readouterr().out

    def test_gradcheck_with_a_negative_seed_is_a_validation_error(self, capsys):
        """gradcheck reads no config, so it checks `--seed` itself: exit 1,
        one line naming the flag, before NumPy sees the seed."""
        code, lines = run_cli(["--seed", "-1", "gradcheck"])
        assert code == EXIT_VALIDATION
        assert_one_line_failure(code, lines)
        assert lines[0].endswith("--seed must be >= 0")
        assert "passed" not in capsys.readouterr().out


class TestOverrides:
    def test_set_overrides_nested_values(self, tmp_path):
        config_path = write_config(tmp_path)
        code = main(["--config", config_path, "--set", "gen.projects=2", "gen"])
        assert code == EXIT_OK
        projects = [
            p.name for p in (tmp_path / "corpus").glob("proj*.json")
        ]
        assert sorted(projects) == ["proj00.json", "proj01.json"]

    def test_out_flag_redirects_artifacts(self, tmp_path):
        config_path = write_config(tmp_path)
        other = tmp_path / "elsewhere"
        assert main(["--config", config_path, "--out", str(other), "gen"]) == EXIT_OK
        assert (other / "corpus-stats.json").exists()

    def test_seed_flag_reaches_the_generator(self, tmp_path):
        config_path = write_config(tmp_path)
        assert main(["--config", config_path, "--seed", "99", "gen"]) == EXIT_OK
        manifest = json.loads((tmp_path / "corpus" / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 99
        run_manifest = json.loads((tmp_path / "out" / "manifest-gen.json").read_text())
        assert set(run_manifest["seeds"].values()) == {99}


class TestRunConfig:
    def test_defaults_when_no_file_given(self):
        config = load_run_config(None)
        assert config == RunConfig()

    def test_missing_file_rejected(self):
        with pytest.raises(MissingArtifactError):
            load_run_config("/nonexistent/config.json")

    def test_seed_parameter_overrides_every_section(self):
        config = load_run_config(None, seed=123)
        for section in ("gen", "split", "balance", "train", "eval"):
            assert getattr(config, section).seed == 123

    def test_set_parses_json_with_string_fallback(self):
        config = load_run_config(
            None,
            set_args=["train.loss.alpha=0.7", "split.mode=cross_project", "eval.tau=2"],
        )
        assert config.train.loss.alpha == 0.7
        assert config.split.mode == "cross_project"
        assert config.eval.tau == 2

    def test_set_value_nested_too_deeply_is_a_string(self, tmp_path):
        deep = "[" * 3000
        assert load_run_config(None, set_args=[f"out_dir={deep}"]).out_dir == deep
        argv = ["--config", write_config(tmp_path), "--set", f"gen.projects={deep}", "gen"]
        code, lines = run_cli(argv)
        assert_one_line_failure(code, lines)
        assert code == EXIT_VALIDATION and "gen.projects must be int" in lines[0]

    def test_grid_section_accepts_known_knobs_only(self):
        config = load_run_config(None, set_args=['grid.learning_rate=[0.01,0.1]'])
        assert config.grid == {"learning_rate": [0.01, 0.1]}
        with pytest.raises(ConfigInvalidError):
            load_run_config(None, set_args=["grid.momentum=[0.9]"])

    def test_cochange_mode_is_gone(self, tmp_path, caplog):
        config_path = write_config(tmp_path)
        argv = ["--config", config_path, "--set", "eval.cochange_mode=literal", "gen"]
        assert main(argv) == EXIT_VALIDATION
        assert "unknown config key: eval.cochange_mode" in caplog.text

    def test_grid_values_must_be_number_lists(self):
        for assignment in ("grid.h=4", "grid.h=[2.5]", 'grid.alpha=["x"]'):
            with pytest.raises(ConfigInvalidError):
                load_run_config(None, set_args=[assignment])

    def test_remote_needs_string_endpoint_and_model(self):
        for remote in ('{"model":"m"}', '{"endpoint":5,"model":"m"}'):
            with pytest.raises(ConfigInvalidError):
                load_run_config(None, set_args=[f"provider.remote={remote}"])
        with pytest.raises(ConfigInvalidError):
            load_run_config(None, set_args=["provider.cache_dir=5"])

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigInvalidError, match="eval.typo"):
            load_run_config(None, set_args=["eval.typo=1"])

    def test_bad_tau_rejected(self):
        with pytest.raises(ConfigInvalidError):
            load_run_config(None, set_args=["eval.tau=-1"])
        with pytest.raises(ConfigInvalidError):
            load_run_config(None, set_args=['eval.tau="sideways"'])

    def test_parse_tau_values(self):
        assert _parse_tau(None, "x") is None
        assert _parse_tau("inf", "x") == math.inf
        assert _parse_tau(2, "x") == 2.0
        with pytest.raises(ConfigInvalidError):
            _parse_tau(True, "x")

    def test_values_must_match_the_default_type(self):
        config = load_run_config(None, set_args=["train.learning_rate=1", "gen.noise_rate=0"])
        assert config.train.learning_rate == 1
        for assignment in ("train.epochs=2.5", "train.h=true", "gen.noise_rate=true",
                           "train.loss=3", 'gen.vocabulary="ab"'):
            with pytest.raises(ConfigInvalidError):
                load_run_config(None, set_args=[assignment])

    @pytest.mark.parametrize("set_args, seed, digest", [
        ([], None, "1045b3f7dbdd72fdf73235d8c98733841bb1e353a6c8a60754bd501c7574d244"),
        ([], 5, "160e4476c7e4b36160e8f5e3568647ff4987721552d578edac2f884e9913a6d2"),
        (['eval.tau="inf"', "eval.taus=[1,null]"], None,
         "021cd8b504e7eda8c1ca1abdce7f97da425e84d71c8a77f1116c2fb7a15c57ba"),
        (["grid.alpha=[0.4,0.6]"], None,
         "baf05d012c9c97b32dc0271a848a5b5d09371869d52840f6006bc24a25c71354"),
        (["provider.kind=remote",
          'provider.remote={"endpoint":"http://x","model":"m","auth_env":"TOK"}'], None,
         "eaa2b8565102f992107830e6a96e336665a6e44ffffa5465d9a4c687a823f436"),
        (["train.learning_rate=1"], None,
         "730e02280b7e157d0606326546bf3eaefaac775ed7a2b9199f61b2d1287e3b1e"),
    ])
    def test_config_hash_is_pinned(self, set_args, seed, digest):
        """The manifests' config_sha256 of these configs; a change to it
        marks every earlier run as made with another config."""
        config = load_run_config(None, set_args=set_args, seed=seed)
        assert _config_hash(asdict(config)) == digest

    def test_config_hash_ignores_key_order(self):
        a = {"x": 1, "y": {"a": 2, "b": 3}}
        b = {"y": {"b": 3, "a": 2}, "x": 1}
        assert _config_hash(a) == _config_hash(b)
        assert _config_hash(a) != _config_hash({"x": 2, "y": {"a": 2, "b": 3}})


# The modules a NumPy stage (train, rank) loads besides the CLI.
MODEL_STAGE_IMPORTS = "import sys, focusrank.cli, focusrank.ranker, focusrank.embedding, focusrank.evaluation"


def test_cli_import_leaves_scipy_unloaded():
    """SciPy is a test dependency only: neither the CLI, with the modules
    its model stages load, nor a rank correlation's p-value loads it."""
    probe = (
        f"{MODEL_STAGE_IMPORTS}; from focusrank.stats import spearman_rho; "
        "spearman_rho([1, 2, 3, 4], [1, 3, 2, 4]); print('scipy' in sys.modules)"
    )
    done = fresh_python(probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_cli_import_leaves_the_http_stack_unloaded():
    """The remote provider imports the HTTP stack on its first post, so a
    CLI process that never posts does not pay for it."""
    done = fresh_python(f"{MODEL_STAGE_IMPORTS}; "
                        "print(sorted({'http.client', 'urllib.request', 'ssl'} & set(sys.modules)))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_each_config_class_has_one_definition():
    """The ranker and embedding configs live in `config`, which loads no
    NumPy; the modules that use them name the same classes."""
    assert ranker.TrainConfig is config.TrainConfig and ranker.LossConfig is config.LossConfig
    assert embedding.ProviderConfig is config.ProviderConfig
    assert embedding.RemoteConfig is config.RemoteConfig


INVALID_CONFIGS = [
    (datagen.GenConfig, dict(projects=0)),
    (datagen.GenConfig, dict(commits_per_project=2)),
    (datagen.GenConfig, dict(pattern_size_c=1)),
    (datagen.GenConfig, dict(target_dispersion_s=1)),
    (datagen.GenConfig, dict(noise_rate=-0.1)),
    (datagen.GenConfig, dict(noise_rate=1.5)),
    (datagen.GenConfig, dict(vocabulary=("Solo",))),
    (datagen.GenConfig, dict(vocabulary=("Has Space", "Ok"))),
    (datagen.GenConfig, dict(base_nodes=10)),
    (config.ProviderConfig, dict(remote=5)),
    (config.ProviderConfig, dict(remote={"model": "m"})),
    (config.ProviderConfig, dict(cache_dir=5)),
    (config.ProviderConfig, dict(kind="psychic")),
    (config.ProviderConfig, dict(dimension=7)),
    (config.ProviderConfig, dict(kind="remote")),
    (cli.SplitConfig, dict(mode="sideways")),
    (BalanceConfig, dict(target_pairs_per_project=0)),
    (config.LossConfig, dict(alpha=0.0)),
    (config.LossConfig, dict(alpha=1.0)),
    (config.LossConfig, dict(beta=-1.0)),
    (config.LossConfig, dict(beta=math.inf)),
    (config.LossConfig, dict(lambda_penalty=-0.5)),
    (config.LossConfig, dict(lambda_penalty=math.nan)),
    (config.TrainConfig, dict(learning_rate=0.0)),
    (config.TrainConfig, dict(batch_size=0)),
    (config.TrainConfig, dict(h=0)),
    (config.TrainConfig, dict(learning_rate=math.inf)),
    (config.TrainConfig, dict(init_scale=math.nan)),
    (config.TrainConfig, dict(epochs=-1)),
    (config.TrainConfig, dict(early_stop_patience=-1)),
    (config.TrainConfig, dict(seed=-1)),
    (cli.EvalConfig, dict(k_max=0)),
    (cli.EvalConfig, dict(k_max=1001)),
    (cli.EvalConfig, dict(tau=-1)),
    (cli.EvalConfig, dict(taus=())),
    (cli.EvalConfig, dict(taus=(1, "sideways"))),
]


@pytest.mark.parametrize(
    "cls, values", INVALID_CONFIGS,
    ids=[f"{cls.__name__}-{k}={v!r}" for cls, d in INVALID_CONFIGS for k, v in d.items()],
)
def test_each_config_checks_itself_when_built(cls, values):
    """A config that exists is valid: each bad value fails its constructor,
    and a built config cannot be changed, so no caller checks one again."""
    built = cls()
    with pytest.raises(ConfigInvalidError):
        cls(**values)
    with pytest.raises(FrozenInstanceError):
        setattr(built, *next(iter(values.items())))


def test_manifests_list_numpy_for_the_stages_that_use_it(tmp_path):
    """Whether a manifest lists NumPy depends on its stage alone, not on
    what the calling process imported before."""
    probe = (
        "import sys, numpy; from focusrank.cli import main\n"
        "for stage in sys.argv[2:]:\n"
        "    assert main(['--config', sys.argv[1], *stage.split()]) == 0, stage"
    )
    stages = ["gen", "prepare", "train", "rank --project proj00 --anchor n0"] + [
        f"eval --approach {approach}" for approach in cli.APPROACHES
    ]
    done = fresh_python(probe, write_config(tmp_path, train={"epochs": 1}), *stages)
    assert done.returncode == 0, done.stderr
    listed = {}
    for path in (tmp_path / "out").glob("manifest-*.json"):
        manifest = json.loads(path.read_text())
        listed[manifest["command"]] = "numpy" in manifest["versions"]
    assert listed == {
        "gen": False, "prepare": False, "train": True, "rank": True, "eval-nextfocus": True,
        "eval-semantic": True, "eval-random": False, "eval-cochange": False,
    }


def test_stages_without_a_model_never_load_numpy(tmp_path):
    """gen, prepare and the random and co-change baselines run no ranker
    and embed no label, so their process never imports NumPy."""
    probe = (
        "import json, sys; from focusrank.cli import main\n"
        "print(json.dumps([[main(['--config', sys.argv[1], *stage.split()]), 'numpy' in sys.modules]"
        " for stage in sys.argv[2:]]))"
    )
    stages = ["gen", "prepare", "eval --approach random", "eval --approach cochange"]
    done = fresh_python(probe, write_config(tmp_path), *stages)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[EXIT_OK, False]] * len(stages)


def test_the_package_root_binds_no_name_but_its_version():
    """`import focusrank` re-exports nothing: each public name it binds,
    besides `__version__`, is a submodule, so every name has one import path."""
    probe = (
        "import types, focusrank; print(sorted(name for name, value in vars(focusrank).items() "
        "if not name.startswith('_') and not isinstance(value, types.ModuleType)))"
    )
    done = fresh_python(probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("flags, expect_info", [([], True), (["--log-level", "WARNING"], False)])
def test_log_level_flag_filters_stderr(tmp_path, flags, expect_info):
    """INFO is the default; at WARNING a successful `gen` prints nothing."""
    done = fresh_python(ENTRY, *flags, "--config", write_config(tmp_path), "gen")
    assert done.returncode == EXIT_OK, done.stderr
    lines = done.stderr.splitlines()
    if expect_info:
        assert lines == [f"INFO focusrank.cli: generated 3 projects under {tmp_path / 'corpus'}"]
    else:
        assert lines == []


def test_unknown_log_level_is_a_validation_error(capsys):
    assert main(["--log-level", "CHATTY", "gradcheck"]) == EXIT_VALIDATION
    assert "--log-level" in capsys.readouterr().err


# --- malformed input: exit 1 or 2 with one error line, never a traceback ----


class _Lines(logging.Handler):
    """Every focusrank log record as the CLI prints it on stderr."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.lines = []

    def emit(self, record):
        text = f"{record.levelname} {record.name}: {record.getMessage()}"
        self.lines.extend(text.splitlines())
        if record.exc_info:
            self.lines.append("Traceback")


def run_cli(argv):
    """(exit code, stderr lines) of one in-process run. An exception that
    escapes `main` fails the calling test, as a traceback would."""
    handler = _Lines()
    logger = logging.getLogger("focusrank")
    logger.addHandler(handler)
    try:
        code = main(argv)
    finally:
        logger.removeHandler(handler)
    return code, handler.lines


def assert_one_line_failure(code, lines):
    assert code in (EXIT_VALIDATION, EXIT_RUNTIME)
    assert len(lines) == 1 and lines[0].startswith("ERROR "), lines


@pytest.fixture(scope="module")
def artifacts(pipeline, tmp_path_factory):
    """A private copy of the prepared pipeline, for tests that corrupt it."""
    _, out_dir, corpus_dir = pipeline
    base = tmp_path_factory.mktemp("artifacts")
    shutil.copytree(corpus_dir, base / "corpus")
    shutil.copytree(out_dir, base / "out")
    return write_config(base), base


@contextlib.contextmanager
def corrupting(path: Path, text: str | bytes):
    """`path` holds `text`, UTF-8 encoded unless given as bytes, inside the
    block and its old bytes after it."""
    before = path.read_bytes() if path.exists() else None
    path.write_bytes(text.encode() if isinstance(text, str) else text)
    try:
        yield
    finally:
        if before is None:
            path.unlink()
        else:
            path.write_bytes(before)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
not_int = json_values.filter(lambda v: isinstance(v, bool) or not isinstance(v, int))
not_str = json_values.filter(lambda v: not isinstance(v, str))
not_list = json_values.filter(lambda v: not isinstance(v, list))
not_object = json_values.filter(lambda v: not isinstance(v, dict))


def leaf_paths(node, prefix=()):
    for key, value in node.items():
        if isinstance(value, dict) and value:
            yield from leaf_paths(value, prefix + (key,))
        elif prefix + (key,) not in {("out_dir",), ("corpus_dir",)}:
            yield prefix + (key,)


CONFIG_PATHS = sorted(leaf_paths(asdict(RunConfig()))) + [("bogus",), ("train", "bogus")]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(path=st.sampled_from(CONFIG_PATHS), value=json_values)
def test_malformed_config_fails_in_one_line(tmp_path_factory, path, value):
    """Any value at any config entry: rejected, or run against an empty
    corpus directory; either way one error line."""
    base = tmp_path_factory.mktemp("config")
    config = {"out_dir": str(base / "out"), "corpus_dir": str(base / "corpus")}
    node = config
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    (base / "config.json").write_text(json.dumps(config))
    assert_one_line_failure(*run_cli(["--config", str(base / "config.json"), "prepare"]))


@pytest.mark.parametrize(
    "value", ["NaN", "Infinity", "-Infinity", pytest.param("1" + "0" * 400, id="10**400")],
)
@pytest.mark.parametrize(
    "knob", ["train.learning_rate", "train.init_scale", "train.loss.beta", "train.loss.lambda_penalty"],
)
def test_non_finite_training_knob_fails_in_one_line(tmp_path, knob, value):
    """Rejected with the config, before any stage runs (a NaN rate used to
    pass `<= 0` and fail only in training, with exit 2; an integer past
    float range failed with an OverflowError traceback)."""
    code, lines = run_cli(["--config", write_config(tmp_path), "--set", f"{knob}={value}", "gen"])
    assert_one_line_failure(code, lines)
    assert code == EXIT_VALIDATION
    assert not (tmp_path / "corpus").exists()


EVERY_STAGE = [
    ["gen"], ["prepare"], ["train"], ["eval", "--approach", "random"],
    ["rank", "--project", "proj00", "--anchor", "n0"],
]


@pytest.mark.parametrize("stage", EVERY_STAGE, ids=lambda stage: stage[0])
def test_negative_seed_fails_every_stage_in_one_line(artifacts, stage):
    """NumPy takes no negative seed, so the config refuses one, naming it,
    before any stage runs."""
    config_path, _ = artifacts
    for flags in (["--seed", "-1"], ["--set", "train.seed=-1"]):
        code, lines = run_cli(["--config", config_path, *flags, *stage])
        assert_one_line_failure(code, lines)
        assert code == EXIT_VALIDATION and lines[0].endswith("train.seed must be >= 0")


@pytest.mark.parametrize("stage", ["gen", "train"])
@pytest.mark.parametrize("grid, message", [
    ("grid.alpha=[0.4,1.5]", "grid.alpha: alpha must be in (0, 1)"),
    ("grid.h=[16,0]", "grid.h: learning_rate, batch_size and h must be positive"),
    ("grid.alpha=[]", "grid.alpha must be a non-empty list of numbers"),
    ("grid.momentum=[]", "grid.momentum must be a non-empty list of numbers"),
    ("grid.momentum=[0.9]", "grid.momentum: unknown grid keys: ['momentum']"),
])
def test_bad_grid_value_fails_before_the_stage_runs(artifacts, monkeypatch, stage, grid, message):
    """Each grid value is built into the config it overrides when the
    config is read, so no stage reads the corpus with it."""
    config_path, _ = artifacts
    monkeypatch.setattr(cli, "_load_corpus", lambda config: pytest.fail("corpus read"))
    monkeypatch.setattr(datagen, "build_corpus", lambda config: pytest.fail("corpus built"))
    code, lines = run_cli(["--config", config_path, "--set", grid, stage])
    assert_one_line_failure(code, lines)
    assert code == EXIT_VALIDATION and lines[0].endswith(message)


@pytest.mark.parametrize("command", [
    ["rank", "--project", "proj00", "--anchor", "n0"], ["eval", "--approach", "nextfocus"],
], ids=lambda command: command[0])
@pytest.mark.parametrize("trained_with, selected", [
    (None, "hashed:d=32"),  # another dimension
    ("remote:other:d=64", None),  # another provider of the same dimension
])
def test_model_from_another_provider_is_refused(artifacts, command, trained_with, selected):
    """rank and eval load the model alike: a checkpoint trained on other
    embeddings fails in one line naming both providers."""
    config_path, base = artifacts
    path = base / "out" / "checkpoint.json"
    ckpt = json.loads(path.read_text())
    if trained_with:
        ckpt["provider_fingerprint"] = trained_with
    sets = ["--set", "provider.dimension=32"] if selected else []
    with corrupting(path, json.dumps(ckpt)):
        done = fresh_python(ENTRY, "--config", config_path, *sets, *command)
    assert done.returncode == EXIT_VALIDATION
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines() == [
        "ERROR focusrank.cli: checkpoint was trained with embedding provider "
        f"{trained_with or 'hashed:d=64'!r} but config selects {selected or 'hashed:d=64'!r}"
    ]


@pytest.mark.parametrize("command", [
    ["rank", "--project", "proj00", "--anchor", "n0"], ["eval", "--approach", "nextfocus"],
], ids=lambda command: command[0])
def test_model_of_another_width_without_a_fingerprint_is_refused(artifacts, command):
    """A checkpoint that names no provider is still checked against
    provider.dimension, in one line naming both, before anything is scored."""
    config_path, base = artifacts
    path = base / "out" / "checkpoint.json"
    ckpt = {**json.loads(path.read_text()), "provider_fingerprint": ""}
    with corrupting(path, json.dumps(ckpt)):
        code, lines = run_cli(["--config", config_path, "--set", "provider.dimension=128", *command])
    assert code == EXIT_VALIDATION
    assert lines == [
        f"ERROR focusrank.cli: {path} scores 64-dimensional embeddings, but provider.dimension is 128"
    ]


def versions_with(bad_version):
    return st.tuples(st.integers(0, 2), bad_version).map(
        lambda pos_bad: [{}] * pos_bad[0] + [pos_bad[1]]
    )


RECORD_FAULTS = [
    "not object", "no key", "not str", "empty id", "duplicate id", "dangling", "duplicate edge",
]


@st.composite
def bad_record_versions(draw, kind=None):
    """A version with one malformed node or edge record beside good ones;
    `kind` is one of RECORD_FAULTS, or drawn when None."""
    node, edge = {"id": "a", "label": "x"}, {"src": "a", "dst": "a", "label": "e"}
    version = {"nodes": [node], "edges": [edge]}
    kind = kind or draw(st.sampled_from(RECORD_FAULTS))
    part = draw(st.sampled_from(["nodes", "edges"]))
    record = version[part][0]
    if kind == "not object":
        version[part].append(draw(not_object))
    elif kind == "no key":
        del record[draw(st.sampled_from(sorted(record)))]
    elif kind == "not str":
        record[draw(st.sampled_from(sorted(record)))] = draw(not_str)
    elif kind == "empty id":
        version["nodes"].append({"id": "", "label": "x"})
    elif kind == "duplicate id":
        version["nodes"].append({"id": "a", "label": draw(st.text(max_size=3))})
    elif kind == "dangling":
        version["edges"].append({**edge, draw(st.sampled_from(["src", "dst"])): "ghost"})
    else:
        version["edges"].append(dict(edge))
    return version


PROJECT_FAULTS = {
    "not object": not_object,
    "project not str": st.fixed_dictionaries(
        {"project": not_str.filter(lambda v: v is not None), "versions": json_values}
    ),
    "no project": st.fixed_dictionaries({"versions": json_values}),
    "versions not list": st.fixed_dictionaries({"project": st.just("zz"), "versions": not_list}),
    "version not object": st.fixed_dictionaries(
        {"project": st.just("zz"), "versions": versions_with(not_object)}
    ),
    "parts not lists": st.fixed_dictionaries({"project": st.just("zz"), "versions": versions_with(
        st.one_of(st.fixed_dictionaries({"nodes": not_list}), st.fixed_dictionaries({"edges": not_list}))
    )}),
    "bad record": st.fixed_dictionaries({
        "project": st.just("zz"), "versions": versions_with(bad_record_versions()),
    }),
}
malformed_projects = st.one_of(*PROJECT_FAULTS.values())


def assert_project_rejected(artifacts, payload):
    """`prepare` over a corpus whose file zz.json holds `payload` exits 1
    with one error line."""
    config_path, base = artifacts
    with corrupting(base / "corpus" / "zz.json", json.dumps(payload)):
        code, lines = run_cli(["--config", config_path, "prepare"])
    assert_one_line_failure(code, lines)
    assert code == EXIT_VALIDATION


@settings(max_examples=40, deadline=None, derandomize=True)
@given(payload=malformed_projects)
def test_malformed_project_file_fails_in_one_line(artifacts, payload):
    assert_project_rejected(artifacts, payload)


@pytest.mark.parametrize("kind", sorted(PROJECT_FAULTS))
@settings(max_examples=4, deadline=None, derandomize=True)
@given(data=st.data())
def test_each_malformed_project_kind_fails_in_one_line(artifacts, kind, data):
    """Each branch of `malformed_projects`, which the drawn test above may
    miss; zz.json, last in path order, is read by a worker on two CPUs."""
    assert_project_rejected(artifacts, data.draw(PROJECT_FAULTS[kind]))


@pytest.mark.parametrize("kind", RECORD_FAULTS)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_each_malformed_record_kind_fails_in_one_line(artifacts, kind, data):
    versions = data.draw(versions_with(bad_record_versions(kind)))
    assert_project_rejected(artifacts, {"project": "zz", "versions": versions})


NODE_A, NODE_B = {"id": "a", "label": "x"}, {"id": "b", "label": "y"}
EDGE = {"src": "a", "dst": "b", "label": "e"}

# (kind, nodes, edges, message): the loader's text for each record fault,
# pinned as the one-record-at-a-time constructor check gave it.
PINNED_RECORD_FAULTS = [
    ("not object", [NODE_A, 5], [], "a node or edge record is not an object"),
    ("not object", [NODE_A, NODE_B], [EDGE, ["a", "b", "e"]], "a node or edge record is not an object"),
    ("no key", [NODE_A, {"id": "b"}], [], "a node or edge record has no 'label' key"),
    ("no key", [NODE_A, NODE_B], [{"src": "a", "label": "e"}], "a node or edge record has no 'dst' key"),
    ("not str", [NODE_A, {"id": 5, "label": "y"}], [], "node id 5 and label 'y' must be strings"),
    ("not str", [NODE_A, {"id": "b", "label": [1]}], [], "node id 'b' and label [1] must be strings"),
    ("not str", [NODE_A, NODE_B], [{**EDGE, "label": 3}], "edge ('a', 'b', 3) fields must be strings"),
    ("not str", [NODE_A, NODE_B], [{**EDGE, "src": {"k": 1}}],
     "edge ({'k': 1}, 'b', 'e') fields must be strings"),
    # fields of other types that compare equal (true == 1 == 1.0) keep their text
    ("not str", [NODE_A, {"id": True, "label": 1.0}], [], "node id True and label 1.0 must be strings"),
    ("not str", [NODE_A, {"id": 1, "label": True}], [], "node id 1 and label True must be strings"),
    # the first fault in file order wins over a later missing key or non-object
    ("not str", [{"id": 5, "label": "x"}, {"label": "no id"}], ["junk"],
     "node id 5 and label 'x' must be strings"),
    ("empty id", [NODE_A, {"id": "", "label": "y"}], [], "node ids must be non-empty"),
    ("duplicate id", [NODE_A, NODE_B, {"id": "a", "label": "z"}], [EDGE], "duplicate node id 'a'"),
    ("dangling", [NODE_A, NODE_B], [EDGE, {**EDGE, "dst": "ghost"}], "edge target 'ghost' not a node"),
    ("dangling", [NODE_A, NODE_B], [{**EDGE, "src": "ghost"}, EDGE], "edge source 'ghost' not a node"),
    ("duplicate edge", [NODE_A, NODE_B], [EDGE, EDGE], "duplicate edge ('a', 'b', 'e')"),
    # unsorted, so the repeat is not next to its twin
    ("duplicate edge", [NODE_B, NODE_A],
     [{**EDGE, "src": "b"}, EDGE, {**EDGE, "label": "d"}, {**EDGE, "src": "b"}],
     "duplicate edge ('b', 'b', 'e')"),
]


def test_pinned_record_faults_cover_every_kind():
    assert {kind for kind, *_ in PINNED_RECORD_FAULTS} == set(RECORD_FAULTS)


@pytest.mark.parametrize("kind, nodes, edges, message", PINNED_RECORD_FAULTS)
def test_each_record_fault_keeps_its_text(tmp_path, kind, nodes, edges, message):
    path = tmp_path / "zz.json"
    path.write_text(json.dumps({"project": "zz", "versions": [{}, {"nodes": nodes, "edges": edges}]}))
    with pytest.raises(ArtifactFormatError) as info:
        load_project(path)
    assert str(info.value) == f"{path} version 1: {message}"


def bad_split_entries():
    return st.one_of(
        not_list,
        st.lists(json_values, max_size=3).filter(lambda v: len(v) != 2),
        st.tuples(not_str, st.integers(0, 3)).map(list),
        st.tuples(st.just("proj00"), not_int).map(list),
        st.sampled_from([["nope", 0], ["proj00", 99], ["proj00", -1]]),
    )


SPLIT_FAULTS = ["root", "drop", "mode", "part", "entry"]


@st.composite
def malformed_splits(draw, split, kind=None):
    """`split` with one fault: `kind` is one of SPLIT_FAULTS, or drawn when None."""
    kind = kind or draw(st.sampled_from(SPLIT_FAULTS))
    record = json.loads(json.dumps(split))
    if kind == "root":
        return draw(not_object)
    if kind == "drop":
        del record[draw(st.sampled_from(sorted(record)))]
    elif kind == "mode":
        record["mode"] = draw(json_values.filter(lambda v: v not in ("temporal", "cross_project")))
    elif kind == "part":
        record[draw(st.sampled_from(["train", "validation", "test"]))] = draw(not_list)
    else:
        part = draw(st.sampled_from(["train", "validation", "test"]))
        record[part].insert(draw(st.integers(0, len(record[part]))), draw(bad_split_entries()))
    return record


def assert_split_rejected(artifacts, data, kind=None):
    config_path, base = artifacts
    path = base / "out" / "split.json"
    record = data.draw(malformed_splits(json.loads(path.read_text()), kind))
    command = data.draw(st.sampled_from([["train"], ["eval", "--approach", "random"]]))
    with corrupting(path, json.dumps(record)):
        assert_one_line_failure(*run_cli(["--config", config_path, *command]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_malformed_split_fails_in_one_line(artifacts, data):
    assert_split_rejected(artifacts, data)


@pytest.mark.parametrize("kind", SPLIT_FAULTS)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(data=st.data())
def test_each_malformed_split_kind_fails_in_one_line(artifacts, kind, data):
    assert_split_rejected(artifacts, data, kind)


@pytest.mark.parametrize("key", [["nope", 0], ["proj00", 99], ["proj00", -1]])
@pytest.mark.parametrize("part", ["train", "validation", "test"])
def test_split_keys_must_name_corpus_diffs(artifacts, part, key):
    config_path, base = artifacts
    path = base / "out" / "split.json"
    split = json.loads(path.read_text())
    split[part].append(key)
    with corrupting(path, json.dumps(split)):
        code, lines = run_cli(["--config", config_path, "eval", "--approach", "random"])
    assert_one_line_failure(code, lines)
    assert f"project {key[0]!r} has no diff {key[1]}" in lines[0]


@pytest.mark.parametrize("mode, need", [("temporal", 3), ("cross_project", 1)])
def test_a_project_without_a_diff_fails_prepare_in_one_line(artifacts, tmp_path, mode, need):
    """A project of one version has no diff: the temporal split would leave
    it out unseen, and a cross-project fold that held it out would test
    nothing of it."""
    config_path, base = artifacts
    path = sorted((base / "corpus").glob("proj*.json"))[-1]
    project = json.loads(path.read_text())
    sets = ["--set", f"split.mode={mode}", "--set", "split.folds=3", "--out", str(tmp_path / "out")]
    with corrupting(path, json.dumps({**project, "versions": project["versions"][:1]})):
        code, lines = run_cli(["--config", config_path, *sets, "prepare"])
    assert code == EXIT_VALIDATION
    assert_one_line_failure(code, lines)
    assert f"project {project['project']}: 0 diffs, need >= {need}" in lines[0]
    assert not (tmp_path / "out").exists()


@st.composite
def small_corpora(draw):
    """One to three projects of two to four versions over nodes a..g. After
    the first, a version edits the one before it (relabels, adds or drops
    nodes; its edges are drawn anew), repeats it (a diff without anchors)
    or is empty (a diff without candidates)."""
    corpus = {}
    for name in ("p0", "p1", "p2")[: draw(st.integers(1, 3))]:
        versions, labels = [], {}
        for _ in range(draw(st.integers(2, 4))):
            kind = draw(st.sampled_from(["edit", "edit", "repeat", "empty"])) if versions else "edit"
            if kind == "repeat":
                versions.append(versions[-1])
                continue
            edits = st.dictionaries(st.sampled_from("abcdefg"), st.sampled_from(["x y", "y", None]),
                                    min_size=1 if versions else 4)
            labels = {v: t for v, t in {**labels, **draw(edits)}.items() if t} if kind == "edit" else {}
            ends = st.sampled_from(sorted(labels or "a"))
            edges = st.sets(st.tuples(ends, ends, st.just("e")), min_size=min(3, len(labels) ** 2),
                            max_size=10)
            versions.append(ModelGraph(labels, draw(edges) if labels else ()))
        corpus[name] = Project(name, versions)
    return corpus


def recounted_table(pairs, corpus, provider) -> ranker.PairTable:
    """The table of `pairs`, pair by pair: each pair's two labels read off
    its diff's union graph, and each distinct label embedded alone."""
    texts = []
    for pair in pairs:
        versions = corpus[pair.project].versions
        union = union_graph(versions[pair.diff_index], versions[pair.diff_index + 1])
        texts += [union.label(pair.anchor), union.label(pair.candidate)]
    unique = sorted(set(texts))
    vectors = np.array([provider.embed([t])[0] for t in unique]).reshape(len(unique), provider.dimension)
    rows = np.array([unique.index(t) for t in texts], dtype=np.intp).reshape(-1, 2)
    return ranker.PairTable(vectors, rows[:, 0], rows[:, 1], [pair.label for pair in pairs])


def assert_same_table(table, expected):
    for part in ("vectors", "anchors", "cands", "labels"):
        got, want = getattr(table, part), getattr(expected, part)
        assert got.dtype == want.dtype and np.array_equal(got, want), part


@settings(max_examples=60, deadline=None, derandomize=True)
@given(corpus=small_corpora(), data=st.data())
def test_tables_match_a_per_pair_recount(corpus, data):
    """The validation table of any set of diffs (none included) holds every
    pair `ViewPairs` lists, in its order; a balanced table holds any rows
    drawn from those pairs, repeats included."""
    provider = HashedProvider(dimension=16)
    keys = [(name, i) for name in sorted(corpus) for i in range(corpus[name].n_diffs)]
    keys = data.draw(st.lists(st.sampled_from(keys), unique=True))
    pairs = list(ViewPairs(diff_views(corpus, keys)))
    table = _diff_table(diff_views(corpus, keys), provider)
    assert_same_table(table, recounted_table(pairs, corpus, provider))
    if pairs:
        rows = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=12))
        diffs = dict(zip(keys, diff_views(corpus, keys)))
        assert_same_table(_balanced_table(rows, diffs, provider),
                          recounted_table(rows, corpus, provider))


def test_validation_split_without_pairs_is_an_empty_dataset(artifacts):
    """An empty validation split gives an empty table, which train refuses
    as a fault of the split file: exit 1, one line naming it."""
    config_path, base = artifacts
    table = _diff_table([], HashedProvider(dimension=16))
    assert len(table) == 0 and table.vectors.shape == (0, 16)
    path = base / "out" / "split.json"
    split = {**json.loads(path.read_text()), "validation": []}
    with corrupting(path, json.dumps(split)):
        code, lines = run_cli(["--config", config_path, "train"])
    assert code == EXIT_VALIDATION
    assert lines == [f"ERROR focusrank.cli: {path}: its validation diffs hold no pairs"]


@pytest.mark.parametrize("fault", ["no train diff", "no anchor", "no candidate"])
def test_a_split_whose_train_diffs_hold_no_pairs_fails_in_one_line(artifacts, fault):
    """No balanced sample can be drawn, so train refuses the split file as
    it refuses an empty validation table: exit 1, one line naming it. The
    one train diff left is edited to change no node, or to keep none."""
    config_path, base = artifacts
    path, corpus_path = base / "out" / "split.json", base / "corpus" / "proj00.json"
    project = json.loads(corpus_path.read_text())
    versions = project["versions"]
    versions[1] = versions[0] if fault == "no anchor" else {"nodes": [], "edges": []}
    split = {**json.loads(path.read_text()), "train": [] if fault == "no train diff" else [["proj00", 0]]}
    with corrupting(path, json.dumps(split)), corrupting(corpus_path, json.dumps(project)):
        code, lines = run_cli(["--config", config_path, "train"])
    assert code == EXIT_VALIDATION
    assert lines == [f"ERROR focusrank.cli: {path}: its train diffs hold no pairs"]


STALE_PAIRS_FILES = {
    "garbage": '{"project": "proj00"}\n[not json\n',
    "empty": "",
    "nested too deeply": "[" * 3000,
    "not UTF-8": b'{"anchor": "\xff"}\n',
    "a row without its nodes": '{"project": "proj00", "diff": 0}\n',
    "a node id holding a newline":
        '{"project": "proj00", "diff": 0, "anchor": "a\\nb", "candidate": "n1", "label": 0}\n',
    "a row of an unknown project":
        '{"project": "nope", "diff": 0, "anchor": "n0", "candidate": "n1", "label": 1}\n',
    "a row of a test diff":
        '{"project": "proj00", "diff": 5, "anchor": "n0", "candidate": "n1", "label": 1}\n',
    "a directory": None,
}


@pytest.mark.parametrize("stale", list(STALE_PAIRS_FILES.values()), ids=list(STALE_PAIRS_FILES))
def test_train_reads_no_pairs_file(artifacts, tmp_path, caplog, stale):
    """A pairs file an older run left in out_dir changes neither train's
    exit code nor its checkpoint, whatever it holds: train draws its
    balanced sample from the corpus and split.json alone."""
    config_path, _ = artifacts
    out = tmp_path / "out"
    argv = ["--config", config_path, "--out", str(out), "--set", "train.epochs=2"]
    caplog.set_level(logging.INFO, logger="focusrank")
    assert main([*argv, "prepare"]) == EXIT_OK
    assert main([*argv, "train"]) == EXIT_OK
    before = (out / "checkpoint.json").read_bytes()
    stale_path = out / "pairs.train.balanced.jsonl"
    if stale is None:
        stale_path.mkdir()
    else:
        stale_path.write_bytes(stale.encode() if isinstance(stale, str) else stale)
    assert main([*argv, "train"]) == EXIT_OK
    assert (out / "checkpoint.json").read_bytes() == before
    assert "split into 12 train, 3 validation and 3 test diffs" in caplog.text
    assert caplog.text.count("trained 2 epochs on 360 balanced pairs") == 2


def drawn_sample(config):
    """The balanced sample `train` draws, and the two tables it builds."""
    samples = []
    draw = cli.balance
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "balance", lambda *args: samples.append(draw(*args)) or samples[-1])
        _, train_set, val_set = cli._train_tables(config)
    (pairs,) = samples
    return pairs, train_set, val_set


@pytest.fixture(scope="module", params=["temporal", "cross_project"])
def drawn(request, pipeline, tmp_path_factory):
    """The pipeline's corpus prepared in each split mode: the run config,
    the split, the corpus and the balanced sample train draws from it."""
    _, _, corpus_dir = pipeline
    base = tmp_path_factory.mktemp(f"drawn-{request.param}")
    config_path = write_config(base, corpus_dir=str(corpus_dir), split={"mode": request.param, "folds": 3})
    assert main(["--config", config_path, "prepare"]) == EXIT_OK
    config = load_run_config(config_path)
    corpus = load_corpus(sorted(corpus_dir.glob("proj*.json")))
    pairs, train_set, _ = drawn_sample(config)
    assert train_set.labels.tolist() == [pair.label for pair in pairs]
    return config, load_split(base / "out" / "split.json"), corpus, pairs


def _preserved(pair, corpus, node):
    source, target = corpus[pair.project].versions[pair.diff_index: pair.diff_index + 2]
    return node in source and node in target and source.label(node) == target.label(node)


def _positive(pair, corpus):
    """True when the candidate has a direct successor among the changed
    nodes of the diff's target version."""
    target = corpus[pair.project].versions[pair.diff_index + 1]
    return any(src == pair.candidate and not _preserved(pair, corpus, dst) for src, dst, _ in target.edges)


#: What the row check of a pairs file once refused, as a test on one drawn pair.
DRAWN_PAIR_FAULTS = {
    "not a train diff": lambda pair, corpus, split: (pair.project, pair.diff_index) not in split.train,
    "anchor in neither version": lambda pair, corpus, split: not any(
        pair.anchor in v for v in corpus[pair.project].versions[pair.diff_index: pair.diff_index + 2]),
    "candidate in neither version": lambda pair, corpus, split: not any(
        pair.candidate in v for v in corpus[pair.project].versions[pair.diff_index: pair.diff_index + 2]),
    "preserved anchor": lambda pair, corpus, split: _preserved(pair, corpus, pair.anchor),
    "changed candidate": lambda pair, corpus, split: not _preserved(pair, corpus, pair.candidate),
    "flipped label": lambda pair, corpus, split: pair.label != _positive(pair, corpus),
}


@pytest.mark.parametrize("fault", list(DRAWN_PAIR_FAULTS))
def test_each_drawn_pair_is_a_labeled_pair_of_a_train_diff(drawn, fault):
    """Each pair train draws, in either split mode, is one of its train
    diff's labeled pairs, recounted here from the two versions' labels
    and the target's edges."""
    _, split, corpus, pairs = drawn
    assert [pair for pair in pairs if DRAWN_PAIR_FAULTS[fault](pair, corpus, split)] == []


def test_each_project_with_train_pairs_is_drawn_to_the_target(drawn):
    """Every project with a labeled pair in its train diffs, and no other,
    gives target_pairs_per_project pairs."""
    config, split, corpus, pairs = drawn
    projects = {name for name, i in split.train if corpus[name].diff_at(i).anchors
                and corpus[name].diff_at(i).candidates}
    counts = Counter(pair.project for pair in pairs)
    assert counts == {name: config.balance.target_pairs_per_project for name in projects}


@pytest.mark.parametrize("part", ["validation", "test", None])
def test_a_diff_moved_out_of_the_train_split_is_not_drawn(artifacts, part):
    """A split with a train diff moved to another part, or left out, is a
    valid split: train draws no pair from that diff and the same count."""
    config_path, base = artifacts
    config = load_run_config(config_path)
    path = base / "out" / "split.json"
    split = json.loads(path.read_text())
    pairs, _, val_set = drawn_sample(config)
    key = [pairs[0].project, pairs[0].diff_index]
    split["train"].remove(key)
    if part:
        split[part].append(key)
    with corrupting(path, json.dumps(split)):
        moved, _, moved_val_set = drawn_sample(config)
    assert len(moved) == len(pairs)
    assert tuple(key) not in {(pair.project, pair.diff_index) for pair in moved}
    assert (len(moved_val_set) > len(val_set)) == (part == "validation")


@pytest.mark.parametrize("target", [1, 50, 120, 500])
def test_the_balance_section_sizes_the_sample(artifacts, target):
    """Down-sampled below a project's pair count, up-sampled above it."""
    config_path, _ = artifacts
    config = load_run_config(config_path, [f"balance.target_pairs_per_project={target}"])
    pairs, train_set, _ = drawn_sample(config)
    assert len(pairs) == len(train_set) == 3 * target
    assert Counter(pair.project for pair in pairs) == {f"proj0{i}": target for i in range(3)}


@pytest.mark.parametrize("seed", [{"set_args": ["balance.seed=8"]}, {"seed": 8}], ids=["set", "seed"])
def test_the_balance_seed_redraws_the_sample(artifacts, seed):
    """`--set balance.seed` and `--seed` draw another sample of the same
    size, and the same one on every run."""
    config_path, _ = artifacts
    pairs, _, _ = drawn_sample(load_run_config(config_path))
    redrawn, _, _ = drawn_sample(load_run_config(config_path, **seed))
    assert len(redrawn) == len(pairs) and redrawn != pairs
    assert drawn_sample(load_run_config(config_path, **seed))[0] == redrawn


def reorder(project, part):
    for version in project["versions"]:
        if part in ("nodes", "both"):
            version["nodes"].reverse()
        if part in ("edges", "both"):
            random.Random(0).shuffle(version["edges"])
    return project


@pytest.mark.parametrize("part", ["nodes", "edges", "both"])
def test_the_sample_ignores_the_corpus_record_order(artifacts, part):
    """A project file whose versions list their nodes or edges in another
    order gives train the same sample and the same tables, bit for bit."""
    config_path, base = artifacts
    config = load_run_config(config_path)
    pairs, train_set, val_set = drawn_sample(config)
    path = base / "corpus" / "proj00.json"
    with corrupting(path, json.dumps(reorder(json.loads(path.read_text()), part))):
        again, train_again, val_again = drawn_sample(config)
    assert again == pairs
    assert_same_table(train_again, train_set)
    assert_same_table(val_again, val_set)


@pytest.mark.parametrize("part, source", [("validation", "test"), ("train", "train"), ("test", "train")])
def test_a_split_key_listed_twice_fails_in_one_line(artifacts, part, source):
    """Within one part or across two: a test diff also listed under
    validation would leak into model selection."""
    config_path, base = artifacts
    path = base / "out" / "split.json"
    split = json.loads(path.read_text())
    key = split[source][0]
    split[part].append(key)
    with corrupting(path, json.dumps(split)):
        for command in (["train"], ["eval", "--approach", "random"]):
            code, lines = run_cli(["--config", config_path, *command])
            assert code == EXIT_VALIDATION
            assert lines == [f"ERROR focusrank.cli: {path}: split lists {key} more than once"]


class _Rows(list):
    """A list that takes weak references."""


@pytest.mark.parametrize("trainer, sets", [("train", []), ("grid_search", ["--set", "grid.alpha=[0.5]"])])
def test_train_holds_only_its_tables_while_training(artifacts, monkeypatch, trainer, sets):
    """By the time the ranker trains, the corpus, the train diffs' pairs and
    the balanced sample the tables were built from are gone."""
    config_path, _ = artifacts
    refs, alive = {}, {}

    def keeping(name, load, first):
        def wrapped(*args):
            result = load(*args)
            if name == "rows":
                result = _Rows(result)
            refs[name] = weakref.ref(first(result))
            return result
        return wrapped

    monkeypatch.setattr(cli, "load_corpus", keeping("project", cli.load_corpus, lambda c: c["proj00"]))
    monkeypatch.setattr(cli, "pairs_by_project",
                        keeping("groups", cli.pairs_by_project, lambda groups: groups["proj00"]))
    monkeypatch.setattr(cli, "balance", keeping("rows", cli.balance, lambda rows: rows))

    def training(train_set, val_set, *args):
        assert isinstance(train_set, ranker.PairTable) and isinstance(val_set, ranker.PairTable)
        alive.update((name, ref() is not None) for name, ref in refs.items())
        raise TrainingDivergedError("stopped after the check")

    monkeypatch.setattr(ranker, trainer, training)
    assert main(["--config", config_path, *sets, "train"]) == EXIT_RUNTIME
    assert alive == {"project": False, "groups": False, "rows": False}


@pytest.mark.parametrize(
    "error, line",
    [("MemoryError", "out of memory: MemoryError"),
     ("MemoryError('Unable to allocate 18.0 GiB')", "out of memory: Unable to allocate 18.0 GiB")],
)
def test_out_of_memory_exits_2_in_one_line(artifacts, error, line):
    """A stage that runs out of memory logs one line, never empty, and
    exits 2; the allocation is simulated, not made."""
    config_path, _ = artifacts
    probe = (
        "import sys; from focusrank import cli, ranker\n"
        f"def exhausted(*args):\n    raise {error}\n"
        "ranker.init_params = exhausted\nsys.exit(cli.main())"
    )
    done = fresh_python(probe, "--config", config_path, "train")
    assert done.returncode == EXIT_RUNTIME
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines() == [f"ERROR focusrank.cli: {line}"]


def _error_classes(base=errors.FocusRankError):
    for cls in base.__subclasses__():
        yield cls
        yield from _error_classes(cls)


INVALID_INPUT = {
    "InvalidInputError", "ArtifactFormatError", "CheckpointFormatError", "ConfigInvalidError",
    "MissingArtifactError", "TooFewCommitsError", "TooFewProjectsError", "UnknownNodeError",
}


def test_the_invalid_input_classes_are_pinned():
    bad_input = {cls.__name__ for cls in _error_classes() if issubclass(cls, errors.InvalidInputError)}
    assert bad_input == INVALID_INPUT


def test_the_other_error_classes_are_pinned():
    """Besides bad input, a run meets only an endpoint that fails and a loss
    that diverges; a function called against its contract raises ValueError."""
    other = {cls.__name__ for cls in _error_classes() if not issubclass(cls, errors.InvalidInputError)}
    assert other == {"RemoteUnavailableError", "TrainingDivergedError"}


@pytest.mark.parametrize("cls", sorted(_error_classes(), key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_the_exit_status_comes_from_the_error_class(monkeypatch, cls):
    """Bad input exits 1, any other package error 2, in one line."""

    def failing_stage(config):
        raise cls("the stage failed")

    monkeypatch.setattr(cli, "cmd_gen", failing_stage)
    code, lines = run_cli(["gen"])
    assert code == (EXIT_VALIDATION if cls.__name__ in INVALID_INPUT else EXIT_RUNTIME)
    assert lines == ["ERROR focusrank.cli: the stage failed"]


def test_a_value_error_is_a_fault_of_the_program_not_bad_input(monkeypatch):
    """Only an `InvalidInputError` reports bad input: a bare ValueError is a
    bug, and propagates as itself."""

    def failing_stage(config):
        raise ValueError("a bug")

    monkeypatch.setattr(cli, "cmd_gen", failing_stage)
    with pytest.raises(ValueError, match="a bug"):
        main(["gen"])


@pytest.mark.parametrize("key, message", [
    ("out_dir", "out_dir must be a path without NUL characters"),
    ("corpus_dir", "corpus_dir must be a path without NUL characters"),
    ("provider.cache_dir", "provider.cache_dir must be null or a path"),
])
def test_a_nul_in_a_path_fails_in_one_line(tmp_path, key, message):
    """Named by its key, not shown: the OS takes no NUL in a path."""
    code, lines = run_cli(["--set", f'{key}="{tmp_path}/s3cr\\u0000et"', "gen"])
    assert code == EXIT_VALIDATION and lines == [f"ERROR focusrank.cli: {message}"]
    assert not list(tmp_path.iterdir())


def test_an_out_dir_equal_to_the_corpus_dir_fails_in_one_line(tmp_path, monkeypatch):
    """`gen` would write its stats among the project files, which `prepare`
    then reads as one; the two paths are compared once made absolute."""
    monkeypatch.chdir(tmp_path)
    code, lines = run_cli(["--set", "corpus_dir=x", "--set", "out_dir=./x", "gen"])
    assert code == EXIT_VALIDATION
    assert lines == ["ERROR focusrank.cli: out_dir and corpus_dir must name different directories"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("endpoint", [
    "ftp://h/embed", "http:///embed", "localhost:8080/embed", "h/embed", "http://h:99999/x",
    "http://h:port/x", "http://[::1/x", "http://h/a b", "http://h/\t", "http://h/é", "http://hé/x",
])
def test_an_endpoint_http_cannot_post_to_fails_in_one_line(endpoint):
    remote = json.dumps({"endpoint": endpoint, "model": "m"})
    code, lines = run_cli(["--set", "provider.kind=remote", "--set", f"provider.remote={remote}", "gen"])
    assert code == EXIT_VALIDATION
    assert lines == ["ERROR focusrank.cli: provider.remote.endpoint must be an http(s) URL with a host"]


@pytest.mark.parametrize("endpoint", [
    "http://127.0.0.1:9/none", "https://embed.example.org/v1/embeddings", "http://[::1]:8080/x",
    "http://user:pw@h/x?q=1#f",
])
def test_an_http_endpoint_with_a_host_is_taken(endpoint):
    remote = json.dumps({"endpoint": endpoint, "model": "m"})
    config = load_run_config(None, ["provider.kind=remote", f"provider.remote={remote}"])
    assert config.provider.remote.endpoint == endpoint


def test_a_token_no_header_can_carry_fails_in_one_line(artifacts, monkeypatch):
    """Refused before any request, naming the variable and never the token."""
    config_path, _ = artifacts
    monkeypatch.setenv("TOK", "s3cret\r\nX: 1")
    monkeypatch.setattr(urllib.request, "urlopen", lambda *args, **kwargs: pytest.fail("posted"))
    remote = json.dumps({"endpoint": "http://127.0.0.1:9/none", "model": "m", "auth_env": "TOK"})
    code, lines = run_cli(["--config", config_path, "--set", "provider.kind=remote",
                           "--set", f"provider.remote={remote}", "train"])
    assert code == EXIT_VALIDATION and len(lines) == 1
    assert "$TOK" in lines[0] and "s3cret" not in lines[0]


@pytest.mark.parametrize("setting, message", [
    ("provider.dimension=65537", "embedding dimension must be <= 65536"),
    ("train.h=65537", "train.h must be <= 65536"),
    ("provider.dimension=100000000000000000000", "embedding dimension must be <= 65536"),
    ("train.h=4611686018427387904", "train.h must be <= 65536"),
])
def test_a_width_numpy_cannot_allocate_fails_in_one_line(setting, message):
    """Refused with the config: NumPy would refuse the array with a
    ValueError, not a MemoryError."""
    code, lines = run_cli(["--set", setting, "gen"])
    assert code == EXIT_VALIDATION and lines == [f"ERROR focusrank.cli: {message}"]
    assert load_run_config(None, ["provider.dimension=65536", "train.h=65536"]).train.h == 65536


@pytest.mark.parametrize("k_max", ["1001", "100000000000000000000"])
def test_an_eval_depth_above_1000_fails_in_one_line(tmp_path, k_max):
    """Refused with the config: eval's time and report grow linearly with
    k_max, so a huge one would run with no message until killed."""
    code, lines = run_cli(["--config", write_config(tmp_path), "--set", f"eval.k_max={k_max}", "gen"])
    assert code == EXIT_VALIDATION and lines == ["ERROR focusrank.cli: eval.k_max must be >= 1 and <= 1000"]
    assert not (tmp_path / "corpus").exists()
    assert load_run_config(None, ["eval.k_max=1000"]).eval.k_max == 1000


def test_an_unpaired_surrogate_in_a_corpus_fails_in_one_line(artifacts):
    """No UTF-8 report or stdout line could carry the label, so the corpus
    read refuses it, naming the file."""
    config_path, base = artifacts
    path = base / "corpus" / "proj00.json"
    text = path.read_text()
    with corrupting(path, text.replace('"label":"', '"label":"\\udc80', 1)):
        code, lines = run_cli(["--config", config_path, "eval", "--approach", "random"])
    assert_one_line_failure(code, lines)
    assert code == EXIT_VALIDATION and f"{path}: not a JSON project file" in lines[0]


def test_the_names_the_benchmark_reaches_exist():
    """The benchmark calls these, or wraps them by name, and a wrap of a
    missing name silently wraps nothing. The first three are looked up in
    `cli`, so it keeps them as module globals. Its wraps of `cli.save_pairs`
    and `cli.load_pairs` wrap nothing: no pairs file is written or read, as
    `train` draws the balanced sample from the corpus itself."""
    from focusrank import baselines, dataset, graphs
    assert (cli.load_corpus, cli.balance, cli.build_cochange) == (
        graphs.load_corpus, dataset.balance, baselines.build_cochange,
    )
    for module, names in [
        (ranker, ["predict_proba", "load_checkpoint", "save_checkpoint", "train", "grad", "forward"]),
        (evaluation, ["radius_filter", "evaluate"]),
        (embedding, ["make_provider", "ProviderConfig", "RemoteConfig"]),
        (embedding.HashedProvider, ["embed"]),
        (embedding.RemoteProvider, ["embed"]),
        (graphs, ["diff"]),
        (graphs.ModelGraph, ["distances_from"]),
        (datagen, ["build_corpus", "describe", "save_project"]),
    ]:
        assert all(callable(getattr(module, name, None)) for name in names), (module, names)


def test_duplicate_project_id_names_both_files(artifacts):
    config_path, base = artifacts
    corpus = base / "corpus"
    with corrupting(corpus / "zz.json", (corpus / "proj00.json").read_text()):
        code, lines = run_cli(["--config", config_path, "prepare"])
    assert code == EXIT_VALIDATION
    assert_one_line_failure(code, lines)
    both = f"{corpus / 'proj00.json'} and {corpus / 'zz.json'}"
    assert f"{both}: duplicate project id 'proj00'" in lines[0]


@pytest.mark.parametrize(
    "relative, text, command",
    [
        ("corpus/zz.json", '{"project": "zz", "versions": [1]}', "prepare"),
        ("corpus/zz.json", '{"project": "zz", "versions": [', "prepare"),
        ("out/split.json", '{"mode": "temporal", "validation": [], "test": []}', "train"),
        # nested too deeply to parse, or not UTF-8 (json.dumps cannot write the first)
        ("corpus/zz.json", "[" * 3000, "prepare"),
        ("corpus/zz.json", b'{"project": "\xff"}', "prepare"),
        ("out/split.json", "[" * 3000, "train"),
        ("out/split.json", b"\xff", "train"),
        ("out/checkpoint.json", "[" * 3000, "eval"),
        ("out/checkpoint.json", b"\xff", "eval"),
        ("config.json", "[" * 3000, "gen"),
        ("config.json", b"{\xff}", "gen"),
    ],
)
def test_malformed_artifact_exits_1_with_one_stderr_line(artifacts, relative, text, command):
    """Through the console entry point: stderr is one line, no traceback,
    naming the file."""
    config_path, base = artifacts
    with corrupting(base / relative, text):
        done = fresh_python(ENTRY, "--config", config_path, command)
    assert done.returncode == EXIT_VALIDATION
    assert "Traceback" not in done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"ERROR focusrank.cli: {base / relative}"), lines


def test_every_cpu_count_writes_the_same_bytes(tmp_path, monkeypatch):
    """prepare, train and eval read the corpus alone on one usable CPU and
    with a forked worker on two, and write the same files either way."""
    config_path = write_config(tmp_path, train={"epochs": 3})
    assert main(["--config", config_path, "gen"]) == EXIT_OK
    out, after_gen = tmp_path / "out", tmp_path / "out-after-gen"
    shutil.copytree(out, after_gen)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    written = {}
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False)
        shutil.rmtree(out)
        shutil.copytree(after_gen, out)
        for argv in (["prepare"], ["train"], ["eval", "--approach", "random", "--plot-data"]):
            assert main(["--config", config_path, *argv]) == EXIT_OK
        written[cpus] = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert len(forks) == 3 * (cpus - 1)
    assert written[1] == written[2]
    assert {"split.json", "checkpoint.json", "plot-random.csv"} <= {p.name for p in written[2]}


def test_regenerating_fewer_projects_leaves_no_stale_ones(tmp_path):
    """gen 10 then gen 8 into one corpus_dir: the two projects the first
    run alone wrote are gone from the directory, the stats and prepare."""
    config_path = write_config(tmp_path)
    for projects in (10, 8):
        assert main(["--config", config_path, "--set", f"gen.projects={projects}", "gen"]) == EXIT_OK
    expected = [f"proj{i:02d}" for i in range(8)]
    assert sorted(p.stem for p in (tmp_path / "corpus").glob("proj*.json")) == expected
    stats = json.loads((tmp_path / "out" / "corpus-stats.json").read_text())
    assert stats["projects"] == 8 and stats["versions"] == 8 * 7
    assert main(["--config", config_path, "prepare"]) == EXIT_OK
    split = json.loads((tmp_path / "out" / "split.json").read_text())
    assert sorted(name for name, _ in split["test"]) == expected


@pytest.mark.parametrize("manifest", [b"[" * 3000, b"\xff"])
def test_unreadable_stale_manifest_leaves_unlisted_files(tmp_path, manifest):
    """gen over a manifest it cannot read deletes nothing and succeeds."""
    config_path = write_config(tmp_path)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "manifest.json").write_bytes(manifest)
    (corpus / "zz.json").write_text("{}")
    assert main(["--config", config_path, "gen"]) == EXIT_OK
    assert (corpus / "zz.json").read_text() == "{}"


# values TrainConfig would take without complaint, were they not type-checked
MISTYPED_TRAIN_CONFIG = [("h", True), ("epochs", 2.5), ("batch_size", True)]


CHECKPOINT_FAULTS = ["root", "drop", "value", "dims", "non-finite", "truncated", "train_config"]


@st.composite
def malformed_checkpoints(draw, payload, kind=None):
    """`payload` with one fault: `kind` is one of CHECKPOINT_FAULTS, or drawn when None."""
    kind = kind or draw(st.sampled_from(CHECKPOINT_FAULTS))
    record = dict(payload)
    raw = base64.b64decode(payload["theta"])
    if kind == "root":
        return draw(not_object)
    if kind == "drop":
        del record[draw(st.sampled_from(["format", "version", "d", "h", "theta", "train_config"]))]
    elif kind == "value":
        key = draw(st.sampled_from(["format", "version", "theta"]))
        record[key] = draw(json_values.filter(lambda v: v != payload[key]))
    elif kind == "dims":
        key = draw(st.sampled_from(["d", "h"]))
        record[key] = draw(st.one_of(json_values, st.just(float(payload[key])), st.floats())
                           .filter(lambda v: not (type(v) is int and v == payload[key])))
    elif kind == "non-finite":
        at = 8 * draw(st.integers(0, len(raw) // 8 - 1))
        value = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        raw = raw[:at] + np.float64(value).tobytes() + raw[at + 8:]
        record["theta"] = base64.b64encode(raw).decode("ascii")
    elif kind == "truncated":
        record["theta"] = base64.b64encode(raw[:draw(st.integers(0, len(raw) - 1))]).decode("ascii")
    if kind == "train_config":
        key, value = draw(st.sampled_from(MISTYPED_TRAIN_CONFIG))
        record["train_config"] = {**payload["train_config"], key: value}
    elif kind != "value" and "train_config" in record:  # a dropped train_config stays dropped
        record["train_config"] = draw(st.one_of(st.just(payload["train_config"]), not_object))
    return record


def assert_checkpoint_rejected(artifacts, data, kind=None):
    config_path, base = artifacts
    path = base / "out" / "checkpoint.json"
    record = data.draw(malformed_checkpoints(json.loads(path.read_text()), kind))
    with corrupting(path, json.dumps(record)):
        assert_one_line_failure(*run_cli(["--config", config_path, "eval", "--approach", "nextfocus"]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_malformed_checkpoint_fails_in_one_line(artifacts, data):
    assert_checkpoint_rejected(artifacts, data)


@pytest.mark.parametrize("kind", CHECKPOINT_FAULTS)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(data=st.data())
def test_each_malformed_checkpoint_kind_fails_in_one_line(artifacts, kind, data):
    assert_checkpoint_rejected(artifacts, data, kind)


@pytest.mark.parametrize("edit", [
    lambda p: p.update(theta=base64.b64encode(b"\xff" * len(base64.b64decode(p["theta"]))).decode()),
    lambda p: p.update(d=p["d"] + 0.7),
    lambda p: p.update(h=float(p["h"])),
    lambda p: p["train_config"].update(learning_rate=math.nan),
])
def test_non_finite_or_mistyped_checkpoint_exits_1(artifacts, edit):
    config_path, base = artifacts
    path = base / "out" / "checkpoint.json"
    payload = json.loads(path.read_text())
    edit(payload)
    with corrupting(path, json.dumps(payload)):
        code, lines = run_cli(["--config", config_path, "eval", "--approach", "nextfocus"])
    assert code == EXIT_VALIDATION
    assert_one_line_failure(code, lines)
