"""Command-line pipeline: gen, prepare, train, eval, rank, gradcheck.

All commands read one JSON config (unknown keys rejected), overridable with
``--set section.key=value``, ``--seed`` and ``--out``, and parsed once into a
typed `RunConfig`. Outputs land under the configured output directory
together with a run manifest that records the effective config hash, seeds
and the versions of the libraries the stage loaded; nothing in the outputs
depends on wall-clock time, so identical configs reproduce byte-identical
artifacts.

Exit codes: 0 success, 1 an `InvalidInputError` (bad config, bad arguments,
missing or malformed artifact), 2 any other failure: another
`FocusRankError`, an `OSError` or running out of memory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from . import datagen, evaluation  # NumPy, ranker and embedding load in the stages that use them
from .baselines import build_cochange, save_cochange
from .dataset import (
    BalanceConfig,
    DatasetSplit,
    balance,
    diff_views,
    load_split,
    pairs_by_project,
    save_split,
    split_cross_project,
    split_temporal,
)
from .config import ProviderConfig, TrainConfig, read_config, same_kind, with_grid
from .errors import (
    ArtifactFormatError, ConfigInvalidError, FocusRankError, InvalidInputError,
    MissingArtifactError, TooFewCommitsError, UnknownNodeError, json_text, read_json, write_artifact,
)
from .graphs import Project, load_corpus

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

APPROACHES = ("nextfocus", "random", "semantic", "cochange")
LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR")

@dataclass(frozen=True)
class SplitConfig:
    mode: str = "temporal"  # "temporal" | "cross_project"
    folds: int = 10
    fold: int = 0
    seed: int = 7

    def __post_init__(self):
        if self.mode not in ("temporal", "cross_project"):
            raise ConfigInvalidError("split.mode must be temporal or cross_project")


@dataclass(frozen=True)
class EvalConfig:
    k_max: int = 10
    tau: Optional[float | str] = None  # radius cap: null, "inf" or a number >= 0
    taus: tuple = (1, 2, 3, None)  # the radius caps `--plot-data` sweeps
    seed: int = 7

    def __post_init__(self):
        if not 1 <= self.k_max <= 1000:  # eval's time and report size grow linearly with k_max
            raise ConfigInvalidError("eval.k_max must be >= 1 and <= 1000")
        _parse_tau(self.tau, "eval.tau")
        if not self.taus:
            raise ConfigInvalidError("eval.taus must be a non-empty list")
        for t in self.taus:
            _parse_tau(t, "eval.taus entries")


@dataclass(frozen=True)
class RunConfig:
    """The run config, parsed once; `load_run_config` reads it from JSON."""

    out_dir: str = "runs/out"
    corpus_dir: str = "data/corpus"
    gen: datagen.GenConfig = field(default_factory=datagen.GenConfig)
    provider: ProviderConfig = field(default_factory=ProviderConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    balance: BalanceConfig = field(default_factory=BalanceConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    grid: dict = field(default_factory=dict)  # value lists of config.GRID_KEYS knobs
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        if not self.out_dir or not self.corpus_dir:
            raise ConfigInvalidError("out_dir and corpus_dir must be non-empty")
        for key in ("out_dir", "corpus_dir"):  # the OS takes no NUL in a path
            if "\0" in getattr(self, key):
                raise ConfigInvalidError(f"{key} must be a path without NUL characters")
        if os.path.abspath(self.out_dir) == os.path.abspath(self.corpus_dir):  # gen would mix the two
            raise ConfigInvalidError("out_dir and corpus_dir must name different directories")
        for knob, values in self.grid.items():  # with_grid refuses a knob outside GRID_KEYS
            kind = 1 if knob == "h" else 1.0
            if not isinstance(values, list) or not values or not all(same_kind(kind, v) for v in values):
                raise ConfigInvalidError(f"grid.{knob} must be a non-empty list of numbers")
            for value in values:
                try:
                    with_grid(self.train, {knob: value})
                except ConfigInvalidError as exc:
                    raise ConfigInvalidError(f"grid.{knob}: {exc}") from None


SEEDED = ("gen", "split", "balance", "train", "eval")  # the sections `--seed` sets
NUMPY_STAGES = frozenset({"train", "eval-nextfocus", "eval-semantic", "rank"})  # these load NumPy


def _apply_set(user: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigInvalidError(f"--set needs key=value, got {assignment!r}")
    dotted, raw = assignment.split("=", 1)
    keys = [k for k in dotted.strip().split(".") if k]
    if not keys:
        raise ConfigInvalidError(f"--set needs a key path, got {assignment!r}")
    try:  # an argument byte that is not UTF-8 comes back as itself, and is not JSON
        value = read_json(raw.encode("utf-8", "surrogateescape"), assignment, ConfigInvalidError)
    except ConfigInvalidError:  # not JSON, or nested too deeply: taken as a string
        value = raw
    node = user
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigInvalidError(f"--set path {dotted} crosses a non-object value")
    node[keys[-1]] = value


def load_run_config(
    config_path: Optional[str],
    set_args: Sequence[str] = (),
    seed: Optional[int] = None,
    out: Optional[str] = None,
) -> RunConfig:
    user: dict = {}
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise MissingArtifactError(f"config file {path} does not exist")
        user = read_json(path.read_bytes(), f"{path}: invalid JSON", ConfigInvalidError)
        if not isinstance(user, dict):
            raise ConfigInvalidError(f"{path}: config root must be an object")
    for assignment in set_args:
        _apply_set(user, assignment)
    if out is not None:
        user["out_dir"] = out
    config = read_config(RunConfig, user, "")
    if seed is not None:
        config = replace(config, **{n: replace(getattr(config, n), seed=seed) for n in SEEDED})
    return config


def _parse_tau(value, where: str) -> Optional[float]:
    if value is None:
        return None
    if value == "inf":
        return math.inf
    if isinstance(value, (int, float)) and not isinstance(value, bool) and value >= 0:
        return float(value)
    raise ConfigInvalidError(f"{where} must be null, \"inf\", or a number >= 0")


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _write_manifest(config: RunConfig, command: str, outputs: Sequence[str]) -> None:
    manifest = {
        "command": command,
        "config_sha256": _config_hash(asdict(config)),
        "seeds": {name: getattr(config, name).seed for name in SEEDED},
        "versions": {
            "focusrank": __version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
        "outputs": sorted(outputs),
    }
    if command in NUMPY_STAGES:
        import numpy
        manifest["versions"]["numpy"] = numpy.__version__
    write_artifact(Path(config.out_dir) / f"manifest-{command}.json", json_text(manifest))


def _load_corpus(config: RunConfig) -> dict[str, Project]:
    corpus_dir = Path(config.corpus_dir)
    paths = sorted(p for p in corpus_dir.glob("*.json") if p.name != "manifest.json")
    if not paths:
        raise MissingArtifactError(
            f"no project files under {corpus_dir}; run `focusrank gen` first"
        )
    return load_corpus(paths)


def _table(provider, texts, anchors, cands, labels) -> "ranker.PairTable":
    """Pair i's labels are texts[anchors[i]] and texts[cands[i]]; the table
    is over the embeddings of the sorted distinct texts."""
    import numpy as np
    from . import ranker
    unique = sorted(set(texts))
    row_of = {t: i for i, t in enumerate(unique)}
    rows = np.array([row_of[t] for t in texts], dtype=np.intp)
    return ranker.PairTable(provider.embed(unique), rows[anchors], rows[cands], labels)


def _balanced_table(pairs, diffs, provider) -> "ranker.PairTable":
    """The balanced pairs as a table: pair i's labels are texts 2i and
    2i + 1, read off its diff in `diffs`, keyed by (project, diff index)."""
    import numpy as np
    texts: list[str] = []
    for p in pairs:
        d = diffs[p.project, p.diff_index]
        texts += d.label(p.anchor), d.label(p.candidate)
    anchors = np.arange(0, len(texts), 2, dtype=np.intp)
    return _table(provider, texts, anchors, anchors + 1, [p.label for p in pairs])


def _diff_table(views, provider) -> "ranker.PairTable":
    """Every labeled pair of the diffs, in `ViewPairs` order (pair i of a
    diff is anchors[i // |C|] with candidates[i % |C|]), each node's label
    read once."""
    import numpy as np
    texts: list[str] = []
    parts = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]  # no pairs: empty columns
    for d in views:
        a, c = len(d.anchors), len(d.candidates)
        if a and c:
            first = len(texts)
            texts.extend(map(d.label, d.anchors + d.candidates))
            positive = np.array([n in d.positives for n in d.candidates], dtype=np.float64)
            parts.append((np.repeat(np.arange(first, first + a), c),
                          np.tile(np.arange(first + a, first + a + c), a), np.tile(positive, a)))
    return _table(provider, texts, *map(np.concatenate, zip(*parts)))


def _train_tables(config: RunConfig):
    """The provider and `train`'s two tables: the balanced sample of the
    train diffs' pairs and every validation pair. The corpus, split and
    sample die on return, so training holds the tables alone."""
    from . import embedding
    corpus = _load_corpus(config)
    split = _load_split(config, corpus)
    split_path = Path(config.out_dir) / "split.json"
    train_diffs = dict(zip(split.train, diff_views(corpus, split.train)))  # _load_split checked the keys
    train_pairs = balance(pairs_by_project(train_diffs.values()), config.balance)
    if not train_pairs:
        raise ArtifactFormatError(f"{split_path}: its train diffs hold no pairs")
    provider = embedding.make_provider(config.provider)
    val_set = _diff_table(diff_views(corpus, split.validation), provider)
    if not len(val_set):  # the ranker selects its epoch by validation loss
        raise ArtifactFormatError(f"{split_path}: its validation diffs hold no pairs")
    return provider, _balanced_table(train_pairs, train_diffs, provider), val_set


def _split_for(config: RunConfig, corpus) -> DatasetSplit:
    counts = {name: corpus[name].n_diffs for name in sorted(corpus)}
    temporal = config.split.mode == "temporal"
    empty = [name for name, n in counts.items() if not n]  # no split would train or test on one
    if empty:
        raise TooFewCommitsError(f"project {empty[0]}: 0 diffs, need >= {3 if temporal else 1}")
    if temporal:
        return split_temporal([(name, i) for name, n in counts.items() for i in range(n)])
    folds = split_cross_project(counts, config.split.folds, config.split.seed)
    fold = config.split.fold
    if not 0 <= fold < len(folds):
        raise ConfigInvalidError(f"split.fold {fold} out of range (have {len(folds)})")
    return folds[fold]


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise MissingArtifactError(f"{path} not found; {hint}")
    return path


def _load_split(config: RunConfig, corpus) -> DatasetSplit:
    path = _require(Path(config.out_dir) / "split.json", "run `focusrank prepare` first")
    split = load_split(path)
    for name, index in split.train + split.validation + split.test:
        if name not in corpus or not 0 <= index < corpus[name].n_diffs:
            raise ArtifactFormatError(f"{path}: project {name!r} has no diff {index}")
    return split


def cmd_gen(config: RunConfig) -> int:
    corpus, manifest = datagen.build_corpus(config.gen)
    paths = datagen.write_corpus(corpus, manifest, config.corpus_dir)
    write_artifact(Path(config.out_dir) / "corpus-stats.json", json_text(datagen.describe(corpus)))
    _write_manifest(config, "gen", [str(p) for p in paths] + ["corpus-stats.json"])
    logger.info("generated %d projects under %s", len(paths), config.corpus_dir)
    return EXIT_OK


def cmd_prepare(config: RunConfig) -> int:
    corpus = _load_corpus(config)
    split = _split_for(config, corpus)
    save_split(split, Path(config.out_dir) / "split.json")
    _write_manifest(config, "prepare", ["split.json"])
    logger.info("split into %d train, %d validation and %d test diffs",
                len(split.train), len(split.validation), len(split.test))
    return EXIT_OK


def cmd_train(config: RunConfig) -> int:
    from . import ranker
    provider, train_set, val_set = _train_tables(config)
    gc.collect()  # empties the free lists, whose spare objects pin the freed corpus's arenas
    out_dir = Path(config.out_dir)
    ckpt, rows = ranker.grid_search(
        train_set, val_set, config.train, config.grid, provider.fingerprint
    )
    outputs = ["checkpoint.json"]
    if config.grid:
        write_artifact(out_dir / "grid-results.json", json_text(rows))
        outputs.append("grid-results.json")
    ranker.save_checkpoint(ckpt, out_dir / "checkpoint.json")
    _write_manifest(config, "train", outputs)
    best = min((row["val_loss"] for row in ckpt.history), default=math.nan)
    logger.info("trained %d epochs on %d balanced pairs and %d of %d embedding dimensions, "
                "best validation loss %.6f", len(ckpt.history), len(train_set),
                len(ranker.used_dimensions(train_set, val_set)), ckpt.params.d, best)
    return EXIT_OK


def _load_model(config: RunConfig) -> evaluation.NeuralScorer:
    """The trained ranker as a scorer, refused unless the configured provider trained it."""
    from . import embedding, ranker
    path = _require(Path(config.out_dir) / "checkpoint.json", "run `focusrank train` first")
    ckpt = ranker.load_checkpoint(path)
    provider = embedding.make_provider(config.provider)
    if ckpt.provider_fingerprint and ckpt.provider_fingerprint != provider.fingerprint:
        raise ConfigInvalidError(
            "checkpoint was trained with embedding provider "
            f"{ckpt.provider_fingerprint!r} but config selects {provider.fingerprint!r}"
        )
    if ckpt.params.d != provider.dimension:  # a checkpoint without a fingerprint gets here
        raise ConfigInvalidError(f"{path} scores {ckpt.params.d}-dimensional embeddings, "
                                 f"but provider.dimension is {provider.dimension}")
    return evaluation.NeuralScorer(ckpt, provider)


def _make_scorer(config: RunConfig, approach: str, corpus, split: DatasetSplit):
    if approach == "nextfocus":
        return _load_model(config)
    if approach == "random":
        return evaluation.RandomScorer(config.eval.seed)
    if approach == "semantic":
        from . import embedding
        return evaluation.SemanticScorer(embedding.make_provider(config.provider))
    if approach == "cochange":
        counts = build_cochange(diff_views(corpus, split.train))
        save_cochange(counts, Path(config.out_dir) / "cochange.jsonl")
        return evaluation.CoChangeScorer(counts)
    raise ConfigInvalidError(f"unknown approach {approach!r}; choose from {APPROACHES}")


def cmd_eval(config: RunConfig, approach: str, plot_data: bool = False) -> int:
    corpus = _load_corpus(config)
    out_dir = Path(config.out_dir)
    split = _load_split(config, corpus)
    scorer = _make_scorer(config, approach, corpus, split)

    k_max = config.eval.k_max
    tau = _parse_tau(config.eval.tau, "eval.tau")
    report = evaluation.evaluate(scorer, corpus, split.test, k_max=k_max, tau=tau)

    summary = report.summary()
    summary["by_project"] = evaluation.aggregate_by_project(report.results, ks=list(report.ks()))
    outputs = [f"report-{approach}.csv", f"report-{approach}.json"]
    write_artifact(out_dir / f"report-{approach}.csv", evaluation.report_to_csv(report))
    write_artifact(out_dir / f"report-{approach}.json", json_text(summary))

    if plot_data:
        # every scorer is stateless, so the report's own tau is not evaluated again
        taus = [_parse_tau(t, "eval.taus") for t in config.eval.taus]
        reports = [
            report if t == tau else evaluation.evaluate(scorer, corpus, split.test, k_max=k_max, tau=t)
            for t in taus
        ]
        rows = evaluation.radius_rows(reports, ks=list(range(1, k_max + 1)))
        write_artifact(out_dir / f"plot-{approach}.csv", evaluation.radius_rows_csv(rows))
        outputs.append(f"plot-{approach}.csv")

    if approach == "cochange":
        outputs.append("cochange.jsonl")
    _write_manifest(config, f"eval-{approach}", outputs)
    logger.info(
        "%s: mean precision over k<=%d is %.4f on %d anchors (%d skipped)",
        approach, k_max, summary["mean_precision_over_k"],
        summary["anchors"], summary["skipped_no_positive"],
    )
    return EXIT_OK


def cmd_rank(config: RunConfig, project_name: str, anchor: str, k: int) -> int:
    if k < 1:
        raise ConfigInvalidError("k must be >= 1")
    corpus = _load_corpus(config)
    if project_name not in corpus:
        raise ConfigInvalidError(
            f"project {project_name!r} not in corpus ({', '.join(sorted(corpus))})"
        )
    model = _load_model(config)

    latest = corpus[project_name].versions[-1]
    if anchor not in latest:
        raise UnknownNodeError(f"{anchor!r} is not a node of {project_name}'s latest version")
    candidates = sorted(latest.node_ids - {anchor})
    tau = _parse_tau(config.eval.tau, "eval.tau")
    candidates = evaluation.radius_filter(latest, anchor, candidates, tau)
    if not candidates:
        raise ConfigInvalidError("no candidates left after the radius filter")

    for node_id in evaluation.by_score(candidates, model.scores(anchor, candidates, latest))[:k]:
        print(node_id)
    _write_manifest(config, "rank", [])
    return EXIT_OK


def cmd_gradcheck(trials: int, seed: int) -> int:
    from . import ranker
    if trials < 1:
        raise ConfigInvalidError("trials must be >= 1")
    if seed < 0:
        raise ConfigInvalidError("--seed must be >= 0")
    results = ranker.gradient_check(trials=trials, seed=seed)
    for row in results:
        print(
            "trial {trial:02d}: d={d} h={h} batch={batch} "
            "max_rel_error={max_rel_error:.3e} {status}".format(
                status="PASS" if row["passed"] else "FAIL", **row
            )
        )
    failed = [row for row in results if not row["passed"]]
    print(f"gradcheck: {len(results) - len(failed)}/{len(results)} passed")
    return EXIT_OK if not failed else EXIT_VALIDATION


class _Parser(argparse.ArgumentParser):
    """Argument errors are validation errors: exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="focusrank", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="path to a JSON run config")
    parser.add_argument("--seed", type=int, help="override every section seed")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument(
        "--log-level", choices=LOG_LEVELS, default="INFO",
        help="least severe log records printed on stderr (default: INFO)",
    )
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override one config entry, e.g. --set train.loss.alpha=0.7",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen", help="generate the synthetic corpus")
    sub.add_parser("prepare", help="split the diffs by commit or by project")
    sub.add_parser("train", help="train the ranker (grid search when configured)")
    p_eval = sub.add_parser("eval", help="evaluate one approach on the test split")
    p_eval.add_argument("--approach", choices=APPROACHES, default="nextfocus")
    p_eval.add_argument(
        "--plot-data", action="store_true",
        help="also sweep eval.taus and emit the radius/precision series",
    )
    p_rank = sub.add_parser("rank", help="print the top-k next-focus nodes")
    p_rank.add_argument("--project", required=True)
    p_rank.add_argument("--anchor", required=True)
    p_rank.add_argument("--k", type=int, default=5)
    p_grad = sub.add_parser("gradcheck", help="compare gradients to finite differences")
    p_grad.add_argument("--trials", type=int, default=20)
    return parser


def _one_line(exc: Exception) -> str:
    """An error's text for one log line; control characters, say from a
    node id in a malformed file, are escaped."""
    text = str(exc)
    return text if text.isprintable() else text.encode("unicode_escape").decode("ascii")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        stream=sys.stderr, level=args.log_level, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        if args.command == "gradcheck":
            return cmd_gradcheck(args.trials, args.seed if args.seed is not None else 0)
        config = load_run_config(args.config, args.set, args.seed, args.out)
        if args.command == "gen":
            return cmd_gen(config)
        if args.command == "prepare":
            return cmd_prepare(config)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "eval":
            return cmd_eval(config, args.approach, args.plot_data)
        return cmd_rank(config, args.project, args.anchor, args.k)  # the parser admits no other
    except InvalidInputError as exc:
        logger.error("%s", _one_line(exc))
        return EXIT_VALIDATION
    except (FocusRankError, OSError) as exc:
        logger.error("%s", _one_line(exc))
        return EXIT_RUNTIME
    except MemoryError as exc:  # its text may be empty
        logger.error("out of memory: %s", _one_line(exc) or "MemoryError")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
