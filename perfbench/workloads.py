"""The phases every workload runs, and the two corpus sizes they run at.

A run drives focusrank only through its command line or its public
functions, in three phases:

* pipeline: ``gen -> prepare -> train -> eval x4`` as one ``focusrank``
  subprocess per stage (or, when traced, through ``focusrank.cli.main`` in
  this process);
* rank-query: a closed loop with one client making the calls
  ``focusrank rank`` makes, on seeded graphs whose nodes all carry distinct
  labels, with the checkpoint the pipeline trained;
* embed-remote: ``RemoteProvider`` with an on-disk cache against a stub
  embeddings service in a separate process over loopback: a cold pass into a
  fresh cache (all misses), then warm passes over it (all hits).

Every stage is followed by a slot: embed rounds, and once the checkpoint
exists, rank queries. So each metric's samples spread over the whole run
instead of one window of it.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checks

SCALE_GEN = {"projects": 32, "base_nodes": 300, "commits_per_project": 20}


@dataclass(frozen=True)
class Size:
    gen: dict  # overrides of the gen config section
    epochs: int  # every run trains exactly this many epochs
    rounds: int  # runs of the stage chain; each stage's median is reported
    embed_slice: int  # labels per embed round
    embed_rounds: int  # embed rounds per slot


WORKLOADS = {
    "pipeline-default": Size(gen={}, epochs=10, rounds=4, embed_slice=100, embed_rounds=1),
    "pipeline-scale": Size(gen=SCALE_GEN, epochs=3, rounds=1, embed_slice=150, embed_rounds=3),
}

STAGES = (
    ("gen", ["gen"]),
    ("prepare", ["prepare"]),
    ("train", ["train"]),
    ("eval_nextfocus", ["eval", "--approach", "nextfocus", "--plot-data"]),
    ("eval_semantic", ["eval", "--approach", "semantic"]),
    ("eval_cochange", ["eval", "--approach", "cochange"]),
    ("eval_random", ["eval", "--approach", "random"]),
)
APPROACHES = ("nextfocus", "semantic", "cochange", "random")

BALANCE_TARGET = 400  # balanced train pairs per project
EMBED_DIM = 256
RANK_PROJECTS = 8  # graphs the rank-query anchors are drawn from
TRACED_QUERIES = 1000  # enough for a p99 with ten samples beyond it
SLOT_QUERIES = 20  # timed queries per slot, at least
WARMUP_QUERIES = 5  # untimed, at the start of each slot, after a stage ran
CHECKED_QUERIES = 32  # drawn from the first CHECK_WINDOW timed queries
CHECK_WINDOW = 300
TOP_K = 5
EMBED_LABELS = 1200  # the stub's vocabulary; embed rounds take slices of it
WARM_PASSES = 2  # per embed round
TRACED_EMBED_ROUNDS = 4

# The console script's entry point, so a stage pays what `focusrank` pays.
ENTRY = "import sys; from focusrank.cli import main; sys.exit(main())"

WORDS = (
    "Alpha", "Anchor", "Apex", "Atlas", "Beacon", "Border", "Bridge", "Cable",
    "Canvas", "Carbon", "Cedar", "Cipher", "Comet", "Coral", "Crest", "Delta",
    "Drift", "Echo", "Ember", "Falcon", "Fern", "Fjord", "Flux", "Forge",
    "Frost", "Galaxy", "Garnet", "Glade", "Harbor", "Helix", "Horizon", "Index",
    "Iris", "Jade", "Kernel", "Lagoon", "Lantern", "Ledger", "Lumen", "Magnet",
    "Maple", "Matrix", "Meadow", "Nebula", "Nexus", "Nova", "Onyx", "Orbit",
    "Pillar", "Prism", "Quartz", "Quill", "Raven", "Ridge", "Saber", "Sierra",
    "Signal", "Sonar", "Spire", "Summit", "Tango", "Tundra", "Vertex", "Willow",
)


@dataclass
class Tally:
    """Operations attempted and failed; a failed output check is a failure."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def check(self, failures) -> None:
        self.failed += len(failures)
        self.failures.extend(failures)


@dataclass
class Run:
    root: Path  # the checkout
    work: Path  # this run's scratch directory, inside the checkout
    seed: int
    size: Size
    tally: Tally = field(default_factory=Tally)

    @property
    def corpus_dir(self) -> Path:
        return self.work / "corpus"

    @property
    def out_dir(self) -> Path:
        return self.work / "out"

    @property
    def config_path(self) -> Path:
        return self.work / "config.json"

    def write_config(self) -> None:
        """The run config. The corpus keeps the default generator seed, the
        one the paper's numbers are stated on; the workload seed drives the
        split, balancing, training and evaluation seeds. Early stopping is
        off so that every seed trains the same number of epochs."""
        config = {
            "corpus_dir": str(self.corpus_dir),
            "out_dir": str(self.out_dir),
            "gen": self.size.gen,
            "provider": {"kind": "hashed", "dimension": EMBED_DIM},
            "split": {"seed": self.seed},
            "balance": {"target_pairs_per_project": BALANCE_TARGET, "seed": self.seed},
            "train": {"epochs": self.size.epochs, "early_stop_patience": 0, "seed": self.seed},
            "eval": {"seed": self.seed},
        }
        self.work.mkdir(parents=True, exist_ok=True)
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=1)

    def cli_args(self, stage_args) -> list[str]:
        return ["--config", str(self.config_path), *stage_args]

    def child_env(self) -> dict:
        """The caller's environment with the checkout's sources importable;
        no tuning variable is set."""
        return dict(os.environ, PYTHONPATH=str(self.root / "src"))


@dataclass
class Samples:
    stages: dict = field(default_factory=lambda: defaultdict(list))  # name -> [s]
    peak_rss_mb: float = 0.0
    latencies_ms: list = field(default_factory=list)
    cold_rates: list = field(default_factory=list)  # labels/s per embed round
    warm_rates: list = field(default_factory=list)


# -- fixtures ---------------------------------------------------------------


def distinct_labels(rng: random.Random, n: int, words: int) -> list[str]:
    """n camel-case labels of `words` distinct words each; no two labels
    share a word set, so no two embed to the same bag of tokens."""
    seen: set[tuple[int, ...]] = set()
    out = []
    while len(out) < n:
        picked = rng.sample(range(len(WORDS)), words)
        bag = tuple(sorted(picked))
        if bag not in seen:
            seen.add(bag)
            out.append("".join(WORDS[i] for i in picked))
    return out


def rank_graphs(size: Size, seed: int) -> list:
    """Latest versions of a corpus with the workload's graph size, every
    node relabelled with a distinct seeded label (generated corpora repeat
    labels heavily, which would flatter any label memo). The graphs keep
    the generator's default seed, so every seed queries graphs of the same
    sizes; the seed picks the labels and, in RankClient, the anchors."""
    from focusrank import datagen, graphs

    gen = dict(size.gen, projects=RANK_PROJECTS)
    corpus, _ = datagen.build_corpus(datagen.GenConfig(**gen))
    latest = [corpus[name].versions[-1] for name in sorted(corpus)]
    labels = iter(distinct_labels(random.Random(f"rank:{seed}"), sum(map(len, latest)), 3))
    return [
        graphs.ModelGraph({v: next(labels) for v in sorted(g.node_ids)}, g.edges)
        for g in latest
    ]


class Stub:
    """The stub embeddings service, running in its own process."""

    def __init__(self, directory: Path, texts: list[str], vectors: np.ndarray):
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "texts.json", "w", encoding="utf-8") as fh:
            json.dump(texts, fh)
        np.save(directory / "vectors.npy", vectors)
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("stub_server.py")),
             str(directory / "texts.json"), str(directory / "vectors.npy")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        line = self.proc.stdout.readline()
        if not line.strip():
            self.close()
            raise RuntimeError("stub embeddings service did not start")
        self.url = f"http://127.0.0.1:{int(line)}/v1/embeddings"

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Fixture:
    graphs: list
    texts: list[str]
    vectors: np.ndarray
    stub: Stub


def set_up(run: Run) -> tuple[Fixture, float]:
    """Build the rank-query graphs, the stub's labels and vectors, and start
    the stub. Returns the fixture and the seconds it took."""
    start = time.perf_counter()
    graphs = rank_graphs(run.size, run.seed)
    texts = distinct_labels(random.Random(f"embed:{run.seed}"), EMBED_LABELS, 4)
    vectors = np.random.default_rng(run.seed).standard_normal((len(texts), EMBED_DIM))
    fixture = Fixture(graphs, texts, vectors, Stub(run.work / "stub", texts, vectors))
    return fixture, time.perf_counter() - start


# -- pipeline ---------------------------------------------------------------


def run_stage(run: Run, name: str, stage_args, samples: Samples) -> None:
    """One CLI stage as a subprocess, recording its wall time and peak RSS.

    The peak RSS is this child's own, read from wait4 on it; the
    RUSAGE_CHILDREN maximum would carry an earlier stage's peak forward.
    """
    log_path = run.work / "stages.log"
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", ENTRY, *run.cli_args(stage_args)],
            cwd=run.root, env=run.child_env(), stdout=log, stderr=log,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        samples.stages[name].append(time.perf_counter() - start)
    proc.returncode = os.waitstatus_to_exitcode(status)
    samples.peak_rss_mb = max(samples.peak_rss_mb, usage.ru_maxrss / 1024.0)
    if proc.returncode != 0:
        tail = log_path.read_bytes()[-400:].decode("utf-8", "replace")
        run.tally.op(False, f"stage {name} exited {proc.returncode}: {tail}")
    else:
        run.tally.op(True, "")


def measure(run: Run, fixture: Fixture, seconds: float) -> Samples:
    """`rounds` runs of the stage chain as subprocesses, so that each
    stage's runs spread over the whole benchmark run. After each stage comes
    a slot: `embed_rounds` embed rounds, then, from the first train on, at
    least SLOT_QUERIES rank queries. The rank slots together last at least
    `seconds`."""
    samples = Samples()
    rank_slots = run.size.rounds * len(STAGES) - [name for name, _ in STAGES].index("train")
    embed = EmbedClient(run, fixture)
    rank = None
    for _ in range(run.size.rounds):
        for name, stage_args in STAGES:
            run_stage(run, name, stage_args, samples)
            for _ in range(run.size.embed_rounds):
                embed.round(samples)
            if rank is None and name == "train":
                rank = RankClient(run, fixture.graphs)
            if rank is not None:
                samples.latencies_ms += rank.run(SLOT_QUERIES, seconds / rank_slots)
    return samples


def stage_in_process(run: Run, name: str, stage_args, tracer) -> float:
    """One stage through focusrank.cli.main inside a span; returns its wall
    time."""
    from focusrank import cli

    start = time.perf_counter()
    with tracer.span("stage." + name):
        try:
            code = cli.main(run.cli_args(stage_args))
        except Exception:  # a crashing stage is a failed operation
            traceback.print_exc()
            code = -1
    seconds = time.perf_counter() - start
    run.tally.op(code == 0, f"stage {name} exited {code}")
    gc.collect()
    return seconds


def check_pipeline(run: Run) -> None:
    try:
        expected = checks.expected_test_anchors(run.corpus_dir)
        for approach in APPROACHES:
            run.tally.check(checks.check_report(run.out_dir, approach, expected))
    except (OSError, ValueError, KeyError) as exc:
        run.tally.check([f"pipeline outputs unreadable: {exc!r}"])


def pipeline_quality(run: Run) -> tuple[float, int]:
    """(mean P@k of nextfocus, epochs trained)."""
    with open(run.out_dir / "report-nextfocus.json", "r", encoding="utf-8") as fh:
        p_at_k = json.load(fh)["mean_precision_over_k"]
    with open(run.out_dir / "checkpoint.json", "r", encoding="utf-8") as fh:
        epochs = len(json.load(fh)["history"])
    return p_at_k, epochs


def balanced_pairs(run: Run) -> int:
    """balance() resamples every project to exactly the target size."""
    return BALANCE_TARGET * len(list(run.corpus_dir.glob("proj*.json")))


# -- rank-query -------------------------------------------------------------


class RankClient:
    """One client of the rank-query loop, holding the trained model."""

    def __init__(self, run: Run, graphs: list):
        from focusrank import embedding, ranker

        self.tally = run.tally
        self.graphs = graphs
        self.nodes = [sorted(g.node_ids) for g in graphs]
        self.params = ranker.load_checkpoint(run.out_dir / "checkpoint.json").params
        self.provider = embedding.make_provider(
            embedding.ProviderConfig(kind="hashed", dimension=EMBED_DIM)
        )
        self.rng = random.Random(f"anchors:{run.seed}")
        self.checked = set(
            random.Random(f"checked:{run.seed}").sample(range(CHECK_WINDOW), CHECKED_QUERIES)
        )
        self.timed = 0

    def query(self, graph, anchor: str):
        """The calls `focusrank rank` makes for one anchor; returns the top
        k, the candidates and their embeddings (anchor first)."""
        from focusrank import evaluation, ranker

        candidates = sorted(graph.node_ids - {anchor})
        candidates = evaluation.radius_filter(graph, anchor, candidates, None)
        texts = [graph.label(anchor)] + [graph.label(c) for c in candidates]
        embs = self.provider.embed(texts)
        anchor_emb = np.tile(embs[0], (len(candidates), 1))
        probs = ranker.predict_proba(self.params, anchor_emb, embs[1:])
        ordered = sorted(zip(candidates, probs), key=lambda cp: (-cp[1], cp[0]))
        return [node for node, _ in ordered[:TOP_K]], candidates, embs

    def run(self, count: int, seconds: float) -> list[float]:
        """WARMUP_QUERIES untimed queries, then at least `count` timed ones
        lasting at least `seconds`; returns their latencies in ms. A full
        collection first, so that garbage left by the benchmark's own work
        is not collected inside a timed query."""
        gc.collect()
        latencies = []
        deadline = None
        done = -WARMUP_QUERIES
        while done < count or time.perf_counter() < deadline:
            if done == 0:
                deadline = time.perf_counter() + seconds
            done += 1
            g = self.rng.randrange(len(self.graphs))
            anchor = self.rng.choice(self.nodes[g])
            start = time.perf_counter()
            try:
                top, candidates, embs = self.query(self.graphs[g], anchor)
            except Exception as exc:  # a failing query is a failed operation
                self.tally.op(False, f"rank query {anchor}: {exc!r}")
                continue
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            self.tally.op(True, "")
            if done <= 0:
                continue
            latencies.append(elapsed_ms)
            if self.timed in self.checked:
                probs = checks.reference_proba(self.params, embs[0], np.stack(embs[1:]))
                self.tally.check(checks.check_top_k(top, candidates, probs))
            self.timed += 1
        return latencies


# -- embed-remote -----------------------------------------------------------


class EmbedClient:
    """Embed rounds against the stub: each round takes the next slice of the
    stub's labels, embeds it once into a fresh cache (all misses: batched
    POSTs plus cache writes) and then WARM_PASSES times more (all hits)."""

    def __init__(self, run: Run, fixture: Fixture):
        self.tally = run.tally
        self.work = run.work
        self.slice = run.size.embed_slice
        self.fixture = fixture
        self.rounds = 0
        self.last_cache: Path | None = None

    def _provider(self, cache_dir: Path):
        from focusrank import embedding

        return embedding.make_provider(embedding.ProviderConfig(
            kind="remote", dimension=EMBED_DIM, cache_dir=str(cache_dir),
            remote=embedding.RemoteConfig(endpoint=self.fixture.stub.url, model="perfbench-stub"),
        ))

    def _embed(self, provider, texts) -> tuple[float, list]:
        """One embed call: (seconds, vectors with None where it failed),
        after a full collection as in RankClient.run."""
        from focusrank.errors import FocusRankError

        gc.collect()
        start = time.perf_counter()
        try:
            got = list(provider.embed(texts))
        except FocusRankError as exc:
            self.tally.op(False, f"embed call failed: {exc!r}")
            return time.perf_counter() - start, [None] * len(texts)
        seconds = time.perf_counter() - start
        self.tally.op(len(got) == len(texts), f"embed returned {len(got)} of {len(texts)}")
        return seconds, (got + [None] * len(texts))[: len(texts)]

    def round(self, samples: Samples) -> None:
        lo = self.rounds * self.slice % (len(self.fixture.texts) - self.slice + 1)
        texts = self.fixture.texts[lo : lo + self.slice]
        want = list(self.fixture.vectors[lo : lo + self.slice])
        self.last_cache = self.work / f"embed-cache-{self.rounds}"
        shutil.rmtree(self.last_cache, ignore_errors=True)
        self.rounds += 1
        provider = self._provider(self.last_cache)

        seconds, cold = self._embed(provider, texts)
        samples.cold_rates.append(len(texts) / seconds)
        self.tally.check(mismatches(cold, want, "cold pass vs stub"))
        warm_s = 0.0
        for _ in range(WARM_PASSES):
            seconds, warm = self._embed(provider, texts)
            warm_s += seconds
            self.tally.check(mismatches(warm, cold, "warm pass vs cold pass"))
        samples.warm_rates.append(WARM_PASSES * len(texts) / warm_s)


def mismatches(got: list, want: list, what: str) -> list[str]:
    bad = sum(1 for g, w in zip(got, want) if g is None or w is None or not np.array_equal(g, w))
    return [f"{what}: {bad} of {len(got)} vectors differ"] if bad else []


def tree_bytes(path: Path, pattern: str = "*") -> int:
    return sum(p.stat().st_size for p in Path(path).glob(pattern) if p.is_file())
