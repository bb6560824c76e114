"""Where the traced run wraps focusrank, and the per-layer metrics it yields.

Each function is wrapped at the name its caller looks up: a name imported
into ``focusrank.cli`` is wrapped there, a module global such as
``focusrank.ranker.grad`` (looked up by ``ranker.train``) in its own module,
and methods on their class.
"""

from __future__ import annotations

import json
import urllib.request

from .spans import Tracer

# (name, unit) in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.gen_s", "s"),
    ("cli.prepare_s", "s"),
    ("cli.train_s", "s"),
    ("cli.eval_nextfocus_s", "s"),
    ("cli.eval_semantic_s", "s"),
    ("cli.eval_cochange_s", "s"),
    ("cli.eval_random_s", "s"),
    ("graphs.load_corpus_s", "s"),
    ("graphs.load_corpus_calls", "count"),
    ("graphs.diff_s", "s"),
    ("graphs.diff_calls", "count"),
    ("graphs.union_graph_s", "s"),
    ("graphs.save_project_s", "s"),
    ("graphs.corpus_bytes", "bytes"),
    ("graphs.distances_from_s", "s"),
    ("graphs.distances_from_calls", "count"),
    ("dataset.label_pairs_s", "s"),
    ("dataset.pairs_labeled", "count"),
    ("dataset.save_pairs_s", "s"),
    ("dataset.pairs_bytes", "bytes"),
    ("dataset.load_pairs_s", "s"),
    ("dataset.pairs_loaded", "count"),
    ("dataset.balance_s", "s"),
    ("embedding.embed_s", "s"),
    ("embedding.embed_calls", "count"),
    ("embedding.texts_embedded", "count"),
    ("embedding.distinct_text_ratio", "ratio"),
    ("embedding.http_posts", "count"),
    ("embedding.http_failed", "count"),
    ("embedding.cache_hits", "count"),
    ("embedding.cache_misses", "count"),
    ("embedding.cache_bytes", "bytes"),
    ("embed_cold_labels_per_s", "1/s"),
    ("ranker.grad_s", "s"),
    ("ranker.grad_calls", "count"),
    ("ranker.forward_s", "s"),
    ("ranker.forward_calls", "count"),
    ("ranker.train_self_s", "s"),
    ("ranker.epochs", "count"),
    ("ranker.predict_proba_s", "s"),
    ("query_p99_ms", "ms"),
    ("ranker.save_checkpoint_s", "s"),
    ("ranker.load_checkpoint_s", "s"),
    ("baselines.build_cochange_s", "s"),
    ("baselines.cochange_entries", "count"),
    ("evaluation.evaluate_s", "s"),
    ("evaluation.anchors_scored", "count"),
    ("evaluation.anchors_skipped", "count"),
    ("evaluation.radius_filter_s", "s"),
    ("datagen.build_corpus_s", "s"),
    ("datagen.describe_s", "s"),
    ("trace.overhead_s", "s"),
)


def install(tracer: Tracer) -> None:
    """Wrap every traced function; `tracer.restore()` undoes it. Installing
    again after a restore keeps adding to the same spans and counters."""
    from focusrank import cli, datagen, embedding, evaluation, graphs, ranker

    def count_len(counter):
        return lambda t, args, result: t.count(counter, len(result))

    def hashed_texts(t, args, result):
        t.count("embedding.texts_embedded", len(args[1]))
        t.distinct["embedding.texts"].update(args[1])

    def posted(t, args, result):
        t.count("embedding.texts_posted", len(json.loads(args[0].data)["input"]))

    def evaluated(t, args, report):
        t.count("evaluation.anchors_scored", len(report.results))
        t.count("evaluation.anchors_skipped", report.skipped_no_positive + report.skipped_no_anchor)

    w = tracer.wrap
    w(cli, "load_corpus", "graphs.load_corpus")
    w(graphs, "diff", "graphs.diff")
    for module in (cli, evaluation):
        w(module, "union_graph", "graphs.union_graph")
    w(datagen, "save_project", "graphs.save_project")
    w(graphs.ModelGraph, "distances_from", "graphs.distances_from")
    for module in (cli, evaluation, datagen):
        w(module, "label_pairs", "dataset.label_pairs", count_len("dataset.pairs_labeled"))
    w(cli, "save_pairs", "dataset.save_pairs")
    w(cli, "load_pairs", "dataset.load_pairs", count_len("dataset.pairs_loaded"))
    w(cli, "balance", "dataset.balance")
    w(embedding.HashedProvider, "embed", "embedding.embed", hashed_texts)
    w(embedding.RemoteProvider, "embed", "embedding.remote_embed", count_len("embedding.texts_requested"))
    w(urllib.request, "urlopen", "embedding.http_post", posted)
    w(ranker, "train", "ranker.train", lambda t, args, ckpt: t.count("ranker.epochs", len(ckpt.history)))
    w(ranker, "grad", "ranker.grad")
    w(ranker, "forward", "ranker.forward")
    w(ranker, "predict_proba", "ranker.predict_proba")
    w(ranker, "save_checkpoint", "ranker.save_checkpoint")
    w(ranker, "load_checkpoint", "ranker.load_checkpoint")
    w(cli, "build_cochange", "baselines.build_cochange", count_len("baselines.cochange_entries"))
    w(evaluation, "evaluate", "evaluation.evaluate", evaluated)
    w(evaluation, "radius_filter", "evaluation.radius_filter")
    w(datagen, "build_corpus", "datagen.build_corpus")
    w(datagen, "describe", "datagen.describe")


def metrics(tracer: Tracer, extra: dict) -> dict[str, float]:
    """Per-layer values from the spans and counters, plus `extra` (values
    measured outside the spans: import time, file sizes, overhead)."""
    totals = tracer.totals()
    c = tracer.counters

    def total(name):
        return totals.get(name, {}).get("total_s", 0.0)

    def self_time(name):
        return totals.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    texts = c.get("embedding.texts_embedded", 0)
    misses = c.get("embedding.texts_posted", 0)
    values = {
        "graphs.load_corpus_s": total("graphs.load_corpus"),
        "graphs.load_corpus_calls": calls("graphs.load_corpus"),
        "graphs.diff_s": total("graphs.diff"),
        "graphs.diff_calls": calls("graphs.diff"),
        "graphs.union_graph_s": total("graphs.union_graph"),
        "graphs.save_project_s": total("graphs.save_project"),
        "graphs.distances_from_s": total("graphs.distances_from"),
        "graphs.distances_from_calls": calls("graphs.distances_from"),
        "dataset.label_pairs_s": total("dataset.label_pairs"),
        "dataset.pairs_labeled": c.get("dataset.pairs_labeled", 0),
        "dataset.save_pairs_s": total("dataset.save_pairs"),
        "dataset.load_pairs_s": total("dataset.load_pairs"),
        "dataset.pairs_loaded": c.get("dataset.pairs_loaded", 0),
        "dataset.balance_s": total("dataset.balance"),
        "embedding.embed_s": total("embedding.embed"),
        "embedding.embed_calls": calls("embedding.embed"),
        "embedding.texts_embedded": texts,
        "embedding.distinct_text_ratio": len(tracer.distinct["embedding.texts"]) / texts if texts else 0.0,
        "embedding.http_posts": calls("embedding.http_post"),
        "embedding.http_failed": c.get("embedding.http_post.errors", 0),
        "embedding.cache_hits": c.get("embedding.texts_requested", 0) - misses,
        "embedding.cache_misses": misses,
        "ranker.grad_s": total("ranker.grad"),
        "ranker.grad_calls": calls("ranker.grad"),
        "ranker.forward_s": total("ranker.forward"),
        "ranker.forward_calls": calls("ranker.forward"),
        "ranker.train_self_s": self_time("ranker.train"),
        "ranker.epochs": c.get("ranker.epochs", 0),
        "ranker.predict_proba_s": total("ranker.predict_proba"),
        "ranker.save_checkpoint_s": total("ranker.save_checkpoint"),
        "ranker.load_checkpoint_s": total("ranker.load_checkpoint"),
        "baselines.build_cochange_s": total("baselines.build_cochange"),
        "baselines.cochange_entries": c.get("baselines.cochange_entries", 0),
        "evaluation.evaluate_s": self_time("evaluation.evaluate"),
        "evaluation.anchors_scored": c.get("evaluation.anchors_scored", 0),
        "evaluation.anchors_skipped": c.get("evaluation.anchors_skipped", 0),
        "evaluation.radius_filter_s": total("evaluation.radius_filter"),
        "datagen.build_corpus_s": total("datagen.build_corpus"),
        "datagen.describe_s": total("datagen.describe"),
    }
    values.update(extra)
    return values
