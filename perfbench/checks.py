"""Output checks written without the code under test.

The positive counts come from the raw corpus JSON with plain sets, not from
``focusrank.graphs`` or ``label_pairs``; the rank check runs its own NumPy
forward pass over the checkpoint's parameters. Each function returns a list
of failure messages, empty when the output is right.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

K_MAX = 10


def read_versions(path) -> tuple[str, list[tuple[dict, set]]]:
    """A project file as (name, [(labels by node id, edge triples), ...])."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    versions = []
    for version in raw["versions"]:
        labels = {node["id"]: node["label"] for node in version["nodes"]}
        edges = {(e["src"], e["dst"], e["label"]) for e in version["edges"]}
        versions.append((labels, edges))
    return raw["project"], versions


def count_anchor(old, new) -> tuple[str, int, int] | None:
    """(anchor, candidates, positives) for the diff old -> new, or None
    when no node changed.

    A node is changed when it exists in one version only or its label
    differs; preserved nodes are the candidates. A candidate is positive iff
    one of its target-version successors is changed. The anchor is the
    smallest changed node id.
    """
    old_labels, _ = old
    new_labels, new_edges = new
    changed = {
        v for v in old_labels.keys() | new_labels.keys()
        if old_labels.get(v) != new_labels.get(v)
    }
    if not changed:
        return None
    preserved = (old_labels.keys() & new_labels.keys()) - changed
    successors = defaultdict(set)
    for src, dst, _ in new_edges:
        successors[src].add(dst)
    positives = sum(1 for v in preserved if successors[v] & changed)
    return min(changed), len(preserved), positives


def expected_test_anchors(corpus_dir) -> dict[tuple[str, int], tuple[str, int, int]]:
    """Per temporal test item (each project's last diff): the anchor and its
    candidate and positive counts, for anchors that have a positive."""
    expected = {}
    for path in sorted(Path(corpus_dir).glob("*.json")):
        if path.name == "manifest.json":
            continue
        name, versions = read_versions(path)
        last = len(versions) - 2
        counted = count_anchor(versions[last], versions[last + 1])
        if counted is not None and counted[2] > 0:
            expected[(name, last)] = counted
    return expected


def check_report(out_dir, approach: str, expected) -> list[str]:
    """report-<approach>.csv against the brute-force counts, and
    report-<approach>.json's mean precision against the CSV rows."""
    out_dir = Path(out_dir)
    failures = []
    rows_by_anchor = defaultdict(list)
    with open(out_dir / f"report-{approach}.csv", "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            rows_by_anchor[(row["project"], int(row["diff"]))].append(row)
    if set(rows_by_anchor) != set(expected):
        failures.append(
            f"{approach}: report covers {sorted(rows_by_anchor)}, expected {sorted(expected)}"
        )
    precisions = []
    for key, rows in sorted(rows_by_anchor.items()):
        precisions.extend(float(row["precision"]) for row in rows)
        if key not in expected:
            continue
        anchor, n_candidates, n_positives = expected[key]
        got = {(r["anchor"], int(r["n_candidates"]), int(r["n_positives"])) for r in rows}
        if got != {(anchor, n_candidates, n_positives)} or len(rows) != K_MAX:
            failures.append(
                f"{approach} {key}: rows say {sorted(got)} x{len(rows)}, "
                f"brute force says {(anchor, n_candidates, n_positives)} x{K_MAX}"
            )
    with open(out_dir / f"report-{approach}.json", "r", encoding="utf-8") as fh:
        reported = json.load(fh)["mean_precision_over_k"]
    csv_mean = sum(precisions) / len(precisions) if precisions else 0.0
    if not math.isclose(reported, csv_mean, rel_tol=1e-12, abs_tol=1e-12):
        failures.append(f"{approach}: json mean {reported!r} != csv mean {csv_mean!r}")
    return failures


def reference_proba(params, anchor: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """The ranker's forward pass, written out: a two-token sequence
    (anchor, candidate), one scaled dot-product self-attention layer, mean
    pooling and a linear head, then the logistic function."""
    cands = np.asarray(cands, dtype=np.float64)
    x = np.stack([np.broadcast_to(anchor, cands.shape), cands], axis=1)  # (n, 2, d)
    q = np.einsum("ntd,dh->nth", x, params.wq)
    k = np.einsum("ntd,dh->nth", x, params.wk)
    v = np.einsum("ntd,dh->nth", x, params.wv)
    scores = np.einsum("nih,njh->nij", q, k) / math.sqrt(q.shape[-1])
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights /= weights.sum(axis=-1, keepdims=True)
    pooled = np.einsum("nij,njh->nih", weights, v).mean(axis=1)  # (n, h)
    logits = pooled @ params.w_out + params.b_out
    return 1.0 / (1.0 + np.exp(-logits))


def check_top_k(got: list[str], candidates: list[str], probs: np.ndarray, tol: float = 1e-9) -> list[str]:
    """`got` must be the top len(got) of `candidates` by descending `probs`,
    ties by id; a position may hold another id only when the two reference
    probabilities agree within `tol`."""
    by_id = dict(zip(candidates, probs))
    want = sorted(candidates, key=lambda c: (-by_id[c], c))[: len(got)]
    for g, w in zip(got, want):
        if g != w and (g not in by_id or abs(by_id[g] - by_id[w]) > tol):
            return [f"top-{len(got)} {got} != reference {want}"]
    if len(set(got)) != len(got):
        return [f"top-{len(got)} {got} repeats a node"]
    return []
