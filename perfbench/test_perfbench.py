"""Self-tests for the benchmark's own logic.

Run from the repository root: PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, layers
from perfbench.measure import highest_percentile, percentile
from perfbench.spans import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent


def scripted_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 6]
    tracer = Tracer(clock=scripted_clock([0, 1, 2, 3, 4, 5, 6, 10]))
    with tracer.span("outer"):
        with tracer.span("a"):
            with tracer.span("g"):
                pass
        with tracer.span("b"):
            pass
    totals = tracer.totals()
    assert totals["outer"] == {"calls": 1, "total_s": 10, "self_s": 6}
    assert totals["a"] == {"calls": 1, "total_s": 3, "self_s": 2}
    assert totals["g"]["self_s"] == 1
    assert totals["b"]["self_s"] == 1
    assert [span[3] for span in tracer.spans] == [-1, 0, 1, 0]


def test_wrapped_calls_nest_count_and_restore():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2  # looks ns.inner up at call time
    original_inner = ns.inner
    tracer = Tracer()
    assert tracer.wrap(ns, "inner", "inner", lambda t, args, r: t.count("seen", args[0]))
    assert tracer.wrap(ns, "outer", "outer")
    assert not tracer.wrap(ns, "missing", "missing")
    assert ns.outer(3) == 8
    assert ns.outer(4) == 10
    totals = tracer.totals()
    assert totals["outer"]["calls"] == totals["inner"]["calls"] == 2
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["total_s"] - totals["inner"]["total_s"]
    )
    assert tracer.counters["seen"] == 7
    tracer.restore()
    assert ns.inner is original_inner


def test_wrapped_errors_are_counted_and_raised():
    ns = types.SimpleNamespace(fail=lambda: 1 / 0)
    tracer = Tracer()
    tracer.wrap(ns, "fail", "fail")
    with pytest.raises(ZeroDivisionError):
        ns.fail()
    assert tracer.counters["fail.errors"] == 1
    assert summarize(tracer.spans)["fail"]["calls"] == 1


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_highest_percentile_needs_ten_samples_beyond(n, expected):
    assert highest_percentile(n) == expected


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([4, 1, 3, 2], 50) == 2


def write_project(path: Path, name: str, versions) -> None:
    record = {
        "project": name,
        "versions": [
            {
                "nodes": [{"id": v, "label": label} for v, label in sorted(labels.items())],
                "edges": [{"src": s, "dst": d, "label": lab} for s, d, lab in sorted(edges)],
            }
            for labels, edges in versions
        ],
    }
    path.write_text(json.dumps(record), encoding="utf-8")


# v0 -> v1 relabels b and adds e under d. Changed {b, e}; preserved {a, c, d};
# a's successor b changed and d's successor e changed, c's successor d did not.
V0 = ({"a": "A", "b": "B", "c": "C", "d": "D"},
      {("a", "b", "x"), ("b", "c", "x"), ("c", "d", "x")})
V1 = ({"a": "A", "b": "B2", "c": "C", "d": "D", "e": "E"},
      {("a", "b", "x"), ("b", "c", "x"), ("c", "d", "x"), ("d", "e", "y")})


def test_brute_force_positive_count_on_hand_built_corpus(tmp_path):
    assert checks.count_anchor(V0, V1) == ("b", 3, 2)
    assert checks.count_anchor(V0, V0) is None
    write_project(tmp_path / "p1.json", "p1", [V0, V0, V1])
    write_project(tmp_path / "p2.json", "p2", [V1, V0])  # b relabelled, e removed
    write_project(tmp_path / "p3.json", "p3", [V0, V0])  # last diff changes nothing
    (tmp_path / "manifest.json").write_text("{}", encoding="utf-8")
    # p2: changed {b, e}; preserved {a, c, d}; in v0 a -> b is positive, and
    # d lost its edge to e, so only a counts.
    assert checks.expected_test_anchors(tmp_path) == {
        ("p1", 1): ("b", 3, 2),
        ("p2", 0): ("b", 3, 1),
    }


def test_report_check_flags_wrong_counts_and_means(tmp_path):
    expected = {("p1", 1): ("b", 3, 2)}
    header = "approach,tau,project,diff,anchor,k,precision,n_candidates,n_positives,prevalence\n"
    rows = "".join(
        f"x,,p1,1,b,{k},{1.0 if k == 1 else 0.5},3,2,0.6\n" for k in range(1, 11)
    )
    (tmp_path / "report-x.csv").write_text(header + rows, encoding="utf-8")
    (tmp_path / "report-x.json").write_text(json.dumps({"mean_precision_over_k": 0.55}))
    assert checks.check_report(tmp_path, "x", expected) == []
    (tmp_path / "report-x.json").write_text(json.dumps({"mean_precision_over_k": 0.6}))
    assert len(checks.check_report(tmp_path, "x", expected)) == 1
    assert len(checks.check_report(tmp_path, "x", {("p1", 1): ("b", 3, 1)})) == 2


def test_reference_forward_matches_the_ranker():
    ranker = pytest.importorskip("focusrank.ranker")
    params = ranker.init_params(16, 8, 1.0, seed=3)
    params.w_out = np.random.default_rng(4).normal(size=8)
    params.b_out = 0.25
    rng = np.random.default_rng(5)
    anchor = rng.normal(size=16)
    cands = rng.normal(size=(7, 16))
    want = ranker.predict_proba(params, np.tile(anchor, (7, 1)), cands)
    np.testing.assert_allclose(checks.reference_proba(params, anchor, cands), want, rtol=1e-12)


def test_top_k_check_allows_only_near_ties():
    cands = ["a", "b", "c", "d"]
    probs = np.array([0.1, 0.9, 0.5, 0.5])
    assert checks.check_top_k(["b", "c", "d"], cands, probs) == []
    assert checks.check_top_k(["b", "d", "c"], cands, probs) == []  # exact tie
    assert checks.check_top_k(["c", "b", "d"], cands, probs) != []
    assert checks.check_top_k(["b", "c", "c"], cands, probs) != []


def test_benchmark_json_lists_the_metrics_the_run_reports():
    from perfbench import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.workloads.WORKLOADS)
