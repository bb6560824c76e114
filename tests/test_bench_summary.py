"""tools/bench_summary.py folds perfbench result files into one summary."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_summary.py"
_spec = importlib.util.spec_from_file_location("bench_summary", SCRIPT)
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)

ENV = {"nproc": 2, "cpu": "Test CPU", "python": "3.11.7", "numpy": "2.4.6", "blas": "openblas 0.3",
       "blas_threads": "2", "blas_thread_env": {}, "src_lines": 3218}


def result(seed, train_s, p_at_k, stage_train, failed=0):
    """One run's result file as `perfbench/run.py --trace 0` writes it."""
    return {
        "environment": {**ENV, "seed": seed},
        "result": {
            "correct": failed == 0, "attempted": 40, "failed": failed,
            "metrics": {"train_s": {"value": train_s, "unit": "s"},
                        "p_at_k_nextfocus": {"value": p_at_k, "unit": "ratio"}},
        },
        "failures": [],
        "wall_s": 30.0,
        "stage_s": {"gen": 0.25, "train": stage_train},
        "queries": 100,
    }


def write(tmp_path, name, record):
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return str(path)


def test_two_runs_fold_into_medians_and_iqrs(tmp_path):
    paths = [
        write(tmp_path, "pipeline-default-seed902-trace0.json", result(902, 1.5, 0.9, 1.25, failed=1)),
        write(tmp_path, "pipeline-default-seed901-trace0.json", result(901, 1.0, 0.8, 0.75)),
    ]
    out = tmp_path / "BENCH_1.json"
    assert bench_summary.main([str(out), *paths]) == 0
    summary = json.loads(out.read_text())
    assert summary == {"workloads": {"pipeline-default": {
        "seeds": [901, 902],
        "runs": 2,
        "correct": False,
        "failed_operations": 1,
        # two values: the median is their mean, the quartiles are 1/4 and 3/4 of the way
        "end_to_end": {"train_s": {"median": 1.25, "iqr": 0.25, "unit": "s"},
                       "p_at_k_nextfocus": {"median": pytest.approx(0.85), "iqr": pytest.approx(0.05),
                                            "unit": "ratio"}},
        "stage_s": {"gen": 0.25, "train": 1.0},
        "p_at_k_nextfocus": pytest.approx(0.85),
        "src_lines": 3218,
        "environment": ENV,
    }}}


def test_workloads_are_summarized_apart(tmp_path):
    paths = [write(tmp_path, f"{w}-seed901-trace0.json", result(901, t, 0.5, t))
             for w, t in (("pipeline-default", 1.0), ("pipeline-scale", 2.0))]
    workloads = bench_summary.bench_summary(paths)["workloads"]
    assert sorted(workloads) == ["pipeline-default", "pipeline-scale"]
    assert workloads["pipeline-scale"]["end_to_end"]["train_s"] == {"median": 2.0, "iqr": 0.0, "unit": "s"}


@pytest.mark.parametrize("name, edit, message", [
    ("pipeline-default-seed902-trace1.json", {}, "not named <workload>-seed<n>-trace0.json"),
    ("pipeline-default-seed902-trace0.json", {"environment": {**ENV, "seed": 902, "src_lines": 9}},
     "pipeline-default: the runs differ in environment or src_lines"),
    ("pipeline-default-seed902-trace0.json", {"environment": {**ENV, "seed": 901}},
     "pipeline-default: a seed is given twice ([901, 901])"),
    ("pipeline-default-seed902-trace0.json", {"stage_s": {"gen": 0.25}},
     "pipeline-default: the runs do not all report 'train'"),
    ("pipeline-default-seed902-trace0.json", {"result": None}, "not a perfbench result file"),
])
def test_runs_that_do_not_fold_are_refused_in_one_line(tmp_path, capsys, name, edit, message):
    paths = [write(tmp_path, "pipeline-default-seed901-trace0.json", result(901, 1.0, 0.8, 0.75)),
             write(tmp_path, name, {**result(902, 1.5, 0.9, 1.25), **edit})]
    out = tmp_path / "BENCH_1.json"
    assert bench_summary.main([str(out), *paths]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("bench_summary: ") and message in line
    assert not out.exists()
