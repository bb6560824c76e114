"""Fold perfbench result files into one BENCH_<n>.json.

    python tools/bench_summary.py BENCH_1.json .bench_runs/results/*-trace0.json

Each input is one untraced run, `<workload>-seed<n>-trace0.json`, as
`perfbench/run.py --trace 0` writes it. Per workload the summary holds the
seeds, the run and failed-operation counts, the median and interquartile
range of each end-to-end metric, the median of each stage's seconds, the
median `p_at_k_nextfocus`, and the environment the runs share, `src_lines`
included. Runs of one workload must share that environment: a summary
never mixes machines or source trees. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

RESULT_NAME = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json")


class SummaryError(Exception):
    """An input that cannot be summarized; the text names the file or workload."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), linearly interpolated
    between the sorted values; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def read_run(path: Path) -> tuple[str, dict]:
    """(workload, run record) of one result file."""
    match = RESULT_NAME.fullmatch(path.name)
    if not match:
        raise SummaryError(f"{path}: not named <workload>-seed<n>-trace0.json")
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
        env, result = record["environment"], record["result"]
        metrics = {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}
        run = {"env": env, "failed": result["failed"], "correct": result["correct"],
               "metrics": metrics, "stage_s": record["stage_s"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SummaryError(f"{path}: not a perfbench result file ({exc!r})") from None
    return match["workload"], run


def summarize(workload: str, runs: list[dict]) -> dict:
    """One workload's summary of its runs."""
    seeds = sorted(run["env"]["seed"] for run in runs)
    if len(set(seeds)) < len(seeds):
        raise SummaryError(f"{workload}: a seed is given twice ({seeds})")
    shared = {k: v for k, v in runs[0]["env"].items() if k != "seed"}
    if any({k: v for k, v in run["env"].items() if k != "seed"} != shared for run in runs):
        raise SummaryError(f"{workload}: the runs differ in environment or src_lines")
    metrics = {}
    for name, (_, unit) in runs[0]["metrics"].items():
        q1, median, q3 = quartiles([run["metrics"][name][0] for run in runs])
        metrics[name] = {"median": median, "iqr": q3 - q1, "unit": unit}
    stages = runs[0]["stage_s"]
    return {
        "seeds": seeds,
        "runs": len(runs),
        "correct": all(run["correct"] for run in runs),
        "failed_operations": sum(run["failed"] for run in runs),
        "end_to_end": metrics,
        "stage_s": {name: statistics.median(run["stage_s"][name] for run in runs) for name in stages},
        "p_at_k_nextfocus": metrics["p_at_k_nextfocus"]["median"],
        "src_lines": shared["src_lines"],
        "environment": shared,
    }


def bench_summary(paths) -> dict:
    by_workload: dict[str, list[dict]] = {}
    for path in sorted(map(Path, paths)):
        workload, run = read_run(path)
        by_workload.setdefault(workload, []).append(run)
    if not by_workload:
        raise SummaryError("no result files given")
    summaries = {}
    for name, runs in sorted(by_workload.items()):
        try:
            summaries[name] = summarize(name, runs)
        except KeyError as exc:  # a metric or stage one run lacks
            raise SummaryError(f"{name}: the runs do not all report {exc}") from None
    return {"workloads": summaries}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="the BENCH_<n>.json to write")
    parser.add_argument("results", nargs="+", help="perfbench result files, trace 0")
    args = parser.parse_args(argv)
    try:
        summary = bench_summary(args.results)
    except SummaryError as exc:
        print(f"bench_summary: {exc}", file=sys.stderr)
        return 1
    Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
