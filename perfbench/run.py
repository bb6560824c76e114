"""focusrank benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload pipeline-default --seed 1 --seconds 5 --trace 0

With ``--trace 0`` it reports the end-to-end metrics, measured with tracing
off; with ``--trace 1`` it runs the same work in-process with every layer
wrapped in spans and reports the per-layer metrics. The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it records
the run environment. Details, spans included, go to
``.bench_runs/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import layers, workloads  # noqa: E402
from perfbench.measure import highest_percentile, percentile  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402

# (name, unit) in the order BENCHMARK.json lists them.
END_TO_END = (
    ("setup_s", "s"),
    ("train_s", "s"),
    ("pipeline_s", "s"),
    ("peak_rss_mb", "MB"),
    ("train_pairs_per_s", "1/s"),
    ("p_at_k_nextfocus", "ratio"),
    ("query_p50_ms", "ms"),
    ("embed_warm_labels_per_s", "1/s"),
)

SETUP_REPEATS = 3
IMPORT_REPEATS = 5


def import_seconds(run: workloads.Run) -> float:
    """Median time a fresh interpreter takes to `import focusrank.cli`."""
    code = (
        "import time; t = time.perf_counter(); import focusrank.cli; "
        "print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code], env=run.child_env(), cwd=run.root,
            capture_output=True, text=True, check=True,
        )
        samples.append(float(out.stdout))
    return statistics.median(samples)


def blas_threads() -> str:
    """OpenBLAS's thread count as the loaded library reports it."""
    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps", "r", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                return str(getter())
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "blas_thread_env": {
            k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "seed": seed,
        "src_lines": src_lines,
    }


def end_to_end(run: workloads.Run, seconds: float) -> tuple[dict, dict]:
    fixture, first_setup_s = workloads.set_up(run)
    try:
        samples = workloads.measure(run, fixture, seconds)
    finally:
        fixture.stub.close()
    workloads.check_pipeline(run)
    p_at_k, epochs = workloads.pipeline_quality(run)
    setup_samples = [first_setup_s]
    for _ in range(SETUP_REPEATS - 1):
        fixture, setup_s = workloads.set_up(run)
        fixture.stub.close()
        setup_samples.append(setup_s)

    latencies = samples.latencies_ms
    stage_s = {name: statistics.median(times) for name, times in samples.stages.items()}
    values = {
        "setup_s": statistics.median(setup_samples),
        "train_s": stage_s["train"],
        "pipeline_s": sum(stage_s.values()),
        "peak_rss_mb": samples.peak_rss_mb,
        "train_pairs_per_s": workloads.balanced_pairs(run) * epochs / stage_s["train"],
        "p_at_k_nextfocus": p_at_k,
        "query_p50_ms": percentile(latencies, 50),
        "embed_warm_labels_per_s": statistics.median(samples.warm_rates),
    }
    details = {
        "stage_s": stage_s,
        "setup_samples_s": setup_samples,
        "stage_samples_s": samples.stages,
        "queries": len(latencies),
        "query_p99_ms": percentile(latencies, 99),
        "cold_rates": samples.cold_rates,
        "warm_rates": samples.warm_rates,
        "epochs": epochs,
    }
    return values, details


def traced(run: workloads.Run) -> tuple[dict, dict, Tracer]:
    """Per-layer metrics from one traced pass over every phase, making a
    fixed amount of work so that sums compare across runs.

    Each pipeline stage runs in-process twice, with and without spans, in
    alternating order so that warm-up favours neither; the tracing overhead
    is the summed difference.
    """
    import_s = import_seconds(run)
    fixture, _ = workloads.set_up(run)
    tracer = Tracer()
    plain_s, traced_s = {}, {}
    try:
        for i, (name, stage_args) in enumerate(workloads.STAGES):
            for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
                if with_spans:
                    layers.install(tracer)
                try:
                    seconds = workloads.stage_in_process(
                        run, name, stage_args, tracer if with_spans else Tracer()
                    )
                finally:
                    tracer.restore()
                (traced_s if with_spans else plain_s)[name] = seconds
        layers.install(tracer)
        try:
            latencies = workloads.RankClient(run, fixture.graphs).run(workloads.TRACED_QUERIES, 0.0)
            embed = workloads.EmbedClient(run, fixture)
            embed_samples = workloads.Samples()
            for _ in range(workloads.TRACED_EMBED_ROUNDS):
                embed.round(embed_samples)
        finally:
            tracer.restore()
    finally:
        fixture.stub.close()
    workloads.check_pipeline(run)
    if (highest_percentile(len(latencies)) or 0) < 99:
        run.tally.check([f"{len(latencies)} timed queries are too few for a p99"])
    values = layers.metrics(tracer, {
        "cli.import_s": import_s,
        "graphs.corpus_bytes": workloads.tree_bytes(run.corpus_dir, "*.json"),
        "dataset.pairs_bytes": workloads.tree_bytes(run.out_dir, "pairs*.jsonl"),
        "embedding.cache_bytes": workloads.tree_bytes(embed.last_cache),
        "query_p99_ms": percentile(latencies, 99),
        "embed_cold_labels_per_s": statistics.median(embed_samples.cold_rates),
        **{f"cli.{name}_s": seconds for name, seconds in plain_s.items()},
        "trace.overhead_s": sum(traced_s.values()) - sum(plain_s.values()),
    })
    details = {
        "traced_stage_s": traced_s,
        "untraced_stage_s": plain_s,
        "span_totals": tracer.totals(),
    }
    return values, details, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum total length of the rank-query slots")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "focusrank" / "cli.py").is_file():
        print(f"perfbench: no focusrank sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)

    results_dir = ROOT / ".bench_runs" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run = workloads.Run(
        root=ROOT,
        work=ROOT / ".bench_runs" / f"{tag}-{os.getpid()}",
        seed=args.seed,
        size=workloads.WORKLOADS[args.workload],
    )
    env = environment(args.seed)
    started = time.perf_counter()
    try:
        run.write_config()
        if args.trace:
            values, details, tracer = traced(run)
            tracer.dump(results_dir / f"{tag}.spans.json")
            names = layers.PER_LAYER
        else:
            values, details = end_to_end(run, args.seconds)
            names = END_TO_END
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    tally = run.tally
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }
    with open(results_dir / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({
            "environment": env,
            "result": result,
            "failures": tally.failures,
            "wall_s": time.perf_counter() - started,
            **details,
        }, fh, indent=1)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
