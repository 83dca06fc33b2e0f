#!/usr/bin/env python3
"""Run the benchmark over many seeds and report each metric's spread.

    python3 perfbench/prove.py --first-seed 1 --out results.json

For every workload in BENCHMARK.json this runs `perfbench/run.py` for
`run_seconds` once per seed, ten seeds from `--first-seed`, with tracing
off, one run at a time, then once with tracing on. For each end-to-end
metric it reports the median of the runs and the distance between the
first and third quartile as a share of that median, next to the bound
that BENCHMARK.json fixes for the metric.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {out.returncode}: {out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record_path = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(record_path.read_text(encoding="utf-8"))
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": record["metrics"],
        "transitions_sha256": record["transitions_sha256"],
        "environment": record["environment"],
        "failures": record["failures"],
        "missing": record["missing"],
        "elapsed_s": record["elapsed_s"],
    }


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary: dict = {"seconds": seconds, "runs": RUNS, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: {runs[-1]['metrics']}", flush=True)
        stats = {}
        for name, bound in bounds.items():
            stats[name] = spread([r["metrics"][name] for r in runs])
            stats[name]["bound"] = bound
            print(
                f"  {workload:<9} {name:<16} median {stats[name]['median']:<12.6g}"
                f" spread {stats[name]['spread']:.4f} (bound {bound})",
                flush=True,
            )
        traced = run_once(workload, args.first_seed, seconds, 1)
        summary["workloads"][workload] = {"end_to_end": stats, "runs": runs, "traced": traced}
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
