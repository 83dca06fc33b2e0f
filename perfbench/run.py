#!/usr/bin/env python3
"""wtminer benchmark: `wtminer analyze` time, throughput and memory per workload.

    python3 perfbench/run.py --workload conveyor --seed 1 --seconds 55 --trace 0

Run from anywhere inside a source checkout; the program is taken from its
`src/` directory. The workload log is generated from the seed. With
`--trace 0` the real CLI (`python -m wtminer.cli analyze`) runs in fresh
processes, one at a time, for the given seconds, each after a run of the
fixed reference program; times are reported in reference seconds (see
REFERENCE_S), set-up time and memory as medians. With `--trace 1` the
pipeline runs in this process with a span around every stage, and the
per-layer metrics are medians over the traced runs. Every run's outputs are checked.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A fuller record, with the
samples, the environment and (traced) every span, goes to
`.perfbench/results/` in the checkout.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import measure
import tracer
import wide

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOADS = ("conveyor", "wide", "clean")
CONVEYOR_CASES = 1200
CLEAN_CASES = 3000

MIN_REPEATS = 3
# Reported times are reference seconds: each wall time is divided by the
# wall time of the reference run next to it and multiplied by this constant,
# which only fixes the scale. It is about the shortest wall time of the
# reference run on the 2-core Xeon host the benchmark was built on, where
# that time ranged from 0.155 to 0.36 s as the host's speed drifted.
REFERENCE_S = 0.16
# Wall-clock figures of an end-to-end run that BENCHMARK.json does not
# declare, because they move with the host's speed as much as with the program.
RAW_UNITS = {"analyze_wall_s": "s", "setup_wall_s": "s", "reference_wall_s": "s"}
# No analysis starts unless it can finish, judged by the slowest so far,
# this many seconds after the run began; so a run exits well within three
# minutes even when the program has become much slower.
HARD_LIMIT_S = 150.0


def make_workload(name: str, seed: int, work: Path) -> tuple[Path, measure.Expected]:
    """Write the workload's CSV log into `work` and say what analysis must find."""
    csv_path = work / f"{name}.csv"
    if name == "wide":
        log = wide.generate(seed)
        csv_path.write_text(log.csv_text, encoding="utf-8", newline="")
        return csv_path, measure.Expected(instances=log.instances)

    from wtminer import synth

    bits, cases = ("11111", CONVEYOR_CASES) if name == "conveyor" else ("00000", CLEAN_CASES)
    generated = synth.generate(synth.InjectionSpec.from_bits(bits, n_cases=cases, seed=seed))
    synth.write_files(generated, csv_path)
    injected = frozenset(c for c, on in generated.truth.flags.items() if on)
    return csv_path, measure.Expected(instances=len(generated.log.instances), causes=injected)


def end_to_end(
    csv_path: Path, expected: measure.Expected, seconds: float, work: Path, started: float
) -> tuple[measure.Tally, dict, dict]:
    env = measure.child_env(SRC, work)
    tally = measure.Tally()
    setup_s: list[float] = []
    setup_over_reference: list[float] = []
    reference_s: list[float] = []
    walls: list[float] = []
    # Untimed first start: compiles bytecode into the checkout, as a user's
    # first run would, so every timed start finds it.
    measure.run_child(measure.SETUP_ARGV, env, ROOT, 60, work / "warmup.log")

    measuring = time.perf_counter()
    while tally.attempted < MIN_REPEATS or time.perf_counter() - measuring < seconds:
        remaining = HARD_LIMIT_S - (time.perf_counter() - started)
        if remaining <= 0 or (walls and remaining < 1.5 * max(walls)):
            break
        # A set-up start, a reference run and the analysis after them are one
        # attempt; when either of the first two fails, the attempt fails and
        # the analysis is not run.
        setup = measure.run_child(
            measure.SETUP_ARGV, env, ROOT, min(60, remaining), work / "setup.log"
        )
        if setup.exit_code != 0:
            tally.record(setup, ["set-up start failed"], None)
            continue
        reference = measure.run_child(
            measure.REFERENCE_ARGV, env, ROOT, min(60, remaining), work / "reference.log"
        )
        if reference.exit_code != 0:
            tally.record(reference, ["reference run failed"], None)
            continue
        setup_s.append(setup.wall_s)
        setup_over_reference.append(setup.wall_s / reference.wall_s)
        out_dir = work / f"analyze-{tally.attempted + 1}"
        correct = len(tally.wall_s)
        child = measure.analyze_once(
            measure.analyze_argv(csv_path, out_dir),
            env, ROOT, out_dir, expected, remaining, tally,
        )
        walls.append(child.wall_s)
        if len(tally.wall_s) > correct:
            reference_s.append(reference.wall_s)

    samples = {
        "analyze_wall_s": tally.wall_s,
        "reference_wall_s": reference_s,
        "peak_rss_mb": tally.peak_rss_mb,
        "setup_wall_s": setup_s,
        "setup_over_reference": setup_over_reference,
    }
    if not tally.wall_s:
        return tally, {}, samples
    # The host's speed drifts by up to half over minutes, and the starts of
    # one attempt all feel the same drift; dividing by the reference run
    # cancels it, while each wall time alone moves with the host.
    analyze_s = REFERENCE_S * sum(tally.wall_s) / sum(reference_s)
    metrics = {
        "analyze_s": analyze_s,
        "instances_per_s": expected.instances / analyze_s,
        "peak_rss_mb": statistics.median(tally.peak_rss_mb),
        "setup_s": REFERENCE_S * statistics.median(setup_over_reference),
        "analyze_wall_s": statistics.fmean(tally.wall_s),
        "setup_wall_s": statistics.median(setup_s),
        "reference_wall_s": statistics.median(reference_s),
    }
    return tally, metrics, samples


def traced(
    csv_path: Path, expected: measure.Expected, seconds: float, work: Path, started: float
) -> tuple[measure.Tally, dict, dict]:
    tally = measure.Tally()
    rounds: list[dict] = []
    longest = 0.0
    measuring = time.perf_counter()
    while not rounds or time.perf_counter() - measuring < seconds:
        if HARD_LIMIT_S - (time.perf_counter() - started) < 1.5 * longest:
            break
        out_dir = work / f"traced-{len(rounds) + 1}"
        begin = time.perf_counter()
        try:
            record = _traced_round(csv_path, out_dir, len(rounds))
        except Exception as exc:  # a crashing program is a failed run, not a crash here
            crashed = measure.Child(time.perf_counter() - begin, 0.0, 1, False)
            tally.record(crashed, [f"{type(exc).__name__}: {exc}"], None)
            rounds.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        finally:
            longest = max(longest, time.perf_counter() - begin)
        problems, sha256 = measure.check_outputs(out_dir, expected)
        if record["metrics"]["pipeline.self_s"] < 0:
            problems.append("child spans overlap: they cover more than pipeline.run_s")
        tally.record(
            measure.Child(record["metrics"]["pipeline.run_s"], 0.0, 0, False), problems, sha256
        )
        rounds.append(record)

    measured = [r["metrics"] for r in rounds if "metrics" in r]
    metrics = {}
    if measured:
        metrics = {name: statistics.median(m[name] for m in measured) for name in measured[0]}
    return tally, metrics, {"rounds": rounds}


def _traced_round(csv_path: Path, out_dir: Path, index: int) -> dict:
    """One traced run plus one untraced run, alternating which goes first.

    Both runs load the log, collect garbage and only then start the clock,
    and neither runs while the other's log or result is alive.
    """
    from wtminer import ingest, pipeline, report

    if index % 2:
        untraced_s = _untraced_run_s(csv_path)
    begin = time.perf_counter()
    loaded = ingest.load_log(csv_path)
    load_s = time.perf_counter() - begin
    gc.collect()
    trace = tracer.trace_pipeline(pipeline, loaded.log)
    write_started = time.perf_counter()
    paths = report.write_report_files(trace.result, out_dir, ingest_stats=loaded.stats)
    write_s = time.perf_counter() - write_started

    metrics = trace.metrics()
    targets = metrics["decomposition.targets"]
    metrics.update(
        {
            "ingest.load_s": load_s,
            "ingest.rows": loaded.stats.rows_total,
            "ingest.rows_rejected": loaded.stats.rows_rejected,
            "decomposition.us_per_target": (
                metrics["decomposition.decompose_s"] / targets * 1e6 if targets else 0.0
            ),
            "report.write_s": write_s,
            "report.bytes": sum(path.stat().st_size for path in paths.values()),
        }
    )
    record = {
        "metrics": metrics,
        "missing": trace.missing,
        "spans": [
            {
                "id": span.ident,
                "name": span.name,
                "parent": span.parent,
                "start_s": span.start - begin,
                "end_s": span.end - begin,
            }
            for span in trace.spans
        ],
    }
    traced_s = trace.run_s
    del loaded, trace
    if index % 2 == 0:
        untraced_s = _untraced_run_s(csv_path)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    record["untraced_run_s"] = untraced_s
    return record


def _untraced_run_s(csv_path: Path) -> float:
    from wtminer import ingest, pipeline

    loaded = ingest.load_log(csv_path)
    gc.collect()
    started = time.perf_counter()
    # Hold the result until the clock stops: the traced side keeps its
    # result, so freeing it must not be timed here either.
    result = pipeline.run_pipeline(loaded.log)
    run_s = time.perf_counter() - started
    del result
    return run_s


def _loadavg() -> list[float]:
    with open("/proc/loadavg", encoding="ascii") as handle:
        return [float(x) for x in handle.read().split()[:3]]


def _commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "wtminer").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _print_summary(record: dict, units: dict[str, str]) -> None:
    env = record["environment"]
    print(
        f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']}:"
        f" {record['instances']} instances; commit {env['commit'] or 'unknown'},"
        f" python {env['python']}, nproc {env['nproc']},"
        f" loadavg {env['loadavg_start'][0]} -> {env['loadavg_end'][0]}"
    )
    samples = record["samples"]
    if record["trace"]:
        print(f"  medians over {len(samples['rounds'])} traced rounds")
    else:
        analyses = samples["analyze_wall_s"] or [0.0]
        print(
            f"  times in reference seconds (wall time over the reference run's,"
            f" times {REFERENCE_S} s); analyze_s over {len(samples['analyze_wall_s'])} correct"
            f" analyses (wall median {statistics.median(analyses):.4g} s,"
            f" min {min(analyses):.4g} s, max {max(analyses):.4g} s); setup_s the median"
            f" over {len(samples['setup_wall_s'])} interpreter starts"
        )
    for name, value in record["metrics"].items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    print(
        f"  {'fail_ratio':<34} {record['fail_ratio']:>14.6g} ratio"
        f" ({record['failed']} of {record['attempted']} failed)"
    )
    for missing in record.get("missing", ()):
        print(f"  MISSING {missing}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print(f"  transitions.csv sha256 {record['transitions_sha256']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # Turn a termination request into SystemExit, so the running child is
    # killed and reaped and the scratch directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "wtminer" / "cli.py").is_file():
        print(f"error: no wtminer sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    environment = {
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": _loadavg(),
    }
    work = STATE / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        csv_path, expected = make_workload(args.workload, args.seed, work)
        run = traced if args.trace else end_to_end
        tally, metrics, samples = run(csv_path, expected, args.seconds, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    environment["loadavg_end"] = _loadavg()

    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    # The raw times are printed and recorded, but only the declared metrics
    # go into the result line.
    shown = units if args.trace else {**units, **RAW_UNITS}
    # No correct round leaves nothing to report; the result says so with failed > 0.
    metrics = {name: metrics[name] for name in shown} if metrics else dict.fromkeys(shown, 0.0)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instances": expected.instances,
        "environment": environment,
        "metrics": metrics,
        "units": shown,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_ratio": tally.fail_ratio,
        "failures": tally.failures,
        "transitions_sha256": tally.transitions_sha256,
        "missing": sorted({m for r in samples.get("rounds", ()) for m in r.get("missing", ())}),
        "samples": samples,
        "elapsed_s": time.perf_counter() - started,
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    _print_summary(record, shown)
    print(f"  record {result_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
