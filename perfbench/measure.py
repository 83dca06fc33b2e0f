"""End-to-end measurement: run the real CLI in fresh processes and check outputs.

Each `wtminer analyze` invocation runs alone, one at a time, in a fresh
interpreter. Its wall time runs from spawn to exit and its peak RSS comes
from the rusage that `os.wait4` returns for that child alone. Every
invocation's outputs are checked; an invocation that exits non-zero, times
out or fails a check counts as failed and contributes no sample.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

CAUSE_COLUMNS = (
    "wt_batching_s",
    "wt_contention_s",
    "wt_prioritization_s",
    "wt_unavailability_s",
    "wt_extraneous_s",
)
# WT_MINER_THREADS would switch on the thread pool. PYTHONDONTWRITEBYTECODE
# would make every start compile the sources again, which a user's installed
# or previously run copy does not do.
STRIPPED_ENV = ("WT_MINER_THREADS", "PYTHONDONTWRITEBYTECODE")


def child_env(src: Path, work_dir: Path) -> dict[str, str]:
    """Environment for program children: only `src` on the path, no thread pool."""
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["PYTHONPATH"] = str(src)
    env["TMPDIR"] = str(work_dir)
    return env


@dataclass(frozen=True)
class Child:
    wall_s: float
    peak_rss_mb: float
    exit_code: Optional[int]
    timed_out: bool


def run_child(
    argv: list[str], env: dict[str, str], cwd: Path, timeout_s: float, log_path: Path
) -> Child:
    """Run one process to completion, killing it after `timeout_s`.

    The child is watched through a pidfd, so a kill can never reach a
    recycled pid, and it is always reaped before this returns.
    """
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL, stdout=log, stderr=log
        )
    pidfd = os.pidfd_open(proc.pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        try:
            timed_out = not poller.poll(max(0, int(timeout_s * 1000)))
        except BaseException:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        if timed_out:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024,
        exit_code=None if timed_out else proc.returncode,
        timed_out=timed_out,
    )


@dataclass(frozen=True)
class Expected:
    """What a correct analysis of a workload log must report."""

    instances: int
    causes: Optional[frozenset[str]] = None


def check_outputs(out_dir: Path, expected: Expected) -> tuple[list[str], Optional[str]]:
    """Return the problems found in one analysis's outputs, and the CSV's sha256."""
    try:
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        csv_bytes = (out_dir / "transitions.csv").read_bytes()
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"], None
    problems = []
    try:
        summary = report["summary"]
        if summary["activity_instances"] != expected.instances:
            problems.append(
                f"summary.activity_instances is {summary['activity_instances']},"
                f" expected {expected.instances}"
            )
        total_freq = 0
        rows = csv.DictReader(csv_bytes.decode("utf-8").splitlines())
        for line, row in enumerate(rows, start=2):
            causes = sum(int(row[column]) for column in CAUSE_COLUMNS)
            if causes != int(row["total_wt_s"]):
                problems.append(
                    f"transitions.csv line {line}: causes sum to {causes},"
                    f" total_wt_s is {row['total_wt_s']}"
                )
            total_freq += int(row["total_freq"])
        if total_freq != summary["transition_instances"]:
            problems.append(
                f"total_freq sums to {total_freq},"
                f" summary.transition_instances is {summary['transition_instances']}"
            )
        if expected.causes is not None:
            from wtminer.synth import detected_causes

            per_cause = {c["cause"]: c["waiting_time"]["seconds"] for c in report["causes"]}
            found = detected_causes(per_cause)
            if found != expected.causes:
                problems.append(
                    f"detected causes {sorted(found)}, injected {sorted(expected.causes)}"
                )
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed output: {type(exc).__name__}: {exc}")
    return problems, hashlib.sha256(csv_bytes).hexdigest()


@dataclass
class Tally:
    """Samples and failures over all invocations of one workload."""

    wall_s: list[float] = field(default_factory=list)
    peak_rss_mb: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    transitions_sha256: Optional[str] = None

    def record(self, child: Child, problems: list[str], sha256: Optional[str]) -> None:
        self.attempted += 1
        if child.timed_out:
            problems = ["timed out"] + problems
        elif child.exit_code != 0:
            problems = [f"exit code {child.exit_code}"] + problems
        elif not problems:
            # The first correct invocation sets the bytes every later one must repeat.
            if self.transitions_sha256 is None:
                self.transitions_sha256 = sha256
            elif sha256 != self.transitions_sha256:
                problems = ["transitions.csv differs from the first correct repeat"]
        if problems:
            self.failures.append(f"invocation {self.attempted}: {'; '.join(problems)}")
        else:
            self.wall_s.append(child.wall_s)
            self.peak_rss_mb.append(child.peak_rss_mb)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def analyze_once(
    argv: list[str],
    env: dict[str, str],
    cwd: Path,
    out_dir: Path,
    expected: Expected,
    timeout_s: float,
    tally: Tally,
) -> Child:
    """Run one analysis, check what it wrote, and record the outcome."""
    out_dir.mkdir(parents=True)
    child = run_child(argv, env, cwd, timeout_s, out_dir / "console.log")
    problems, sha256 = [], None
    if not child.timed_out and child.exit_code == 0:
        problems, sha256 = check_outputs(out_dir, expected)
    elif not child.timed_out:
        console = (out_dir / "console.log").read_text(errors="replace").strip()
        problems = console.splitlines()[-1:]
    tally.record(child, problems, sha256)
    return child


def analyze_argv(csv_path: Path, out_dir: Path) -> list[str]:
    return [
        sys.executable, "-m", "wtminer.cli", "analyze",
        "--log", str(csv_path), "--out", str(out_dir),
    ]


SETUP_ARGV = [sys.executable, "-c", "import wtminer.cli as cli; cli.build_parser()"]
# Fixed standard-library work in a fresh interpreter; it gauges the speed
# of the host next to each analysis (see reference.py).
REFERENCE_ARGV = [sys.executable, str(Path(__file__).resolve().parent / "reference.py")]
