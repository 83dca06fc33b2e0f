"""Invocation checks: every bad outcome is counted as a failure, none crashes."""
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import measure  # noqa: E402
import run  # noqa: E402
from wtminer.cli import main as cli_main  # noqa: E402
from wtminer.synth import InjectionSpec, generate, write_files  # noqa: E402

COPY = "import shutil, sys; shutil.copytree(sys.argv[1], sys.argv[2], dirs_exist_ok=True)"


@pytest.fixture(scope="module")
def analysis(tmp_path_factory):
    """A genuine analysis of a small conveyor log, and what it must report."""
    base = tmp_path_factory.mktemp("analysis")
    generated = generate(InjectionSpec.from_bits("11111", n_cases=20, seed=3))
    write_files(generated, base / "log.csv")
    assert cli_main(["analyze", "--log", str(base / "log.csv"), "--out", str(base / "out")]) == 0
    expected = measure.Expected(
        instances=len(generated.log.instances),
        causes=frozenset(c for c, on in generated.truth.flags.items() if on),
    )
    return base / "out", expected


def attempt(tmp_path, argv_for, expected, tally, timeout_s=60.0):
    out_dir = tmp_path / f"attempt-{tally.attempted + 1}"
    return measure.analyze_once(
        argv_for(out_dir), dict(os.environ), tmp_path, out_dir, expected, timeout_s, tally
    )


def copy_of(source):
    return lambda out_dir: [sys.executable, "-c", COPY, str(source), str(out_dir)]


def test_genuine_outputs_pass(tmp_path, analysis):
    source, expected = analysis
    tally = measure.Tally()
    attempt(tmp_path, copy_of(source), expected, tally)
    attempt(tmp_path, copy_of(source), expected, tally)
    assert tally.failures == []
    assert len(tally.wall_s) == 2 and tally.fail_ratio == 0
    assert tally.transitions_sha256 is not None


def _unbalance_a_row(out):
    lines = (out / "transitions.csv").read_text().splitlines()
    cells = lines[1].split(",")
    cells[6] = str(int(cells[6]) + 1)  # wt_contention_s
    lines[1] = ",".join(cells)
    (out / "transitions.csv").write_text("\n".join(lines) + "\n")


def _drop_a_row(out):
    lines = (out / "transitions.csv").read_text().splitlines()
    (out / "transitions.csv").write_text("\n".join(lines[:-1]) + "\n")


def _truncate_report(out):
    text = (out / "report.json").read_text()
    (out / "report.json").write_text(text[: len(text) // 2])


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_unbalance_a_row, "causes sum to"),
        (_drop_a_row, "total_freq sums to"),
        (_truncate_report, "unreadable output"),
    ],
)
def test_tampered_outputs_count_as_failures(tmp_path, analysis, tamper, message):
    source, expected = analysis
    bad = tmp_path / "bad"
    shutil.copytree(source, bad)
    tamper(bad)
    tally = measure.Tally()
    attempt(tmp_path, copy_of(bad), expected, tally)
    attempt(tmp_path, copy_of(source), expected, tally)
    assert tally.attempted == 2 and tally.failed == 1
    assert message in tally.failures[0]
    assert tally.fail_ratio == 0.5
    assert len(tally.wall_s) == 1


def test_wrong_instance_count_and_causes_count_as_failures(tmp_path, analysis):
    source, expected = analysis
    tally = measure.Tally()
    wrong = measure.Expected(
        instances=expected.instances + 1,
        causes=frozenset({"batching"}),
    )
    attempt(tmp_path, copy_of(source), wrong, tally)
    assert tally.failed == 1
    assert "activity_instances" in tally.failures[0]
    assert "detected causes" in tally.failures[0]


def test_changed_bytes_between_repeats_count_as_failure(tmp_path, analysis):
    source, expected = analysis
    other = tmp_path / "other"
    shutil.copytree(source, other)
    csv_path = other / "transitions.csv"
    csv_path.write_bytes(csv_path.read_bytes().replace(b"\r\n", b"\n"))
    tally = measure.Tally()
    attempt(tmp_path, copy_of(source), expected, tally)
    attempt(tmp_path, copy_of(other), expected, tally)
    assert tally.failed == 1
    assert "differs from the first correct repeat" in tally.failures[0]


def test_nonzero_exit_counts_as_failure(tmp_path, analysis):
    _, expected = analysis
    script = "import sys; print('error: boom', file=sys.stderr); sys.exit(3)"
    tally = measure.Tally()
    attempt(tmp_path, lambda out: [sys.executable, "-c", script], expected, tally)
    assert tally.failed == 1 and tally.fail_ratio == 1.0
    assert "exit code 3" in tally.failures[0]
    assert "error: boom" in tally.failures[0]
    assert tally.wall_s == []


def test_timeout_counts_as_failure_and_reaps_the_child(tmp_path, analysis):
    _, expected = analysis
    tally = measure.Tally()
    started = time.perf_counter()
    child = attempt(
        tmp_path,
        lambda out: [sys.executable, "-c", "import time; time.sleep(60)"],
        expected,
        tally,
        timeout_s=0.5,
    )
    assert time.perf_counter() - started < 20
    assert child.timed_out and child.exit_code is None
    assert tally.failed == 1 and "timed out" in tally.failures[0]


def test_peak_rss_is_the_childs_own(tmp_path):
    # A small child after a big one must not inherit the big one's peak.
    grow = "x = bytearray(96 * 1024 * 1024)"
    big = measure.run_child([sys.executable, "-c", grow], None, tmp_path, 60, tmp_path / "big.log")
    small = measure.run_child(
        [sys.executable, "-c", "pass"], None, tmp_path, 60, tmp_path / "small.log"
    )
    assert big.peak_rss_mb > 96 > small.peak_rss_mb


def test_child_env_drops_thread_pool_and_bytecode_switches(tmp_path, monkeypatch):
    monkeypatch.setenv("WT_MINER_THREADS", "4")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    env = measure.child_env(SRC, tmp_path)
    assert "WT_MINER_THREADS" not in env
    assert "PYTHONDONTWRITEBYTECODE" not in env
    assert env["PYTHONPATH"] == str(SRC)


def test_benchmark_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "conveyor", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


@pytest.mark.parametrize(
    "failing, message",
    [("SETUP_ARGV", "exit code 3; set-up start failed"),
     ("REFERENCE_ARGV", "exit code 3; reference run failed")],
)
def test_failed_start_before_analysis_counts_as_failure_and_reports_no_timings(
    tmp_path, monkeypatch, failing, message
):
    monkeypatch.setattr(measure, "SETUP_ARGV", [sys.executable, "-c", "pass"])
    monkeypatch.setattr(measure, failing, [sys.executable, "-c", "raise SystemExit(3)"])
    tally, metrics, samples = run.end_to_end(
        tmp_path / "unused.csv",
        measure.Expected(instances=1),
        0.1,
        tmp_path,
        time.perf_counter(),
    )
    assert metrics == {}
    assert samples["setup_wall_s"] == [] and samples["analyze_wall_s"] == []
    assert tally.attempted >= run.MIN_REPEATS and tally.failed == tally.attempted
    assert message in tally.failures[0]
