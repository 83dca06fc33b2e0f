"""Tests for the command-line interface: verbs, flags, exit codes."""
import ast
import csv
import errno
import gc
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtminer import cli
from wtminer.calendars import CalendarParams, load_calendar_overrides
from wtminer.cli import _calendar_params, _pipeline_config, build_parser, main
from wtminer.ingest import ColumnMapping, format_timestamp, load_log
from wtminer.model import ConfigError, IngestError
from wtminer.pipeline import PipelineConfig, PipelineResult, run_pipeline
from wtminer.report import write_report_files
from wtminer.synth import InjectionSpec, generate, write_files
from test_golden import SRC, _write_loopy_log


def _child_env() -> dict[str, str]:
    """The environment of a child interpreter, which imports the package
    from `src` whether or not this process was started with it on its path."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


@pytest.fixture()
def synth_log(tmp_path):
    gen = generate(InjectionSpec(contention=True, extraneous=True, n_cases=20, seed=3))
    path = tmp_path / "log.csv"
    write_files(gen, path)
    return path


class TestAnalyze:
    def test_happy_path_writes_reports(self, synth_log, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["analyze", "--log", str(synth_log), "--out", str(out)])
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "transitions.csv").exists()
        stdout = capsys.readouterr().out
        assert "Waiting time by cause:" in stdout

    def test_missing_log_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["analyze", "--out", str(tmp_path)])
        assert err.value.code == 2

    def test_nonexistent_log_exits_2(self, tmp_path, capsys):
        code = main(
            ["analyze", "--log", str(tmp_path / "no.csv"), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_threshold_exits_2(self, synth_log, tmp_path, capsys):
        code = main(
            [
                "analyze",
                "--log", str(synth_log),
                "--out", str(tmp_path / "o"),
                "--dependency-threshold", "1.5",
            ]
        )
        assert code == 2

    def test_degenerate_log_is_runtime_error(self, tmp_path, capsys):
        # A single zero-duration instance has no processing or waiting time,
        # so efficiency is undefined: runtime failure, not usage error.
        log = tmp_path / "degenerate.csv"
        log.write_text(
            "case_id,activity,resource,start_time,end_time\n"
            "c1,a,r1,2023-01-02T09:00:00Z,2023-01-02T09:00:00Z\n"
        )
        code = main(["analyze", "--log", str(log), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_all_instants_log_has_undefined_cte(self, tmp_path, capsys):
        # Every instance has zero duration and starts the moment its
        # predecessor completes: no processing and no waiting anywhere.
        log = tmp_path / "instants.csv"
        log.write_text(
            "case_id,activity,resource,start_time,end_time\n"
            "c1,a,r1,2023-01-02T09:00:00Z,2023-01-02T09:00:00Z\n"
            "c1,b,r2,2023-01-02T09:00:00Z,2023-01-02T09:00:00Z\n"
            "c2,a,r1,2023-01-02T10:00:00Z,2023-01-02T10:00:00Z\n"
            "c2,b,r2,2023-01-02T10:00:00Z,2023-01-02T10:00:00Z\n"
        )
        out = tmp_path / "o"
        code = main(["analyze", "--log", str(log), "--out", str(out)])
        assert code == 1
        assert "CTE is undefined" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_undefined_elimination_names_the_transition(self, tmp_path, capsys):
        # No processing time, but 30 and 20 minutes of waiting, all in a -> b.
        log = tmp_path / "instants.csv"
        log.write_text(
            "case_id,activity,resource,start_time,end_time\n"
            "c1,a,r1,2023-01-02T09:00:00Z,2023-01-02T09:00:00Z\n"
            "c1,b,r2,2023-01-02T09:30:00Z,2023-01-02T09:30:00Z\n"
            "c2,a,r1,2023-01-02T10:00:00Z,2023-01-02T10:00:00Z\n"
            "c2,b,r2,2023-01-02T10:20:00Z,2023-01-02T10:20:00Z\n"
        )
        out = tmp_path / "o"
        assert main(["analyze", "--log", str(log), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "CTE is undefined if transition a -> b is eliminated" in err
        assert "the log has no processing time" in err
        assert not (out / "report.json").exists()

    def test_emit_calendars_included(self, synth_log, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["analyze", "--log", str(synth_log), "--out", str(out), "--emit-calendars"]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert "calendars" in report

    def test_calendar_overrides_are_reported(self, synth_log, tmp_path):
        overrides = tmp_path / "cal.json"
        overrides.write_text(
            json.dumps(
                {
                    "assessor": [
                        {"day": d, "from": "00:00", "to": "24:00"}
                        for d in ("MON", "TUE", "WED", "THU", "FRI", "SAT", "SUN")
                    ]
                }
            )
        )
        out = tmp_path / "out"
        code = main(
            [
                "analyze",
                "--log", str(synth_log),
                "--out", str(out),
                "--calendar-overrides", str(overrides),
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["overridden_resources"] == ["assessor"]

    def test_mapping_file(self, tmp_path):
        gen = generate(InjectionSpec(n_cases=20, seed=1))
        original = tmp_path / "orig.csv"
        write_files(gen, original)
        renamed = tmp_path / "renamed.csv"
        text = original.read_bytes().decode("utf-8")
        header, rest = text.split("\r\n", 1)
        assert header == "case_id,activity,resource,start_time,end_time"
        renamed.write_text("Case,Task,Worker,Begin,End\r\n" + rest)
        mapping = tmp_path / "map.json"
        mapping.write_text(
            json.dumps(
                {
                    "case_column": "Case",
                    "activity_column": "Task",
                    "resource_column": "Worker",
                    "start_column": "Begin",
                    "end_column": "End",
                }
            )
        )
        out = tmp_path / "out"
        code = main(
            [
                "analyze",
                "--log", str(renamed),
                "--mapping", str(mapping),
                "--out", str(out),
            ]
        )
        assert code == 0

    def test_bad_mapping_json_exits_2(self, synth_log, tmp_path):
        mapping = tmp_path / "map.json"
        mapping.write_text("{not json")
        code = main(
            [
                "analyze",
                "--log", str(synth_log),
                "--mapping", str(mapping),
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 2

    def analyze_with(self, log, tmp_path, option, payload: bytes) -> int:
        path = tmp_path / "config.json"
        path.write_bytes(payload)
        return main(
            ["analyze", "--log", str(log), option, str(path), "--out", str(tmp_path / "o")]
        )

    def test_bom_mapping_file_loads(self, synth_log, tmp_path):
        payload = b"\xef\xbb\xbf" + json.dumps({"timestamp_format": "iso8601"}).encode()
        assert self.analyze_with(synth_log, tmp_path, "--mapping", payload) == 0

    def test_non_utf8_mapping_file_exits_2(self, synth_log, tmp_path, capsys):
        payload = b"\xff\xfe" + "{}".encode("utf-16-le")
        assert self.analyze_with(synth_log, tmp_path, "--mapping", payload) == 2
        assert "not UTF-8 JSON" in capsys.readouterr().err

    def test_empty_column_name_exits_2(self, synth_log, tmp_path, capsys):
        payload = json.dumps({"case_column": ""}).encode()
        assert self.analyze_with(synth_log, tmp_path, "--mapping", payload) == 2
        assert "column names must be non-empty" in capsys.readouterr().err

    def test_calendar_override_not_a_list_exits_2(self, synth_log, tmp_path, capsys):
        payload = json.dumps({"assessor": {"day": "MON"}}).encode()
        assert self.analyze_with(synth_log, tmp_path, "--calendar-overrides", payload) == 2
        assert "override for 'assessor' must be a list of ranges" in capsys.readouterr().err

    def test_bom_calendar_overrides_load(self, synth_log, tmp_path):
        overrides = {"assessor": [{"day": "MON", "from": "09:00", "to": "17:00"}]}
        payload = b"\xef\xbb\xbf" + json.dumps(overrides).encode()
        assert self.analyze_with(synth_log, tmp_path, "--calendar-overrides", payload) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["overridden_resources"] == ["assessor"]

    def test_non_utf8_calendar_overrides_exit_2(self, synth_log, tmp_path, capsys):
        payload = b"\xff\xfe" + "{}".encode("utf-16-le")
        assert self.analyze_with(synth_log, tmp_path, "--calendar-overrides", payload) == 2
        assert "not UTF-8 JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "reader, what, shape",
        [
            (cli._load_mapping, "mapping file", "must hold a JSON object"),
            (
                load_calendar_overrides,
                "calendar overrides",
                "must be a JSON object keyed by resource",
            ),
        ],
        ids=["mapping", "calendar-overrides"],
    )
    def test_option_file_errors_keep_message_and_cause(self, tmp_path, reader, what, shape):
        # Both option files are read by one reader: each failure names its
        # file, and a failed read or parse is chained as the cause.
        files = {
            "missing": None,
            "directory": None,
            "not-utf8": b"\xff\xfe{}",
            "not-json": b"{not json",
            "array": b"[1]",
        }
        (tmp_path / "directory").mkdir()
        for name, payload in files.items():
            path = tmp_path / name
            if payload is not None:
                path.write_bytes(payload)
            with pytest.raises(ConfigError) as info:
                reader(str(path))
            cause = info.value.__cause__
            if name == "array":
                assert str(info.value) == f"{what} {shape}"
                assert cause is None
            elif name in ("missing", "directory"):
                assert str(info.value) == f"cannot read {what} {path}: {cause}"
                assert isinstance(cause, OSError)
            else:
                assert str(info.value) == f"{what} {path} is not UTF-8 JSON: {cause}"
                assert isinstance(cause, ValueError)

    @pytest.mark.parametrize("text", ["+9:00", "0_9:00", "\uff10\uff19:00", " 09 : 00 ", "-0:00"])
    def test_non_ascii_digit_override_time_exits_2(self, synth_log, tmp_path, capsys, text):
        overrides = {"assessor": [{"day": "MON", "from": text, "to": "17:00"}]}
        payload = json.dumps(overrides).encode()
        assert self.analyze_with(synth_log, tmp_path, "--calendar-overrides", payload) == 2
        assert "expected HH:MM" in capsys.readouterr().err


def _write_messy_log(directory: Path) -> tuple[Path, Path, Path]:
    """A synthetic log under renamed columns, with naive and fractional
    timestamps and two rows that ingest rejects; the mapping file that reads
    it; and calendar overrides for one of its resources."""
    clean = directory / "clean.csv"
    write_files(generate(InjectionSpec.from_bits("11111", n_cases=60, seed=7)), clean)
    with clean.open(newline="") as handle:
        header, *rows = csv.reader(handle)
    for i, row in enumerate(rows):
        if i % 3 == 0:
            row[3] = row[3].removesuffix("Z")
        elif i % 3 == 1:
            row[4] = row[4].replace("Z", ".250Z")
    rows.append(["X1", "register", "clerk", "not a time", "2023-01-03T09:00:00Z"])
    rows.append(["X2", "register", "clerk", "2023-01-03T10:00:00Z", "2023-01-03T09:00:00Z"])
    columns = ("Case", "Activity", "Resource", "Start", "End")
    path = directory / "messy.csv"
    with path.open("w", newline="") as handle:
        csv.writer(handle).writerows([columns, *rows])
    mapping = directory / "mapping.json"
    mapping.write_text(
        json.dumps(
            {
                f"{field}_column": name
                for field, name in zip(("case", "activity", "resource", "start", "end"), columns)
            }
        )
    )
    overrides = directory / "overrides.json"
    overrides.write_text(json.dumps({"assessor": [{"day": "MON", "from": "09:00", "to": "17:00"}]}))
    return path, mapping, overrides


def _handler_cycles(argv: list[str]) -> int:
    """Reference cycles left by the verb that `argv` names, run with the
    collector off; the parser's own cycles are made before counting."""
    args = build_parser().parse_args(argv)
    gc.collect()
    gc.disable()
    try:
        assert args.handler(args) == 0
        return gc.collect()
    finally:
        gc.enable()


class TestCollectorPause:
    """The `wtminer` process runs with the cyclic collector off, which is safe
    only because loading, the pipeline and the writers leave no reference
    cycles behind; `main()` in process leaves the collector as it found it."""

    @pytest.mark.parametrize("kind", ["all_causes", "loopy", "messy"])
    def test_load_and_pipeline_create_no_cycles(self, kind, tmp_path):
        path = tmp_path / f"{kind}.csv"
        mapping, overrides = ColumnMapping(), None
        if kind == "loopy":
            _write_loopy_log(path)
        elif kind == "messy":
            path, mapping_file, overrides_file = _write_messy_log(tmp_path)
        else:
            spec = InjectionSpec.from_bits("11111", n_cases=80, seed=5)
            write_files(generate(spec), path)
        gc.collect()
        gc.disable()
        try:
            if kind == "messy":
                mapping = cli._load_mapping(str(mapping_file))
                overrides = load_calendar_overrides(overrides_file)
            loaded = load_log(path, mapping)
            assert gc.collect() == 0
            assert loaded.stats.rows_rejected == (2 if kind == "messy" else 0)
            result = run_pipeline(loaded.log, calendar_overrides=overrides)
            assert result.decompositions
            assert bool(result.overridden_resources) is (kind == "messy")
            write_report_files(
                result, tmp_path / "out", ingest_stats=loaded.stats, emit_calendars=True
            )
            del loaded, result, overrides
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("sink", ["stdout", "file"])
    def test_calendars_verb_creates_no_cycles(self, sink, tmp_path, capsys):
        path, mapping, _ = _write_messy_log(tmp_path)
        out = ["--out", str(tmp_path / "c.json")] if sink == "file" else []
        argv = ["calendars", "--log", str(path), "--mapping", str(mapping), *out]
        assert _handler_cycles(argv) == 0
        assert "clerk" in (capsys.readouterr().out or (tmp_path / "c.json").read_text())

    def test_generate_cycles_do_not_grow_with_cases(self, tmp_path, capsys):
        # `json.dumps(indent=2)`, which writes the truth file, leaves a fixed
        # number of reference cycles per log, however long the log is.
        short, long = (
            _handler_cycles(
                ["generate", "--causes", "batching", "--cases", str(cases),
                 "-o", str(tmp_path / f"g{cases}.csv")]
            )
            for cases in (5, 80)
        )
        assert short == long

    @pytest.mark.parametrize("command", ["analyze", "generate", "calendars"])
    def test_collector_is_off_in_every_verb_of_the_process(self, command, synth_log, tmp_path):
        # The child runs `wtminer.cli` as `python -m` does, with each verb's
        # handler wrapped to report the collector's state on entry and on return.
        script = textwrap.dedent(
            """
            import argparse, gc, os, runpy
            set_defaults = argparse.ArgumentParser.set_defaults
            def spy_on_handler(self, **kwargs):
                handler = kwargs.get("handler")
                if handler is not None:
                    def spy(args):
                        on_entry = gc.isenabled()
                        status = handler(args)
                        os.write(2, f"{on_entry} {gc.isenabled()}\\n".encode())
                        return status
                    kwargs["handler"] = spy
                set_defaults(self, **kwargs)
            argparse.ArgumentParser.set_defaults = spy_on_handler
            runpy.run_module("wtminer.cli", run_name="__main__", alter_sys=True)
            """
        )
        args = TestConsoleEntry.command_args(command, synth_log, tmp_path)
        proc = subprocess.run(
            [sys.executable, "-c", script, *args],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert (proc.returncode, proc.stderr) == (0, "False False\n")

    def test_console_entry_turns_the_collector_off_before_main(self, monkeypatch):
        class Exited(Exception):
            pass

        def record_exit(status):
            raise Exited(status)

        seen = []
        monkeypatch.setattr(cli, "main", lambda: seen.append(gc.isenabled()) or 3)
        monkeypatch.setattr(os, "_exit", record_exit)
        try:
            with pytest.raises(Exited) as exited:
                cli.console_entry()
            assert (exited.value.args, seen, gc.isenabled()) == ((3,), [False], False)
        finally:
            gc.enable()

    def test_main_never_touches_the_collector(self, synth_log, tmp_path, monkeypatch, capsys):
        def refuse():
            raise AssertionError("main() switched the collector")

        monkeypatch.setattr(gc, "disable", refuse)
        monkeypatch.setattr(gc, "enable", refuse)
        for command in ("analyze", "generate", "calendars"):
            assert main(TestConsoleEntry.command_args(command, synth_log, tmp_path)) == 0

    def test_collector_is_back_after_success(self, synth_log, tmp_path, capsys):
        assert main(["analyze", "--log", str(synth_log), "--out", str(tmp_path)]) == 0
        assert gc.isenabled()

    def test_collector_is_back_after_ingest_error(self, tmp_path, capsys):
        log = tmp_path / "empty.csv"
        log.write_text("case_id,activity,resource,start_time,end_time\n")
        with pytest.raises(IngestError):
            load_log(log)
        assert main(["analyze", "--log", str(log), "--out", str(tmp_path / "o")]) == 1
        assert gc.isenabled()


class TestRunRetention:
    """`analyze` keeps its finished run, so the `wtminer` process never frees
    it before `os._exit`; the next `analyze` in the same process drops it
    before loading, so at most one run is alive."""

    def test_finished_run_is_kept(self, synth_log, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_last_run", None)
        assert main(["analyze", "--log", str(synth_log), "--out", str(tmp_path)]) == 0
        loaded, result = cli._last_run
        held = weakref.ref(result)
        del loaded, result
        assert isinstance(held(), PipelineResult)
        assert held().decompositions

    def test_next_analyze_drops_it_before_loading(self, synth_log, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_last_run", None)
        argv = ["analyze", "--log", str(synth_log), "--out", str(tmp_path)]
        assert main(argv) == 0
        held = weakref.ref(cli._last_run[1])
        alive_at_load = []

        def spy_load(*args):
            alive_at_load.append(held() is not None)
            return load_log(*args)

        monkeypatch.setattr(cli, "load_log", spy_load)
        assert main(argv) == 0
        assert alive_at_load == [False]
        assert isinstance(cli._last_run[1], PipelineResult)

    def test_failed_analyze_keeps_nothing(self, synth_log, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_last_run", None)
        assert main(["analyze", "--log", str(synth_log), "--out", str(tmp_path)]) == 0
        held = weakref.ref(cli._last_run[1])
        missing = tmp_path / "missing.csv"
        assert main(["analyze", "--log", str(missing), "--out", str(tmp_path)]) == 2
        assert (cli._last_run, held()) == (None, None)


class TestGenerate:
    def test_single_log_deterministic(self, tmp_path, capsys):
        args = [
            "generate",
            "--causes", "contention,batching",
            "--cases", "25",
            "--seed", "1",
            "-o", str(tmp_path / "a.csv"),
        ]
        assert main(args) == 0
        first = (tmp_path / "a.csv").read_bytes()
        args[-1] = str(tmp_path / "b.csv")
        assert main(args) == 0
        assert (tmp_path / "b.csv").read_bytes() == first
        truth = json.loads((tmp_path / "a.truth.json").read_text())
        assert truth["flags"]["contention"] is True
        assert truth["flags"]["prioritization"] is False

    def test_none_causes_zero_wait(self, tmp_path):
        assert main(["generate", "--causes", "none", "-o", str(tmp_path / "z.csv")]) == 0
        truth = json.loads((tmp_path / "z.truth.json").read_text())
        assert all(v == 0 for v in truth["injected_seconds"].values())

    def test_missing_output_is_usage_error(self, capsys):
        assert main(["generate", "--causes", "none"]) == 2

    def test_unknown_cause_is_usage_error(self, tmp_path, capsys):
        code = main(["generate", "--causes", "teleportation", "-o", str(tmp_path / "x.csv")])
        assert code == 2

    def test_no_cause_named_is_usage_error(self, tmp_path, capsys):
        assert main(["generate", "--causes", ",", "-o", str(tmp_path / "x.csv")]) == 2
        assert "--causes must name at least one cause or 'none'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("causes", ["none,batching", "batching, none", "none,none,contention"])
    def test_none_with_a_cause_is_usage_error(self, tmp_path, capsys, causes):
        code = main(["generate", "--causes", causes, "-o", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot combine 'none' with a cause" in err
        assert "unknown cause" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_repeated_none_is_no_cause(self, tmp_path):
        assert main(["generate", "--causes", "none,none", "-o", str(tmp_path / "z.csv")]) == 0
        truth = json.loads((tmp_path / "z.truth.json").read_text())
        assert not any(truth["flags"].values())

    def test_grid_writes_32_pairs(self, tmp_path, capsys):
        out = tmp_path / "grid"
        code = main(["generate", "--grid", "--cases", "20", "--out", str(out)])
        assert code == 0
        csvs = sorted(p.name for p in out.glob("grid_*.csv"))
        truths = sorted(p.name for p in out.glob("grid_*.truth.json"))
        assert len(csvs) == 32
        assert len(truths) == 32
        assert "grid_00000.csv" in csvs
        assert "grid_11111.csv" in csvs

    def test_uninjected_cause_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sub" / "b3.csv"
        assert main(["generate", "--causes", "batching", "--cases", "3", "-o", str(out)]) == 2
        assert "3 cases are too few to inject batching" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_grid_with_an_uninjected_spec_writes_nothing(self, tmp_path, capsys):
        # 14 cases miss extraneous only in 11101 and 11111, the last specs.
        out = tmp_path / "grid"
        assert main(["generate", "--grid", "--cases", "14", "--out", str(out)]) == 2
        assert "14 cases are too few to inject extraneous" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode_args, option",
        [
            (["--grid", "--out", "grid", "-o", "x.csv"], "-o/--output"),
            (["--grid", "--out", "grid", "--causes", "none"], "--causes"),
            (["--grid", "--out", "grid", "--noisy"], "--noisy"),
            (["-o", "x.csv", "--out", "grid"], "--out"),
        ],
        ids=["grid-output", "grid-causes", "grid-noisy", "out-without-grid"],
    )
    def test_option_the_mode_ignores_is_usage_error(
        self, mode_args, option, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--cases", "2", *mode_args]) == 2
        assert option in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestCalendars:
    def test_dump_to_stdout(self, synth_log, capsys):
        assert main(["calendars", "--log", str(synth_log)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "assessor" in payload
        assert all(
            {"day", "from", "to"} == set(r) for ranges in payload.values() for r in ranges
        )

    def test_dump_to_file(self, synth_log, tmp_path):
        out = tmp_path / "cals.json"
        assert main(["calendars", "--log", str(synth_log), "--out", str(out)]) == 0
        assert "MON" in out.read_text()

    def test_unwritable_file_error_names_it(self, synth_log, tmp_path, capsys):
        out = tmp_path / "missing" / "cal.json"
        assert main(["calendars", "--log", str(synth_log), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "wtminer.cli", "generate", "--causes", "none",
             "-o", str(tmp_path / "m.csv")],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert (tmp_path / "m.csv").exists()

    def test_usage_exit_code_via_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wtminer.cli", "analyze"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 2

    # The `wtminer` process ends through `console_entry`, which skips
    # interpreter finalization: it must still give what `main()` gives.
    @staticmethod
    def run_process(args, stdout=subprocess.PIPE, buffered=False):
        env = _child_env()
        if buffered:
            env.pop("PYTHONUNBUFFERED", None)
        else:
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.run(
            [sys.executable, "-m", "wtminer.cli", *args],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )

    @staticmethod
    def command_args(command, log, out):
        return {
            "analyze": ["analyze", "--log", str(log), "--out", str(out)],
            "generate": ["generate", "--causes", "batching", "-o", str(out / "g.csv")],
            "calendars": ["calendars", "--log", str(log), "--out", str(out / "c.json")],
        }[command]

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["analyze", "generate", "calendars"])
    def test_process_writes_what_main_writes(
        self, command, buffered, synth_log, tmp_path, capsys
    ):
        out = tmp_path / "out"
        out.mkdir()
        args = self.command_args(command, synth_log, out)
        assert main(args) == 0
        stdout = capsys.readouterr().out
        written = {path: path.read_bytes() for path in out.iterdir()}
        assert written
        for path in written:
            path.unlink()
        proc = self.run_process(args, buffered=buffered)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, stdout, "")
        assert {path: path.read_bytes() for path in out.iterdir()} == written

    @pytest.mark.parametrize(
        "args, code",
        [
            (["calendars"], 2),
            (["generate", "--causes", "teleportation", "-o", "{tmp}/x.csv"], 2),
            (["analyze", "--log", "{tmp}/no.csv", "--out", "{tmp}/out"], 2),
            (["analyze", "--log", "{tmp}/empty.csv", "--out", "{tmp}/out"], 1),
        ],
        ids=["argparse", "bad-cause", "missing-log", "empty-log"],
    )
    def test_process_error_exit_codes(self, args, code, tmp_path):
        (tmp_path / "empty.csv").write_text(
            "case_id,activity,resource,start_time,end_time\n"
        )
        proc = self.run_process([arg.format(tmp=tmp_path) for arg in args])
        assert proc.returncode == code
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("sink", ["full", "closed-pipe"])
    @pytest.mark.parametrize("command", ["analyze", "generate", "calendars"])
    def test_failed_stdout_write_is_an_error(
        self, command, sink, buffered, synth_log, tmp_path
    ):
        # Buffered, the write used to fail only in interpreter finalization,
        # which printed "Exception ignored" and exited 120.
        args = self.command_args(command, synth_log, tmp_path)
        if command == "calendars":
            args = args[:-2]  # the JSON goes to stdout
        if sink == "full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            stdout = os.open("/dev/full", os.O_WRONLY)
            failure = errno.ENOSPC
        else:
            reader, stdout = os.pipe()
            os.close(reader)
            failure = errno.EPIPE
        try:
            proc = self.run_process(args, stdout=stdout, buffered=buffered)
        finally:
            os.close(stdout)
        assert proc.returncode == 1
        assert proc.stderr == f"error: {OSError(failure, os.strerror(failure))}\n"

    def test_closed_stdout_is_skipped(self, synth_log, tmp_path):
        out = tmp_path / "out"
        argv = [sys.executable, "-m", "wtminer.cli", "analyze",
                "--log", str(synth_log), "--out", str(out)]
        proc = subprocess.run(
            ["sh", "-c", 'exec "$@" >&-', "sh", *argv],
            stderr=subprocess.PIPE,
            text=True,
            env=_child_env(),
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert {path.name for path in out.iterdir()} == {"report.json", "transitions.csv"}

    def test_main_never_ends_the_process(self, synth_log, tmp_path, monkeypatch, capsys):
        def refuse(status):
            raise AssertionError(f"os._exit({status}) called")

        monkeypatch.setattr(os, "_exit", refuse)
        for command in ("analyze", "generate", "calendars"):
            assert main(self.command_args(command, synth_log, tmp_path)) == 0

    def test_console_script_is_what_the_main_block_calls(self):
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as handle:
            target = tomllib.load(handle)["project"]["scripts"]["wtminer"]
        module, _, name = target.partition(":")
        script_entry = getattr(importlib.import_module(module), name)
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        [block] = [
            node
            for node in tree.body
            if isinstance(node, ast.If)
            and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        [call] = [node for node in ast.walk(block) if isinstance(node, ast.Call)]
        assert getattr(cli, call.func.id) is script_entry is cli.console_entry


class TestImportFootprint:
    def test_analyze_never_imports_synth(self, synth_log, tmp_path):
        # Only `generate` needs the synthetic-log generator; the package
        # still exports its names, loaded on first use.
        script = textwrap.dedent(
            """
            import io, sys, contextlib
            import wtminer.cli
            wtminer.cli.build_parser()
            assert "wtminer.synth" not in sys.modules, "build_parser"
            with contextlib.redirect_stdout(io.StringIO()):
                code = wtminer.cli.main(["analyze", "--log", sys.argv[1], "--out", sys.argv[2]])
            assert code == 0, code
            assert "wtminer.synth" not in sys.modules, "analyze"
            import wtminer
            assert "InjectionSpec" in wtminer.__all__ and "generate" in wtminer.__all__
            from wtminer import generate, InjectionSpec
            assert generate(InjectionSpec(n_cases=2, seed=1)).log.instances
            assert "wtminer.synth" in sys.modules
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(synth_log), str(tmp_path / "out")],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr

    def test_analyze_never_imports_dataclasses(self, synth_log, tmp_path):
        # Generating dataclass or NamedTuple code at import, and importing
        # `dataclasses` with `inspect`, costs every process milliseconds, so
        # the analysis types are written out; `analyze` reads and writes
        # through the C modules `_csv`, `_datetime` and `_json`, not their
        # Python wrappers, and annotations need no `typing`. Only a frozen
        # type's assignment error path imports `dataclasses`, for
        # `FrozenInstanceError`, and only a mapping or overrides file needs
        # `json`. Only modules added after the script starts count, so a site
        # hook that preloads one changes nothing. A site-packages `.pth` hook
        # can preload `typing` (one CPython 3.11.7 install does), so for
        # `typing` the test that can fail is `test_golden`'s run under the
        # other interpreters.
        with synth_log.open() as handle:
            resource = next(csv.DictReader(handle))["resource"]
        mapping = tmp_path / "mapping.json"
        mapping.write_text(json.dumps({"case_column": "case_id"}))
        overrides = tmp_path / "overrides.json"
        week = [{"day": "MON", "from": "09:00", "to": "17:00"}]
        overrides.write_text(json.dumps({resource: week}))
        script = textwrap.dedent(
            """
            import sys
            before = set(sys.modules)
            import collections
            namedtuple = collections.namedtuple
            def refuse(*args, **kwargs):
                raise AssertionError("collections.namedtuple called")
            collections.namedtuple = refuse
            import io, contextlib
            import wtminer.cli
            wtminer.cli.build_parser()
            heavy = {"typing", "dataclasses", "inspect", "json", "csv", "datetime"}
            def added():
                return heavy & (set(sys.modules) - before)
            assert not added(), ("build_parser", added())
            log, out, mapping, overrides, resource = sys.argv[1:]
            def analyze(*extra):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = wtminer.cli.main(["analyze", "--log", log, "--out", out, *extra])
                assert code == 0, code
            analyze()
            assert not added(), ("analyze", added())
            collections.namedtuple = namedtuple  # `dataclasses` imports modules that call it
            from wtminer.model import ActivityInstance
            inst = ActivityInstance("c1", "a", "r1", 0, 5)
            try:
                inst.started = 1
            except AttributeError as exc:
                import dataclasses
                assert type(exc) is dataclasses.FrozenInstanceError, type(exc)
            else:
                raise AssertionError("assignment succeeded")
            assert inst.started == 0
            analyze("--mapping", mapping, "--calendar-overrides", overrides)
            assert "json" in added()
            import json
            with open(out + "/report.json") as handle:
                assert json.load(handle)["overridden_resources"] == [resource]
            """
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                script,
                str(synth_log),
                str(tmp_path / "out"),
                str(mapping),
                str(overrides),
                resource,
            ],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr

    def test_fallbacks_write_the_same_bytes(self, synth_log, tmp_path):
        # Without the C modules `_json` and `_datetime`, report quoting and
        # timestamp parsing fall back to the public Python modules, and every
        # output byte stays the same.
        script = textwrap.dedent(
            """
            import sys
            log, out, fallback = sys.argv[1:]
            if fallback == "1":
                sys.modules["_json"] = sys.modules["_datetime"] = None
            import io, contextlib
            import wtminer.cli
            from wtminer import ingest, report
            assert ingest._C_PARSER is (fallback == "0")
            assert (report._quote.__module__ == "_json") is (fallback == "0")
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                code = wtminer.cli.main(
                    ["analyze", "--log", log, "--out", out, "--emit-calendars"]
                )
            assert code == 0, code
            sys.stdout.write(stdout.getvalue())
            """
        )
        outputs = []
        for fallback in ("0", "1"):
            out = tmp_path / fallback
            proc = subprocess.run(
                [sys.executable, "-c", script, str(synth_log), str(out), fallback],
                capture_output=True,
                text=True,
                env=_child_env(),
            )
            assert proc.returncode == 0, proc.stderr
            files = ("report.json", "transitions.csv")
            stdout = proc.stdout.replace(str(out), "OUT")
            outputs.append((stdout, [(out / name).read_bytes() for name in files]))
        assert outputs[0] == outputs[1]

    def test_cause_names_are_the_injection_flags(self):
        # `generate --causes` is parsed against the decomposition's causes.
        from wtminer import synth
        from wtminer.decomposition import CAUSES

        assert synth.CAUSES is CAUSES


class TestDefaults:
    def test_analyze_defaults_are_the_config_defaults(self):
        args = build_parser().parse_args(["analyze", "--log", "x", "--out", "y"])
        assert _pipeline_config(args) == PipelineConfig()

    def test_calendars_defaults_are_the_calendar_defaults(self):
        args = build_parser().parse_args(["calendars", "--log", "x"])
        assert _calendar_params(args) == CalendarParams()

    def test_gap_tolerance_help_says_what_is_measured(self, capsys):
        # The gap runs from one member's completion to the next member's
        # start, as `test_batching::TestDetectBatches::test_gap_tolerance` checks.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "from one batch member's completion to the next member's start" in help_text


ISO_TIMES = (
    "2023-01-02T09:00:00Z",
    "2023-01-02T09:30:00Z",
    "2023-01-02T10:00:00+01:00",
    "2023-01-03T09:00:00",
    "2023-01-02T09:45:00.250Z",
    "9999-12-31T23:59:59-05:00",
    "9999-12-31T20:00:00+14:00",
    "0001-01-01T00:00:00+05:00",
)
EPOCH_TIMES = (
    "1672650000",
    "1672653600",
    "1672740000",
    "0",
    "-1",
    "253402300800",
    "-62135596801",
    "99999999999999999999",
)
IDS = {"case_id": ("c1", "c2"), "activity": ("a", "b"), "resource": ("R1", "R2", "")}
TIME_COLUMNS = ("start_time", "end_time", "enabled_time")
TRICKY = ("", " ", "\ufeff", "\x00", '"', 'a"b', "a,b", "x\ny") + ISO_TIMES + EPOCH_TIMES


@st.composite
def fuzzed_logs(draw):
    """CSV bytes with permuted headers, tricky fields, reversed and
    out-of-range times, short and long rows, and an optional mapping."""
    mapping = draw(
        st.sampled_from(
            [
                None,
                {"timestamp_format": "epoch"},
                {"enabled_column": "enabled_time"},
                {"enabled_column": "enabled_time", "timestamp_format": "epoch"},
            ]
        )
    )
    times = EPOCH_TIMES if mapping and "timestamp_format" in mapping else ISO_TIMES
    plausible = {**IDS, **dict.fromkeys(TIME_COLUMNS, times)}
    header = list(draw(st.permutations(list(plausible))))
    if draw(st.booleans()):
        header.remove("enabled_time")
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        header.pop(draw(st.integers(min_value=0, max_value=len(header) - 1)))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        row = [
            draw(st.sampled_from(TRICKY if draw(st.integers(0, 3)) == 0 else plausible[name]))
            for name in header
        ]
        extra = draw(st.sampled_from([0, 0, 0, -2, -1, 1, 2]))
        rows.append(row[:extra] if extra < 0 else row + ["x"] * extra)
    text = io.StringIO()
    if draw(st.booleans()):
        csv.writer(text, lineterminator="\n").writerows([header, *rows])
    else:
        # Unquoted joins: stray quotes, commas and newlines break the rows.
        text.write("\n".join(",".join(row) for row in [header, *rows]) + "\n")
    data = text.getvalue().encode("utf-8")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    return data, mapping


class TestFuzzedLogs:
    @settings(max_examples=100, deadline=None)
    @given(fuzzed_logs())
    def test_only_typed_failures(self, scenario):
        data, mapping = scenario
        with tempfile.TemporaryDirectory() as tmp:
            log = Path(tmp) / "log.csv"
            log.write_bytes(data)
            argv = ["analyze", "--log", str(log), "--out", str(Path(tmp) / "out")]
            if mapping is not None:
                mapping_path = Path(tmp) / "mapping.json"
                mapping_path.write_text(json.dumps(mapping))
                argv += ["--mapping", str(mapping_path)]
            assert main(argv) in (0, 1, 2)
            try:
                load_log(log, ColumnMapping.from_dict(mapping or {}))
            except (ConfigError, IngestError):
                pass


VALID_TIMES = (
    (1672650000, 1672651800, 1672649400),
    (1672652400, 1672653600, 1672651800),
    (1672650600, 1672653000, 1672650000),
    (1672653600, 1672655400, 1672653000),
)
ODD_BYTES = (b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00", b"\r", b"\r\n", b'"', b",", b"\xef\xbb\xbf")


@st.composite
def spliced_logs(draw):
    """A valid log with up to three spans of arbitrary bytes spliced in:
    invalid UTF-8 mid-file, NUL bytes, stray carriage returns and quotes."""
    mapping = draw(
        st.sampled_from([None, {"timestamp_format": "epoch"}, {"enabled_column": "enabled_time"}])
    )
    epoch = mapping is not None and "timestamp_format" in mapping
    lines = ["case_id,activity,resource,start_time,end_time,enabled_time"]
    for k, times in enumerate(VALID_TIMES):
        stamps = [str(t) if epoch else format_timestamp(t) for t in times]
        lines.append(f"C{k // 2},{'AB'[k % 2]},R{k % 2},{','.join(stamps)}")
    data = ("\n".join(lines) + "\n").encode("utf-8")
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(data)))
        cut = draw(st.integers(min_value=0, max_value=4))
        chunk = draw(st.one_of(st.binary(min_size=1, max_size=8), st.sampled_from(ODD_BYTES)))
        data = data[:at] + chunk + data[at + cut:]
    return data, mapping


class TestArbitraryBytes:
    @settings(max_examples=100, deadline=None)
    @given(spliced_logs())
    def test_only_typed_failures(self, scenario):
        data, mapping = scenario
        with tempfile.TemporaryDirectory() as tmp:
            log = Path(tmp) / "log.csv"
            log.write_bytes(data)
            argv = ["analyze", "--log", str(log), "--out", str(Path(tmp) / "out")]
            if mapping is not None:
                mapping_path = Path(tmp) / "mapping.json"
                mapping_path.write_text(json.dumps(mapping))
                argv += ["--mapping", str(mapping_path)]
            assert main(argv) in (0, 1, 2)
            try:
                load_log(log, ColumnMapping.from_dict(mapping or {}))
            except (ConfigError, IngestError):
                pass
