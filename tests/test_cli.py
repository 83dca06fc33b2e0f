"""Tests for the command-line interface: verbs, flags, exit codes."""
import csv
import gc
import io
import json
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
from wtminer.calendars import CalendarParams
from wtminer.cli import _calendar_params, _pipeline_config, build_parser, main
from wtminer.ingest import ColumnMapping, format_timestamp, load_log
from wtminer.model import ConfigError, IngestError
from wtminer.pipeline import PipelineConfig, run_pipeline
from wtminer.synth import InjectionSpec, generate, write_files
from test_golden import _write_loopy_log


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


class TestCollectorPause:
    """`analyze` pauses the cyclic collector, which is safe only because load
    and pipeline leave no reference cycles behind."""

    @pytest.mark.parametrize("kind", ["all_causes", "loopy"])
    def test_load_and_pipeline_create_no_cycles(self, kind, tmp_path):
        path = tmp_path / f"{kind}.csv"
        if kind == "loopy":
            _write_loopy_log(path)
        else:
            spec = InjectionSpec.from_bits("11111", n_cases=80, seed=5)
            write_files(generate(spec), path)
        gc.collect()
        gc.disable()
        try:
            loaded = load_log(path)
            assert gc.collect() == 0
            result = run_pipeline(loaded.log)
            assert result.decompositions
            del loaded, result
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_collector_is_back_after_success(self, synth_log, tmp_path, capsys):
        assert main(["analyze", "--log", str(synth_log), "--out", str(tmp_path)]) == 0
        assert gc.isenabled()

    def test_collector_resumes_after_the_run_is_freed(
        self, synth_log, tmp_path, capsys, monkeypatch
    ):
        # A collection after `gc.enable` would walk every object the run
        # built if the result were still alive.
        results = []
        alive_at_enable = []
        run_pipeline = cli.run_pipeline
        enable = gc.enable

        def keep_a_weakref(*args, **kwargs):
            result = run_pipeline(*args, **kwargs)
            results.append(weakref.ref(result))
            return result

        def record_and_enable():
            alive_at_enable.append([ref() is not None for ref in results])
            enable()

        monkeypatch.setattr(cli, "run_pipeline", keep_a_weakref)
        monkeypatch.setattr(gc, "enable", record_and_enable)
        assert main(["analyze", "--log", str(synth_log), "--out", str(tmp_path)]) == 0
        assert alive_at_enable == [[False]]
        assert gc.isenabled()

    def test_collector_is_back_after_ingest_error(self, tmp_path, capsys):
        log = tmp_path / "empty.csv"
        log.write_text("case_id,activity,resource,start_time,end_time\n")
        with pytest.raises(IngestError):
            load_log(log)
        assert main(["analyze", "--log", str(log), "--out", str(tmp_path / "o")]) == 1
        assert gc.isenabled()


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


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "wtminer.cli", "generate", "--causes", "none",
             "-o", str(tmp_path / "m.csv")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "m.csv").exists()

    def test_usage_exit_code_via_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wtminer.cli", "analyze"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2


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
        )
        assert proc.returncode == 0, proc.stderr

    def test_analyze_never_imports_dataclasses(self, synth_log, tmp_path):
        # Generating dataclass or NamedTuple code at import, and importing
        # `dataclasses` with `inspect`, costs every process milliseconds, so
        # the analysis types are written out; `analyze` reads and writes
        # through the C modules `_csv`, `_datetime` and `_json`, not their
        # Python wrappers. Only a frozen type's assignment error path imports
        # `dataclasses`, for `FrozenInstanceError`, and only a mapping or
        # overrides file needs `json`. Only modules added after the script
        # starts count, so a site hook that preloads one changes nothing.
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
            heavy = {"dataclasses", "inspect", "json", "csv", "datetime"}
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
            )
            assert proc.returncode == 0, proc.stderr
            files = ("report.json", "transitions.csv")
            stdout = proc.stdout.replace(str(out), "OUT")
            outputs.append((stdout, [(out / name).read_bytes() for name in files]))
        assert outputs[0] == outputs[1]

    def test_cause_names_are_the_injection_flags(self):
        # `generate --causes` is parsed against the decomposition's causes.
        from wtminer.decomposition import CAUSES
        from wtminer.synth import CAUSE_FLAGS

        assert CAUSES == CAUSE_FLAGS


class TestDefaults:
    def test_analyze_defaults_are_the_config_defaults(self):
        args = build_parser().parse_args(["analyze", "--log", "x", "--out", "y"])
        assert _pipeline_config(args) == PipelineConfig()

    def test_calendars_defaults_are_the_calendar_defaults(self):
        args = build_parser().parse_args(["calendars", "--log", "x"])
        assert _calendar_params(args) == CalendarParams()


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
