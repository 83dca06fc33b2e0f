"""Tests for report serialization: JSON shape, CSV layout, determinism."""
import itertools
import json
import math
import os
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import brute_report, stdlib_report_json, transitions_csv
from test_golden import load_wide_module
from wtminer.analysis import AnalysisResult, TransitionImpact
from wtminer.ingest import load_log
from wtminer.pipeline import PipelineConfig, PipelineResult, run_pipeline
from wtminer import report as report_module
from wtminer.report import (
    TRANSITIONS_CSV_COLUMNS,
    atomic_write_text,
    pretty_duration,
    report_json,
    significant,
    summary_text,
    write_report_files,
)
from wtminer.synth import InjectionSpec, generate, write_files


def load_schema():
    text = (
        resources.files("wtminer")
        .joinpath("schemas/report.schema.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


@pytest.fixture(scope="module")
def mixed_result():
    gen = generate(InjectionSpec.from_bits("11111", n_cases=30, seed=2))
    return run_pipeline(gen.log)


class TestPrettyDuration:
    @pytest.mark.parametrize(
        "seconds,expected",
        [
            (0, "0m"),
            (59, "0m"),
            (60, "1m"),
            (3600, "1h 0m"),
            (5400, "1h 30m"),
            (86400, "1d 0h 0m"),
            (1101 * 86400 + 5 * 3600 + 34 * 60, "1101d 5h 34m"),
        ],
    )
    def test_examples(self, seconds, expected):
        assert pretty_duration(seconds) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pretty_duration(-1)


class TestSignificant:
    def test_four_significant_digits(self):
        assert significant(0.068104667) == 0.06810
        assert significant(0.14526047) == 0.1453
        assert significant(1.0) == 1.0
        assert significant(0.0) == 0.0


def written_report(result, out_dir, ingest_stats=None, emit_calendars=False) -> dict:
    """`report.json` as `write_report_files` writes it, parsed."""
    return json.loads(written(result, out_dir, ingest_stats, emit_calendars)[0])


class TestReportShape:
    def test_validates_against_shipped_schema(self, mixed_result, tmp_path):
        report = written_report(mixed_result, tmp_path)
        jsonschema.validate(report, load_schema())

    def test_validates_with_calendars_and_ingest(self, mixed_result, tmp_path):
        from wtminer.synth import write_files
        from wtminer.ingest import load_log

        gen = generate(InjectionSpec(contention=True, n_cases=20, seed=0))
        path = tmp_path / "log.csv"
        write_files(gen, path)
        loaded = load_log(path)
        result = run_pipeline(loaded.log)
        report = written_report(
            result, tmp_path / "out", ingest_stats=loaded.stats, emit_calendars=True
        )
        jsonschema.validate(report, load_schema())
        assert report["ingest"]["rows_total"] == 100
        assert {c["resource"] for c in report["calendars"]} == set(
            result.log.resources
        )

    def test_top_level_key_order_is_fixed(self, mixed_result, tmp_path):
        report = written_report(mixed_result, tmp_path)
        assert list(report) == [
            "schema_version",
            "summary",
            "parameters",
            "ingest",
            "enablement",
            "causes",
            "transitions",
            "overridden_resources",
        ]

    def test_causes_in_canonical_order(self, mixed_result, tmp_path):
        report = written_report(mixed_result, tmp_path)
        assert [c["cause"] for c in report["causes"]] == [
            "batching",
            "contention",
            "prioritization",
            "unavailability",
            "extraneous",
        ]

    def test_parameters_echo_config(self, tmp_path):
        from wtminer.batching import BatchingConfig
        from wtminer.calendars import CalendarParams
        from wtminer.concurrency import OracleThresholds

        config = PipelineConfig(
            thresholds=OracleThresholds(dependency_threshold=0.7),
            batching=BatchingConfig(gap_tolerance=30, min_batch_size=4),
            calendars=CalendarParams(granule_minutes=30, confidence=0.9),
        )
        gen = generate(InjectionSpec.from_bits("11111", n_cases=30, seed=2))
        report = written_report(run_pipeline(gen.log, config), tmp_path)
        # Every value the run used, not the defaults.
        assert report["parameters"] == {
            "dependency_threshold": 0.7,
            "min_bidirectional_observations": 1,
            "length2_loop_guard": True,
            "granule_minutes": 30,
            "confidence": 0.9,
            "support": 0.1,
            "max_relaxations": 10,
            "gap_tolerance_s": 30,
            "min_batch_size": 4,
        }

    def test_transition_rows_sorted_by_waiting_time(self, mixed_result, tmp_path):
        report = written_report(mixed_result, tmp_path)
        waits = [t["waiting_time"]["seconds"] for t in report["transitions"]]
        assert waits == sorted(waits, reverse=True)


def written(result, out_dir, ingest_stats=None, emit_calendars=False) -> tuple[str, str]:
    """The text of `report.json` and `transitions.csv` as `write_report_files` writes them."""
    paths = write_report_files(result, out_dir, ingest_stats, emit_calendars)
    return tuple(
        paths[name].read_bytes().decode("utf-8") for name in ("report", "transitions")
    )


def assert_written_matches_oracles(result, out_dir, ingest_stats=None, emit_calendars=False):
    report, rows = written(result, out_dir, ingest_stats, emit_calendars)
    assert report == stdlib_report_json(brute_report(result, ingest_stats, emit_calendars))
    assert rows == transitions_csv(result)


class TestTransitionsCsv:
    def test_header_matches_contract(self, mixed_result, tmp_path):
        lines = written(mixed_result, tmp_path)[1].splitlines()
        assert lines[0] == ",".join(TRANSITIONS_CSV_COLUMNS)

    def test_cause_columns_sum_to_total(self, mixed_result, tmp_path):
        rows = written(mixed_result, tmp_path)[1].splitlines()[1:]
        assert rows
        for row in rows:
            parts = row.split(",")
            total = int(parts[4])
            by_cause = [int(v) for v in parts[5:10]]
            assert sum(by_cause) == total


class TestDeterminism:
    def test_rerun_yields_identical_bytes(self, tmp_path):
        gen = generate(InjectionSpec.from_bits("01010", n_cases=25, seed=8))
        a = run_pipeline(gen.log)
        b = run_pipeline(gen.log)
        assert written(a, tmp_path / "a") == written(b, tmp_path / "b")


_SPECIAL_CHARS = ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "\u00e9",
                  "\u2028", "\uffff", "\U0001f600", "\ud800", "\udfff"]
_SPECIAL_NUMBERS = [0, -1, 2**64, -(2**100), -0.0, 5e-324, 1e16, 1e300, -1e-7, 0.1]

json_text = st.text(
    alphabet=st.one_of(st.characters(), st.sampled_from(_SPECIAL_CHARS)), max_size=12
)
json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(_SPECIAL_NUMBERS),
        json_text,
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(json_text, children, max_size=4),
    ),
    max_leaves=30,
)


@pytest.fixture(scope="module")
def real_runs(tmp_path_factory):
    """The pipeline results and ingest stats of the 32 grid logs
    (`generate --grid --cases 60 --seed 3`) and of the `wide` benchmark log,
    seed 1, each loaded from its CSV as `wtminer analyze` loads it."""
    root = tmp_path_factory.mktemp("real")
    paths = []
    for index, combo in enumerate(itertools.product("01", repeat=5)):
        bits = "".join(combo)
        path = root / f"grid_{bits}.csv"
        write_files(generate(InjectionSpec.from_bits(bits, n_cases=60, seed=3 + index)), path)
        paths.append(path)
    wide = root / "wide.csv"
    wide.write_text(load_wide_module().generate(1).csv_text, encoding="utf-8", newline="")
    paths.append(wide)
    runs = []
    for path in paths:
        loaded = load_log(path)
        runs.append((path.stem, run_pipeline(loaded.log), loaded.stats))
    return runs


class TestReportJson:
    @settings(max_examples=200, deadline=None)
    @given(json_values)
    def test_matches_stdlib_on_json_values(self, value):
        assert report_json(value) == stdlib_report_json(value)

    @pytest.mark.parametrize("emit_calendars", [False, True])
    def test_matches_stdlib_on_real_reports(self, real_runs, emit_calendars):
        assert len(real_runs) == 33
        for name, result, stats in real_runs:
            report = brute_report(result, stats, emit_calendars=emit_calendars)
            assert report_json(report) == stdlib_report_json(report), name

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_raise_value_error(self, value):
        for report in (value, {"cte": value}, [1, [value]]):
            with pytest.raises(ValueError):
                stdlib_report_json(report)
            with pytest.raises(ValueError):
                report_json(report)

    @pytest.mark.parametrize("value", [{1: "a"}, {"a": {1, 2}}, [b"x"], (1,), object()])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            report_json(value)


# Activity names that quoting, CSV escaping and the `%` entry template must handle.
_HARD_NAMES = ['say "hi"', "back\\slash", "a,b", "two\nlines", "cr\rlf",
               "\x00\x01\x1f\x7f", "tab\there", "caf\u00e9", "\u65e5\u672c",
               "\u2028\U0001f600", " padded ", "50% %s", ""]


def with_transitions(result: PipelineResult, impacts) -> PipelineResult:
    """`result` with its transition impacts replaced by `impacts`."""
    analysis = AnalysisResult(**{**result.analysis.as_dict(), "per_transition": tuple(impacts)})
    return PipelineResult(**{**result.as_dict(), "analysis": analysis})


def impact(source, target, case_freq=0.5, after=0.5, delta=0.01, wt=3600):
    by_cause = {"batching": wt, "contention": 0, "prioritization": 0,
                "unavailability": 0, "extraneous": 0}
    return TransitionImpact(source, target, case_freq, 7, wt, by_cause, after, delta)


class TestRenderedFiles:
    """`write_report_files` renders each transition once; `brute_report`
    through `json.dumps`, and a separate `csv.writer` pass, are its oracles."""

    @pytest.mark.parametrize("emit_calendars", [False, True])
    def test_match_oracles_on_real_reports(self, real_runs, tmp_path, emit_calendars):
        for name, result, stats in real_runs:
            assert_written_matches_oracles(result, tmp_path / name, stats, emit_calendars)

    def test_hard_activity_names(self, mixed_result, tmp_path):
        impacts = [impact(a, b) for a in _HARD_NAMES for b in _HARD_NAMES[:3]]
        impacts.append(impact("same", "same"))
        result = with_transitions(mixed_result, impacts)
        assert_written_matches_oracles(result, tmp_path)
        report = json.loads(written(result, tmp_path)[0])
        assert [t["source"] for t in report["transitions"]] == [t.source_activity for t in impacts]
        assert report["transitions"][-1]["self_loop"] is True

    @pytest.mark.parametrize(
        "ratio,text",
        [(0.00001, "1e-05"), (1.0, "1.0"), (0.123456, "0.1235"), (1e-300, "1e-300"),
         (123456.0, "123500.0"), (0.0, "0.0"), (-0.0, "-0.0"), (-2.5e-7, "-2.5e-07")],
    )
    def test_ratio_forms(self, mixed_result, tmp_path, ratio, text):
        result = with_transitions(mixed_result, [impact("a", "b", ratio, ratio, ratio)])
        assert_written_matches_oracles(result, tmp_path)
        report, rows = written(result, tmp_path)
        assert f'"case_freq": {text},' in report
        assert f'"cte_if_eliminated": {text},' in report
        assert f'"cte_delta": {text}\n' in report
        assert rows.splitlines()[1] == f"a,b,{text},7,3600,3600,0,0,0,0,{text}"

    def test_no_transitions(self, mixed_result, tmp_path):
        result = with_transitions(mixed_result, [])
        assert_written_matches_oracles(result, tmp_path)
        report, rows = written(result, tmp_path)
        assert '"transitions": [],' in report
        assert rows == ",".join(TRANSITIONS_CSV_COLUMNS) + "\r\n"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["case_freq", "after", "delta"])
    def test_non_finite_ratio_raises_value_error_and_writes_nothing(
        self, mixed_result, tmp_path, value, field
    ):
        result = with_transitions(mixed_result, [impact("a", "b", **{field: value})])
        with pytest.raises(ValueError):
            stdlib_report_json(brute_report(result))
        with pytest.raises(ValueError):
            write_report_files(result, tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestWriting:
    def test_write_report_files(self, mixed_result, tmp_path):
        paths = write_report_files(mixed_result, tmp_path / "out")
        report = json.loads(paths["report"].read_text())
        jsonschema.validate(report, load_schema())
        assert paths["transitions"].read_text().startswith("source,target")
        leftovers = list((tmp_path / "out").glob("*.tmp"))
        assert leftovers == []

    def test_atomic_write_replaces_existing(self, tmp_path):
        target = tmp_path / "file.txt"
        atomic_write_text(target, "first")
        atomic_write_text(target, "second")
        assert target.read_text() == "second"
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_new_files_follow_the_umask(self, mixed_result, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            paths = write_report_files(mixed_result, tmp_path / "out")
            atomic_write_text(tmp_path / "calendars.json", "{}")
        finally:
            os.umask(previous)
        for path in (*paths.values(), tmp_path / "calendars.json"):
            assert path.stat().st_mode & 0o777 == mode, path.name

    def test_taken_temp_name_is_skipped_and_kept(self, tmp_path, monkeypatch):
        monkeypatch.setattr(report_module, "_TMP_SERIAL", itertools.count(7))
        taken = tmp_path / f"file.txt.{os.getpid()}.7.tmp"
        taken.write_text("someone else's")
        target = tmp_path / "file.txt"
        atomic_write_text(target, "mine")
        assert target.read_text() == "mine"
        assert taken.read_text() == "someone else's"
        assert sorted(tmp_path.iterdir()) == [target, taken]

    @pytest.mark.parametrize(
        "name, error",
        [("missing/file.txt", FileNotFoundError), ("taken", IsADirectoryError)],
        ids=["no-directory", "target-is-a-directory"],
    )
    def test_os_error_names_the_target_not_the_temp_file(self, tmp_path, name, error):
        # Creating the temp file fails in the first case, the rename in the second.
        (tmp_path / "taken").mkdir()
        target = tmp_path / name
        with pytest.raises(error) as caught:
            atomic_write_text(target, "text")
        assert caught.value.filename == str(target)
        assert caught.value.filename2 is None
        assert ".tmp" not in str(caught.value)
        assert sorted(tmp_path.iterdir()) == [tmp_path / "taken"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "file.txt"
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(target, "lone surrogate \ud800")
        assert list(tmp_path.iterdir()) == []


class TestSummaryText:
    def test_mentions_all_causes_and_cte(self, mixed_result):
        text = summary_text(mixed_result)
        for cause in ("batching", "contention", "prioritization",
                      "unavailability", "extraneous"):
            assert cause in text
        assert "CTE:" in text
