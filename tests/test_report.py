"""Tests for report serialization: JSON shape, CSV layout, determinism."""
import importlib.util
import itertools
import json
import math
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import stdlib_report_json
from wtminer.ingest import load_log
from wtminer.pipeline import PipelineConfig, run_pipeline
from wtminer.report import (
    TRANSITIONS_CSV_COLUMNS,
    atomic_write_text,
    build_report,
    pretty_duration,
    report_json,
    significant,
    summary_text,
    transitions_csv,
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


class TestReportShape:
    def test_validates_against_shipped_schema(self, mixed_result):
        report = build_report(mixed_result)
        jsonschema.validate(report, load_schema())

    def test_validates_with_calendars_and_ingest(self, mixed_result, tmp_path):
        from wtminer.synth import write_files
        from wtminer.ingest import load_log

        gen = generate(InjectionSpec(contention=True, n_cases=20, seed=0))
        path = tmp_path / "log.csv"
        write_files(gen, path)
        loaded = load_log(path)
        result = run_pipeline(loaded.log)
        report = build_report(
            result, ingest_stats=loaded.stats, emit_calendars=True
        )
        jsonschema.validate(report, load_schema())
        assert report["ingest"]["rows_total"] == 100
        assert {c["resource"] for c in report["calendars"]} == set(
            result.log.resources
        )

    def test_top_level_key_order_is_fixed(self, mixed_result):
        report = build_report(mixed_result)
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

    def test_causes_in_canonical_order(self, mixed_result):
        report = build_report(mixed_result)
        assert [c["cause"] for c in report["causes"]] == [
            "batching",
            "contention",
            "prioritization",
            "unavailability",
            "extraneous",
        ]

    def test_parameters_echo_config(self):
        from wtminer.batching import BatchingConfig
        from wtminer.calendars import CalendarParams
        from wtminer.concurrency import OracleThresholds

        config = PipelineConfig(
            thresholds=OracleThresholds(dependency_threshold=0.7),
            batching=BatchingConfig(gap_tolerance=30, min_batch_size=4),
            calendars=CalendarParams(granule_minutes=30, confidence=0.9),
        )
        gen = generate(InjectionSpec.from_bits("11111", n_cases=30, seed=2))
        report = build_report(run_pipeline(gen.log, config))
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

    def test_transition_rows_sorted_by_waiting_time(self, mixed_result):
        report = build_report(mixed_result)
        waits = [t["waiting_time"]["seconds"] for t in report["transitions"]]
        assert waits == sorted(waits, reverse=True)


class TestTransitionsCsv:
    def test_header_matches_contract(self, mixed_result):
        lines = transitions_csv(mixed_result).splitlines()
        assert lines[0] == ",".join(TRANSITIONS_CSV_COLUMNS)

    def test_cause_columns_sum_to_total(self, mixed_result):
        rows = transitions_csv(mixed_result).splitlines()[1:]
        for row in rows:
            parts = row.split(",")
            total = int(parts[4])
            by_cause = [int(v) for v in parts[5:10]]
            assert sum(by_cause) == total


class TestDeterminism:
    def test_rerun_yields_identical_bytes(self):
        gen = generate(InjectionSpec.from_bits("01010", n_cases=25, seed=8))
        a = run_pipeline(gen.log)
        b = run_pipeline(gen.log)
        assert report_json(build_report(a)) == report_json(build_report(b))
        assert transitions_csv(a) == transitions_csv(b)


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


def _load_wide_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "wide.py"
    spec = importlib.util.spec_from_file_location("perfbench_wide", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


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
    wide.write_text(_load_wide_module().generate(1).csv_text, encoding="utf-8", newline="")
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
            report = build_report(result, stats, emit_calendars=emit_calendars)
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


class TestSummaryText:
    def test_mentions_all_causes_and_cte(self, mixed_result):
        text = summary_text(mixed_result)
        for cause in ("batching", "contention", "prioritization",
                      "unavailability", "extraneous"):
            assert cause in text
        assert "CTE:" in text
