"""Tests for report serialization: JSON shape, CSV layout, determinism."""
import json
from importlib import resources

import jsonschema
import pytest

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
from wtminer.synth import InjectionSpec, generate


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

    def test_parameters_echo_config(self, mixed_result):
        from wtminer.batching import BatchingConfig
        from wtminer.calendars import CalendarParams
        from wtminer.concurrency import OracleThresholds

        config = PipelineConfig(
            thresholds=OracleThresholds(dependency_threshold=0.7),
            batching=BatchingConfig(gap_tolerance=30),
            calendars=CalendarParams(granule_minutes=30),
        )
        report = build_report(mixed_result, config=config)
        assert report["parameters"]["dependency_threshold"] == 0.7
        assert report["parameters"]["gap_tolerance_s"] == 30
        assert report["parameters"]["granule_minutes"] == 30

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
