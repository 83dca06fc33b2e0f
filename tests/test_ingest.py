"""CSV ingest tests: mapping validation, row rejection, warning counters,
and equivalence with the `csv.DictReader` loader kept as an oracle."""
from __future__ import annotations

import calendar
import csv
import io
import tempfile
from datetime import datetime
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import dictreader_load_log
from wtminer.ingest import (
    ISO_8601,
    ColumnMapping,
    IngestStats,
    _TimestampMemo,
    load_log,
    parse_timestamp,
)
from wtminer.model import ConfigError, IngestError, UNKNOWN_RESOURCE


def write_csv(tmp_path, rows, header="case_id,activity,resource,start_time,end_time"):
    path = tmp_path / "log.csv"
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


class TestParseTimestamp:
    def test_utc_suffix(self):
        assert parse_timestamp("1970-01-01T00:30:00Z", "iso8601") == 1800

    def test_explicit_offset(self):
        assert parse_timestamp("1970-01-01T01:30:00+01:00", "iso8601") == 1800

    def test_naive_read_as_utc_and_counted(self):
        stats = IngestStats()
        assert parse_timestamp("1970-01-01T00:30:00", "iso8601", stats) == 1800
        assert stats.naive_timestamps == 1

    def test_subseconds_floored_and_counted(self):
        stats = IngestStats()
        assert parse_timestamp("1970-01-01T00:30:00.900Z", "iso8601", stats) == 1800
        assert stats.truncated_timestamps == 1

    def test_epoch_format(self):
        assert parse_timestamp("1800", "epoch") == 1800

    def test_epoch_beyond_datetime_range_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_timestamp("99999999999999", "epoch")

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            parse_timestamp("not a time", "iso8601")

    @staticmethod
    def assert_epoch_rejected(tmp_path, text):
        with pytest.raises(ValueError, match="ASCII digits"):
            parse_timestamp(text, "epoch")
        path = write_csv(
            tmp_path, ["C1,A,R1,1672650000,1672651800", f"C1,B,R1,{text},{text}"]
        )
        result = load_log(path, ColumnMapping(timestamp_format="epoch"))
        (inst,) = result.log.instances
        assert inst.activity == "A"
        assert result.stats.rows_rejected == 1

    def test_epoch_full_width_digits_rejected(self, tmp_path):
        full_width = "".join(chr(ord("\uff10") + int(d)) for d in "1672651800")
        self.assert_epoch_rejected(tmp_path, full_width)

    def test_epoch_underscores_rejected(self, tmp_path):
        self.assert_epoch_rejected(tmp_path, "1_672_651_800")

    def test_epoch_plus_sign_rejected(self, tmp_path):
        self.assert_epoch_rejected(tmp_path, "+1672651800")

    def test_negative_epoch_accepted(self):
        assert parse_timestamp("-1800", "epoch") == -1800

    def test_lone_minus_sign_rejected(self):
        with pytest.raises(ValueError, match="ASCII digits"):
            parse_timestamp("-", "epoch")


class TestIsoForms:
    """One set of ISO 8601 extended forms, read alike on every supported
    Python: 3.11's `fromisoformat` also takes basic and week dates and
    one-digit fractions, which 3.10's rejects."""

    def test_one_digit_fraction_read_and_floored(self):
        stats = IngestStats()
        assert parse_timestamp("2023-01-02T09:00:00.1Z", ISO_8601, stats) == 1672650000
        assert stats.truncated_timestamps == 1

    def test_comma_fraction_read_and_floored(self):
        stats = IngestStats()
        assert parse_timestamp("2023-01-02T09:00:00,5Z", ISO_8601, stats) == 1672650000
        assert stats.truncated_timestamps == 1

    def test_basic_form_rejected(self):
        with pytest.raises(ValueError, match="ISO 8601 extended"):
            parse_timestamp("20230102T090000Z", ISO_8601)

    def test_week_date_rejected(self):
        with pytest.raises(ValueError, match="ISO 8601 extended"):
            parse_timestamp("2023-W01-1T09:00:00Z", ISO_8601)

    @pytest.mark.parametrize(
        "text",
        [
            "2023-01-02T09:00:00+0100",
            "2023-01-02T09:00:00+01",
            "2023-01-02T0900",
            "2023-002T09:00",
            "2023-01-02X09:00:00Z",
            "2023-01-02T09:00X+01:00",
            "2023-01-02T09.5Z",
            "2023-01-02T09:00:00:123",
            "2023-01-02T09:00:00+00:00:00.500000",
            "2023-01-02T09:00:00.12aZ",
            "2023-01-02Z",
            "2023-01-02T",
            "\uff12023-01-02T09:00:00Z",
        ],
    )
    def test_other_forms_rejected(self, text):
        with pytest.raises(ValueError):
            parse_timestamp(text, ISO_8601)

    @pytest.mark.parametrize(
        "text, seconds, naive, truncated",
        [
            ("2023-01-02", 1672617600, 1, 0),
            ("2023-01-02T09", 1672650000, 1, 0),
            ("2023-01-02 09:00", 1672650000, 1, 0),
            ("2023-01-02t09:00:00z", 1672650000, 0, 0),
            ("2023-01-02T09:00:00.123", 1672650000, 1, 1),
            ("2023-01-02T09:00:00.000Z", 1672650000, 0, 0),
            ("2023-01-02T09:00:00.0000009Z", 1672650000, 0, 0),
            ("2023-01-02T09:00:00.999999999Z", 1672650000, 0, 1),
            ("2023-01-02T10:00:00+01:00", 1672650000, 0, 0),
            ("2023-01-02T08:59:30-00:00:30", 1672650000, 0, 0),
            ("2023-01-02T09:00:00+01:00:30", 1672646370, 0, 0),
            ("1969-12-31T23:59:59.5Z", -1, 0, 1),
        ],
    )
    def test_accepted_forms(self, text, seconds, naive, truncated):
        stats = IngestStats()
        assert parse_timestamp(text, ISO_8601, stats) == seconds
        assert (stats.naive_timestamps, stats.truncated_timestamps) == (naive, truncated)

    @settings(max_examples=300, deadline=None)
    @given(
        st.datetimes(
            min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30, 23, 59, 59)
        ),
        st.sampled_from("Tt "),
        st.one_of(st.just(""), st.from_regex(r"[.,][0-9]{1,9}", fullmatch=True)),
        st.one_of(
            st.sampled_from(["", "Z", "z"]),
            st.tuples(st.sampled_from("+-"), st.integers(0, 23), st.integers(0, 59)),
        ),
    )
    def test_matches_calendar_arithmetic(self, when, sep, fraction, offset):
        # Independent of `fromisoformat`: whole seconds from `calendar.timegm`,
        # less the offset; the fraction only sets the truncated counter.
        offset_s = 0
        if isinstance(offset, tuple):
            sign, hours, minutes = offset
            offset_s = (1 if sign == "+" else -1) * (hours * 3600 + minutes * 60)
            offset = f"{sign}{hours:02d}:{minutes:02d}"
        text = (
            f"{when.year:04d}-{when.month:02d}-{when.day:02d}{sep}"
            f"{when.hour:02d}:{when.minute:02d}:{when.second:02d}{fraction}{offset}"
        )
        stats = IngestStats()
        expected = calendar.timegm(when.timetuple()) - offset_s
        assert parse_timestamp(text, ISO_8601, stats) == expected
        assert stats.naive_timestamps == (offset == "")
        assert stats.truncated_timestamps == (fraction[1:7].strip("0") != "")


# Texts for the memo's YYYY-MM-DDTHH:MM:SSZ fast path: that layout with valid
# and invalid fields, other shapes of 20 characters, and the other forms.
FAST_PATH_TEXTS = [
    "2023-01-02T09:00:00Z",
    "1970-01-01T00:00:00Z",
    "1969-12-31T23:59:59Z",
    "1900-03-01T12:34:56Z",
    "2024-02-29T23:59:59Z",
    "0001-01-01T00:00:00Z",
    "9999-12-31T23:59:59Z",
    "2023-13-01T00:00:00Z",
    "2023-00-10T00:00:00Z",
    "2023-02-29T00:00:00Z",
    "2023-04-31T00:00:00Z",
    "2023-01-01T24:00:00Z",
    "2023-01-01T00:60:00Z",
    "2023-01-01T00:00:60Z",
    "0000-01-01T00:00:00Z",
    "2023-01-02T09:00:+1Z",
    "2023-01-02T09:00:0.Z",
    "+023-01-02T09:00:00Z",
    "\uff12\uff10\uff12\uff13-01-02T09:00:00Z",
    "20230102T090000.123Z",
    "20230102T090000.1Z",
    "2023-01-02T09:00:00z",
    "2023-01-02 09:00:00Z",
    " 2023-01-02T09:00:0Z",
    " 2023-01-02T09:00:00Z",
    "2023-01-02T09:00:00Z ",
    "2023-01-02T09:00+01Z",
    "2023-01-02T09:00:00+01",
    "2023-01-02T09+01:00Z",
    "2023-01-02T09:00:00",
    "2023-01-02T09:00:00.5Z",
    "2023-01-02T09:00:00.500000",
    "2023-01-02T10:00:00+01:00",
    "2023-01-02T09:00:00.25-02:30",
    "2023-01-02",
    "",
    "not a time",
]


def assert_memo_matches_parse(text: str) -> None:
    """A fresh memo read twice gives what `parse_timestamp` gives, None where
    it raises, and adds its naive and truncated counts once per read."""
    expected_stats = IngestStats()
    try:
        expected = parse_timestamp(text, ISO_8601, expected_stats)
    except ValueError:
        expected = None
    stats = IngestStats()
    memo = _TimestampMemo(ISO_8601, stats)
    assert memo.read(text) == expected
    assert memo.read(text) == expected
    assert stats.naive_timestamps == 2 * expected_stats.naive_timestamps
    assert stats.truncated_timestamps == 2 * expected_stats.truncated_timestamps
    if expected is not None and not (
        expected_stats.naive_timestamps or expected_stats.truncated_timestamps
    ):
        assert memo.get(text) == expected  # a clean text is one lookup from then on


class TestTimestampFastPath:
    @pytest.mark.parametrize("text", FAST_PATH_TEXTS)
    def test_memo_matches_parse_timestamp(self, text):
        assert_memo_matches_parse(text)

    @settings(max_examples=300, deadline=None)
    @given(
        st.tuples(
            st.integers(0, 9999),
            st.integers(0, 13),
            st.integers(0, 32),
            st.integers(0, 24),
            st.integers(0, 60),
            st.integers(0, 60),
        ),
        st.sampled_from(["--T::Z", "--T::z", "-- ::Z", "--T:.Z"]),
        st.one_of(
            st.none(),
            st.tuples(st.integers(0, 19), st.sampled_from("09+-.:TZz \u0661\uff10")),
        ),
    )
    def test_memo_matches_parse_timestamp_on_layout_like_texts(self, fields, marks, edit):
        # Fields at and past their ranges between the layout's separators (or
        # near misses of them), with at most one character replaced.
        year, month, day, hour, minute, second = fields
        text = (
            f"{year:04d}{marks[0]}{month:02d}{marks[1]}{day:02d}{marks[2]}"
            f"{hour:02d}{marks[3]}{minute:02d}{marks[4]}{second:02d}{marks[5]}"
        )
        if edit is not None:
            i, char = edit
            text = text[:i] + char + text[i + 1 :]
        assert_memo_matches_parse(text)

    def test_epoch_format_does_not_read_iso_layout(self):
        memo = _TimestampMemo("epoch", IngestStats())
        assert memo.read("2023-01-02T09:00:00Z") is None


class TestColumnMapping:
    def test_rejects_duplicate_names(self):
        with pytest.raises(ConfigError):
            ColumnMapping(case_column="x", activity_column="x")

    def test_rejects_unknown_format(self):
        with pytest.raises(ConfigError):
            ColumnMapping(timestamp_format="rfc2822")

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            ColumnMapping.from_dict({"case_column": "c", "bogus": "x"})

    @pytest.mark.parametrize("field", ["case_column", "end_column", "enabled_column"])
    def test_non_string_column_name_is_config_error(self, field):
        with pytest.raises(ConfigError, match=field):
            ColumnMapping.from_dict({field: ["case_id"]})

    def test_from_dict_roundtrip(self):
        m = ColumnMapping.from_dict({"enabled_column": "enabled_time"})
        assert m.enabled_column == "enabled_time"


class TestLoadLog:
    def test_basic_row(self, tmp_path):
        path = write_csv(
            tmp_path, ["C1,A,R1,2023-01-02T09:00:00Z,2023-01-02T09:30:00Z"]
        )
        result = load_log(path)
        (inst,) = result.log.instances
        assert inst.case_id == "C1"
        assert inst.completed - inst.started == 1800
        assert inst.enabled is None
        assert result.stats.rows_total == 1
        assert result.stats.rows_rejected == 0

    def test_end_before_start_rejected(self, tmp_path):
        path = write_csv(
            tmp_path,
            [
                "C1,A,R1,2023-01-02T09:00:00Z,2023-01-02T08:59:00Z",
                "C1,B,R1,2023-01-02T09:00:00Z,2023-01-02T09:10:00Z",
            ],
        )
        result = load_log(path)
        assert result.stats.rows_rejected == 1
        assert len(result.log.instances) == 1

    def test_unparseable_timestamp_rejected(self, tmp_path):
        path = write_csv(
            tmp_path,
            [
                "C1,A,R1,whenever,2023-01-02T09:30:00Z",
                "C1,B,R1,2023-01-02T09:00:00Z,2023-01-02T09:10:00Z",
            ],
        )
        result = load_log(path)
        assert result.stats.rows_rejected == 1
        assert result.stats.rows_total == 2

    def test_short_row_rejected(self, tmp_path):
        path = write_csv(
            tmp_path,
            [
                "C1,A,R1,2023-01-02T09:00:00Z,2023-01-02T10:00:00Z",
                "C1,B,R1,2023-01-02T11:00:00Z",
            ],
        )
        result = load_log(path)
        (inst,) = result.log.instances
        assert inst.activity == "A"
        assert result.stats.rows_rejected == 1

    def test_case_grouping(self, tmp_path):
        rows = []
        for case in ("C1", "C2", "C3"):
            rows.append(f"{case},A,R1,2023-01-02T09:00:00Z,2023-01-02T09:30:00Z")
            rows.append(f"{case},B,R1,2023-01-02T09:30:00Z,2023-01-02T10:00:00Z")
        result = load_log(write_csv(tmp_path, rows))
        assert result.log.case_count == 3
        assert len(result.log.instances) == 6

    def test_missing_column_is_fatal(self, tmp_path):
        path = write_csv(tmp_path, ["C1,A,0,10"], header="case_id,activity,start_time,end_time")
        with pytest.raises(ConfigError):
            load_log(path)

    def test_all_rows_rejected_is_fatal(self, tmp_path):
        path = write_csv(tmp_path, ["C1,A,R1,bad,bad"])
        with pytest.raises(IngestError):
            load_log(path)

    def test_empty_resource_gets_reserved_label(self, tmp_path):
        path = write_csv(tmp_path, ["C1,A,,2023-01-02T09:00:00Z,2023-01-02T09:30:00Z"])
        result = load_log(path)
        assert result.log.instances[0].resource == UNKNOWN_RESOURCE
        assert result.stats.unknown_resources == 1

    def test_enabled_column(self, tmp_path):
        path = write_csv(
            tmp_path,
            ["C1,A,R1,2023-01-02T09:00:00Z,2023-01-02T09:30:00Z,2023-01-02T08:00:00Z"],
            header="case_id,activity,resource,start_time,end_time,enabled_time",
        )
        mapping = ColumnMapping(enabled_column="enabled_time")
        result = load_log(path, mapping)
        assert result.log.instances[0].enabled is not None
        (inst,) = result.log.instances
        assert inst.started - inst.enabled == 3600

    def test_enabled_after_start_clamped(self, tmp_path):
        path = write_csv(
            tmp_path,
            ["C1,A,R1,2023-01-02T09:00:00Z,2023-01-02T09:30:00Z,2023-01-02T09:05:00Z"],
            header="case_id,activity,resource,start_time,end_time,enabled_time",
        )
        result = load_log(path, ColumnMapping(enabled_column="enabled_time"))
        assert result.log.instances[0].enabled == result.log.instances[0].started
        assert result.stats.clamped_enablements == 1

    def test_excel_bom_header(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with a byte order mark.
        path = tmp_path / "excel.csv"
        path.write_bytes(
            "\ufeffcase_id,activity,resource,start_time,end_time\r\n"
            "C1,A,R1,2023-01-02T09:00:00Z,2023-01-02T09:30:00Z\r\n"
            "C2,B,R2,2023-01-02T10:00:00Z,2023-01-02T10:30:00Z\r\n".encode("utf-8")
        )
        result = load_log(path)
        assert [i.case_id for i in result.log.instances] == ["C1", "C2"]
        assert result.stats.rows_total == 2
        assert result.stats.rows_rejected == 0

    def test_latin1_byte_is_ingest_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(
            b"case_id,activity,resource,start_time,end_time\n"
            b"C1,caf\xe9,R1,2023-01-02T09:00:00Z,2023-01-02T09:30:00Z\n"
        )
        with pytest.raises(IngestError, match="not UTF-8") as err:
            load_log(path)
        assert str(path) in str(err.value)

    def test_overlong_field_is_ingest_error(self, tmp_path):
        path = write_csv(
            tmp_path,
            ["C1," + "A" * 131073 + ",R1,2023-01-02T09:00:00Z,2023-01-02T09:30:00Z"],
        )
        with pytest.raises(IngestError, match="field larger than field limit") as err:
            load_log(path)
        assert str(path) in str(err.value)

    def test_unrepresentable_epoch_row_rejected(self, tmp_path):
        path = write_csv(
            tmp_path,
            ["C1,A,R1,1672650000,1672651800", "C1,B,R1,99999999999999,99999999999999"],
        )
        result = load_log(path, ColumnMapping(timestamp_format="epoch"))
        (inst,) = result.log.instances
        assert inst.activity == "A"
        assert result.stats.rows_rejected == 1

    def test_determinism(self, tmp_path):
        rows = [
            "C2,B,R2,2023-01-02T10:00:00Z,2023-01-02T10:30:00Z",
            "C1,A,R1,2023-01-02T09:00:00Z,2023-01-02T09:30:00Z",
        ]
        a = load_log(write_csv(tmp_path, rows))
        b = load_log(write_csv(tmp_path, rows))
        assert [i.case_id for i in a.log.instances] == [i.case_id for i in b.log.instances]
        assert a.stats == b.stats

    def test_row_accounting(self, tmp_path):
        rows = [
            "C1,A,R1,2023-01-02T09:00:00Z,2023-01-02T09:30:00Z",
            "C1,B,R1,bad,2023-01-02T09:30:00Z",
            ",C,R1,2023-01-02T09:00:00Z,2023-01-02T09:30:00Z",
        ]
        result = load_log(write_csv(tmp_path, rows))
        assert result.stats.rows_total == 3
        assert len(result.log.instances) + result.stats.rows_rejected == 3

    def test_blank_lines_are_not_rows(self, tmp_path):
        path = write_csv(
            tmp_path,
            [
                "",
                "C1,A,R1,2023-01-02T09:00:00Z,2023-01-02T09:30:00Z",
                "",
                "",
                "C1,B,R1,2023-01-02T09:30:00Z,2023-01-02T10:00:00Z",
            ],
        )
        result = load_log(path)
        assert result.stats.rows_total == 2
        assert result.stats.rows_rejected == 0

    def test_repeated_header_name_reads_last_column(self, tmp_path):
        path = write_csv(
            tmp_path,
            ["X,A,R1,2023-01-02T09:00:00Z,2023-01-02T09:30:00Z,C7"],
            header="case_id,activity,resource,start_time,end_time,case_id",
        )
        (inst,) = load_log(path).log.instances
        assert inst.case_id == "C7"

    def test_extra_fields_are_ignored(self, tmp_path):
        path = write_csv(
            tmp_path, ["C1,A,R1,2023-01-02T09:00:00Z,2023-01-02T09:30:00Z,x,y"]
        )
        result = load_log(path)
        assert result.stats.rows_rejected == 0
        assert len(result.log.instances) == 1

    def test_header_only_file_is_ingest_error(self, tmp_path):
        with pytest.raises(IngestError, match="no usable activity instances"):
            load_log(write_csv(tmp_path, []))

    @pytest.mark.parametrize(
        "stamp, counter",
        [
            ("2023-01-02T09:00:00", "naive_timestamps"),
            ("2023-01-02T09:00:00.500Z", "truncated_timestamps"),
        ],
    )
    def test_repeated_adjusted_timestamp_counted_per_row(self, tmp_path, stamp, counter):
        rows = [f"C{i},A,R1,{stamp},2023-01-02T10:00:00Z" for i in range(3)]
        stats = load_log(write_csv(tmp_path, rows)).stats
        assert getattr(stats, counter) == 3

    def test_naive_start_first_seen_on_a_rejected_row_counts_every_row(self, tmp_path):
        # The first row parses the naive start, counts it, then is rejected
        # for its end; the memo must count the text again on each later row.
        naive = "2023-01-02T09:00:00"
        rows = [
            f"C1,A,R1,{naive},bad",
            f"C2,A,R1,{naive},2023-01-02T10:00:00Z",
            f"C3,A,R1,{naive},2023-01-02T10:00:00Z",
        ]
        path = write_csv(tmp_path, rows)
        result = load_log(path)
        assert result.stats.rows_rejected == 1
        assert result.stats.naive_timestamps == 3
        assert dictreader_load_log(path).stats == result.stats

    def test_repeated_bad_timestamp_rejects_every_row(self, tmp_path):
        rows = [
            "C1,A,R1,whenever,2023-01-02T09:30:00Z",
            "C1,B,R1,2023-01-02T09:00:00Z,2023-01-02T09:10:00Z",
            "C2,A,R1,whenever,2023-01-02T09:30:00Z",
        ]
        result = load_log(write_csv(tmp_path, rows))
        assert result.stats.rows_rejected == 2
        assert len(result.log.instances) == 1

    def test_back_to_back_loads_keep_their_own_counters(self, tmp_path):
        naive = "2023-01-02T09:00:00"
        first = tmp_path / "first"
        second = tmp_path / "second"
        first.mkdir()
        second.mkdir()
        a = load_log(
            write_csv(first, [f"C{i},A,R1,{naive},{naive}" for i in range(3)] + ["C9,A,R1,x,x"])
        )
        b = load_log(write_csv(second, [f"C1,A,R1,{naive},2023-01-02T10:00:00Z"]))
        assert a.stats.naive_timestamps == 6
        assert a.stats.rows_rejected == 1
        assert b.stats.naive_timestamps == 1
        assert b.stats.rows_rejected == 0
        # A text that failed under one format is parsed afresh under another.
        path = write_csv(tmp_path, ["C1,A,R1,1672650000,1672651800"])
        with pytest.raises(IngestError):
            load_log(path)
        epoch = load_log(path, ColumnMapping(timestamp_format="epoch"))
        assert epoch.log.instances[0].started == 1672650000


MAPPINGS = (
    {},
    {"timestamp_format": "epoch"},
    {"enabled_column": "enabled_time"},
    {"enabled_column": "enabled_time", "timestamp_format": "epoch"},
)
ISO_STAMPS = (
    "2023-01-02T09:00:00Z",
    "2023-01-02T09:30:00z",
    "2023-01-02T10:00:00+01:00",
    "2023-01-02T09:15:00-00:30",
    "2023-01-02T09:20:00",
    "2023-01-02T09:45:00.250Z",
    "2023-01-02T09:50:00.999999",
    " 2023-01-02T09:40:00Z ",
    "9999-12-31T23:59:59-05:00",
)
EPOCH_STAMPS = (
    "1672650000",
    "1672651800",
    " 1672653600 ",
    "1672649000",
    "0",
    "-1",
    "253402300800",
    "-62135596801",
    "99999999999999999999",
)
BAD_STAMPS = ("", " ", "whenever", "2023-13-01T00:00:00Z", "1672650000.5", "a,b")
NAMES = {
    "case_id": ("c1", "c2", " c3 ", "", "c,4", "c\n5"),
    "activity": ("a", "b", " a", "", 'say "hi"'),
    "resource": ("R1", "R2", "", " ", "R 3"),
}


@st.composite
def ingest_logs(draw):
    """CSV bytes and a mapping: blank lines, an optional BOM, duplicate,
    missing and extra header names, short and long rows, quoted commas and
    newlines, padded fields, a few timestamp texts repeated over many rows,
    and now and then a few arbitrary bytes spliced in."""
    mapping = draw(st.sampled_from(MAPPINGS))
    epoch = mapping.get("timestamp_format") == "epoch"
    good = EPOCH_STAMPS if epoch else ISO_STAMPS
    stamps = draw(st.lists(st.sampled_from(good * 3 + BAD_STAMPS), min_size=1, max_size=6))
    pools = {**NAMES, "start_time": stamps, "end_time": stamps, "enabled_time": stamps}
    header = list(draw(st.permutations(list(pools) + ["note"])))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        header.remove(draw(st.sampled_from(list(pools))))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        header.insert(
            draw(st.integers(min_value=0, max_value=len(header))),
            draw(st.sampled_from(list(pools))),
        )
    rows: list[list[str]] = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        row = [draw(st.sampled_from(pools.get(name, ("n", "")))) for name in header]
        extra = draw(st.sampled_from([0, 0, 0, 0, -3, -1, 1, 2]))
        rows.append(row[:extra] if extra < 0 else row + ["x"] * extra)
    text = io.StringIO()
    writer = csv.writer(text, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(header)
    for row in rows:
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
            text.write("\n")
        writer.writerow(row)
    data = text.getvalue().encode("utf-8")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        at = draw(st.integers(min_value=0, max_value=len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]
    return data, mapping


def _outcome(loader, path: Path, mapping: dict):
    try:
        result = loader(path, ColumnMapping.from_dict(mapping))
    except (ConfigError, IngestError) as exc:
        return type(exc).__name__, str(exc)
    rows = [
        (i.case_id, i.activity, i.resource, i.started, i.completed, i.enabled)
        for i in result.log.instances
    ]
    return rows, result.stats.as_dict()


class TestDictReaderOracle:
    @settings(max_examples=300, deadline=None)
    @given(ingest_logs())
    def test_same_rows_rejects_and_counters(self, scenario):
        data, mapping = scenario
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.csv"
            path.write_bytes(data)
            assert _outcome(load_log, path, mapping) == _outcome(
                dictreader_load_log, path, mapping
            )
