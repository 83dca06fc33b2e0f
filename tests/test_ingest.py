"""CSV ingest tests: mapping validation, row rejection, warning counters."""
from __future__ import annotations

import pytest

from wtminer.ingest import ColumnMapping, IngestStats, load_log, parse_timestamp
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
        assert inst.processing.duration == 1800
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
        assert result.log.instances[0].waiting.duration == 3600

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
