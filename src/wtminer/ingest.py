"""CSV ingest: turn an activity-instance table into an EventLog.

Input is an RFC-4180 CSV (UTF-8) where each row is one activity instance with
start and end timestamps. Column names are configurable through a
ColumnMapping. Malformed rows are rejected and counted rather than aborting
the whole load; the counters travel with the log into the final report.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Union

from wtminer.model import (
    ActivityInstance,
    ConfigError,
    EventLog,
    IngestError,
    TimeInstant,
    UNKNOWN_RESOURCE,
)

ISO_8601 = "iso8601"
EPOCH_SECONDS = "epoch"

_TIMESTAMP_FORMATS = (ISO_8601, EPOCH_SECONDS)


@dataclass(frozen=True)
class ColumnMapping:
    """Names the CSV columns that hold each instance field."""

    case_column: str = "case_id"
    activity_column: str = "activity"
    resource_column: str = "resource"
    start_column: str = "start_time"
    end_column: str = "end_time"
    enabled_column: Optional[str] = None
    timestamp_format: str = ISO_8601

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            optional = f.name == "enabled_column" and value is None
            if f.name.endswith("_column") and not optional and not isinstance(value, str):
                raise ConfigError(f"{f.name} must be a column name string, got {value!r}")
        if self.timestamp_format not in _TIMESTAMP_FORMATS:
            raise ConfigError(
                f"unknown timestamp format {self.timestamp_format!r}; "
                f"expected one of {_TIMESTAMP_FORMATS}"
            )
        mandatory = [
            self.case_column,
            self.activity_column,
            self.resource_column,
            self.start_column,
            self.end_column,
        ]
        if any(not name for name in mandatory):
            raise ConfigError("column names must be non-empty")
        if len(set(mandatory)) != len(mandatory):
            raise ConfigError(f"mandatory column names must be distinct, got {mandatory}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ColumnMapping":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown mapping keys: {sorted(unknown)}")
        return cls(**raw)


@dataclass
class IngestStats:
    """Counters describing what happened to the raw rows during the load."""

    rows_total: int = 0
    rows_rejected: int = 0
    naive_timestamps: int = 0
    truncated_timestamps: int = 0
    unknown_resources: int = 0
    clamped_enablements: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class LoadResult:
    log: EventLog
    stats: IngestStats


def parse_timestamp(raw: str, fmt: str, stats: Optional[IngestStats] = None) -> TimeInstant:
    """Parse one timestamp to epoch seconds.

    Naive ISO timestamps are read as UTC; sub-second precision is floored.
    Both adjustments bump a warning counter when stats are provided.
    """
    text = raw.strip()
    if not text:
        raise ValueError("empty timestamp")
    if fmt == EPOCH_SECONDS:
        value = int(text)
        try:
            datetime.fromtimestamp(value, tz=timezone.utc)
        except (OverflowError, OSError, ValueError) as exc:
            raise ValueError(f"epoch seconds out of range: {text}") from exc
        return value
    # fromisoformat in 3.10 does not accept a trailing Z.
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
        if stats is not None:
            stats.naive_timestamps += 1
    if dt.microsecond:
        dt = dt.replace(microsecond=0)
        if stats is not None:
            stats.truncated_timestamps += 1
    return int(dt.timestamp())


def format_timestamp(t: TimeInstant) -> str:
    return datetime.fromtimestamp(t, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def load_log(path: Union[str, Path], mapping: Optional[ColumnMapping] = None) -> LoadResult:
    """Load a CSV activity-instance log.

    Rows with unparseable timestamps or end < start are rejected and counted.
    A missing resource value maps to the reserved "__UNKNOWN__" label. An
    enabled time after the start is clamped to the start and counted. A file
    that is not UTF-8 text or not readable as CSV raises IngestError.
    """
    if mapping is None:
        mapping = ColumnMapping()
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"log file not found: {path}")

    stats = IngestStats()
    instances: list[ActivityInstance] = []
    try:
        with path.open(newline="", encoding="utf-8-sig") as handle:
            reader = csv.DictReader(handle)
            header = reader.fieldnames or []
            needed = [
                mapping.case_column,
                mapping.activity_column,
                mapping.resource_column,
                mapping.start_column,
                mapping.end_column,
            ]
            if mapping.enabled_column:
                needed.append(mapping.enabled_column)
            missing = [name for name in needed if name not in header]
            if missing:
                raise ConfigError(f"log {path} is missing mapped columns: {missing}")

            for row in reader:
                stats.rows_total += 1
                inst = _parse_row(row, mapping, stats)
                if inst is None:
                    stats.rows_rejected += 1
                else:
                    instances.append(inst)
    except UnicodeDecodeError as exc:
        raise IngestError(f"log {path} is not UTF-8 text: {exc.reason}") from exc
    except csv.Error as exc:
        raise IngestError(f"log {path} is not a readable CSV: {exc}") from exc

    if not instances:
        raise IngestError(f"no usable activity instances in {path}")
    return LoadResult(EventLog.from_instances(instances), stats)


def _parse_row(row: dict, mapping: ColumnMapping, stats: IngestStats) -> Optional[ActivityInstance]:
    case_id = (row.get(mapping.case_column) or "").strip()
    activity = (row.get(mapping.activity_column) or "").strip()
    if not case_id or not activity:
        return None
    resource = (row.get(mapping.resource_column) or "").strip()
    if not resource:
        resource = UNKNOWN_RESOURCE
        stats.unknown_resources += 1
    fmt = mapping.timestamp_format
    # A short row leaves its trailing fields None.
    try:
        started = parse_timestamp(row.get(mapping.start_column) or "", fmt, stats)
        completed = parse_timestamp(row.get(mapping.end_column) or "", fmt, stats)
    except ValueError:
        return None
    if completed < started:
        return None

    enabled: Optional[TimeInstant] = None
    if mapping.enabled_column:
        raw = (row.get(mapping.enabled_column) or "").strip()
        if raw:
            try:
                enabled = parse_timestamp(raw, fmt, stats)
            except ValueError:
                return None
            if enabled > started:
                enabled = started
                stats.clamped_enablements += 1
    return ActivityInstance(case_id, activity, resource, started, completed, enabled)
