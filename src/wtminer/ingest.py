"""CSV ingest: turn an activity-instance table into an EventLog.

Input is an RFC-4180 CSV (UTF-8) where each row is one activity instance with
start and end timestamps. Column names are configurable through a
ColumnMapping. Malformed rows are rejected and counted rather than aborting
the whole load; the counters travel with the log into the final report.
"""
from __future__ import annotations

import re
from pathlib import Path

# The C modules behind `csv` and `datetime`, without their Python wrappers.
from _csv import Error as CsvError, reader as csv_reader

try:
    from _datetime import datetime, timezone

    _C_PARSER = True
except ImportError:  # an interpreter without the C module
    from datetime import datetime, timezone

    # Its `fromisoformat` reads " 1" and full-width digits as numbers, so the
    # memo's unchecked YYYY-MM-DDTHH:MM:SSZ path is off.
    _C_PARSER = False

from wtminer.model import (
    ActivityInstance,
    ConfigError,
    EventLog,
    IngestError,
    TimeInstant,
    UNKNOWN_RESOURCE,
    _Record,
    _Value,
    _sealed_instance,
)

ISO_8601 = "iso8601"
EPOCH_SECONDS = "epoch"

_TIMESTAMP_FORMATS = (ISO_8601, EPOCH_SECONDS)
_EPOCH = datetime(1970, 1, 1)

# The ISO 8601 extended forms read alike on every supported Python: a date,
# optionally followed by T, t or a space, HH[:MM[:SS]], a fraction of the
# second after seconds (any number of digits, after "." or ","), and an
# offset Z, z, +HH:MM or +HH:MM:SS. `datetime.fromisoformat` reads more on
# 3.11 and later (basic and week dates, one-digit fractions, +HHMM), and
# reads an offset's own fraction of a second inconsistently (it drops the
# one of +00:00:00.5), so a text must match this first. `re` compiles it on
# first use and keeps it in its cache.
_ISO_FORM = r"""(?x)
    ([0-9]{4}-[0-9]{2}-[0-9]{2})
    (?: [Tt\ ]
        ([0-9]{2} (?: :[0-9]{2} (?: :[0-9]{2} )? )? )
        (?: (?<=:[0-9]{2}:[0-9]{2}) [.,]([0-9]+) )?
        ( [Zz] | [+-][0-9]{2}:[0-9]{2} (?: :[0-9]{2} )? )?
    )?
"""


class ColumnMapping(_Value):
    """Names the CSV columns that hold each instance field."""

    def __init__(
        self,
        case_column: str = "case_id",
        activity_column: str = "activity",
        resource_column: str = "resource",
        start_column: str = "start_time",
        end_column: str = "end_time",
        enabled_column: str | None = None,
        timestamp_format: str = ISO_8601,
    ) -> None:
        vars(self).update(
            case_column=case_column,
            activity_column=activity_column,
            resource_column=resource_column,
            start_column=start_column,
            end_column=end_column,
            enabled_column=enabled_column,
            timestamp_format=timestamp_format,
        )
        for name in self._fields:
            value = getattr(self, name)
            optional = name == "enabled_column" and value is None
            if name.endswith("_column") and not optional and not isinstance(value, str):
                raise ConfigError(f"{name} must be a column name string, got {value!r}")
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
        unknown = set(raw) - set(cls._fields)
        if unknown:
            raise ConfigError(f"unknown mapping keys: {sorted(unknown)}")
        return cls(**raw)


class IngestStats(_Record):
    """Counters describing what happened to the raw rows during the load."""

    def __init__(
        self,
        rows_total: int = 0,
        rows_rejected: int = 0,
        naive_timestamps: int = 0,
        truncated_timestamps: int = 0,
        unknown_resources: int = 0,
        clamped_enablements: int = 0,
    ) -> None:
        vars(self).update(
            rows_total=rows_total,
            rows_rejected=rows_rejected,
            naive_timestamps=naive_timestamps,
            truncated_timestamps=truncated_timestamps,
            unknown_resources=unknown_resources,
            clamped_enablements=clamped_enablements,
        )


class LoadResult(_Value):
    def __init__(self, log: EventLog, stats: IngestStats) -> None:
        vars(self).update(log=log, stats=stats)


def _parse_timestamp(raw: str, fmt: str) -> tuple[TimeInstant, bool, bool]:
    """Parse one timestamp to (epoch seconds, naive, truncated).

    ISO texts must take one of the `_ISO_FORM` forms. Naive ones are read
    as UTC; sub-second precision is floored. The two flags say which of
    these adjustments the text needed; a load counts each as a warning.
    Epoch texts are ASCII `-?[0-9]+`.
    """
    text = raw.strip()
    if not text:
        raise ValueError("empty timestamp")
    if fmt == EPOCH_SECONDS:
        # int() would also take full-width digits, "1_0" and "+1".
        digits = text[1:] if text[0] == "-" else text
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"epoch seconds must be ASCII digits: {text!r}")
        value = int(text)
        try:
            datetime.fromtimestamp(value, tz=timezone.utc)
        except (OverflowError, OSError, ValueError) as exc:
            raise ValueError(f"epoch seconds out of range: {text}") from exc
        return value, False, False
    dt = datetime.fromisoformat(_iso_text(text))
    naive = dt.tzinfo is None
    if naive:
        dt = dt.replace(tzinfo=timezone.utc)
    truncated = dt.microsecond != 0
    if truncated:
        dt = dt.replace(microsecond=0)
    return int(dt.timestamp()), naive, truncated


def _iso_text(text: str) -> str:
    """`text`, one of the `_ISO_FORM` forms, in the form that 3.10's
    `fromisoformat` reads: separator T, fraction as six digits after ".",
    Z as +00:00. Any other text is a `ValueError`."""
    match = re.fullmatch(_ISO_FORM, text)
    if match is None:
        raise ValueError(f"not an ISO 8601 extended timestamp: {text!r}")
    date, clock, fraction, offset = match.groups()
    if clock is None:
        return date
    if fraction:
        # Digits past the sixth are dropped, as 3.11's `fromisoformat` does.
        clock += "." + fraction[:6].ljust(6, "0")
    if offset in ("Z", "z"):
        offset = "+00:00"
    return f"{date}T{clock}{offset or ''}"


def format_timestamp(t: TimeInstant) -> str:
    return datetime.fromtimestamp(t, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def load_log(path: str | Path, mapping: ColumnMapping = ColumnMapping()) -> LoadResult:
    """Load a CSV activity-instance log.

    Rows with unparseable timestamps or end < start are rejected and counted.
    A missing resource value maps to the reserved "__UNKNOWN__" label. An
    enabled time after the start is clamped to the start and counted. Blank
    lines are skipped, short rows read their missing fields as empty, extra
    fields are ignored, and a repeated header name reads its last column. A
    file that is not UTF-8 text or not readable as CSV raises IngestError.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"log file not found: {path}")

    names = (
        mapping.case_column,
        mapping.activity_column,
        mapping.resource_column,
        mapping.start_column,
        mapping.end_column,
        mapping.enabled_column,
    )
    stats = IngestStats()
    instances: list[ActivityInstance] = []
    rows_total = 0
    # One `str` object per distinct name: every later lookup, grouping,
    # sort tie and equality test on a name meets one object whose hash is
    # cached.
    share = {}.setdefault
    try:
        with path.open(newline="", encoding="utf-8-sig") as handle:
            reader = csv_reader(handle)
            # A repeated name keeps its last column, as csv.DictReader does.
            column = {name: i for i, name in enumerate(next(reader, []))}
            missing = [name for name in names if name and name not in column]
            if missing:
                raise ConfigError(f"log {path} is missing mapped columns: {missing}")
            case_i, activity_i, resource_i, start_i, end_i, enabled_i = (
                column[name] if name else None for name in names
            )
            # A short row reads its missing mapped fields as empty strings.
            padding = [""] * (max(column[name] for name in names if name) + 1)
            stamps = _TimestampMemo(mapping.timestamp_format, stats)
            # A clean text is one lookup. Epoch 0 is falsy and takes `read`,
            # which returns it as well.
            get, read = stamps.get, stamps.read
            for row in reader:
                if not row:
                    continue  # a blank line is not a row
                rows_total += 1
                if len(row) < len(padding):
                    row += padding[len(row):]
                case_id = row[case_i].strip()
                activity = row[activity_i].strip()
                if not case_id or not activity:
                    continue
                resource = row[resource_i].strip()
                if not resource:
                    resource = UNKNOWN_RESOURCE
                    stats.unknown_resources += 1
                started = get(row[start_i]) or read(row[start_i])
                if started is None:
                    continue
                completed = get(row[end_i]) or read(row[end_i])
                if completed is None or completed < started:
                    continue
                enabled: TimeInstant | None = None
                if enabled_i is not None:
                    raw = row[enabled_i].strip()
                    if raw:
                        enabled = get(raw) or read(raw)
                        if enabled is None:
                            continue
                        if enabled > started:
                            enabled = started
                            stats.clamped_enablements += 1
                case_id = share(case_id, case_id)
                activity = share(activity, activity)
                resource = share(resource, resource)
                instances.append(
                    _sealed_instance(case_id, activity, resource, started, completed, enabled)
                )
    except UnicodeDecodeError as exc:
        raise IngestError(f"log {path} is not UTF-8 text: {exc.reason}") from exc
    except CsvError as exc:
        raise IngestError(f"log {path} is not a readable CSV: {exc}") from exc

    if not instances:
        raise IngestError(f"no usable activity instances in {path}")
    # Every row that made no instance was rejected.
    stats.rows_total = rows_total
    stats.rows_rejected = rows_total - len(instances)
    return LoadResult(EventLog(instances), stats)


class _TimestampMemo(dict):
    """`_parse_timestamp` for one load, parsing each distinct text once.

    Maps each clean text, one that needed no adjustment, to its seconds, so
    a row reads it with one `get`. A text that is not a key takes `read`,
    which reads the YYYY-MM-DDTHH:MM:SSZ layout without `_parse_timestamp`.
    `adjusted` maps each naive or sub-second text to (seconds, naive,
    truncated), and each unparseable text to None; `read` adds such a
    text's counts to the load's stats on every row the text is on, as
    parsing it afresh would.
    """

    __slots__ = ("fmt", "stats", "adjusted")

    def __init__(self, fmt: str, stats: IngestStats) -> None:
        super().__init__()
        self.fmt = fmt
        self.stats = stats
        self.adjusted: dict[str, tuple[TimeInstant, bool, bool] | None] = {}

    def read(self, text: str) -> TimeInstant | None:
        if text in self.adjusted:
            entry = self.adjusted[text]
        else:
            # The exact layout YYYY-MM-DDTHH:MM:SSZ reads without the form check,
            # the rewrite and the float of `_parse_timestamp`. The C parser
            # rejects anything but ASCII digits between the marks.
            if self.fmt == ISO_8601 and _C_PARSER and len(text) == 20 and text[4::3] == "--T::Z":
                try:
                    dt = datetime.fromisoformat(text[:19])
                except ValueError:
                    dt = None
                if dt is not None and dt.tzinfo is None and not dt.microsecond:
                    delta = dt - _EPOCH
                    self[text] = seconds = delta.days * 86400 + delta.seconds
                    return seconds
            try:
                entry = _parse_timestamp(text, self.fmt)
            except ValueError:
                entry = None
            else:
                seconds, naive, truncated = entry
                if not (naive or truncated):
                    self[text] = seconds
                    return seconds
            self.adjusted[text] = entry
        if entry is None:
            return None
        seconds, naive, truncated = entry
        self.stats.naive_timestamps += naive
        self.stats.truncated_timestamps += truncated
        return seconds
