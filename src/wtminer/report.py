"""Serialization of analysis results to JSON, CSV and a text summary.

Key order in the JSON report is fixed by construction order, so identical
inputs produce byte-identical files. Ratios are rounded to four significant
digits at serialization time only; all durations stay exact integer seconds
with a derived human-readable rendering alongside.
"""
from __future__ import annotations

import io
import os
from itertools import count
from math import isfinite
from pathlib import Path

# The C modules behind `csv` and `json`, without their Python wrappers.
from _csv import writer as csv_writer

try:
    from _json import encode_basestring_ascii as _quote
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import encode_basestring_ascii as _quote

from wtminer.calendars import MAX_RELAXATIONS, calendar_to_ranges
from wtminer.decomposition import CAUSES
from wtminer.ingest import IngestStats
from wtminer.pipeline import PipelineResult

SCHEMA_VERSION = 2

TRANSITIONS_CSV_COLUMNS = (
    "source",
    "target",
    "case_freq",
    "total_freq",
    "total_wt_s",
    *(f"wt_{cause}_s" for cause in CAUSES),
    "cte_impact",
)


def significant(value: float) -> float:
    return float(f"{value:.4g}")


def pretty_duration(seconds: int) -> str:
    if seconds < 0:
        raise ValueError("duration must be non-negative")
    days, rest = divmod(seconds, 86400)
    hours, rest = divmod(rest, 3600)
    minutes = rest // 60
    parts = []
    if days:
        parts.append(f"{days}d")
    if hours or days:
        parts.append(f"{hours}h")
    parts.append(f"{minutes}m")
    return " ".join(parts)


def _duration_fields(seconds: int) -> dict:
    return {"seconds": seconds, "pretty": pretty_duration(seconds)}


def _transition_entry(leaves: tuple) -> dict:
    """One entry of the report's `transitions` list, with `leaves` its values
    in key order: the layout `_ENTRY` is encoded from."""
    source, target, self_loop, case_freq, total_freq, wt, pretty, *by_cause, after, delta = leaves
    return {
        "source": source,
        "target": target,
        "self_loop": self_loop,
        "case_freq": case_freq,
        "total_freq": total_freq,
        "waiting_time": {"seconds": wt, "pretty": pretty},
        "wt_by_cause_s": dict(zip(CAUSES, by_cause)),
        "cte_if_eliminated": after,
        "cte_delta": delta,
    }


def _report(
    result: PipelineResult,
    ingest_stats: IngestStats | None,
    emit_calendars: bool,
    transitions: list,
) -> dict:
    # The report, with `transitions` as its list of transition entries.
    config = result.config
    analysis = result.analysis
    log = result.log

    report = {
        "schema_version": SCHEMA_VERSION,
        "summary": {
            "cases": log.case_count,
            "activity_instances": len(log.instances),
            "activities": len(log.activities),
            "resources": len(log.resources),
            "transitions": len(result.transitions),
            "transition_instances": sum(len(t.instances) for t in result.transitions),
            "processing_time": _duration_fields(analysis.total_pt_seconds),
            "waiting_time": _duration_fields(analysis.total_wt_seconds),
            "cte": significant(analysis.cte),
            "multitasking_rate": significant(result.multitasking_rate),
        },
        "parameters": {
            **config.thresholds.as_dict(),
            **config.calendars.as_dict(),
            "max_relaxations": MAX_RELAXATIONS,
            "gap_tolerance_s": config.batching.gap_tolerance,
            "min_batch_size": config.batching.min_batch_size,
        },
        "ingest": ingest_stats.as_dict() if ingest_stats else None,
        "enablement": result.enablement.stats.as_dict(),
        "causes": [
            {
                "cause": cause,
                "waiting_time": _duration_fields(impact.wt_seconds),
                "share_of_wt": significant(impact.share_of_wt),
                "cte_if_eliminated": significant(impact.cte_if_eliminated),
                "cte_delta": significant(impact.delta),
            }
            for cause, impact in analysis.per_cause.items()
        ],
        "transitions": transitions,
        "overridden_resources": list(result.overridden_resources),
    }
    if emit_calendars:
        report["calendars"] = [
            {
                "resource": resource,
                "always_on": calendar.is_always_on,
                "granule_minutes": calendar.granule_minutes,
                "ranges": calendar_to_ranges(calendar),
            }
            for resource, calendar in sorted(result.calendars.items())
        ]
    return report


def report_json(report: dict) -> str:
    """`json.dumps(report, indent=2, allow_nan=False) + "\\n"`, byte for byte,
    for dicts with str keys, lists, str, int, float, bool and None. NaN and
    infinities are a `ValueError`, other types a `TypeError`."""
    return _encode(report, "\n") + "\n"


_LITERALS = {None: "null", True: "true", False: "false"}


def _number(value: float) -> str:
    if not isfinite(value):
        raise ValueError(f"{value!r} is not a JSON number")
    return float.__repr__(value)


class _Encoded:
    """JSON text already encoded at the depth where `_encode` meets it."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


def _encode(value: object, newline: str) -> str:
    # `newline` is the line break plus the indentation of `value`'s own line.
    if isinstance(value, str):
        return _quote(value)
    if value is None or value is True or value is False:
        return _LITERALS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _number(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # Quoting a key that is not a str is a TypeError.
        items = [_quote(key) + ": " + _encode(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        items = [_encode(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, _Encoded):
        return value.text
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _entry_template() -> str:
    # The layout encoded with a distinct placeholder string at each of its
    # leaves (nine, and one per cause), at the depth of a `transitions`
    # entry; each quoted placeholder becomes a `%s` slot, in key order.
    leaves = [f"\0{i}" for i in range(9 + len(CAUSES))]
    text = _encode(_transition_entry(leaves), "\n    ").replace("%", "%%")
    for leaf in leaves:
        text = text.replace(_quote(leaf), "%s")
    return text


_ENTRY = _entry_template()


def summary_text(result: PipelineResult) -> str:
    analysis = result.analysis
    log = result.log
    lines = [
        f"Cases: {log.case_count}"
        f"  Activity instances: {len(log.instances)}"
        f"  Resources: {len(log.resources)}",
        f"Transitions: {len(result.transitions)}"
        f" ({sum(len(t.instances) for t in result.transitions)} instances)",
        f"Processing time: {pretty_duration(analysis.total_pt_seconds)}"
        f"  Waiting time: {pretty_duration(analysis.total_wt_seconds)}",
        f"CTE: {analysis.cte * 100:.2f}%"
        f"  Multitasking rate: {result.multitasking_rate * 100:.2f}%",
        "",
        "Waiting time by cause:",
    ]
    for cause, impact in analysis.per_cause.items():
        lines.append(
            f"  {cause:<15} {pretty_duration(impact.wt_seconds):>14}"
            f"  {impact.share_of_wt * 100:6.2f}% of WT"
            f"  CTE if eliminated: {impact.cte_if_eliminated * 100:.2f}%"
        )
    lines.append("")
    lines.append(f"Top transitions by waiting time (of {len(analysis.per_transition)}):")
    for t in analysis.per_transition[:10]:
        label = f"{t.source_activity} -> {t.target_activity}"
        lines.append(
            f"  {label:<40} {pretty_duration(t.total_wt_seconds):>14}"
            f"  CTE +{t.delta * 100:.2f}pp if eliminated"
        )
    return "\n".join(lines) + "\n"


# Numbers the temp files this process creates.
_TMP_SERIAL = count()


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a same-directory temp file and rename, never partially. The
    temp file is created with mode 0666 less the umask, as `open` creates a
    file. An `OSError` names `path`, never the temp file."""
    path = Path(path)
    try:
        while True:
            tmp_name = path.with_name(f"{path.name}.{os.getpid()}.{next(_TMP_SERIAL)}.tmp")
            try:
                fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                break
            except FileExistsError:
                pass
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def write_report_files(
    result: PipelineResult,
    out_dir: str | Path,
    ingest_stats: IngestStats | None = None,
    emit_calendars: bool = False,
) -> dict[str, Path]:
    """`report.json` and `transitions.csv`, from one pass over the transitions:
    each one's numbers are formatted once, and the same texts fill its entry
    template and its CSV row. The CSV writer writes a float as its `repr`
    and an int as its `str`, which are the JSON texts too."""
    buffer = io.StringIO()
    writerow = csv_writer(buffer).writerow
    writerow(TRANSITIONS_CSV_COLUMNS)
    entries = []
    for t in result.analysis.per_transition:
        source, target, wt = t.source_activity, t.target_activity, t.total_wt_seconds
        case_freq = _number(significant(t.case_frequency))
        total_freq = int.__repr__(t.total_frequency)
        wt_text = int.__repr__(wt)
        by_cause = [int.__repr__(t.wt_by_cause[c]) for c in CAUSES]
        delta = _number(significant(t.delta))
        writerow((source, target, case_freq, total_freq, wt_text, *by_cause, delta))
        entries.append(_Encoded(_ENTRY % (
            _quote(source),
            _quote(target),
            _LITERALS[t.is_self_loop],
            case_freq,
            total_freq,
            wt_text,
            _quote(pretty_duration(wt)),
            *by_cause,
            _number(significant(t.cte_if_eliminated)),
            delta,
        )))
    report = report_json(_report(result, ingest_stats, emit_calendars, entries))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "report": out / "report.json",
        "transitions": out / "transitions.csv",
    }
    atomic_write_text(paths["report"], report)
    atomic_write_text(paths["transitions"], buffer.getvalue())
    return paths
