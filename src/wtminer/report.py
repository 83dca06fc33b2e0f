"""Serialization of analysis results to JSON, CSV and a text summary.

Key order in the JSON report is fixed by construction order, so identical
inputs produce byte-identical files. Ratios are rounded to four significant
digits at serialization time only; all durations stay exact integer seconds
with a derived human-readable rendering alongside.
"""
from __future__ import annotations

import io
import os
import tempfile
from math import isfinite
from pathlib import Path
from typing import Optional, Union

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
    "wt_batching_s",
    "wt_contention_s",
    "wt_prioritization_s",
    "wt_unavailability_s",
    "wt_extraneous_s",
    "cte_impact",
)


def significant(value: float, digits: int = 4) -> float:
    return float(f"{value:.{digits}g}")


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


def build_report(
    result: PipelineResult,
    ingest_stats: Optional[IngestStats] = None,
    emit_calendars: bool = False,
) -> dict:
    """The report dict; `parameters` echoes the config the run used."""
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
            "transition_instances": sum(
                t.total_frequency for t in result.transitions
            ),
            "processing_time": _duration_fields(analysis.total_pt_seconds),
            "waiting_time": _duration_fields(analysis.total_wt_seconds),
            "cte": significant(analysis.cte),
            "multitasking_rate": significant(result.multitasking_rate),
        },
        "parameters": {
            "dependency_threshold": config.thresholds.dependency_threshold,
            "min_bidirectional_observations": (
                config.thresholds.min_bidirectional_observations
            ),
            "length2_loop_guard": config.thresholds.length2_loop_guard,
            "granule_minutes": config.calendars.granule_minutes,
            "confidence": config.calendars.confidence,
            "support": config.calendars.support,
            "max_relaxations": MAX_RELAXATIONS,
            "gap_tolerance_s": config.batching.gap_tolerance,
            "min_batch_size": config.batching.min_batch_size,
        },
        "ingest": dict(ingest_stats.as_dict()) if ingest_stats else None,
        "enablement": dict(result.enablement.stats.as_dict()),
        "causes": [
            {
                "cause": cause,
                "waiting_time": _duration_fields(impact.wt_seconds),
                "share_of_wt": significant(impact.share_of_wt),
                "cte_if_eliminated": significant(impact.cte_if_eliminated),
                "cte_delta": significant(impact.delta),
            }
            for cause, impact in (
                (c, analysis.per_cause[c]) for c in CAUSES
            )
        ],
        "transitions": [
            {
                "source": t.source_activity,
                "target": t.target_activity,
                "self_loop": t.is_self_loop,
                "case_freq": significant(t.case_frequency),
                "total_freq": t.total_frequency,
                "waiting_time": _duration_fields(t.total_wt_seconds),
                "wt_by_cause_s": {c: t.wt_by_cause[c] for c in CAUSES},
                "cte_if_eliminated": significant(t.cte_if_eliminated),
                "cte_delta": significant(t.delta),
            }
            for t in analysis.per_transition
        ],
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
    for what `build_report` emits: dicts with str keys, lists, str, int, float,
    bool and None. NaN and infinities are a `ValueError`, other types a `TypeError`."""
    return _encode(report, "\n") + "\n"


_LITERALS = {None: "null", True: "true", False: "false"}


def _encode(value: object, newline: str) -> str:
    # `newline` is the line break plus the indentation of `value`'s own line.
    if isinstance(value, str):
        return _quote(value)
    if value is None or value is True or value is False:
        return _LITERALS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not isfinite(value):
            raise ValueError(f"{value!r} is not a JSON number")
        return float.__repr__(value)
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
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def transitions_csv(result: PipelineResult) -> str:
    buffer = io.StringIO()
    writer = csv_writer(buffer)
    writer.writerow(TRANSITIONS_CSV_COLUMNS)
    for t in result.analysis.per_transition:
        writer.writerow(
            [
                t.source_activity,
                t.target_activity,
                significant(t.case_frequency),
                t.total_frequency,
                t.total_wt_seconds,
                *(t.wt_by_cause[c] for c in CAUSES),
                significant(t.delta),
            ]
        )
    return buffer.getvalue()


def summary_text(result: PipelineResult, top: int = 10) -> str:
    analysis = result.analysis
    log = result.log
    lines = [
        f"Cases: {log.case_count}"
        f"  Activity instances: {len(log.instances)}"
        f"  Resources: {len(log.resources)}",
        f"Transitions: {len(result.transitions)}"
        f" ({sum(t.total_frequency for t in result.transitions)} instances)",
        f"Processing time: {pretty_duration(analysis.total_pt_seconds)}"
        f"  Waiting time: {pretty_duration(analysis.total_wt_seconds)}",
        f"CTE: {analysis.cte * 100:.2f}%"
        f"  Multitasking rate: {result.multitasking_rate * 100:.2f}%",
        "",
        "Waiting time by cause:",
    ]
    for cause in CAUSES:
        impact = analysis.per_cause[cause]
        lines.append(
            f"  {cause:<15} {pretty_duration(impact.wt_seconds):>14}"
            f"  {impact.share_of_wt * 100:6.2f}% of WT"
            f"  CTE if eliminated: {impact.cte_if_eliminated * 100:.2f}%"
        )
    lines.append("")
    lines.append(f"Top transitions by waiting time (of {len(analysis.per_transition)}):")
    for t in analysis.per_transition[:top]:
        label = f"{t.source_activity} -> {t.target_activity}"
        lines.append(
            f"  {label:<40} {pretty_duration(t.total_wt_seconds):>14}"
            f"  CTE +{t.delta * 100:.2f}pp if eliminated"
        )
    return "\n".join(lines) + "\n"


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write via a same-directory temp file and rename, never partially."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
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


def write_report_files(
    result: PipelineResult,
    out_dir: Union[str, Path],
    ingest_stats: Optional[IngestStats] = None,
    emit_calendars: bool = False,
) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = build_report(
        result, ingest_stats=ingest_stats, emit_calendars=emit_calendars
    )
    paths = {
        "report": out / "report.json",
        "transitions": out / "transitions.csv",
    }
    atomic_write_text(paths["report"], report_json(report))
    atomic_write_text(paths["transitions"], transitions_csv(result))
    return paths
