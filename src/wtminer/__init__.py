"""Waiting time decomposition for business process event logs."""
from __future__ import annotations

from wtminer.analysis import AnalysisResult, analyze, compute_cte
from wtminer.batching import BatchingConfig, detect_batches
from wtminer.calendars import (
    CalendarParams,
    WeeklyCalendar,
    discover_calendars,
    load_calendar_overrides,
)
from wtminer.concurrency import (
    OracleThresholds,
    compute_enablement,
    discover_concurrency,
)
from wtminer.decomposition import CAUSES, Decomposer, decompose_all
from wtminer.ingest import ColumnMapping, load_log
from wtminer.model import (
    ActivityInstance,
    ConfigError,
    EventLog,
    IngestError,
    TimeInstant,
    UNKNOWN_RESOURCE,
    WtMinerError,
)
from wtminer.pipeline import PipelineConfig, PipelineResult, run_pipeline
from wtminer.report import build_report, write_report_files
from wtminer.transitions import Transition, discover_transitions

__version__ = "0.1.0"

__all__ = [
    "ActivityInstance",
    "AnalysisResult",
    "BatchingConfig",
    "CalendarParams",
    "CAUSES",
    "ColumnMapping",
    "ConfigError",
    "Decomposer",
    "EventLog",
    "IngestError",
    "InjectionSpec",
    "OracleThresholds",
    "PipelineConfig",
    "PipelineResult",
    "TimeInstant",
    "Transition",
    "UNKNOWN_RESOURCE",
    "WeeklyCalendar",
    "WtMinerError",
    "analyze",
    "build_report",
    "compute_cte",
    "compute_enablement",
    "decompose_all",
    "detect_batches",
    "discover_calendars",
    "discover_concurrency",
    "discover_transitions",
    "generate",
    "load_calendar_overrides",
    "load_log",
    "run_pipeline",
    "write_report_files",
    "__version__",
]


def __getattr__(name: str):
    # Only generating logs needs `synth`, so it loads on first use and
    # analysis never imports it.
    if name in ("InjectionSpec", "generate"):
        from wtminer import synth

        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
