"""Command-line interface: analyze logs, generate synthetic logs, dump calendars."""
from __future__ import annotations

import argparse
import gc
import itertools
import sys
from pathlib import Path

from wtminer.batching import BatchingConfig
from wtminer.calendars import (
    CalendarParams,
    WeeklyCalendar,
    calendar_to_ranges,
    discover_calendars,
    load_calendar_overrides,
)
from wtminer.concurrency import OracleThresholds
from wtminer.decomposition import CAUSES
from wtminer.ingest import ColumnMapping, load_log
from wtminer.model import ConfigError, WtMinerError
from wtminer.pipeline import PipelineConfig, run_pipeline
from wtminer.report import atomic_write_text, report_json, summary_text, write_report_files


def _load_mapping(path: str | None) -> ColumnMapping | None:
    if path is None:
        return None
    import json  # only a mapping file needs the JSON reader

    try:
        with open(path, encoding="utf-8-sig") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read mapping file {path}: {exc}")
    except ValueError as exc:  # not UTF-8 text, or not JSON
        raise ConfigError(f"mapping file {path} is not UTF-8 JSON: {exc}")
    if not isinstance(payload, dict):
        raise ConfigError("mapping file must hold a JSON object")
    return ColumnMapping.from_dict(payload)


def _calendar_params(args: argparse.Namespace) -> CalendarParams:
    return CalendarParams(
        granule_minutes=args.granule,
        confidence=args.confidence,
        support=args.support,
    )


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig(
        thresholds=OracleThresholds(
            dependency_threshold=args.dependency_threshold,
            min_bidirectional_observations=args.min_bidirectional,
            length2_loop_guard=not args.no_loop_guard,
        ),
        batching=BatchingConfig(
            gap_tolerance=args.gap_tolerance,
            min_batch_size=args.min_batch_size,
        ),
        calendars=_calendar_params(args),
    )


def _add_log_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--log", required=True, help="CSV event log to read")
    parser.add_argument(
        "--mapping",
        help="JSON file remapping CSV column names and timestamp format",
    )


def _add_calendar_options(parser: argparse.ArgumentParser) -> None:
    defaults = CalendarParams()
    parser.add_argument(
        "--granule",
        type=int,
        default=defaults.granule_minutes,
        metavar="MINUTES",
        help="calendar slot width in minutes (default %(default)s)",
    )
    parser.add_argument(
        "--confidence",
        type=float,
        default=defaults.confidence,
        help="slot acceptance ratio against the busiest slot (default %(default)s)",
    )
    parser.add_argument(
        "--support",
        type=float,
        default=defaults.support,
        help="minimum share of observations the calendar must cover (default %(default)s)",
    )


def _cmd_analyze(args: argparse.Namespace) -> int:
    config = _pipeline_config(args)
    overrides = (
        load_calendar_overrides(args.calendar_overrides)
        if args.calendar_overrides
        else None
    )
    # Load and pipeline create no reference cycles, so the cyclic collector
    # would only re-walk their objects as they accumulate; pause it. It
    # resumes after `_analyze` has returned and reference counting has freed
    # the run, so no collection walks the finished run's objects either.
    collecting = gc.isenabled()
    gc.disable()
    try:
        _analyze(args, config, overrides)
    finally:
        if collecting:
            gc.enable()
    return 0


def _analyze(
    args: argparse.Namespace,
    config: PipelineConfig,
    overrides: dict[str, WeeklyCalendar] | None,
) -> None:
    loaded = load_log(args.log, _load_mapping(args.mapping))
    result = run_pipeline(loaded.log, config, overrides)
    paths = write_report_files(
        result,
        args.out,
        ingest_stats=loaded.stats,
        emit_calendars=args.emit_calendars,
    )
    sys.stdout.write(summary_text(result))
    sys.stdout.write(
        f"\nReport: {paths['report']}\nTransitions: {paths['transitions']}\n"
    )


def _parse_causes(raw: str) -> dict[str, bool]:
    names = [part.strip() for part in raw.split(",") if part.strip()]
    if names == ["none"]:
        return {flag: False for flag in CAUSES}
    flags = {flag: False for flag in CAUSES}
    for name in names:
        if name not in flags:
            raise ConfigError(
                f"unknown cause {name!r}; expected any of "
                f"{', '.join(CAUSES)} or 'none'"
            )
        flags[name] = True
    if not names:
        raise ConfigError("--causes must name at least one cause or 'none'")
    return flags


def _truth_path(csv_path: Path) -> Path:
    return csv_path.with_name(csv_path.stem + ".truth.json")


def _cmd_generate(args: argparse.Namespace) -> int:
    # Only this verb generates logs, so only it pays for importing `synth`.
    from wtminer.synth import InjectionSpec, generate, write_files

    if args.grid:
        out = Path(args.out or ".")
        out.mkdir(parents=True, exist_ok=True)
        for index, combo in enumerate(itertools.product("01", repeat=5)):
            bits = "".join(combo)
            spec = InjectionSpec.from_bits(
                bits, n_cases=args.cases, seed=args.seed + index
            )
            csv_path = out / f"grid_{bits}.csv"
            write_files(generate(spec), csv_path, _truth_path(csv_path))
        sys.stdout.write(f"Wrote 32 logs to {out}\n")
        return 0

    if not args.output:
        raise ConfigError("generate needs -o/--output (or --grid with --out)")
    flags = _parse_causes(args.causes)
    spec = InjectionSpec(
        n_cases=args.cases,
        seed=args.seed,
        noisy_extraneous=args.noisy,
        **flags,
    )
    csv_path = Path(args.output)
    if csv_path.parent != Path(""):
        csv_path.parent.mkdir(parents=True, exist_ok=True)
    write_files(generate(spec), csv_path, _truth_path(csv_path))
    sys.stdout.write(f"Wrote {csv_path} and {_truth_path(csv_path)}\n")
    return 0


def _cmd_calendars(args: argparse.Namespace) -> int:
    loaded = load_log(args.log, _load_mapping(args.mapping))
    calendars = discover_calendars(loaded.log, _calendar_params(args))
    payload = {
        resource: calendar_to_ranges(calendar)
        for resource, calendar in sorted(calendars.items())
    }
    text = report_json(payload)
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wtminer",
        description=(
            "Decompose waiting time in a business process event log into "
            "batching, contention, prioritization, unavailability and "
            "extraneous causes, and quantify each cause's impact on cycle "
            "time efficiency."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    thresholds = OracleThresholds()
    batching = BatchingConfig()

    analyze = sub.add_parser(
        "analyze", help="analyze a CSV event log and write reports"
    )
    _add_log_options(analyze)
    analyze.add_argument(
        "--out", required=True, help="output directory for report files"
    )
    analyze.add_argument(
        "--dependency-threshold",
        type=float,
        default=thresholds.dependency_threshold,
        help="concurrency oracle dependency threshold (default %(default)s)",
    )
    analyze.add_argument(
        "--min-bidirectional",
        type=int,
        default=thresholds.min_bidirectional_observations,
        metavar="N",
        help="observations required in each direction for concurrency (default %(default)s)",
    )
    analyze.add_argument(
        "--no-loop-guard",
        action="store_true",
        help="allow concurrency between activities that form length-2 loops",
    )
    _add_calendar_options(analyze)
    analyze.add_argument(
        "--gap-tolerance",
        type=int,
        default=batching.gap_tolerance,
        metavar="SECONDS",
        help="max idle gap between batch member starts (default %(default)s)",
    )
    analyze.add_argument(
        "--min-batch-size",
        type=int,
        default=batching.min_batch_size,
        metavar="N",
        help="smallest group reported as a batch (default %(default)s)",
    )
    analyze.add_argument(
        "--calendar-overrides",
        metavar="JSON",
        help="JSON file declaring weekly calendars that replace discovery",
    )
    analyze.add_argument(
        "--emit-calendars",
        action="store_true",
        help="include per-resource calendars in report.json",
    )
    analyze.set_defaults(handler=_cmd_analyze)

    gen = sub.add_parser(
        "generate", help="generate a synthetic log with injected wait causes"
    )
    gen.add_argument(
        "--causes",
        default="none",
        help=(
            "comma-separated causes to inject "
            f"({', '.join(CAUSES)}) or 'none'"
        ),
    )
    gen.add_argument("--cases", type=int, default=20, help="cases to generate")
    gen.add_argument("--seed", type=int, default=0, help="deterministic seed")
    gen.add_argument(
        "--noisy",
        action="store_true",
        help="make extraneous delays bleed into other causes",
    )
    gen.add_argument("-o", "--output", help="CSV path for the generated log")
    gen.add_argument(
        "--grid",
        action="store_true",
        help="write all 32 cause combinations, named by flag bitmask",
    )
    gen.add_argument("--out", help="output directory for --grid")
    gen.set_defaults(handler=_cmd_generate)

    cal = sub.add_parser(
        "calendars", help="discover resource calendars and dump them as JSON"
    )
    _add_log_options(cal)
    _add_calendar_options(cal)
    cal.add_argument("--out", help="write JSON here instead of stdout")
    cal.set_defaults(handler=_cmd_calendars)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WtMinerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
