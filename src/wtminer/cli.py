"""Command-line interface: analyze logs, generate synthetic logs, dump calendars."""
from __future__ import annotations

import argparse
import gc
import itertools
import os
import sys
from pathlib import Path

from wtminer.batching import BatchingConfig
from wtminer.calendars import (
    CalendarParams,
    calendar_to_ranges,
    discover_calendars,
    load_calendar_overrides,
)
from wtminer.concurrency import OracleThresholds
from wtminer.decomposition import CAUSES
from wtminer.ingest import ColumnMapping, LoadResult, load_log
from wtminer.model import ConfigError, WtMinerError, _read_json_object
from wtminer.pipeline import PipelineConfig, PipelineResult, run_pipeline
from wtminer.report import atomic_write_text, report_json, summary_text, write_report_files


def _load_mapping(path: str | None) -> ColumnMapping:
    if path is None:
        return ColumnMapping()
    return ColumnMapping.from_dict(_read_json_object(path, "mapping file", "hold a JSON object"))


def _calendar_params(args: argparse.Namespace) -> CalendarParams:
    return CalendarParams(args.granule, args.confidence, args.support)


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


# The last finished `analyze` run. Holding it means the `wtminer` process,
# which ends with `os._exit`, never spends time freeing it; a second `analyze`
# in the same process drops it first, so at most one run is alive at a time.
_last_run: tuple[LoadResult, PipelineResult] | None = None


def _cmd_analyze(args: argparse.Namespace) -> int:
    global _last_run
    _last_run = None
    config = _pipeline_config(args)
    overrides = (
        load_calendar_overrides(args.calendar_overrides)
        if args.calendar_overrides
        else None
    )
    loaded = load_log(args.log, _load_mapping(args.mapping))
    result = run_pipeline(loaded.log, config, overrides)
    paths = write_report_files(
        result,
        args.out,
        ingest_stats=loaded.stats,
        emit_calendars=args.emit_calendars,
    )
    _write_stdout(
        f"{summary_text(result)}\n"
        f"Report: {paths['report']}\nTransitions: {paths['transitions']}\n"
    )
    _last_run = (loaded, result)
    return 0


def _write_stdout(text: str) -> None:
    """Write `text` to stdout and flush it, so a failed write raises `OSError`
    inside the command. A closed stdout (`None`) is skipped, as `print` does."""
    stdout = sys.stdout
    if stdout is not None:
        stdout.write(text)
        stdout.flush()


def _parse_causes(raw: str) -> dict[str, bool]:
    names = [part.strip() for part in raw.split(",") if part.strip()]
    if not names:
        raise ConfigError("--causes must name at least one cause or 'none'")
    flags = {flag: False for flag in CAUSES}
    for name in names:
        if name in flags:
            flags[name] = True
        elif name != "none":
            raise ConfigError(
                f"unknown cause {name!r}; expected any of "
                f"{', '.join(CAUSES)} or 'none'"
            )
    if "none" in names and any(flags.values()):
        raise ConfigError(f"--causes cannot combine 'none' with a cause, got {raw!r}")
    return flags


def _truth_path(csv_path: Path) -> Path:
    return csv_path.with_name(csv_path.stem + ".truth.json")


def _cmd_generate(args: argparse.Namespace) -> int:
    # Only this verb generates logs, so only it pays for importing `synth`.
    from wtminer.synth import InjectionSpec, generate, write_files

    # An option that the chosen mode ignores is refused, not dropped.
    if args.grid:
        for option, given in (
            ("-o/--output", args.output is not None),
            ("--causes", args.causes is not None),
            ("--noisy", args.noisy),
        ):
            if given:
                raise ConfigError(f"generate --grid does not take {option}")
        # Every log is generated, and so checked, before any is written.
        grid = {}
        for index, combo in enumerate(itertools.product("01", repeat=5)):
            bits = "".join(combo)
            spec = InjectionSpec.from_bits(bits, n_cases=args.cases, seed=args.seed + index)
            grid[bits] = generate(spec)
        out = Path(args.out or ".")
        out.mkdir(parents=True, exist_ok=True)
        for bits, generated in grid.items():
            csv_path = out / f"grid_{bits}.csv"
            write_files(generated, csv_path, _truth_path(csv_path))
        _write_stdout(f"Wrote 32 logs to {out}\n")
        return 0
    if args.out is not None:
        raise ConfigError("generate takes --out only with --grid")
    if not args.output:
        raise ConfigError("generate needs -o/--output (or --grid with --out)")
    flags = _parse_causes("none" if args.causes is None else args.causes)
    spec = InjectionSpec(
        n_cases=args.cases,
        seed=args.seed,
        noisy_extraneous=args.noisy,
        **flags,
    )
    generated = generate(spec)
    csv_path = Path(args.output)
    if csv_path.parent != Path(""):
        csv_path.parent.mkdir(parents=True, exist_ok=True)
    write_files(generated, csv_path, _truth_path(csv_path))
    _write_stdout(f"Wrote {csv_path} and {_truth_path(csv_path)}\n")
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
        _write_stdout(text)
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
        help=(
            "max idle gap from one batch member's completion to the next "
            "member's start (default %(default)s)"
        ),
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
        help=(
            "comma-separated causes to inject "
            f"({', '.join(CAUSES)}) or 'none' (default none)"
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
    except (WtMinerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:
    """Run `main` as the `wtminer` process and end the process with its status.

    Every command has closed its output files and flushed its standard
    output by the time it returns, so interpreter finalization (a last
    collection, module teardown, freeing arenas) would change no output;
    `os._exit` skips it, and with it `atexit` handlers. A `SystemExit` or
    uncaught exception from `main` takes the normal exit path.

    The cyclic collector is off for the whole process and never turned back
    on: loading, the pipeline and the writers create no reference cycles
    (`generate`'s JSON encoder leaves a fixed few per log), so a collection
    would only re-walk objects that reference counting frees, and the
    process ends with `os._exit`.
    """
    gc.disable()
    status = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except OSError:  # the write `main` already reported as failed
                status = status or 1
    os._exit(status)


if __name__ == "__main__":
    console_entry()
